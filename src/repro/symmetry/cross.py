"""Cross-supergate swapping (Section 4.2: Definition 4 and Theorem 2).

When the outputs of two and-or supergates ``SG1`` and ``SG2`` with the
same number of fanins are symmetric — i.e. they feed swappable pins of
a common parent supergate — the *fanin groups* of the two supergates
can be exchanged under DeMorgan transformation.  The physical gates of
both supergates stay exactly where the placer put them; only input
wires (and possibly polarity inverters) move.

Implementation note: the canonical form of an and-or supergate is
"root equals ``root_value`` iff every leaf equals its ``imp_value``",
i.e. an AND of leaf literals, complemented when ``root_value`` is 0.
Re-binding the leaves of ``SG1`` to the nets that fed ``SG2`` (with an
inverter wherever the two leaf polarities disagree) therefore makes
``SG1`` compute exactly ``SG2``'s old function when the two root
polarities agree — the inverter-cancelled residue of applying
Definition 4 to both supergates.  When the polarities disagree, output
inverters restore the balance; which combination is legal follows from
whether the parent pins are non-inverting or inverting swappable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.gatetype import GateType
from ..network.netlist import Network, Pin
from .supergate import SgClass, Supergate, SupergateNetwork
from .swap import swap_kinds


@dataclass(frozen=True)
class CrossSwap:
    """A candidate fanin-group exchange between two supergates."""

    parent_root: str
    parent_pin_a: Pin
    parent_pin_b: Pin
    sg1_root: str
    sg2_root: str
    needs_output_inverters: bool


def find_cross_swaps(sgn: SupergateNetwork) -> list[CrossSwap]:
    """Enumerate legal cross-supergate fanin-group exchanges.

    Conditions (Theorem 2 plus implementation safety):

    * both candidate supergates are and-or class with equal leaf counts;
    * their roots each drive exactly one pin (rebinding a root that
      fans out elsewhere would corrupt the other consumers);
    * those pins belong to the same parent supergate and are swappable
      there (the "outputs are symmetric" premise).
    """
    network = sgn.network
    swaps: list[CrossSwap] = []
    # root-name order, not dict insertion order: a refreshed cache and
    # a fresh extraction insert supergates differently, and the swap
    # enumeration order must be a function of the netlist alone so a
    # checkpoint-resumed run enumerates identically (see
    # SupergateNetwork.nontrivial)
    for root in sorted(sgn.supergates):
        parent = sgn.supergates[root]
        if parent.sg_class in (SgClass.CONST, SgClass.WIRE):
            continue
        candidates: list[tuple[Pin, Supergate]] = []
        for leaf in parent.leaves:
            child = sgn.supergates.get(leaf.net)
            if child is None or child.sg_class is not SgClass.ANDOR:
                continue
            if network.fanout_degree(leaf.net) != 1:
                continue
            candidates.append((leaf.pin, child))
        for index_a in range(len(candidates)):
            for index_b in range(index_a + 1, len(candidates)):
                pin_a, sg1 = candidates[index_a]
                pin_b, sg2 = candidates[index_b]
                if sg1.num_inputs != sg2.num_inputs or sg1.num_inputs == 0:
                    continue
                kinds = swap_kinds(parent, pin_a, pin_b)
                if not kinds:
                    continue
                same_polarity = sg1.root_value == sg2.root_value
                if same_polarity and "non-inverting" in kinds:
                    needs_inv = False
                elif not same_polarity and "inverting" in kinds:
                    needs_inv = False
                else:
                    needs_inv = True
                swaps.append(
                    CrossSwap(
                        parent_root=parent.root,
                        parent_pin_a=pin_a,
                        parent_pin_b=pin_b,
                        sg1_root=sg1.root,
                        sg2_root=sg2.root,
                        needs_output_inverters=needs_inv,
                    )
                )
    return swaps


def cross_swap_bindings(
    sgn: SupergateNetwork, cross: CrossSwap
) -> list[tuple[Pin, str]] | None:
    """The exact pin rebinds an *inverter-free* cross swap would apply.

    Returns ``None`` when the exchange needs any polarity or output
    inverter (mismatched leaf pairs, or
    :attr:`CrossSwap.needs_output_inverters`) — those add cells, which
    wirelength-only rewiring never wants.  For the pure case the
    returned ``(pin, new_net)`` list is precisely what
    :func:`apply_cross_swap` will execute, so callers can price the
    move footprint-only (no mutation, no changes) and trust the apply
    to match.
    """
    if cross.needs_output_inverters:
        return None
    sg1 = sgn.supergates[cross.sg1_root]
    sg2 = sgn.supergates[cross.sg2_root]
    bindings: list[tuple[Pin, str]] = []
    for leaf1, leaf2 in _pair_leaves(sg1, sg2):
        if leaf1.imp_value != leaf2.imp_value:
            return None
        bindings.append((leaf1.pin, leaf2.net))
        bindings.append((leaf2.pin, leaf1.net))
    return bindings


def apply_cross_swap(
    network: Network, sgn: SupergateNetwork, cross: CrossSwap
) -> None:
    """Exchange the fanin groups of the two supergates of *cross*.

    Leaves are paired so that equal-polarity pairs dominate (minimizing
    inserted inverters); mismatched pairs receive a polarity inverter.
    When :attr:`CrossSwap.needs_output_inverters` is set, an inverter is
    also inserted between each root and its parent pin.  The caller
    must re-extract supergates afterwards.
    """
    sg1 = sgn.supergates[cross.sg1_root]
    sg2 = sgn.supergates[cross.sg2_root]
    pairs = _pair_leaves(sg1, sg2)
    bindings: list[tuple[Pin, str, bool]] = []
    for leaf1, leaf2 in pairs:
        mismatch = leaf1.imp_value != leaf2.imp_value
        bindings.append((leaf1.pin, leaf2.net, mismatch))
        bindings.append((leaf2.pin, leaf1.net, mismatch))
    for pin, net, invert in bindings:
        if invert:
            _bind_inverted(network, pin, net)
        else:
            network.replace_fanin(pin, net)
    if cross.needs_output_inverters:
        for root, parent_pin in (
            (cross.sg1_root, cross.parent_pin_a),
            (cross.sg2_root, cross.parent_pin_b),
        ):
            cap = network.fresh_name(f"{root}_xinv")
            network.add_gate(cap, GateType.INV, [root])
            network.replace_fanin(parent_pin, cap)


def _pair_leaves(sg1: Supergate, sg2: Supergate):
    """Pair leaves of the two supergates, matching polarities greedily."""
    ones1 = [leaf for leaf in sg1.leaves if leaf.imp_value == 1]
    zeros1 = [leaf for leaf in sg1.leaves if leaf.imp_value != 1]
    ones2 = [leaf for leaf in sg2.leaves if leaf.imp_value == 1]
    zeros2 = [leaf for leaf in sg2.leaves if leaf.imp_value != 1]
    pairs = []
    while ones1 and ones2:
        pairs.append((ones1.pop(), ones2.pop()))
    while zeros1 and zeros2:
        pairs.append((zeros1.pop(), zeros2.pop()))
    rest1 = ones1 + zeros1
    rest2 = ones2 + zeros2
    pairs.extend(zip(rest1, rest2))
    return pairs


def _bind_inverted(network: Network, pin: Pin, net: str) -> None:
    """Connect the complement of *net* to *pin* with a fresh inverter.

    Unlike :func:`repro.network.transform.complement_net` this never
    reuses a sibling inverter: during a cross swap other pins are being
    rebound concurrently, so sharing could alias a gate whose own input
    is about to change.  Tapping the input of the *driving* inverter is
    safe (drivers are never rebound) and keeps inverter chains short.
    """
    driver = network.driver(net)
    if driver is not None and driver.gtype is GateType.INV:
        network.replace_fanin(pin, driver.fanins[0])
        return
    inv = network.fresh_name(f"{net}_xb")
    network.add_gate(inv, GateType.INV, [net])
    network.replace_fanin(pin, inv)
