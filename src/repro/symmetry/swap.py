"""Swappable-pin identification and application (Section 4 of the paper).

Two in-pins covered by the same generalized implication supergate whose
root paths do not properly contain each other are swappable (Lemma 6):

* both and-or-reachable: *non-inverting* swappable when their implied
  values agree, *inverting* swappable when they differ (Lemma 7);
* both xor-reachable: both kinds at once (Lemma 8).

Non-inverting swaps exchange the two driving nets; inverting swaps
route each driver through an inverter (Definition 3), reusing existing
inverters where possible so inverter pairs cancel.  Either way the
placement is untouched — the paper's central selling point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..network.gatetype import GateType
from ..network.netlist import Network, Pin
from ..network.transform import swap_inverting, swap_noninverting
from .supergate import SgClass, Supergate, SupergateNetwork


@dataclass(frozen=True)
class PinSwap:
    """A candidate rewiring move: exchange the drivers of two pins."""

    root: str
    pin_a: Pin
    pin_b: Pin
    inverting: bool

    def footprint(self, network: Network) -> set[str]:
        """Every net whose timing applying this swap can change.

        Non-inverting swaps touch the two driving nets and the two
        swapped gates' output nets.  Inverting swaps additionally
        involve the inverter-reuse candidates of
        :func:`~repro.network.transform.complement_net`: an existing
        inverter of either driver (its load grows) or, when the driver
        itself is an inverter, the net it taps.  Batch independence in
        the optimizer relies on this set being complete — two moves
        with disjoint footprints must not interact.
        """
        net_a = network.fanin_net(self.pin_a)
        net_b = network.fanin_net(self.pin_b)
        nets = {net_a, net_b, self.pin_a.gate, self.pin_b.gate}
        if self.inverting:
            for net in (net_a, net_b):
                driver = network.driver(net)
                if driver is not None and driver.gtype is GateType.INV:
                    nets.add(driver.fanins[0])
                for sink in network.fanout(net):
                    gate = network.gate(sink.gate)
                    if gate.gtype is GateType.INV:
                        nets.add(gate.name)
        return nets


def swap_kinds(sg: Supergate, pin_a: Pin, pin_b: Pin) -> set[str]:
    """Legal swap kinds for a pin pair: subset of {"non-inverting", "inverting"}.

    Empty when the pins are not swappable (identical pins, containment,
    or a class without swap freedom).
    """
    if pin_a == pin_b:
        return set()
    if pin_a not in sg.pin_values or pin_b not in sg.pin_values:
        return set()
    if sg.sg_class in (SgClass.CONST, SgClass.WIRE):
        return set()
    if sg.properly_contains(pin_a, pin_b):
        return set()
    if sg.sg_class is SgClass.XOR:
        return {"non-inverting", "inverting"}
    value_a = sg.pin_values[pin_a]
    value_b = sg.pin_values[pin_b]
    if value_a == value_b:
        return {"non-inverting"}
    return {"inverting"}


def enumerate_swaps(
    sg: Supergate,
    leaves_only: bool = True,
    include_inverting: bool = True,
    network: Network | None = None,
) -> Iterator[PinSwap]:
    """Yield all legal pin swaps within a supergate.

    With ``leaves_only`` (the default, what the timing optimizer uses)
    only fanin-leaf pins are paired: leaf swaps exchange *external*
    signals and leave the supergate's internal structure intact.
    Setting it ``False`` additionally yields internal-pin swaps, which
    restructure the fanout-free tree (the paper's logic-level-reduction
    move).

    With *network* given, pairs whose pins are currently driven by the
    same net are skipped: exchanging them is a no-op that callers would
    otherwise price and discard at delta 0.0.  The check reads the live
    fanins at yield time, so interleaved applies are respected.

    Ordering is deterministic and ``PYTHONHASHSEED``-independent: pins
    come from the supergate's leaf/pin lists (extraction order), never
    from set or dict-hash iteration — batched appliers rely on this.
    """
    if sg.sg_class in (SgClass.CONST, SgClass.WIRE):
        return
    if leaves_only:
        pins = [leaf.pin for leaf in sg.leaves]
    else:
        pins = sg.pins()
    for index_a in range(len(pins)):
        for index_b in range(index_a + 1, len(pins)):
            pin_a, pin_b = pins[index_a], pins[index_b]
            if network is not None and (
                network.fanin_net(pin_a) == network.fanin_net(pin_b)
            ):
                continue
            kinds = swap_kinds(sg, pin_a, pin_b)
            for kind in sorted(kinds):
                if kind == "inverting" and not include_inverting:
                    continue
                yield PinSwap(
                    root=sg.root,
                    pin_a=pin_a,
                    pin_b=pin_b,
                    inverting=(kind == "inverting"),
                )


def count_swappable_pairs(sgn: SupergateNetwork) -> dict[str, int]:
    """Census of swap freedom over a supergate network (Fig. 2 bench)."""
    counts = {"non-inverting": 0, "inverting": 0, "supergates_with_swaps": 0}
    for sg in sgn.supergates.values():
        found = False
        for swap in enumerate_swaps(sg, leaves_only=True):
            found = True
            if swap.inverting:
                counts["inverting"] += 1
            else:
                counts["non-inverting"] += 1
        if found:
            counts["supergates_with_swaps"] += 1
    return counts


def apply_swap(network: Network, swap: PinSwap) -> None:
    """Execute a swap on the network.

    The caller is responsible for re-extracting supergates afterwards
    (the move may insert inverters or restructure the covered tree).
    """
    if swap.inverting:
        swap_inverting(network, swap.pin_a, swap.pin_b)
    else:
        swap_noninverting(network, swap.pin_a, swap.pin_b)


def swapped_copy(network: Network, swap: PinSwap) -> Network:
    """Return a copy of the network with the swap applied (for what-if)."""
    trial = network.copy()
    apply_swap(trial, swap)
    return trial
