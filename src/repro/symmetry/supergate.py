"""Generalized implication supergate (GISG) extraction — Definition 2.

The network is processed in reverse topological order.  Every gate not
yet covered becomes the root of a new supergate, which is grown by
direct backward implication (and-or class) or xor propagation (xor
class) through *fanout-free* gates.  Growth stops at multi-fanout nets,
primary inputs, constants and gates whose output value is not forcing;
the stopping pins are the supergate's fanin *leaves*.  The result is
the unique partition of the netlist into AND, OR and XOR supergates
with inverters and buffers absorbed at their pins that the paper calls
the *supergate network*.

The extraction is linear in network size: every gate is covered exactly
once and every pin visited a constant number of times — this is the
paper's Section 3 headline claim, benchmarked in
``benchmarks/bench_linear_scaling.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..network.gatetype import (
    CONST_TYPES,
    GateType,
    WIRE_TYPES,
    base_type,
    eval_gate,
    forced_input_value,
    forcing_output_value,
)
from ..network.netlist import Network, Pin
from ..logic.implication import implies_inputs


class SgClass(enum.Enum):
    """Functional class of a supergate."""

    ANDOR = "and-or"
    XOR = "xor"
    WIRE = "wire"
    CONST = "const"


#: The ``parent_pin`` of every supergate covering one gate: shared, so
#: never written (supergates are immutable after extraction).
_NO_PARENTS: dict[str, Pin] = {}


@dataclass(frozen=True, slots=True)
class SgLeaf:
    """A fanin leaf of a supergate.

    ``pin`` is the in-pin where growth stopped, ``net`` the external net
    driving it, ``imp_value`` the value implied at the pin during
    backward implication (``None`` for xor-class supergates, which have
    no implied values), and ``depth`` the number of covered gates on the
    path from the pin to the root (1 = pin of the root itself).
    """

    pin: Pin
    net: str
    imp_value: int | None
    depth: int


@dataclass(slots=True)
class Supergate:
    """One generalized implication supergate.

    ``covered`` lists the covered gate names, root first.  ``root_value``
    is the out-pin value of the root under the forcing assignment
    (and-or class only): when the root net carries ``root_value``, every
    covered pin carries its ``imp_value``.  ``pin_values`` maps *every*
    in-pin of every covered gate to its implied value; ``leaves`` is the
    boundary subset.  ``parent_pin`` records, for each covered non-root
    gate, the in-pin its output feeds — the tree edge used to compute
    root paths for the proper-containment test of Lemma 6; every
    supergate covering one gate shares one empty ``parent_pin``.
    Supergates and their leaves are slotted: an extraction holds one
    supergate per root and one leaf per boundary pin.
    """

    root: str
    sg_class: SgClass
    root_value: int | None
    covered: list[str]
    leaves: list[SgLeaf]
    pin_values: dict[Pin, int | None]
    parent_pin: dict[str, Pin]

    @property
    def is_trivial(self) -> bool:
        """True when the supergate covers a single gate (paper Section 3.2)."""
        return len(self.covered) <= 1

    @property
    def num_inputs(self) -> int:
        """Number of fanin leaves (column ``L`` reports the maximum)."""
        return len(self.leaves)

    def pins(self) -> list[Pin]:
        """All covered in-pins, usable as swap endpoints."""
        return list(self.pin_values.keys())

    def root_path(self, pin: Pin) -> list[Pin]:
        """Pins on the path from *pin* up to (a pin of) the root.

        The first element is *pin* itself; subsequent elements are the
        in-pins each intermediate covered gate drives.  ``(a -> p)`` of
        the paper.
        """
        if pin not in self.pin_values:
            raise KeyError(f"{pin} is not covered by supergate {self.root}")
        path = [pin]
        current_gate = pin.gate
        while current_gate != self.root:
            parent = self.parent_pin[current_gate]
            path.append(parent)
            current_gate = parent.gate
        return path

    def properly_contains(self, pin_a: Pin, pin_b: Pin) -> bool:
        """True when one pin's root path properly contains the other's."""
        if pin_a == pin_b:
            return False
        return pin_b in self.root_path(pin_a) or pin_a in self.root_path(pin_b)


@dataclass
class SupergateNetwork:
    """The supergate partition of a network (Definition 2's by-product)."""

    network: Network
    supergates: dict[str, Supergate]
    owner: dict[str, str]

    def nontrivial(self) -> list[Supergate]:
        """Supergates covering more than one gate, in root-name order.

        The order is canonical on purpose: dict insertion order differs
        between a fresh extraction and an incrementally refreshed cache
        (regrown supergates append at the end), and downstream site
        enumeration derives trajectory-relevant ordering from this
        list.  Sorting by root makes the trajectory a function of the
        netlist alone — a requirement for checkpoint resume, which
        re-extracts from scratch.
        """
        return sorted(
            (sg for sg in self.supergates.values() if not sg.is_trivial),
            key=lambda sg: sg.root,
        )

    def coverage(self) -> float:
        """Fraction of gates covered by non-trivial supergates (column 12)."""
        total = len(self.network)
        if total == 0:
            return 0.0
        covered = sum(
            len(sg.covered) for sg in self.supergates.values()
            if not sg.is_trivial
        )
        return covered / total

    def max_supergate_inputs(self) -> int:
        """Largest number of leaves over all supergates (column ``L``)."""
        return max(
            (sg.num_inputs for sg in self.supergates.values()), default=0
        )

    def stats(self) -> dict[str, float]:
        """Summary statistics for reports and Table 1."""
        by_class: dict[str, int] = {}
        for sg in self.supergates.values():
            by_class[sg.sg_class.value] = by_class.get(sg.sg_class.value, 0) + 1
        return {
            "supergates": len(self.supergates),
            "nontrivial": len(self.nontrivial()),
            "coverage": self.coverage(),
            "max_inputs": self.max_supergate_inputs(),
            **{f"class_{key}": val for key, val in sorted(by_class.items())},
        }


def extract_supergates(network: Network) -> SupergateNetwork:
    """Partition *network* into generalized implication supergates.

    Gates are processed in reverse topological order; every gate not
    covered by an earlier supergate roots a new one (primary outputs and
    multi-fanout stems always end up as roots because coverage never
    crosses them).
    """
    owner: dict[str, str] = {}
    supergates: dict[str, Supergate] = {}
    for name in reversed(network.topo_order()):
        if name in owner:
            continue
        sg = grow_supergate(network, name)
        for covered_name in sg.covered:
            owner[covered_name] = name
        supergates[name] = sg
    return SupergateNetwork(
        network=network,
        supergates=supergates,
        owner=owner,
    )


def grow_supergate(network: Network, root: str) -> Supergate:
    """Grow the maximal supergate rooted at gate *root*."""
    root_gate = network.gate(root)
    if root_gate.gtype in CONST_TYPES:
        return Supergate(
            root=root,
            sg_class=SgClass.CONST,
            root_value=1 if root_gate.gtype is GateType.CONST1 else 0,
            covered=[root],
            leaves=[],
            pin_values={},
            parent_pin=_NO_PARENTS,
        )
    covered = [root]
    parent_pin: dict[str, Pin] = {}
    # Phase A: absorb the fanout-free wire chain hanging off the root and
    # locate the first logic gate ("core") that fixes the class.
    chain: list[str] = []
    current = root
    core: str | None = None
    while True:
        gate = network.gate(current)
        if gate.gtype not in WIRE_TYPES:
            core = current
            break
        chain.append(current)
        net = gate.fanins[0]
        driver = network.driver(net)
        if (
            driver is None
            or driver.gtype in CONST_TYPES
            or network.fanout_degree(net) > 1
        ):
            break  # wire-only supergate
        covered.append(driver.name)
        parent_pin[driver.name] = Pin(current, 0)
        current = driver.name
    if core is None:
        return _wire_supergate(network, root, chain, parent_pin)
    core_gate = network.gate(core)
    if base_type(core_gate.gtype) is GateType.XOR:
        return _grow_xor(network, root, covered, parent_pin, core)
    return _grow_andor(network, root, covered, parent_pin, chain, core)


def _wire_supergate(
    network: Network,
    root: str,
    chain: list[str],
    parent_pin: dict[str, Pin],
) -> Supergate:
    """A chain of INV/BUF gates ending at a stem, constant or PI."""
    # Convention: root_value = 1; pin values follow the chain polarity.
    pin_values: dict[Pin, int | None] = {}
    value = 1
    for name in chain:
        gate = network.gate(name)
        if gate.gtype is GateType.INV:
            value = 1 - value
        pin_values[Pin(name, 0)] = value
    last = chain[-1]
    leaf_pin = Pin(last, 0)
    leaf = SgLeaf(
        pin=leaf_pin,
        net=network.gate(last).fanins[0],
        imp_value=pin_values[leaf_pin],
        depth=len(chain),
    )
    return Supergate(
        root=root,
        sg_class=SgClass.WIRE,
        root_value=1,
        covered=list(chain),
        leaves=[leaf],
        pin_values=pin_values,
        parent_pin=parent_pin or _NO_PARENTS,
    )


def _grow_andor(
    network: Network,
    root: str,
    covered: list[str],
    parent_pin: dict[str, Pin],
    chain: list[str],
    core: str,
) -> Supergate:
    core_gate = network.gate(core)
    core_out = forcing_output_value(core_gate.gtype)
    # Pin values along the wire chain: the core's out-pin value seen
    # through each wire gate (walk the chain bottom-up).
    pin_values: dict[Pin, int | None] = {}
    value = core_out
    for name in reversed(chain):
        pin_values[Pin(name, 0)] = value
        gate = network.gate(name)
        value = eval_gate(gate.gtype, [value], mask=1)
    root_value = value  # out-pin value at the root under the forcing assignment
    leaves: list[SgLeaf] = []
    seed = forced_input_value(core_gate.gtype)
    depth0 = len(chain) + 1
    stack: list[tuple[Pin, int, int]] = [
        (Pin(core, index), seed, depth0)
        for index in range(core_gate.arity())
    ]
    while stack:
        pin, pin_value, depth = stack.pop()
        pin_values[pin] = pin_value
        net = network.fanin_net(pin)
        driver = network.driver(net)
        stop = (
            driver is None
            or driver.gtype in CONST_TYPES
            or network.fanout_degree(net) > 1
        )
        forced = None if stop else implies_inputs(driver.gtype, pin_value)
        if stop or forced is None:
            leaves.append(
                SgLeaf(pin=pin, net=net, imp_value=pin_value, depth=depth)
            )
            continue
        covered.append(driver.name)
        parent_pin[driver.name] = pin
        for index in range(driver.arity()):
            stack.append((Pin(driver.name, index), forced, depth + 1))
    return Supergate(
        root=root,
        sg_class=SgClass.ANDOR,
        root_value=root_value,
        covered=covered,
        leaves=leaves,
        pin_values=pin_values,
        parent_pin=parent_pin or _NO_PARENTS,
    )


def _grow_xor(
    network: Network,
    root: str,
    covered: list[str],
    parent_pin: dict[str, Pin],
    core: str,
) -> Supergate:
    from ..network.gatetype import XOR_TYPES

    pin_values: dict[Pin, int | None] = {}
    for name in covered:
        if name == core:
            continue
        gate = network.gate(name)
        for index in range(gate.arity()):
            pin_values[Pin(name, index)] = None
    leaves: list[SgLeaf] = []
    allowed = XOR_TYPES | WIRE_TYPES
    core_gate = network.gate(core)
    depth0 = len(covered)  # root + wire chain gates traversed so far
    stack: list[tuple[Pin, int]] = [
        (Pin(core, index), depth0) for index in range(core_gate.arity())
    ]
    while stack:
        pin, depth = stack.pop()
        pin_values[pin] = None
        net = network.fanin_net(pin)
        driver = network.driver(net)
        stop = (
            driver is None
            or driver.gtype in CONST_TYPES
            or network.fanout_degree(net) > 1
            or driver.gtype not in allowed
        )
        if stop:
            leaves.append(
                SgLeaf(pin=pin, net=net, imp_value=None, depth=depth)
            )
            continue
        covered.append(driver.name)
        parent_pin[driver.name] = pin
        for index in range(driver.arity()):
            stack.append((Pin(driver.name, index), depth + 1))
    return Supergate(
        root=root,
        sg_class=SgClass.XOR,
        root_value=None,
        covered=covered,
        leaves=leaves,
        pin_values=pin_values,
        parent_pin=parent_pin or _NO_PARENTS,
    )
