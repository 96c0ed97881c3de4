"""Definition-level reachability predicates (Definition 1 of the paper).

``pi`` is *and-or-reachable* from gate ``gj`` if ``pi`` can be inferred
a logic value by direct backward implication when ``gj``'s out-pin is
set to the value produced with every input non-controlling (``ncv`` in
the paper's AND/OR/XOR/INV/BUF type system; generalized here to the
inverted types via :func:`forcing_output_value`).  ``pi`` is
*xor-reachable* from ``gj`` if every gate on the path from ``gj`` down
to ``pi`` — including ``gj`` — is XOR, XNOR, INV or BUF.

Both predicates are evaluated over *fanout-free* paths: descent stops
at multi-fanout nets, exactly like supergate growth.  These standalone
implementations deliberately mirror the definitions rather than the
extraction code so the two can cross-validate each other (Theorem 1).
No flow runs them: they live with the tests as an oracle.
"""

from __future__ import annotations

from repro.network.gatetype import (
    CONST_TYPES,
    GateType,
    WIRE_TYPES,
    XOR_TYPES,
    base_type,
    eval_gate,
    forcing_output_value,
)
from repro.network.netlist import Network, Pin
from repro.logic.implication import implies_inputs


def _root_forcing_value(network: Network, root: str) -> int | None:
    """Out-pin value at *root* under the forcing assignment.

    Descends the fanout-free wire chain below *root* to the first
    logic gate (the core); when the core is and-or class, its forcing
    output value is propagated back up through the wire chain to the
    root.  ``None`` when the core is XOR-class or the chain dead-ends
    before reaching logic.
    """
    chain: list[GateType] = []
    current = root
    while True:
        gate = network.gate(current)
        if gate.gtype not in WIRE_TYPES:
            if base_type(gate.gtype) is GateType.XOR:
                return None
            value = forcing_output_value(gate.gtype)
            if value is None:
                return None
            for wire_type in reversed(chain):
                value = eval_gate(wire_type, [value], mask=1)
            return value
        chain.append(gate.gtype)
        net = gate.fanins[0]
        driver = network.driver(net)
        if (
            driver is None
            or driver.gtype in CONST_TYPES
            or network.fanout_degree(net) > 1
        ):
            return None
        current = driver.name


def and_or_implied_value(
    network: Network, pin: Pin, root: str
) -> int | None:
    """Implied value at *pin* when *root* takes its forcing value.

    Returns ``None`` when *pin* is not and-or-reachable from *root*
    along fanout-free paths.  This is ``imp_value(p)`` of the paper.
    """
    value = _root_forcing_value(network, root)
    if value is None:
        return None
    frontier: list[tuple[str, int]] = [(root, value)]
    while frontier:
        name, out_value = frontier.pop()
        gate = network.gate(name)
        forced = implies_inputs(gate.gtype, out_value)
        if forced is None:
            continue
        for index, fanin in enumerate(gate.fanins):
            if Pin(name, index) == pin:
                return forced
            driver = network.driver(fanin)
            if (
                driver is None
                or driver.gtype in CONST_TYPES
                or network.fanout_degree(fanin) > 1
            ):
                continue
            frontier.append((driver.name, forced))
    return None


def and_or_reachable(network: Network, pin: Pin, root: str) -> bool:
    """True when *pin* is and-or-reachable from *root* (Definition 1)."""
    return and_or_implied_value(network, pin, root) is not None


def xor_reachable(network: Network, pin: Pin, root: str) -> bool:
    """True when *pin* sits in *root*'s xor-class region.

    Every gate on the path from *root* down to *pin* must be XOR, XNOR,
    INV or BUF (Definition 1) *and* the region must actually contain an
    XOR-class gate: a pure INV/BUF chain has no class of its own — it
    adopts the class of the first logic gate below it, exactly as
    supergate growth does.  This keeps the two reachability kinds
    mutually exclusive.
    """
    allowed = XOR_TYPES | WIRE_TYPES
    # descend the wire chain; pins on it belong to the core's class
    chain_pins: list[Pin] = []
    current = root
    while True:
        gate = network.gate(current)
        if gate.gtype not in WIRE_TYPES:
            core = current
            break
        chain_pins.append(Pin(current, 0))
        net = gate.fanins[0]
        driver = network.driver(net)
        if (
            driver is None
            or driver.gtype in CONST_TYPES
            or network.fanout_degree(net) > 1
        ):
            return False  # wire-only region: neither class
        current = driver.name
    if base_type(network.gate(core).gtype) is not GateType.XOR:
        return False
    if pin in chain_pins:
        return True
    frontier = [core]
    while frontier:
        name = frontier.pop()
        gate = network.gate(name)
        if gate.gtype not in allowed:
            continue
        for index, fanin in enumerate(gate.fanins):
            if Pin(name, index) == pin:
                return True
            driver = network.driver(fanin)
            if (
                driver is None
                or driver.gtype in CONST_TYPES
                or network.fanout_degree(fanin) > 1
            ):
                continue
            frontier.append(driver.name)
    return False


def reachability_class(
    network: Network, pin: Pin, root: str
) -> str:
    """Classify *pin* against *root*: ``"and-or"``, ``"xor"`` or ``"none"``.

    The two reachability kinds are mutually exclusive (the paper notes
    this follows from XOR having no controlling value); the test suite
    asserts the exclusivity on random networks.
    """
    if and_or_reachable(network, pin, root):
        return "and-or"
    if xor_reachable(network, pin, root):
        return "xor"
    return "none"
