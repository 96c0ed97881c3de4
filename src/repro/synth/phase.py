"""Dual-phase technology mapping onto an inverting-cell library.

The library (like the paper's) only has NAND/NOR/XOR/XNOR/INV/BUF
cells.  A naive ``AND -> NAND + INV`` rewrite litters the netlist with
inverter pairs that real mappers never emit; SIS performs *phase
assignment*: every logic function is implemented in the polarity its
consumers actually demand, so an AND tree becomes alternating NAND/NOR
levels with inverters only at genuine phase conflicts and primary
inputs.

``phase_map`` reproduces that: a reverse-topological pass collects the
demanded phases of every signal (through wire gates), then a forward
pass implements each gate once — in its primary phase — adding a single
inverter only when both phases are demanded.
"""

from __future__ import annotations

from ..network.gatetype import (
    CONST_TYPES,
    GateType,
    WIRE_TYPES,
    base_type,
    complement_type,
    is_inverted,
)
from ..network.netlist import Network


def _resolve(
    network: Network, net: str, positive: bool
) -> tuple[str, bool]:
    """Follow INV/BUF chains; returns (source net, effective phase)."""
    while True:
        driver = network.driver(net)
        if driver is None or driver.gtype not in WIRE_TYPES:
            return net, positive
        if driver.gtype is GateType.INV:
            positive = not positive
        net = driver.fanins[0]


def _primary_phase(demanded: set[bool]) -> bool:
    """Positive wins whenever demanded (keeps PO nets on their names)."""
    return True in demanded


def _implementation(
    gtype: GateType, primary: bool
) -> tuple[GateType, bool]:
    """Cell type and fanin phase for a gate's primary implementation.

    Returns ``(cell_type, fanin_positive)``: AND in positive phase is a
    NOR of negated operands, in negative phase a NAND of positive ones,
    and dually for OR; XOR serves either phase by choosing XOR/XNOR.
    """
    base = base_type(gtype)
    base_positive = primary == (not is_inverted(gtype))
    if base is GateType.AND:
        if base_positive:
            return GateType.NOR, False
        return GateType.NAND, True
    if base is GateType.OR:
        if base_positive:
            return GateType.NAND, False
        return GateType.NOR, True
    if base is GateType.XOR:
        return (GateType.XOR if base_positive else GateType.XNOR), True
    raise ValueError(f"cannot phase-map {gtype}")


def phase_map(network: Network) -> Network:
    """Return a new network using only inverting cells + INV/BUF.

    Dead logic (gates no output transitively demands) is dropped as a
    side effect, like a mapper's sweep.
    """
    demands: dict[str, set[bool]] = {}

    def demand(net: str, positive: bool) -> None:
        source, phase = _resolve(network, net, positive)
        demands.setdefault(source, set()).add(phase)

    for po in network.outputs:
        demand(po, True)
    order = network.topo_order()
    for name in reversed(order):
        gate = network.gate(name)
        if gate.gtype in WIRE_TYPES or gate.gtype in CONST_TYPES:
            continue
        demanded = demands.get(name)
        if not demanded:
            continue
        primary = _primary_phase(demanded)
        _, fanin_positive = _implementation(gate.gtype, primary)
        for fanin in gate.fanins:
            demand(fanin, fanin_positive)

    result = Network(network.name)
    produced: dict[tuple[str, bool], str] = {}
    for pi in network.inputs:
        result.add_input(pi)
        produced[(pi, True)] = pi
    # primary inputs demanded in negative phase get a shared inverter
    for pi in network.inputs:
        if False in demands.get(pi, set()):
            inv = result.fresh_name(f"{pi}_n")
            result.add_gate(inv, GateType.INV, [pi])
            produced[(pi, False)] = inv

    def reference(net: str, positive: bool) -> str:
        source, phase = _resolve(network, net, positive)
        return produced[(source, phase)]

    for name in order:
        gate = network.gate(name)
        if gate.gtype in WIRE_TYPES:
            continue
        demanded = demands.get(name)
        if not demanded:
            continue
        if gate.gtype in CONST_TYPES:
            produced[(name, True)] = name
            value_type = gate.gtype
            result.add_gate(name, value_type, [])
            if False in demanded:
                other = result.fresh_name(f"{name}_n")
                result.add_gate(other, complement_type(value_type), [])
                produced[(name, False)] = other
            continue
        primary = _primary_phase(demanded)
        cell_type, fanin_positive = _implementation(gate.gtype, primary)
        fanins = [
            reference(fanin, fanin_positive) for fanin in gate.fanins
        ]
        result.add_gate(name, cell_type, fanins)
        produced[(name, primary)] = name
        if len(demanded) == 2:
            inv = result.fresh_name(f"{name}_n")
            result.add_gate(inv, GateType.INV, [name])
            produced[(name, not primary)] = inv
    for po in network.outputs:
        result.add_output(reference(po, True))
    return result
