"""Technology decomposition and mapping onto the cell library.

The paper's netlists come out of SIS ``map -n 1 -AFG`` bound to a
library of INV/BUF/NAND/NOR/XOR/XNOR cells with 2-4 inputs.  This
module reproduces that pipeline:

* :func:`decompose` balances wide gates into trees that respect the
  library's maximum arities;
* :func:`map_network` runs dual-phase mapping (``repro.synth.phase``) —
  every function is implemented in the polarity its consumers demand,
  so AND/OR trees become alternating NAND/NOR levels with inverters
  only at genuine phase conflicts — then binds each gate to a drive
  strength sized against a fanout-based wire-load model
  (:func:`bind_cells`), standing in for SIS's timing-driven covering.

The mapper is deliberately local (no tree-covering DP): the rewiring
study only needs a *legal, realistic* mapped netlist — alternating
NAND/NOR trees are exactly the structures generalized implication
supergates absorb.
"""

from __future__ import annotations

from ..library.cells import Library
from ..network.gatetype import (
    CONST_TYPES,
    GateType,
    complement_type,
)
from ..network.netlist import Gate, Network, NetworkError
from ..network.transform import collapse_wire_pairs, sweep

_DECOMPOSE_BASE = {
    GateType.AND: (GateType.AND, False),
    GateType.NAND: (GateType.AND, True),
    GateType.OR: (GateType.OR, False),
    GateType.NOR: (GateType.OR, True),
    GateType.XOR: (GateType.XOR, False),
    GateType.XNOR: (GateType.XOR, True),
}


def decompose(network: Network, library: Library) -> int:
    """Split gates wider than the library supports into balanced trees.

    AND/OR chains split at the widest available NAND/NOR arity;
    XOR-class gates split at the XOR2 arity.  The *root* of each tree
    keeps the original gate's name and (inverted) type, so primary
    outputs and fanout references remain valid.  Returns the number of
    gates added.
    """
    added = 0
    for name in list(network.topo_order()):
        gate = network.gate(name)
        if gate.gtype not in _DECOMPOSE_BASE:
            continue
        base, inverted = _DECOMPOSE_BASE[gate.gtype]
        limit = _arity_limit(library, base)
        if gate.arity() <= limit:
            continue
        added += _split_gate(network, name, base, inverted, limit)
    return added


def _arity_limit(library: Library, base: GateType) -> int:
    if base is GateType.AND:
        return max(library.max_arity(GateType.NAND), 2)
    if base is GateType.OR:
        return max(library.max_arity(GateType.NOR), 2)
    return max(library.max_arity(GateType.XOR), 2)


def _split_gate(
    network: Network,
    name: str,
    base: GateType,
    inverted: bool,
    limit: int,
) -> int:
    """Rebuild gate *name* as a balanced tree of arity <= *limit*."""
    gate = network.gate(name)
    level = list(gate.fanins)
    added = 0
    while len(level) > limit:
        grouped: list[str] = []
        for start in range(0, len(level), limit):
            chunk = level[start:start + limit]
            if len(chunk) == 1:
                grouped.append(chunk[0])
                continue
            inner = network.fresh_name(f"{name}_d")
            network.add_gate(inner, base, chunk)
            added += 1
            grouped.append(inner)
        level = grouped
    network.set_fanins(name, level)
    root_type = complement_type(base) if inverted else base
    network.set_gate_type(name, root_type)
    return added


def map_network(network: Network, library: Library) -> Network:
    """Map a generic network in place onto the library's cell functions.

    Wide gates are decomposed to library arities, then dual-phase
    mapping (``repro.synth.phase``) implements every function with
    NAND/NOR/XOR/XNOR cells, inverters appearing only at true phase
    conflicts.  After this pass every gate carries a bound ``cell``.
    """
    from .phase import phase_map

    decompose(network, library)
    mapped = phase_map(network)
    network.adopt(mapped)
    collapse_wire_pairs(network)
    sweep(network)
    bind_cells(network, library)
    return network


def bind_cells(network: Network, library: Library) -> None:
    """Bind every mapped gate to a wire-load-model-sized drive strength.

    Mirrors the paper's timing-driven mapping (``map -n 1 -AFG``): with
    no placement yet, each net's capacitance is estimated from a
    fanout-based wire-load model, and the cheapest drive strength that
    balances self delay against the input-capacitance burden on the
    upstream stage is chosen (a one-step logical-effort argument).
    The mapped netlist is therefore *already well sized for the
    estimated loads* — exactly the paper's premise — and the
    post-placement optimizers only harvest the gap between wire-load
    estimates and real placed wires.
    """
    from ..library.cells import UNIT_WIRE_CAP_PER_UM

    implementations_cache: dict[tuple, list] = {}

    def implementations_of(gate: Gate) -> list:
        key = (gate.gtype, gate.arity())
        cells = implementations_cache.get(key)
        if cells is None:
            cells = library.implementations(*key)
            if not cells:
                raise NetworkError(
                    f"no {gate.gtype.name}{gate.arity()} cell for "
                    f"{gate.name!r}"
                )
            implementations_cache[key] = cells
        return cells

    # pass 1: estimate the die from mid-strength areas
    total_area = 0.0
    for gate in network.gates():
        if gate.gtype in CONST_TYPES:
            continue
        if gate.gtype in (GateType.AND, GateType.OR):
            raise NetworkError(
                f"gate {gate.name!r} is unmapped {gate.gtype.name}"
            )
        total_area += library.default_cell(gate.gtype, gate.arity()).area
    die_side = max((total_area / 0.60) ** 0.5, 50.0)

    # the upstream-burden weight: a typical mid-strength drive resistance
    upstream_resistance = 1.5

    # pass 2: choose sizes against the wire-load model
    for gate in network.gates():
        if gate.gtype in CONST_TYPES:
            gate.cell = None
            continue
        cells = implementations_of(gate)
        pins = network.fanout(gate.name)
        pads = len(network.output_slots(gate.name))
        fanout = max(len(pins) + pads, 1)
        wlm_length = 0.28 * die_side * (fanout ** 0.5)
        load = wlm_length * UNIT_WIRE_CAP_PER_UM + 0.05 * pads
        for pin in pins:
            sink = network.gate(pin.gate)
            load += library.default_cell(sink.gtype, sink.arity()).input_cap
        best = None
        best_cost = float("inf")
        for cell in cells:
            self_delay = max(
                cell.rise_intrinsic + cell.rise_resistance * load,
                cell.fall_intrinsic + cell.fall_resistance * load,
            )
            upstream = upstream_resistance * cell.input_cap * gate.arity()
            cost = self_delay + upstream
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = cell
        gate.cell = best.name


def network_area(network: Network, library: Library) -> float:
    """Total cell area (um^2) of a mapped network (Table 1 columns 10-11)."""
    total = 0.0
    for gate in network.gates():
        if gate.cell is not None:
            total += library.cell(gate.cell).area
    return total

