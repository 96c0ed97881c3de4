"""Wirelength-driven placer: recursive FM bisection plus legalization.

Substitute for the paper's "commercial timing-driven placer".  The
pipeline is the classic late-90s recipe:

1. recursive min-cut bisection of the cell hypergraph (FM refinement at
   every level, alternating cut directions) assigns every cell a die
   region;
2. region-ordered legalization packs cells into standard-cell rows;
3. an optional low-temperature annealing pass polishes HPWL with
   pairwise swaps (seeded, deterministic).

Every net weighs the same in the cut: timing enters the flow after
placement, through sizing and rewiring.
"""

from __future__ import annotations

import math
import random

from ..library.cells import Library, ROW_HEIGHT_UM
from ..network.netlist import Network
from .fm import bipartition
from .hpwl import WirelengthEngine
from .placement import Placement, die_for


def place(
    network: Network,
    library: Library,
    seed: int = 0,
    anneal_moves: int = 0,
) -> Placement:
    """Place a mapped network; returns coordinates for every gate.

    ``anneal_moves`` > 0 enables the annealing polish with that move
    budget.  The Table 1 flow anneals 40 moves per gate, capped at
    120,000, for its final placement and half that for the presize
    proxy placement (``suite/flow.py``).
    """
    die_width, die_height = die_for(network, library)
    placement = Placement(die_width=die_width, die_height=die_height)
    _place_pads(network, placement)
    names = list(network.gate_names())
    if not names:
        return placement
    regions = _recursive_bisect(network, library, names, seed)
    _legalize(network, library, placement, names, regions)
    if anneal_moves > 0:
        _anneal(network, placement, seed=seed, moves=anneal_moves)
    return placement


def _place_pads(network: Network, placement: Placement) -> None:
    """Input pads on the left/top edge, output pads on the right edge."""
    width, height = placement.die_width, placement.die_height
    num_inputs = max(len(network.inputs), 1)
    for index, net in enumerate(network.inputs):
        fraction = (index + 0.5) / num_inputs
        if fraction < 0.75:
            placement.input_pads[net] = (0.0, height * fraction / 0.75)
        else:
            placement.input_pads[net] = (
                width * (fraction - 0.75) / 0.25, height,
            )
    num_outputs = max(len(network.outputs), 1)
    for index in range(len(network.outputs)):
        fraction = (index + 0.5) / num_outputs
        placement.output_pads[index] = (width, height * fraction)


def _recursive_bisect(
    network: Network,
    library: Library,
    names: list[str],
    seed: int,
) -> dict[str, tuple[float, float]]:
    """Assign every gate a normalized (x, y) region center in [0, 1]^2."""
    index_of = {name: i for i, name in enumerate(names)}
    weights = []
    for name in names:
        gate = network.gate(name)
        if gate.cell is not None:
            weights.append(library.cell(gate.cell).area)
        else:
            weights.append(ROW_HEIGHT_UM)
    edges: list[list[int]] = []
    for net in network.nets():
        members = {index_of[pin.gate] for pin in network.fanout(net)}
        if net in index_of:
            members.add(index_of[net])
        if len(members) > 1:
            edges.append(sorted(members))
    cell_edges: list[list[int]] = [[] for _ in names]
    for edge_id, edge in enumerate(edges):
        for cell in edge:
            cell_edges[cell].append(edge_id)

    regions: dict[str, tuple[float, float]] = {}

    def split(
        cell_ids: list[int],
        x0: float, y0: float, x1: float, y1: float,
        vertical: bool,
        level: int,
    ) -> None:
        if len(cell_ids) <= 4 or level > 24:
            for rank, cell_id in enumerate(sorted(cell_ids)):
                offset = (rank + 0.5) / max(len(cell_ids), 1)
                regions[names[cell_id]] = (
                    x0 + (x1 - x0) * offset,
                    (y0 + y1) / 2.0,
                )
            return
        local_index = {cell: i for i, cell in enumerate(cell_ids)}
        # only edges touching this split, in global edge order
        touched = sorted({
            edge_id for cell in cell_ids for edge_id in cell_edges[cell]
        })
        local_nets = []
        for edge_id in touched:
            local = [
                local_index[c] for c in edges[edge_id]
                if c in local_index
            ]
            if len(local) > 1:
                local_nets.append(local)
        local_weights = [weights[c] for c in cell_ids]
        result = bipartition(
            len(cell_ids), local_nets, local_weights,
            seed=seed + level * 7919 + len(cell_ids),
        )
        left = [c for c, s in zip(cell_ids, result.side) if s == 0]
        right = [c for c, s in zip(cell_ids, result.side) if s == 1]
        if not left or not right:
            half = len(cell_ids) // 2
            left, right = cell_ids[:half], cell_ids[half:]
        if vertical:
            xm = (x0 + x1) / 2.0
            split(left, x0, y0, xm, y1, False, level + 1)
            split(right, xm, y0, x1, y1, False, level + 1)
        else:
            ym = (y0 + y1) / 2.0
            split(left, x0, y0, x1, ym, True, level + 1)
            split(right, x0, ym, x1, y1, True, level + 1)

    split(list(range(len(names))), 0.0, 0.0, 1.0, 1.0, True, 0)
    return regions


def _legalize(
    network: Network,
    library: Library,
    placement: Placement,
    names: list[str],
    regions: dict[str, tuple[float, float]],
) -> None:
    """Pack cells into rows following their region assignment."""
    num_rows = max(2, int(placement.die_height / ROW_HEIGHT_UM))
    rows: list[list[str]] = [[] for _ in range(num_rows)]
    for name in names:
        rx, ry = regions[name]
        row = min(num_rows - 1, int(ry * num_rows))
        rows[row].append(name)
    for row_index, row in enumerate(rows):
        row.sort(key=lambda name: regions[name][0])
        y = (row_index + 0.5) * ROW_HEIGHT_UM
        widths = []
        for name in row:
            gate = network.gate(name)
            if gate.cell is not None:
                widths.append(library.cell(gate.cell).width)
            else:
                widths.append(1.0)
        used = sum(widths)
        # pack tightly (small routing gap), centering the row block:
        # spreading cells across all whitespace would triple wirelength
        gap = min(
            2.0,
            max(0.0, (placement.die_width - used) / (len(row) + 1)),
        )
        block = used + gap * (len(row) + 1)
        x = max(0.0, (placement.die_width - block) / 2.0) + gap
        for name, width in zip(row, widths):
            # clamp overfull rows to the die; slight overlap is an
            # accepted abstraction (the timing model only needs
            # coordinates, not DRC-clean rows)
            center = min(x + width / 2.0, placement.die_width)
            placement.set_location(name, center, y)
            x += width + gap


def _anneal(
    network: Network,
    placement: Placement,
    seed: int,
    moves: int,
) -> None:
    """Low-temperature pairwise-swap polish of the legal placement.

    Every move is priced by :meth:`WirelengthEngine.cell_swap_delta`
    and an accepted one is committed by
    :meth:`WirelengthEngine.swap_cells`.
    """
    rng = random.Random(seed)
    names = list(network.gate_names())
    if len(names) < 2:
        return
    engine = WirelengthEngine(network, placement)
    temperature = max(engine.total_hpwl() / len(names), 1.0)
    for _ in range(moves):
        a, b = rng.sample(names, 2)
        delta = engine.cell_swap_delta(a, b)
        if delta <= 0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-9)
        ):
            engine.swap_cells(a, b)
        temperature *= 0.999
