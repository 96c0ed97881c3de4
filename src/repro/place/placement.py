"""Placement model: cell coordinates, pads, wirelength metrics.

The rewiring engine consumes exactly what the paper extracts from its
commercial placer: a coordinate for every cell plus pad locations for
the primary inputs and outputs.  All distances are Manhattan, in um.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..library.cells import Library, ROW_HEIGHT_UM
from ..network.netlist import Network

#: Fraction of the die that cell area fills (:func:`die_for`).
UTILIZATION = 0.60


@dataclass
class Placement:
    """Cell and pad coordinates over a rectangular die."""

    die_width: float
    die_height: float
    locations: dict[str, tuple[float, float]] = field(default_factory=dict)
    input_pads: dict[str, tuple[float, float]] = field(default_factory=dict)
    output_pads: dict[int, tuple[float, float]] = field(default_factory=dict)

    def set_location(self, gate_name: str, x: float, y: float) -> None:
        """Place or move a gate."""
        self.locations[gate_name] = (x, y)

    def source_location(
        self, network: Network, net: str
    ) -> tuple[float, float]:
        """Location of the net's driver (gate or input pad)."""
        if network.is_input(net):
            return self.input_pads[net]
        return self.locations[net]

    def ensure_covered(self, network: Network) -> None:
        """Place any unplaced gate at its first sink (or die center).

        Rewiring may create inverters after placement; the paper's model
        is that these nestle next to the gate they feed, perturbing
        nothing.  Called before timing analysis.
        """
        if all(name in self.locations for name in network.gate_names()):
            return  # the common case: skip the topological sort
        center = (self.die_width / 2.0, self.die_height / 2.0)
        for name in network.topo_order():
            if name in self.locations:
                continue
            sinks = [
                self.locations[pin.gate]
                for pin in network.fanout(name)
                if pin.gate in self.locations
            ]
            self.locations[name] = sinks[0] if sinks else center

    def copy(self) -> "Placement":
        """Deep copy (cheap: coordinate tuples are immutable)."""
        return Placement(
            die_width=self.die_width,
            die_height=self.die_height,
            locations=dict(self.locations),
            input_pads=dict(self.input_pads),
            output_pads=dict(self.output_pads),
        )


def manhattan(
    a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Manhattan distance between two points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def net_terminals(
    network: Network, placement: Placement, net: str
) -> list[tuple[float, float]]:
    """All terminal coordinates of a net: source first, then the
    fanout pins' gates, then PO pads."""
    locations = placement.locations
    terminals = [placement.source_location(network, net)]
    terminals.extend(locations[pin.gate] for pin in network.fanout(net))
    terminals.extend(
        placement.output_pads[slot] for slot in network.output_slots(net)
    )
    return terminals


def bbox_hpwl(points: list[tuple[float, float]]) -> float:
    """Half-perimeter of the bounding box of *points* (0.0 below two)."""
    if len(points) < 2:
        return 0.0
    xs = [point[0] for point in points]
    ys = [point[1] for point in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def net_hpwl(network: Network, placement: Placement, net: str) -> float:
    """Half-perimeter wirelength of one net (the interpreted oracle)."""
    return bbox_hpwl(net_terminals(network, placement, net))


def total_hpwl(network: Network, placement: Placement) -> float:
    """Total half-perimeter wirelength over all nets with sinks."""
    total = 0.0
    for net in network.nets():
        if network.fanout_degree(net):
            total += net_hpwl(network, placement, net)
    return total


def die_for(network: Network, library: Library) -> tuple[float, float]:
    """Square die sized so cell area fills :data:`UTILIZATION` of it."""
    area = 0.0
    for gate in network.gates():
        if gate.cell is not None:
            area += library.cell(gate.cell).area
    area = max(area, 4 * ROW_HEIGHT_UM * ROW_HEIGHT_UM)
    side = (area / UTILIZATION) ** 0.5
    rows = max(2, round(side / ROW_HEIGHT_UM))
    return side, rows * ROW_HEIGHT_UM


def grid_placement(network: Network) -> Placement:
    """Row-major grid placement, one um pitch, in netlist insertion order.

    The cheap deterministic stand-in for the annealer on workloads too
    large to anneal (the 1e5+-gate scaling benchmarks): gates land on a
    near-square grid in insertion order, so generators that emit
    spatially coherent clusters (e.g. ``tiled_control``) stay coherent
    on the die.  Input pads line the left edge, output pads the right.
    """
    import math

    names = [gate.name for gate in network.gates()]
    cols = max(1, math.isqrt(max(1, len(names) - 1)) + 1)
    rows = max(1, (len(names) + cols - 1) // cols)
    placement = Placement(
        die_width=float(cols + 1), die_height=float(rows + 1),
    )
    for index, name in enumerate(names):
        placement.locations[name] = (
            float(index % cols + 1), float(index // cols + 1),
        )
    inputs = list(network.inputs)
    for index, net in enumerate(inputs):
        y = (index + 1) * placement.die_height / (len(inputs) + 1)
        placement.input_pads[net] = (0.0, y)
    outputs = list(network.outputs)
    for index in range(len(outputs)):
        y = (index + 1) * placement.die_height / (len(outputs) + 1)
        placement.output_pads[index] = (placement.die_width, y)
    return placement


def perturbation(
    before: Placement, after: Placement
) -> dict[str, float]:
    """How much a placement changed (audit for the paper's §5 claim).

    Reports the number of moved cells, of added cells (post-placement
    inverters) and the total displacement of moved cells.
    """
    moved = 0
    displacement = 0.0
    for name, loc in before.locations.items():
        new = after.locations.get(name)
        if new is None:
            continue
        if new != loc:
            moved += 1
            displacement += manhattan(loc, new)
    added = len(set(after.locations) - set(before.locations))
    removed = len(set(before.locations) - set(after.locations))
    return {
        "moved_cells": float(moved),
        "added_cells": float(added),
        "removed_cells": float(removed),
        "total_displacement": displacement,
    }
