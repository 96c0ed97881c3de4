"""Placement-coherent region carving for partitioned rewiring.

Divide-and-conquer at 1e5-1e6 gates needs bounded-size rewiring scopes
whose boundaries are *frozen*: a move confined to one region can then
be priced, verified and committed without ever looking at another
region.  This module carves those scopes by recursive Fiduccia-
Mattheyses bisection (:mod:`repro.place.fm`) seeded from placement
geometry: every split starts from the weighted median along the longer
bounding-box axis of the current cell subset, so FM refines a
spatially coherent cut instead of discovering one from a random
partition — regions end up both min-cut *and* compact on the die,
which is what keeps their boundary-net count (the frozen, untouchable
fraction) small.

The net contract, enforced by :func:`RegionSet.classify` and relied on
by :mod:`repro.rapids.partition`:

* a net is **internal** to region ``r`` iff *every* terminal gate —
  its driver (when gate-driven) and all fanout-pin gates — lives in
  ``r``; ``net_region`` maps exactly these nets;
* every other net (including every primary input feeding two regions)
  is a **boundary** net: absent from ``net_region``, listed in
  ``boundary_nets``, and never rebound by partitioned rewiring.

Internality is *invariant under intra-region rewiring*: a leaf swap or
cross exchange between two nets internal to ``r`` only moves sink pins
whose gates are already in ``r``, so no rewiring move ever changes
which side of the contract a net is on — the carve is computed once
per run and stays truthful for its whole lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.netlist import Network
from .fm import bipartition
from .placement import Placement


@dataclass(frozen=True)
class Region:
    """One carved rewiring scope: a fixed, ordered gate subset."""

    index: int
    gates: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class RegionSet:
    """A complete carve: every gate in exactly one region."""

    regions: list[Region]
    region_of: dict[str, int]       # gate name -> region index
    net_region: dict[str, int]      # *internal* net -> region index
    boundary_nets: frozenset[str]   # nets spanning >= 2 regions (frozen)
    fm_passes: int                  # total FM refinement passes spent
    fm_moves: int                   # total FM cells popped

    @property
    def max_region_gates(self) -> int:
        return max((len(r) for r in self.regions), default=0)


def _net_terminal_gates(network: Network) -> list[tuple[str, list[str]]]:
    """(net, terminal gate names) in deterministic net order.

    The driver gate (for gate-driven nets the net name *is* the driver)
    plus every fanout pin's gate, deduplicated preserving first-seen
    order — multi-pin connections to one gate count once.
    """
    terminals: list[tuple[str, list[str]]] = []
    for net in network.nets():
        gates: dict[str, None] = {}
        if not network.is_input(net):
            gates[net] = None
        for pin in network.fanout(net):
            gates[pin.gate] = None
        terminals.append((net, list(gates)))
    return terminals


def _geometric_initial(
    orders: tuple[list[int], list[int]],
    locations: list[tuple[float, float]],
    local_of: list[int],
) -> list[int]:
    """Median split along the longer spread axis; 0/1 per member.

    ``orders`` holds the split's cells sorted along x and along y, with
    the gate name as tie-break (coordinates collide on gridded
    placements; names never do); ``local_of`` maps a cell to its member
    index.  The first half by count goes to side 0 — both sides are
    non-empty whenever there are >= 2 members.
    """
    by_x, by_y = orders
    x_spread = locations[by_x[-1]][0] - locations[by_x[0]][0]
    y_spread = locations[by_y[-1]][1] - locations[by_y[0]][1]
    order = by_x if x_spread >= y_spread else by_y
    side = [1] * len(order)
    for cell in order[:(len(order) + 1) // 2]:
        side[local_of[cell]] = 0
    return side


def carve_regions(
    network: Network,
    placement: Placement,
    max_gates: int,
    refine_passes: int = 3,
    seed: int = 0,
) -> RegionSet:
    """Recursively bisect the placed netlist into bounded regions.

    Every region holds at most *max_gates* gates.  Splits are seeded
    geometrically (see :func:`_geometric_initial`) and refined with
    *refine_passes* FM passes against the hypergraph induced on the
    subset; a refinement that degenerates to an empty side falls back
    to the geometric seed, so recursion always terminates.  The carve
    is ``PYTHONHASHSEED``-independent: gate order is network insertion
    order, net order is :meth:`Network.nets` order, and all tie-breaks
    are by name.
    """
    if max_gates < 1:
        raise ValueError(f"max_gates must be >= 1, got {max_gates}")
    names = list(network.gate_names())
    index_of = {name: i for i, name in enumerate(names)}
    center = (placement.die_width / 2.0, placement.die_height / 2.0)
    locations = [
        placement.locations.get(name, center) for name in names
    ]
    terminals = _net_terminal_gates(network)
    # hyperedges over gate indices (pads contribute no vertex)
    edges: list[list[int]] = []
    for _, gates in terminals:
        if len(gates) >= 2:
            edges.append([index_of[g] for g in gates])
    cell_edges: list[list[int]] = [[] for _ in names]
    for edge_id, edge in enumerate(edges):
        for cell in edge:
            cell_edges[cell].append(edge_id)

    regions: list[Region] = []
    fm_passes = fm_moves = 0
    # the geometric orders are sorted once; a split's halves inherit
    # theirs by filtering, which keeps the sort order
    everyone = list(range(len(names)))
    stack: list[tuple[list[int], tuple[list[int], list[int]]]] = [(
        everyone,
        tuple(
            sorted(everyone, key=lambda cell: (locations[cell][axis],
                                               names[cell]))
            for axis in (0, 1)
        ),
    )]
    # per-split scratch: a member's local index (-1 outside the split),
    # its refined side and the last split that induced each edge
    local_of = [-1] * len(names)
    half_of = bytearray(len(names))
    induced_in = [-1] * len(edges)
    splits = 0
    while stack:
        members, orders = stack.pop()
        if len(members) <= max_gates:
            regions.append(Region(
                index=len(regions),
                gates=tuple(names[cell] for cell in members),
            ))
            continue
        splits += 1
        for i, cell in enumerate(members):
            local_of[cell] = i
        # induced hyperedges: every edge with >= 2 endpoints inside,
        # visited in deterministic edge order via the member adjacency
        local_edges: list[list[int]] = []
        for cell in members:
            for edge_id in cell_edges[cell]:
                if induced_in[edge_id] == splits:
                    continue
                induced_in[edge_id] = splits
                inside = [
                    index for index in map(local_of.__getitem__,
                                           edges[edge_id])
                    if index >= 0
                ]
                if len(inside) >= 2:
                    local_edges.append(inside)
        initial = _geometric_initial(orders, locations, local_of)
        result = bipartition(
            len(members), local_edges,
            max_passes=refine_passes, seed=seed, initial=initial,
        )
        fm_passes += result.passes
        fm_moves += result.moves
        side = result.side
        if not (0 < sum(side) < len(members)):
            side = initial  # refinement degenerated: keep the median
        for cell, cell_side in zip(members, side):
            local_of[cell] = -1
            half_of[cell] = cell_side
        halves = [
            (
                [cell for cell in members if half_of[cell] == half],
                tuple(
                    [cell for cell in order if half_of[cell] == half]
                    for order in orders
                ),
            )
            for half in (0, 1)
        ]
        # LIFO stack: push side1 first so side0 (geometrically lower
        # coordinates) is carved first — region indices sweep the die
        stack.append(halves[1])
        stack.append(halves[0])

    region_of = {
        name: region.index
        for region in regions
        for name in region.gates
    }
    net_region: dict[str, int] = {}
    boundary: list[str] = []
    for net, gates in terminals:
        if not gates:
            continue  # dangling primary input: no terminals, no moves
        owners = {region_of[g] for g in gates}
        if len(owners) == 1:
            net_region[net] = region_of[gates[0]]
        else:
            boundary.append(net)
    return RegionSet(
        regions=regions,
        region_of=region_of,
        net_region=net_region,
        boundary_nets=frozenset(boundary),
        fm_passes=fm_passes,
        fm_moves=fm_moves,
    )
