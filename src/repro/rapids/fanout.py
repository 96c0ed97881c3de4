"""Fanout optimization by buffer insertion (the paper's future work).

Section 6 closes with: "the SIS mapper often generates very large
fanout nets (more than 100 sinks) ... In the future, fanout
optimization should also be included into our formulation to explore
the maximum synergy."  This module provides that extension: sinks of a
heavily loaded net are clustered geometrically, each cluster is handed
to a buffer placed at the cluster's centroid, and the change is kept
only when the placed-design critical path actually improves.

Like rewiring, buffering never moves an existing cell — buffers are the
only additions, keeping the paper's minimum-perturbation discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..library.cells import Library
from ..network.gatetype import GateType
from ..network.netlist import Network, Pin
from ..place.placement import Placement
from ..timing.sta import TimingEngine


@dataclass
class FanoutResult:
    """Outcome of a buffering pass."""

    initial_delay: float
    final_delay: float
    buffers_added: int
    nets_buffered: int

    @property
    def improvement_percent(self) -> float:
        if self.initial_delay <= 0:
            return 0.0
        return 100.0 * (
            self.initial_delay - self.final_delay
        ) / self.initial_delay


def heavy_nets(
    network: Network, min_fanout: int = 8
) -> list[tuple[str, int]]:
    """Nets at or above the fanout threshold, heaviest first."""
    loaded = [
        (net, network.fanout_degree(net))
        for net in network.nets()
        if network.fanout_degree(net) >= min_fanout
    ]
    loaded.sort(key=lambda item: -item[1])
    return loaded


def _cluster_sinks(
    pins: list[Pin],
    locations: dict[Pin, tuple[float, float]],
    cluster_size: int,
) -> list[list[Pin]]:
    """Greedy geometric clustering: sort by (x, y), chunk, refine.

    A simple space-filling order (x-major) keeps clusters compact
    enough for buffer placement; exact k-means is unnecessary at this
    granularity.
    """
    ordered = sorted(
        pins, key=lambda pin: (locations[pin][0], locations[pin][1])
    )
    return [
        ordered[start:start + cluster_size]
        for start in range(0, len(ordered), cluster_size)
    ]


def buffer_net(
    network: Network,
    placement: Placement,
    library: Library,
    net: str,
    cluster_size: int = 6,
) -> int:
    """Split *net*'s sinks across buffers; returns buffers added.

    Primary-output references stay on the original net (pads are
    driven directly); only gate input pins are re-homed.  Each buffer
    adopts its cluster's centroid as location.
    """
    pins = list(network.fanout(net))
    if len(pins) <= cluster_size:
        return 0
    locations = {pin: placement.locations[pin.gate] for pin in pins}
    clusters = _cluster_sinks(pins, locations, cluster_size)
    if len(clusters) < 2:
        return 0
    buffer_cells = library.implementations(GateType.BUF, 1)
    cell = buffer_cells[min(2, len(buffer_cells) - 1)]
    added = 0
    for cluster in clusters:
        name = network.fresh_name(f"{net}_buf")
        network.add_gate(name, GateType.BUF, [net], cell=cell.name)
        x = sum(locations[pin][0] for pin in cluster) / len(cluster)
        y = sum(locations[pin][1] for pin in cluster) / len(cluster)
        placement.set_location(name, x, y)
        for pin in cluster:
            network.replace_fanin(pin, name)
        added += 1
    return added


def optimize_fanout(
    network: Network,
    placement: Placement,
    library: Library,
    min_fanout: int = 8,
    cluster_size: int = 6,
    max_nets: int = 32,
) -> FanoutResult:
    """Buffer heavy nets one at a time, keeping only real improvements.

    Each candidate net is buffered on a trial copy; the buffering is
    committed when the full-STA critical path improves.  Conservative
    but safe — matching the optimizer discipline used everywhere else
    in this reproduction.
    """
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    initial = engine.max_delay
    best = initial
    buffers = 0
    nets_done = 0
    for net, _degree in heavy_nets(network, min_fanout)[:max_nets]:
        trial_net = network.copy()
        trial_place = placement.copy()
        added = buffer_net(
            trial_net, trial_place, library, net, cluster_size
        )
        if not added:
            continue
        trial_engine = TimingEngine(trial_net, trial_place, library)
        trial_engine.analyze()
        if trial_engine.max_delay < best - 1e-9:
            best = trial_engine.max_delay
            buffers += added
            nets_done += 1
            network.adopt(trial_net)
            placement.locations = dict(trial_place.locations)
    return FanoutResult(
        initial_delay=initial,
        final_delay=best,
        buffers_added=buffers,
        nets_buffered=nets_done,
    )
