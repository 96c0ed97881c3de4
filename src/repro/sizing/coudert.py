"""Coudert-style two-phase slack optimization (paper reference [2]).

The paper's timing optimizer is "based on the gate sizing heuristics by
Coudert: maximize the minimum slack through iterative neighborhood
search and relaxation".  This module implements that loop generically
over *sites* — a site is any point of the design with a set of
alternative implementations (a gate with its library sizes, or a
supergate with its set of legal pin swaps):

* **phase 1 (min-slack search)**: for every site, pick the alternative
  with the best projected *minimum-slack* gain in its neighborhood;
  sort all sites' best moves and greedily commit a non-overlapping
  batch, then re-run STA.  Repeat until no move helps.
* **phase 2 (relaxation)**: commit moves with the best projected
  *slack-sum* gain, which speeds up the network globally and lets
  phase 1 escape local minima.  Area-saving moves with non-negative
  gain are also taken here (this is where Table 1's area reductions
  come from).

The loop keeps a snapshot of the best (network, placement) seen and
restores it at the end, so results are monotone in the reported metric.

The caller's :class:`~repro.timing.sta.TimingEngine` stays alive across
both phases, all rounds and area recovery: after each committed batch
it re-propagates timing through the affected region only
(``engine.refresh``).  ``benchmarks/bench_incremental_sta.py`` runs the
same loop on an engine that re-analyzes in full instead, and compares
the timing work of the two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..checkpoint import stage_payload
from ..contracts import projection_only
from ..library.cells import Library
from ..network.netlist import Change, Network
from ..place.placement import Placement
from ..timing.sta import Gains, TimingEngine


class Move(Protocol):
    """One alternative implementation of a site."""

    def gains(self, engine: TimingEngine) -> Gains:
        """Projected local slack gains (not mutating)."""

    def footprint(self, network: Network) -> set[str]:
        """Nets whose timing this move touches (for batch independence)."""

    def apply(self, network: Network, library: Library) -> None:
        """Commit the move."""

    def area_delta(self, library: Library) -> float:
        """Cell-area change of the move (um^2)."""

    def describe(self) -> str:
        """Short human-readable label."""


@dataclass
class Site:
    """A decision point with alternative implementations."""

    key: str
    moves: list[Move]


SiteFactory = Callable[[Network, TimingEngine], list[Site]]

#: A site's winning candidate: (score, area delta, index into site.moves).
Selection = tuple[float, float, int]

#: Score resolution of the loop: a gain must beat it to count, scores
#: within it tie, and a new best delay must undercut the old by it.
EPSILON = 1e-9
#: Rounds of area recovery after the two-phase loop.
AREA_RECOVERY_ROUNDS = 6


@projection_only
def best_phase_move(
    site: Site,
    engine: TimingEngine,
    library: Library,
    metric: str,
) -> Selection | None:
    """The site's best move under the phase metric, or ``None``.

    Gates area-increasing and worst-slack-wrecking moves, breaks score
    ties by area, and keeps the first of equal candidates in move-list
    order.  Any edit here changes the optimizer trajectory.
    """
    best_index: int | None = None
    best_score = EPSILON
    best_area = 0.0
    for index, move in enumerate(site.moves):
        gains = move.gains(engine)
        score = gains.min_gain if metric == "min" else gains.sum_gain
        area = move.area_delta(library)
        if area > EPSILON and gains.min_gain < 0.005:
            # area-increasing moves (new inverters, upsizing) must
            # buy a real timing win, not noise-level churn
            continue
        if metric == "sum" and gains.min_gain < -EPSILON:
            # relaxation must not wreck the local worst slack
            if not (score > EPSILON and gains.min_gain > -0.01):
                continue
        if score > best_score or (
            abs(score - best_score) <= EPSILON
            and area < best_area
            and best_index is not None
        ):
            best_index = index
            best_score = score
            best_area = area
    if best_index is None:
        return None
    return (best_score, best_area, best_index)


@dataclass
class OptimizeResult:
    """Outcome of an optimization run."""

    mode: str
    initial_delay: float
    final_delay: float
    initial_area: float
    final_area: float
    rounds: int = 0
    moves_applied: int = 0
    runtime_seconds: float = 0.0
    move_log: list[str] = field(default_factory=list)
    timing_stats: dict[str, int] = field(default_factory=dict)

    @property
    def improvement_percent(self) -> float:
        """Delay improvement in percent (Table 1 columns 4-6)."""
        if self.initial_delay <= 0:
            return 0.0
        return 100.0 * (
            self.initial_delay - self.final_delay
        ) / self.initial_delay

    @property
    def area_delta_percent(self) -> float:
        """Area change in percent (negative = smaller, columns 10-11)."""
        if self.initial_area <= 0:
            return 0.0
        return 100.0 * (
            self.final_area - self.initial_area
        ) / self.initial_area


@dataclass
class OptimizeState:
    """The two-phase loop's state between rounds.

    A fresh run builds it, a round boundary checkpoints it whole, a
    resumed run re-enters the loop with it, and :func:`optimize` reads
    its result from it.
    """

    result: OptimizeResult
    best_delay: float
    #: best (network, placement) seen, with its capture version
    best: tuple[Network, Placement, int]
    #: rounds in a row without a new best delay
    stagnant: int = 0
    next_round: int = 0


def optimize(
    network: Network,
    placement: Placement,
    library: Library,
    site_factory: SiteFactory,
    engine: TimingEngine,
    mode: str = "custom",
    max_rounds: int = 12,
    batch_limit: int = 64,
    collect_log: bool = False,
    checkpoint=None,
    resume_data: dict | None = None,
) -> OptimizeResult:
    """Run the two-phase loop; mutates *network* (and placement) in place.

    *engine* is a :class:`TimingEngine` on *network*/*placement*, new
    or analyzed; the run keeps it current to the end.
    *site_factory* is re-invoked after every committed batch because
    moves can restructure the network (swaps insert inverters);
    ``engine.refresh()`` propagates each committed batch locally.

    *batch_limit* caps moves per committed batch.

    *checkpoint* (a :class:`repro.checkpoint.CheckpointManager`)
    enables round-boundary saves; *resume_data* is a previously saved
    ``"optimize"``-stage payload whose netlist the caller has already
    grafted into *network*/*placement*
    (:func:`repro.checkpoint.graft_state`) and on which it has built
    *engine*.
    The run re-enters the loop with the saved :class:`OptimizeState`,
    yielding a result identical to the uninterrupted run.
    """
    from ..synth.mapper import network_area

    if isinstance(batch_limit, bool) or not isinstance(batch_limit, int):
        raise ValueError(f"batch_limit must be an int, got {batch_limit!r}")
    start = time.perf_counter()
    engine.refresh()
    if resume_data is not None:
        state = resume_data["optimize"]
    else:
        initial_area = network_area(network, library)
        state = OptimizeState(
            result=OptimizeResult(
                mode=mode,
                initial_delay=engine.max_delay,
                final_delay=engine.max_delay,
                initial_area=initial_area,
                final_area=initial_area,
            ),
            best_delay=engine.max_delay,
            best=_snapshot(network, placement),
        )
    result = state.result
    for round_index in range(state.next_round, max_rounds):
        result.rounds = round_index + 1
        applied_min = _phase(
            network, placement, library, engine, site_factory,
            metric="min", batch_limit=batch_limit,
            result=result, collect_log=collect_log,
        )
        engine.refresh()
        if engine.max_delay < state.best_delay - EPSILON:
            state.best_delay = engine.max_delay
            state.best = _snapshot(network, placement)
        applied_sum = _phase(
            network, placement, library, engine, site_factory,
            metric="sum", batch_limit=batch_limit,
            result=result, collect_log=collect_log,
        )
        engine.refresh()
        if engine.max_delay < state.best_delay - EPSILON:
            state.best_delay = engine.max_delay
            state.best = _snapshot(network, placement)
            state.stagnant = 0
        else:
            state.stagnant += 1
        if not applied_min and not applied_sum:
            break
        if state.stagnant >= 2:
            break
        if checkpoint is not None:
            state.next_round = round_index + 1
            checkpoint.boundary("optimize", lambda: stage_payload(
                network, placement, engine, optimize=state,
            ))
    _restore(network, placement, state.best)
    engine.refresh()
    _area_recovery(
        network, placement, library, engine, site_factory,
        state.best_delay, result,
    )
    from ..network.transform import sweep

    sweep(network)
    engine.refresh()
    result.final_delay = engine.max_delay
    result.final_area = network_area(network, library)
    result.runtime_seconds = time.perf_counter() - start
    result.timing_stats = engine.stats.as_dict()
    return result


def _area_recovery(
    network: Network,
    placement: Placement,
    library: Library,
    engine: TimingEngine,
    site_factory: SiteFactory,
    best_delay: float,
    result: OptimizeResult,
) -> None:
    """Downsize/simplify wherever it is free (Coudert's area recovery).

    Takes the largest-area-saving move per site whose projected
    min-slack cost is ~zero, commits batches, and rolls a batch back if
    the *global* critical path regresses.  This pass is why GS and
    gsg+GS end up with the small area reductions Table 1 reports.
    """
    slack_floor = -1e-9
    for _ in range(AREA_RECOVERY_ROUNDS):
        engine.refresh()
        sites = site_factory(network, engine)
        candidates: list[tuple[float, int, Move]] = []
        for order, site in enumerate(sites):
            best_move: Move | None = None
            best_area = -EPSILON
            for move in site.moves:
                area = move.area_delta(library)
                if area >= best_area:
                    continue
                gains = move.gains(engine)
                # spend positive slack freely, but never project a
                # neighborhood below the floor (negative slack = the
                # global critical path would stretch)
                if gains.projected_min < slack_floor:
                    continue
                best_move = move
                best_area = area
            if best_move is not None:
                candidates.append((best_area, order, best_move))
        if not candidates:
            return
        candidates.sort(key=lambda item: (item[0], item[1]))
        snapshot = _snapshot(network, placement)
        touched: set[str] = set()
        applied = 0
        for _area, _order, move in candidates:
            footprint = move.footprint(network)
            if footprint & touched:
                continue
            move.apply(network, library)
            touched |= footprint
            applied += 1
        if not applied:
            return
        engine.refresh()
        if engine.max_delay > best_delay + 1e-6:
            _restore(network, placement, snapshot)
            engine.refresh()
            return
        result.moves_applied += applied


def _phase(
    network: Network,
    placement: Placement,
    library: Library,
    engine: TimingEngine,
    site_factory: SiteFactory,
    metric: str,
    batch_limit: int,
    result: OptimizeResult,
    collect_log: bool,
) -> int:
    """One greedy batch of the given metric; returns moves applied.

    Per-site candidate selection is :func:`best_phase_move`.  *engine*
    is up to date: :func:`optimize` refreshes it before every phase.
    """
    sites = site_factory(network, engine)
    selections = [
        best_phase_move(site, engine, library, metric)
        for site in sites
    ]
    candidates: list[tuple[float, float, int, Move]] = []
    for order, (site, selection) in enumerate(zip(sites, selections)):
        if selection is None:
            continue
        best_score, best_area, move_index = selection
        candidates.append(
            (best_score, best_area, order, site.moves[move_index])
        )
    candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
    touched: set[str] = set()
    applied = 0
    for score, _area, _order, move in candidates:
        if applied >= batch_limit:
            break
        footprint = move.footprint(network)
        if footprint & touched:
            continue
        move.apply(network, library)
        touched |= footprint
        applied += 1
        result.moves_applied += 1
        if collect_log:
            result.move_log.append(
                f"{metric}:{move.describe()} (score {score:+.4f})"
            )
    return applied


def _snapshot(
    network: Network, placement: Placement
) -> tuple[Network, Placement, int]:
    """Deep copies plus the live network's version at capture time.

    The version lets :func:`_restore` recognise that nothing mutated
    since the capture and skip the rollback — important for the
    incremental timing engine, which treats a wholesale restore as an
    untracked mutation and would re-run full STA for nothing.
    """
    return (network.copy(), placement.copy(), network.version)


def _restore(
    network: Network,
    placement: Placement,
    snapshot: tuple[Network, Placement, int],
) -> None:
    """Copy the snapshot's contents back into the live objects.

    Delivers one :class:`~repro.network.netlist.Change` carrying the
    exact gate-level diff, so incremental listeners (the timing engine,
    the supergate cache) invalidate only what the rollback actually
    changed instead of re-analyzing the whole design.
    """
    best_network, best_placement, version = snapshot
    if network.version == version:
        return  # live state is the snapshot: nothing to roll back
    live_gates = network._gates
    best_gates = best_network._gates
    removed = tuple(
        (name, tuple(gate.fanins))
        for name, gate in live_gates.items() if name not in best_gates
    )
    added = tuple(
        (name, tuple(gate.fanins))
        for name, gate in best_gates.items() if name not in live_gates
    )
    rewritten = []
    for name, gate in best_gates.items():
        other = live_gates.get(name)
        if other is None:
            continue
        if (
            gate.gtype is not other.gtype
            or gate.fanins != other.fanins
            or gate.cell != other.cell
        ):
            rewritten.append((name, tuple(other.fanins), tuple(gate.fanins)))
    # the optimizer never rebinds IO or moves placed cells, but a
    # listener must not trust that silently — flag anything beyond a
    # pure gate-level rollback so it falls back to full re-analysis
    whole = (
        network.inputs != best_network.inputs
        or network.outputs != best_network.outputs
        or any(
            best_placement.locations.get(name) != location
            for name, location in placement.locations.items()
            if name in best_placement.locations
        )
    )
    network.adopt(best_network, announce=False)
    placement.locations = dict(best_placement.locations)
    placement.input_pads = dict(best_placement.input_pads)
    placement.output_pads = dict(best_placement.output_pads)
    network._touch(Change(
        added=added,
        removed=removed,
        rewritten=tuple(rewritten),
        whole=whole,
    ))
