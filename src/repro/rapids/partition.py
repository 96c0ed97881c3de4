"""Partitioned wirelength rewiring: FM-carved regions, frozen boundaries.

This module owns the batched polish's one pass/round loop
(:func:`polish_rounds`).  Unpartitioned batched rewiring
(:mod:`repro.rapids.wirelength`) runs it without a carve, enumerating
and scoring the whole netlist's candidate set every round — fine to a
few thousand gates, hopeless at 1e5-1e6.  The partitioned path makes
the flow divide-and-conquer:

1. **Carve once.**  :func:`repro.place.regions.carve_regions` bisects
   the placed netlist (geometry-seeded FM) into regions of at most
   ``max_gates`` gates.  Nets spanning regions are *boundary* nets.
2. **Freeze boundaries.**  A candidate is admissible only when every
   net it rebinds is internal to a single region — boundary candidates
   are dropped at enumeration, so cross-region moves are never even
   proposed and boundary pin bindings survive the run untouched.
   Internality is invariant under intra-region moves (see
   :mod:`repro.place.regions`), so the carve stays truthful forever.
3. **Select per region, against round-start state.**  Each round runs
   the shared read-only selector
   (:func:`repro.rapids.wirelength._select_batch`) over every region's
   candidates.  Selection mutates nothing, so regions may be evaluated
   in any order — or concurrently, in children forked from the live
   process (:mod:`repro.parallel.regions`) — and produce
   bit-identical selections.
4. **Commit serially, in region order.**  The parent replays accepted
   moves region by region.  HPWL footprints of different regions are
   disjoint by construction (all internal nets); timing ``touched``
   neighborhoods are *not* (timing cones cross boundaries), so the
   committer keeps a global claimed-net set and defers any move whose
   exact projection overlaps an earlier region's — deferred moves are
   re-scored next round against the refreshed state.  One timing
   refold per round.

Determinism: the carve, the per-region candidate order, the selection
and the region-ordered commit are all ``PYTHONHASHSEED``-independent
and worker-count-invariant, so the trajectory is bit-identical for
every ``workers`` value (``tests/test_partitioned_rewiring.py`` locks
it).  With one region the trajectory equals the unpartitioned batched
path by construction: both run :func:`polish_rounds`, and a region
that holds every gate admits every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..checkpoint import stage_payload
from ..network.netlist import Network
from ..place.hpwl import WirelengthEngine
from ..place.placement import Placement
from ..place.regions import RegionSet, carve_regions
from ..timing.sta import TimingEngine
from .engine import SupergateCache
from .wirelength import (
    GateCounters,
    WirelengthResult,
    _TimingGate,
    _apply_batch,
    _attach_timing_stats,
    _leaf_pairs,
    _pure_crosses,
    _select_batch,
)


@dataclass
class PartitionedResult(WirelengthResult):
    """Outcome of a partitioned run (extends the unpartitioned report)."""

    #: Regions the carve produced / largest region / frozen nets.
    regions: int = 0
    max_region_gates: int = 0
    boundary_nets: int = 0
    #: Select+commit rounds executed across all passes.
    rounds: int = 0
    #: Moves deferred because their timing neighborhood crossed into
    #: an earlier region's claim this round (re-scored next round).
    deferred_timing_conflicts: int = 0
    #: Moves dropped for overlapping HPWL footprints across regions —
    #: impossible under the frozen-boundary contract; must stay 0.
    boundary_conflicts: int = 0
    #: Parallelism actually achieved (see repro.parallel.regions):
    #: rounds that forked, the first failed child's cause, and the
    #: pool's ``inline_fallbacks`` count (empty when the run was serial).
    workers: int = 1
    parallel_rounds: int = 0
    fallback_reason: str | None = None
    health: dict = field(default_factory=dict)


@dataclass
class PolishState:
    """The polish loop's state between rounds.

    A fresh run builds it, a round boundary checkpoints it whole, a
    resumed run re-enters the interrupted pass with it, and the
    returned report is its :attr:`result`.
    """

    #: the counters so far (passes, rounds, swaps, scored candidates...)
    result: PartitionedResult
    #: the carve (``None`` unpartitioned).  It is geometry-seeded on
    #: the *initial* netlist, which a resumed (rewired) netlist is not,
    #: so it rides in the checkpoint
    regions: RegionSet | None
    #: the slack gate's counters (``None`` for a timing-blind polish)
    gate_counters: GateCounters | None
    #: the current pass's ``(region, pairs, crosses)`` tasks; cross
    #: exchanges ride only a pass's first round, so after it the tasks
    #: hold leaf pairs alone
    tasks: list[tuple[int, list, list]] = field(default_factory=list)
    #: moves the current pass applied so far
    pass_applied: int = 0


def _region_tasks(
    network: Network,
    regions: RegionSet,
    pairs,
    crosses,
) -> list[tuple[int, list, list]]:
    """Group candidates by region, dropping boundary candidates.

    A leaf pair is admissible iff both driving nets are internal to
    the same region (their sink gates then are too); a cross exchange
    iff every net its bindings read or write is.  Returns one
    ``(region_index, pairs, crosses)`` task per region with any
    admissible candidate, ordered by region index.
    """
    net_region = regions.net_region
    by_region: dict[int, tuple[list, list]] = {}
    for root, pin_a, pin_b in pairs:
        home = net_region.get(network.fanin_net(pin_a))
        if home is None or net_region.get(network.fanin_net(pin_b)) != home:
            continue
        by_region.setdefault(
            home, ([], [])
        )[0].append((root, pin_a, pin_b))
    for cross, bindings in crosses:
        nets = {network.fanin_net(pin) for pin, _ in bindings}
        nets.update(net for _, net in bindings)
        homes = {net_region.get(net) for net in nets}
        if len(homes) != 1 or None in homes:
            continue
        by_region.setdefault(
            next(iter(homes)), ([], [])
        )[1].append((cross, bindings))
    return [
        (index, task[0], task[1])
        for index, task in sorted(by_region.items())
    ]


def reduce_wirelength_partitioned(
    network: Network,
    placement: Placement,
    max_gates: int = 2500,
    max_passes: int = 4,
    timing_engine: TimingEngine | None = None,
    slack_margin: float = 0.0,
    workers: int = 1,
    library=None,
    carve_seed: int = 0,
    checkpoint=None,
    resume_data: dict | None = None,
    supergates: SupergateCache | None = None,
) -> PartitionedResult:
    """Region-bounded wirelength rewiring (see module docstring).

    Semantics match :func:`repro.rapids.wirelength.reduce_wirelength`
    (batched path) restricted to moves internal to one carved region;
    with *max_gates* >= the gate count the restriction vanishes and
    the trajectory is bit-identical to the unpartitioned path.  With
    *timing_engine* every commit is slack-guarded exactly as there.
    *carve_seed* seeds the FM carve.

    *workers* > 1 selects each round's regions concurrently, in
    children forked from this process (see
    :mod:`repro.parallel.regions`); the committed trajectory is
    identical for every worker count.  *library* is unused and kept
    only because existing callers pass it.

    *checkpoint* (a :class:`repro.checkpoint.CheckpointManager`) saves
    the loop's :class:`PolishState` after every applied round.  To
    resume, the caller grafts the saved netlist into *network* /
    *placement* (see :func:`repro.checkpoint.graft_state`), builds
    *timing_engine* on it with the saved ``period`` and passes the
    loaded payload as *resume_data*; the run re-enters the interrupted
    pass mid-flight with the saved carve, counters and slack-gate
    statistics, and finishes bit-identically to the uninterrupted run.

    *supergates* is a :class:`~repro.rapids.engine.SupergateCache` on
    *network* to refresh instead of building one.
    """
    gate = (
        _TimingGate(timing_engine, slack_margin)
        if timing_engine is not None else None
    )
    return polish_rounds(
        network, placement, gate, max_passes,
        max_gates=max_gates, carve_seed=carve_seed, workers=workers,
        checkpoint=checkpoint, resume_data=resume_data,
        supergates=supergates,
    )


def polish_rounds(
    network: Network,
    placement: Placement,
    gate: _TimingGate | None,
    max_passes: int,
    max_gates: int | None = None,
    carve_seed: int = 0,
    workers: int = 1,
    checkpoint=None,
    resume_data: dict | None = None,
    supergates: SupergateCache | None = None,
) -> PartitionedResult:
    """The batched polish's pass/round loop, carved or not.

    With *max_gates* ``None`` nothing is carved: every candidate forms
    one task, so each round is one select + apply + refold over the
    whole netlist (mode ``"batched"``).  Otherwise the netlist is
    carved into regions of at most *max_gates* gates and each round
    selects per region and commits in region order (mode
    ``"partitioned"``).  The remaining arguments are those of
    :func:`reduce_wirelength_partitioned`, with *gate* wrapping its
    *timing_engine*.
    """
    placement.ensure_covered(network)
    engine = WirelengthEngine(network, placement)
    if supergates is None:
        supergates = SupergateCache(network)
    if resume_data is not None:
        state = resume_data["polish"]
        if gate is not None:
            gate.counters = state.gate_counters
    else:
        regions = None if max_gates is None else carve_regions(
            network, placement, max_gates, seed=carve_seed
        )
        initial = engine.total_hpwl()
        state = PolishState(
            result=PartitionedResult(
                initial_hpwl=initial, final_hpwl=initial, swaps_applied=0,
                passes=0,
                mode="batched" if regions is None else "partitioned",
            ),
            regions=regions,
            gate_counters=None if gate is None else gate.counters,
        )
        if regions is not None:
            state.result.regions = len(regions.regions)
            state.result.max_region_gates = regions.max_region_gates
            state.result.boundary_nets = len(regions.boundary_nets)
    result = state.result
    session = None
    if workers > 1:
        from ..parallel.regions import RegionEvalSession

        session = RegionEvalSession(workers, engine, gate)

    def select_inline(task):
        _index, pairs, crosses = task
        return _select_batch(network, engine, pairs, crosses, gate)

    mid_pass = resume_data is not None
    while result.passes < max_passes or mid_pass:
        sgn = supergates.get()
        if mid_pass:
            mid_pass = False
        else:
            result.passes += 1
            pairs = _leaf_pairs(sgn, network)
            crosses = _pure_crosses(sgn)
            state.tasks = [(0, pairs, crosses)] if state.regions is None else (
                _region_tasks(network, state.regions, pairs, crosses)
            )
            state.pass_applied = 0
        while True:
            result.rounds += 1
            round_tasks = state.tasks
            state.tasks = [
                (index, task_pairs, [])
                for index, task_pairs, _crosses in round_tasks
            ]
            scored_before = engine.candidates_scored
            if session is not None:
                selections, scored = session.select_round(
                    round_tasks, select_inline
                )
                result.candidates_scored += scored
                if session.parallel_last_round:
                    result.parallel_rounds += 1
            else:
                selections = [
                    select_inline(task) for task in round_tasks
                ]
            # serial conflict-free commit, in region order: HPWL
            # footprints cannot collide across regions (internal
            # nets only — counted defensively all the same); exact
            # timing neighborhoods can, so later regions defer
            claimed_nets: set[str] = set()
            claimed_timing: set[str] = set()
            committed_projections: list = []
            leaves = crossings = 0
            for (_index, _p, _c), accepted in zip(
                round_tasks, selections
            ):
                kept = []
                for kind, payload, projection, footprint in accepted:
                    if footprint & claimed_nets:
                        result.boundary_conflicts += 1
                        continue
                    if projection is not None and (
                        projection.touched & claimed_timing
                    ):
                        result.deferred_timing_conflicts += 1
                        continue
                    kept.append((kind, payload, projection, footprint))
                    claimed_nets |= footprint
                    if projection is not None:
                        claimed_timing |= projection.touched
                        committed_projections.append(projection)
                batch_leaves, batch_crosses = _apply_batch(
                    network, sgn, kept
                )
                leaves += batch_leaves
                crossings += batch_crosses
            if gate is not None and committed_projections:
                gate.refold(committed_projections)
            result.candidates_scored += (
                engine.candidates_scored - scored_before
            )
            result.swaps_applied += leaves
            result.cross_swaps_applied += crossings
            state.pass_applied += leaves + crossings
            if leaves + crossings == 0:
                break
            if checkpoint is not None:
                checkpoint.boundary("wl_round", lambda: stage_payload(
                    network, placement, None if gate is None else gate.engine,
                    polish=state,
                ))
        if state.pass_applied == 0:
            break
    result.final_hpwl = engine.total_hpwl()
    result.workers = workers
    if session is not None:
        result.fallback_reason = session.pool.fallback_reason
        result.health = dict(session.pool.health)
    _attach_timing_stats(result, gate)
    return result
