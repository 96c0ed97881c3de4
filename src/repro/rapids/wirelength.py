"""Wirelength-driven rewiring (Section 5, optimization use (1)).

"If two signals a and b come from geometrically fixed locations and all
gates have been placed, swapping of a and b can clearly reduce the wire
length" — this module does exactly that: symmetric non-inverting leaf
swaps (and inverter-free cross-supergate fanin-group exchanges)
accepted whenever they shorten the estimated wiring, with the
placement frozen.

Candidates are **never** priced by mutating the network — pricing
hands zero changes to subscribed engines (see
``docs/architecture.md``).  The polish is the round loop of
:mod:`repro.rapids.partition` with no carve — the whole netlist is one
region.  Every pass enumerates the full candidate set once — leaf
swaps of every non-trivial supergate plus pure cross swaps — and each
round scores it as one batch against a
:class:`~repro.place.hpwl.WirelengthEngine` (:func:`_select_batch`)
and commits a maximal conflict-free subset (:func:`_apply_batch`; no
two accepted moves share a net, so the priced deltas are exactly
additive).  Rounds repeat within the pass until none improves:
non-inverting leaf swaps preserve the supergate partition, so the
pin-pair set stays valid and only the driving nets need re-reading.
Supergates are refreshed *incrementally* between passes through the
caller's :class:`~repro.rapids.engine.SupergateCache` or a new one.

With a *timing_engine* the polish becomes **timing-aware**: a swap is
committed only when its HPWL delta improves **and** its projected
slack neighborhood stays inside a guard band (*slack_margin*, default
0.0 — never eat into the critical path; negative margins trade bounded
delay for wire).  Candidates are pre-filtered by the engine's
frontier projection
(:meth:`~repro.timing.sta.TimingEngine.project_swap_slacks`), then
verified by the exact full-cone projection, whose ``touched`` sets
gate conflict-freedom: accepted moves may share neither a bounding-box
net (HPWL deltas add exactly) nor a timing-neighborhood net (slack
projections add exactly).  After every committed batch the timing
engine re-folds incrementally (``apply_and_update``); the realized
slacks are compared against the projections, and drift beyond
:data:`~repro.timing.sta.PROJECTION_DRIFT_TOL` falls back to
re-pricing the remaining candidates from the refreshed state (the
fixed-point loop re-scores every iteration, so nothing stale is ever
reused).  The engine's timing target is pinned to the pre-polish
critical delay when no period is set, so "no worse than the guard
band" means "no worse than the netlist we started polishing".

The polish must end at a total HPWL no worse than a serial greedy
loop's on the quick set (``benchmarks/bench_wirelength.py`` holds that
reference and asserts it, along with zero delay degradation for the
timing-aware default) and is function-preserving by construction
(every accepted move is a legal symmetry application; the property
tests sweep random networks × random placements through
``networks_equivalent``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..network.netlist import Network, Pin
from ..place.hpwl import WirelengthEngine
from ..place.placement import Placement
from ..symmetry.cross import (
    CrossSwap,
    apply_cross_swap,
    cross_swap_bindings,
    find_cross_swaps,
)
from ..symmetry.swap import enumerate_swaps
from ..timing.sta import PROJECTION_DRIFT_TOL, TimingEngine

#: Smallest HPWL reduction (um) a committed move must achieve.
MIN_GAIN = 1e-9


@dataclass
class WirelengthResult:
    """Outcome of a wirelength-rewiring run."""

    initial_hpwl: float
    final_hpwl: float
    swaps_applied: int
    passes: int
    mode: str = "batched"
    cross_swaps_applied: int = 0
    candidates_scored: int = 0
    #: True when a timing engine gated every commit on projected slack.
    timing_aware: bool = False
    #: Guard band the slack gate enforced (ns; only with timing_aware).
    slack_margin: float = 0.0
    #: Wirelength-improving candidates rejected by the slack gate.
    timing_rejected: int = 0
    #: Worst |projected - realized| slack disagreement seen post-commit.
    projection_drift: float = 0.0
    #: Batches whose drift exceeded the tolerance and fell back to
    #: re-pricing from the refreshed engine.
    drift_repricings: int = 0

    @property
    def class_swaps_applied(self) -> int:
        """Always 0; perfbench/flows.py still sums it."""
        return 0

    @property
    def improvement_percent(self) -> float:
        if self.initial_hpwl <= 0:
            return 0.0
        return 100.0 * (
            self.initial_hpwl - self.final_hpwl
        ) / self.initial_hpwl


def swap_bindings(
    network: Network, pin_a: Pin, pin_b: Pin
) -> tuple[tuple[Pin, str], tuple[Pin, str]]:
    """Rebinding view of a non-inverting pin swap (for slack projection)."""
    return (
        (pin_a, network.fanin_net(pin_b)),
        (pin_b, network.fanin_net(pin_a)),
    )


@dataclass
class GateCounters:
    """The slack gate's statistics (a polish checkpoint carries them)."""

    #: unique rejected candidates — the fixed-point loop re-scores
    #: (and re-rejects) the same candidate every iteration, so a
    #: plain counter would inflate with the iteration count
    rejected_keys: set[tuple] = field(default_factory=set)
    max_drift: float = 0.0
    repricings: int = 0


class _TimingGate:
    """Slack guard for wirelength commits, wrapping one timing engine.

    Pins the engine's timing target to the pre-polish critical delay
    when no period is set, so every projected slack is measured
    against the netlist the polish started from.  Collects the
    rejection / drift statistics reported on the result in
    :attr:`counters`.
    """

    def __init__(self, engine: TimingEngine, margin: float) -> None:
        engine.refresh()
        if engine.period is None:
            engine.period = engine.max_delay
        self.engine = engine
        self.margin = margin
        self.counters = GateCounters()

    def prefilter(self, bindings_batch: list) -> list[bool]:
        """Frontier projection over the whole candidate set."""
        projections = self.engine.project_swap_slacks(bindings_batch)
        return [p.admissible(self.margin) for p in projections]

    def reject(self, bindings) -> None:
        self.counters.rejected_keys.add(tuple(bindings))

    def verify(self, bindings):
        """Exact full-cone projection, or ``None`` when inadmissible."""
        projection = self.engine.project_swap_slacks(
            [bindings], exact=True
        )[0]
        if not projection.admissible(self.margin):
            self.reject(bindings)
            return None
        return projection

    def refold(self, committed: list) -> None:
        """Post-commit ``apply_and_update`` + projected-vs-realized check.

        With pairwise-disjoint ``touched`` sets the projections must
        realize exactly (to float noise); measurable drift means an
        assumption broke, so the batch falls back to re-pricing —
        structurally, the next commit iteration re-scores everything
        from the engine state this refresh just made truthful.
        """
        self.engine.refresh()
        drift = 0.0
        for projection in committed:
            for net, value in projection.projected.items():
                realized = self.engine.slack.get(net)
                if realized is not None:
                    drift = max(drift, abs(realized - value))
        counters = self.counters
        counters.max_drift = max(counters.max_drift, drift)
        if drift > PROJECTION_DRIFT_TOL:
            counters.repricings += 1


def reduce_wirelength(
    network: Network,
    placement: Placement,
    max_passes: int = 4,
    timing_engine: TimingEngine | None = None,
    slack_margin: float = 0.0,
    checkpoint=None,
    resume_data: dict | None = None,
    supergates: "SupergateCache | None" = None,
) -> WirelengthResult:
    """Shorten estimated wiring by symmetry-based rewiring.

    Only non-inverting swaps and inverter-free cross exchanges are
    used (a move that adds cells is never justified by wirelength
    alone), so the placement is untouched and the gate count constant.
    The polish checkpoints and resumes per round exactly like
    :func:`repro.rapids.partition.reduce_wirelength_partitioned`
    (*checkpoint*, *resume_data*, *supergates*).

    With *timing_engine* every commit is additionally gated on its
    projected slack neighborhood staying above *slack_margin* (ns)
    relative to the engine's timing target — pinned to the pre-polish
    critical delay when the engine has no explicit period — so the
    default margin of 0.0 guarantees the polish never degrades the
    re-timed delay.  Negative margins permit bounded degradation,
    positive margins keep a safety band.
    """
    from .partition import polish_rounds

    gate = (
        _TimingGate(timing_engine, slack_margin)
        if timing_engine is not None else None
    )
    result = polish_rounds(
        network, placement, gate, max_passes,
        checkpoint=checkpoint, resume_data=resume_data,
        supergates=supergates,
    )
    return WirelengthResult(**{
        spec.name: getattr(result, spec.name)
        for spec in fields(WirelengthResult)
    })


def _attach_timing_stats(
    result: WirelengthResult, gate: _TimingGate | None
) -> None:
    if gate is None:
        return
    counters = gate.counters
    result.timing_aware = True
    result.slack_margin = gate.margin
    result.timing_rejected = len(counters.rejected_keys)
    result.projection_drift = counters.max_drift
    result.drift_repricings = counters.repricings


def _leaf_pairs(sgn, network: Network) -> list[tuple[str, Pin, Pin]]:
    """Deduplicated, deterministically ordered leaf-swap candidates.

    Supergate iteration follows the partition's insertion order and
    pin pairing follows leaf-extraction order — no set/dict-hash
    iteration anywhere, so the candidate list (and therefore the
    batched trajectory) is ``PYTHONHASHSEED``-independent.  Same-net
    pairs are dropped at the source rather than priced-then-discarded.
    """
    pairs: list[tuple[str, Pin, Pin]] = []
    seen: set[tuple[Pin, Pin]] = set()
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False, network=network
        ):
            key = (swap.pin_a, swap.pin_b)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((sg.root, swap.pin_a, swap.pin_b))
    return pairs


def _pure_crosses(sgn) -> list[tuple[CrossSwap, list[tuple[Pin, str]]]]:
    """Cross swaps that move wires only (no inverter is ever added)."""
    pure: list[tuple[CrossSwap, list[tuple[Pin, str]]]] = []
    for cross in find_cross_swaps(sgn):
        bindings = cross_swap_bindings(sgn, cross)
        if bindings is not None:
            pure.append((cross, bindings))
    return pure


def _select_batch(
    network: Network,
    engine: WirelengthEngine,
    pairs: list[tuple[str, Pin, Pin]],
    crosses: list[tuple[CrossSwap, list[tuple[Pin, str]]]],
    gate: _TimingGate | None,
) -> list[tuple[int, object, object, frozenset[str]]]:
    """Score every candidate, select a maximal conflict-free subset.

    Read-only: pricing, slack projection and conflict resolution never
    mutate the network, so a selection computed in a forked child
    against the inherited engines is bit-identical to one computed in
    the parent — the property the partitioned pipeline's concurrent
    region evaluation rests on.

    Accepted moves may not share a net: each net's bounding box is
    then edited by at most one move, the priced deltas add exactly,
    and total HPWL drops by their sum.  Ties are broken by a
    deterministic canonical key (kind, supergate roots, pins).

    With a timing *gate*, selection is two-phase: candidates are
    filtered by the batched frontier slack projection, the survivors
    verified (in priced order) by the exact full-cone projection, and
    conflict-freedom additionally requires pairwise-disjoint timing
    neighborhoods (``touched``) so the projected slacks of the
    accepted subset realize exactly.

    Returns ``(kind, payload, projection, footprint)`` per accepted
    move — everything :func:`_apply_batch` and the cross-region
    committer need, and nothing tied to this process (pins, nets and
    projections name gates/nets, so selections pickle across processes).
    """
    deltas = engine.score_swaps(
        [(pin_a, pin_b) for _, pin_a, pin_b in pairs]
    )
    candidates: list[tuple[float, int, tuple, set[str], object, tuple]] = []
    for (root, pin_a, pin_b), delta in zip(pairs, deltas):
        if delta < -MIN_GAIN:
            footprint = engine.footprint_nets([pin_a, pin_b])
            candidates.append(
                (delta, 0, (root, pin_a, pin_b), footprint,
                 (pin_a, pin_b),
                 swap_bindings(network, pin_a, pin_b))
            )
    for cross, bindings in crosses:
        delta = engine.rebind_delta(bindings)
        if delta < -MIN_GAIN:
            footprint = engine.footprint_nets(
                [pin for pin, _ in bindings]
            ) | {net for _, net in bindings}
            candidates.append(
                (delta, 1,
                 (cross.parent_root, cross.sg1_root, cross.sg2_root),
                 footprint, (cross, bindings), tuple(bindings))
            )
    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    admissible = (
        gate.prefilter([item[5] for item in candidates])
        if gate is not None and candidates else []
    )
    touched: set[str] = set()
    timing_touched: set[str] = set()
    accepted: list[tuple[int, object, object, frozenset[str]]] = []
    for index, (_delta, kind, _key, footprint, payload, bindings) in (
        enumerate(candidates)
    ):
        if footprint & touched:
            continue
        if gate is not None:
            if not admissible[index]:
                gate.reject(bindings)
                continue
            projection = gate.verify(bindings)
            if projection is None:
                continue
            if projection.touched & timing_touched:
                continue
            timing_touched |= projection.touched
            accepted.append((kind, payload, projection, frozenset(footprint)))
        else:
            accepted.append((kind, payload, None, frozenset(footprint)))
        touched |= footprint
    return accepted


def _apply_batch(
    network: Network,
    sgn,
    accepted: list[tuple[int, object, object, frozenset[str]]],
) -> tuple[int, int]:
    """Commit an accepted selection in order.

    Returns ``(leaves, crosses)``.  The only mutation
    point of the batched path: everything upstream
    (:func:`_select_batch`) is projection-only.  The caller
    (:func:`repro.rapids.partition.polish_rounds`) refolds the timing
    gate once per round, after every region's selection is applied.
    """
    leaves = crossings = 0
    for kind, payload, _projection, _footprint in accepted:
        if kind == 0:
            pin_a, pin_b = payload
            network.swap_fanins(pin_a, pin_b)
            leaves += 1
        else:
            cross, _bindings = payload
            apply_cross_swap(network, sgn, cross)
            crossings += 1
    return leaves, crossings
