"""Interpreted vs engine-batched wirelength rewiring — Section 5 at speed.

Each quick-set circuit is prepared once (generate → map → place); its
first-pass leaf-swap candidate set then feeds the unit the wirelength
engine exists for: price every candidate's HPWL delta.  That unit runs
twice —

* **interpreted** — the historical loop replicated verbatim: trial
  apply on the live network, two ``net_hpwl`` terminal walks, revert
  (each trial bumps the version, so every subscribed engine sees two
  network changes and the fanout map rebuilds on the next walk);
* **engine** — one :class:`repro.place.hpwl.WirelengthEngine` batch:
  extrema gathered once, deltas computed arithmetically, zero
  mutation, zero changes.

Checked properties:

* **agreement** — engine deltas equal the interpreted ones bit for bit
  (both are pure extrema selections over the same multisets);
* **speed** — engine-batched scoring is at least **5x** faster in
  aggregate over the set (the PR-4 acceptance floor);
* **quality** — a full batched ``reduce_wirelength`` run ends at a
  final HPWL no worse than a serial greedy reference on *every*
  circuit (:func:`_greedy_reference`, held here: timing-blind, one
  swap priced by :func:`_interpreted_delta` and applied at a time),
  and both leave the network functionally equivalent to the input
  (``networks_equivalent``);
* **timing safety** — the *timing-aware* batched polish (the Table-1
  default) ends, on every circuit, at a re-timed critical delay no
  worse than the wirelength-off baseline (epsilon 1e-9: the slack
  guard at margin 0 by construction never eats delay) while the
  aggregate HPWL win over the set retains at least **80%** of the
  timing-blind batched win, with zero measurable projected-vs-applied
  slack drift.

``REPRO_BENCH_SET=quick`` trims the circuit list for CI smoke runs.
"""

from __future__ import annotations

import time

import pytest

from repro.place.hpwl import WirelengthEngine
from repro.place.placement import net_hpwl, total_hpwl
from repro.rapids.wirelength import MIN_GAIN, reduce_wirelength
from repro.suite.flow import FlowConfig, prepare_benchmark
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import apply_swap, enumerate_swaps
from repro.timing.sta import TimingEngine

from bench_helpers import QUICK_SET, quick_mode

#: The acceptance criterion: engine-batched candidate scoring must be
#: at least this much faster than the interpreted loop in aggregate.
MIN_SCORING_SPEEDUP = 5.0
#: Timing-aware acceptance criterion: the slack-guarded polish must
#: keep at least this fraction of the timing-blind aggregate HPWL win.
MIN_HPWL_RETENTION = 0.80
#: Scoring repetitions per circuit (the batched path re-scores the
#: candidate set once per commit iteration, so repetition is realistic).
ROUNDS = 3

#: name -> (interpreted s, engine s, candidates)
_TIMES: dict[str, tuple[float, float, int]] = {}
#: name -> (blind hpwl win, timing-aware hpwl win)
_RETENTION: dict[str, tuple[float, float]] = {}

_HEADER = (
    f"{'ckt':<8}{'gates':>6}{'cands':>7}"
    f"{'interp-s':>10}{'engine-s':>10}{'speedup':>9}"
)


def bench_names() -> list[str]:
    """Three circuits for the CI smoke run, the full quick set otherwise."""
    return QUICK_SET[:3] if quick_mode() else QUICK_SET


def _leaf_candidates(network):
    sgn = extract_supergates(network)
    pairs = []
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False, network=network
        ):
            pairs.append((swap.pin_a, swap.pin_b))
    return pairs


def _interpreted_delta(network, placement, pin_a, pin_b) -> float:
    """The pre-PR-4 pricing loop, verbatim: trial apply, walk, revert."""
    net_a = network.fanin_net(pin_a)
    net_b = network.fanin_net(pin_b)
    if net_a == net_b:
        return 0.0
    before = net_hpwl(network, placement, net_a) + net_hpwl(
        network, placement, net_b
    )
    network.swap_fanins(pin_a, pin_b)
    after = net_hpwl(network, placement, net_a) + net_hpwl(
        network, placement, net_b
    )
    network.swap_fanins(pin_a, pin_b)
    return after - before


def _greedy_reference(network, placement, max_passes: int = 4):
    """The serial greedy polish the batched one must not lose to.

    Timing-blind, with the batched polish's pass count: each pass
    re-extracts the supergates, then prices every non-inverting leaf
    swap with :func:`_interpreted_delta` in enumeration order and
    applies it at once when it shortens the wiring.  Returns
    ``(final hpwl, swaps applied, passes)``.
    """
    applied = passes = 0
    for _ in range(max_passes):
        passes += 1
        improved = 0
        for sg in extract_supergates(network).nontrivial():
            for swap in enumerate_swaps(
                sg, leaves_only=True, include_inverting=False,
                network=network,
            ):
                delta = _interpreted_delta(
                    network, placement, swap.pin_a, swap.pin_b
                )
                if delta < -MIN_GAIN:
                    apply_swap(network, swap)
                    improved += 1
        applied += improved
        if not improved:
            break
    return total_hpwl(network, placement), applied, passes


@pytest.mark.parametrize("name", bench_names())
def test_engine_scoring_agrees_and_speeds_up(name, library):
    outcome = prepare_benchmark(name, FlowConfig(), library)
    network, placement = outcome.network, outcome.placement
    pairs = _leaf_candidates(network)
    assert pairs, f"{name}: no swap candidates"

    # time the interpreted loop first, before any WirelengthEngine
    # subscribes: its trial mutations must not be charged the change
    # handling of the very engine it is being compared against
    interpreted_seconds = 0.0
    interpreted = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        interpreted = [
            _interpreted_delta(network, placement, pin_a, pin_b)
            for pin_a, pin_b in pairs
        ]
        interpreted_seconds += time.perf_counter() - start

    # the engine side pays for its own flattening: construction +
    # first refresh are inside the timed region
    start = time.perf_counter()
    engine = WirelengthEngine(network, placement)
    engine_deltas = engine.score_swaps(pairs)
    engine_seconds = time.perf_counter() - start
    for _ in range(ROUNDS - 1):
        start = time.perf_counter()
        engine_deltas = engine.score_swaps(pairs)
        engine_seconds += time.perf_counter() - start
    # agreement: pure extrema selection — bit-for-bit, not approx
    assert engine_deltas == interpreted, name

    speedup = (
        interpreted_seconds / engine_seconds if engine_seconds else 0.0
    )
    print()
    print(_HEADER)
    print(
        f"{name:<8}{len(network):>6d}{len(pairs):>7d}"
        f"{interpreted_seconds:>10.3f}{engine_seconds:>10.3f}"
        f"{speedup:>8.1f}x"
    )
    _TIMES[name] = (interpreted_seconds, engine_seconds, len(pairs))


@pytest.mark.parametrize("name", bench_names())
def test_batched_final_hpwl_no_worse_than_greedy(name, library):
    from repro.verify.equiv import networks_equivalent

    outcome = prepare_benchmark(name, FlowConfig(), library)
    reference = outcome.network

    greedy_net = reference.copy()
    greedy_pl = outcome.placement.copy()
    greedy_hpwl, greedy_swaps, greedy_passes = _greedy_reference(
        greedy_net, greedy_pl
    )
    assert networks_equivalent(reference, greedy_net), name

    batched_net = reference.copy()
    batched_pl = outcome.placement.copy()
    batched = reduce_wirelength(batched_net, batched_pl)
    assert networks_equivalent(reference, batched_net), name
    assert batched.final_hpwl == pytest.approx(
        total_hpwl(batched_net, batched_pl), abs=1e-6
    )

    print(
        f"\n{name}: hpwl {batched.initial_hpwl:.0f} -> "
        f"greedy {greedy_hpwl:.0f} "
        f"({greedy_swaps} swaps/{greedy_passes}p) | "
        f"batched {batched.final_hpwl:.0f} "
        f"({batched.swaps_applied}+{batched.cross_swaps_applied}x/"
        f"{batched.passes}p)"
    )
    assert batched.final_hpwl <= greedy_hpwl + 1e-6, (
        f"{name}: batched ended at {batched.final_hpwl:.1f} um, worse "
        f"than greedy's {greedy_hpwl:.1f} um"
    )


@pytest.mark.parametrize("name", bench_names())
def test_timing_aware_polish_never_degrades_delay(name, library):
    """The Table-1 default: slack-guarded passes are delay-free.

    Runs the timing-blind and the timing-aware batched polish from the
    same prepared design and asserts the timing-aware result (a) ends
    at a re-timed critical delay no worse than the wirelength-off
    baseline (epsilon 1e-9), (b) realizes its slack projections
    exactly (drift below 1e-9, so the re-pricing fallback never had to
    fire), and (c) stays functionally equivalent to the input.  The
    per-circuit HPWL wins feed the aggregate retention floor below.
    """
    from repro.verify.equiv import networks_equivalent

    outcome = prepare_benchmark(name, FlowConfig(), library)
    reference = outcome.network

    baseline = TimingEngine(reference, outcome.placement, library)
    baseline.analyze()
    baseline_delay = baseline.max_delay

    blind_net = reference.copy()
    blind_pl = outcome.placement.copy()
    blind = reduce_wirelength(blind_net, blind_pl)
    assert networks_equivalent(reference, blind_net), name

    aware_net = reference.copy()
    aware_pl = outcome.placement.copy()
    guard = TimingEngine(aware_net, aware_pl, library)
    guard.analyze()
    aware = reduce_wirelength(aware_net, aware_pl, timing_engine=guard)
    assert networks_equivalent(reference, aware_net), name
    assert aware.timing_aware

    retimed = TimingEngine(aware_net, aware_pl, library)
    retimed.analyze()

    blind_win = blind.initial_hpwl - blind.final_hpwl
    aware_win = aware.initial_hpwl - aware.final_hpwl
    _RETENTION[name] = (blind_win, aware_win)
    print(
        f"\n{name}: delay base {baseline_delay:.4f} -> "
        f"aware {retimed.max_delay:.4f} ns | hpwl win "
        f"blind {blind_win:.0f} aware {aware_win:.0f} um "
        f"({aware.swaps_applied}+{aware.cross_swaps_applied}x applied, "
        f"{aware.timing_rejected} slack-rejected, "
        f"drift {aware.projection_drift:.2e})"
    )
    assert retimed.max_delay <= baseline_delay + 1e-9, (
        f"{name}: timing-aware polish degraded the re-timed delay "
        f"{baseline_delay:.6f} -> {retimed.max_delay:.6f} ns"
    )
    assert aware.projection_drift <= 1e-9, (
        f"{name}: slack projections drifted by "
        f"{aware.projection_drift:.3e} ns against the applied update"
    )
    assert aware.drift_repricings == 0, name


def test_aggregate_hpwl_retention_floor():
    """Timing safety must not cost the polish its point: >=80% retained."""
    if not _RETENTION:
        pytest.skip("per-circuit timing-aware benches were deselected")
    blind_total = sum(b for b, _ in _RETENTION.values())
    aware_total = sum(a for _, a in _RETENTION.values())
    retention = aware_total / blind_total if blind_total else 1.0
    print(
        f"\naggregate over {sorted(_RETENTION)}: blind win "
        f"{blind_total:.0f} um, timing-aware win {aware_total:.0f} um "
        f"-> {100 * retention:.1f}% retained"
    )
    assert retention >= MIN_HPWL_RETENTION, (
        f"timing-aware polish retains only {100 * retention:.1f}% of "
        f"the timing-blind HPWL win "
        f"(floor {100 * MIN_HPWL_RETENTION:.0f}%)"
    )


def test_aggregate_scoring_speedup_floor():
    """The acceptance criterion: >= 5x candidate scoring over the set."""
    if not _TIMES:
        pytest.skip("per-circuit benches were deselected")
    interpreted_total = sum(t for t, _, _ in _TIMES.values())
    engine_total = sum(t for _, t, _ in _TIMES.values())
    candidates = sum(c for _, _, c in _TIMES.values())
    speedup = interpreted_total / engine_total
    print(
        f"\naggregate over {sorted(_TIMES)}: {candidates} candidates x "
        f"{ROUNDS} rounds, interpreted={interpreted_total:.3f}s "
        f"engine={engine_total:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= MIN_SCORING_SPEEDUP, (
        f"engine-batched scoring is only {speedup:.1f}x faster than the "
        f"interpreted loop (floor {MIN_SCORING_SPEEDUP}x)"
    )
