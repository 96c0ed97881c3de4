"""Incremental vs. full-STA optimizer loop — same answer, less work.

Each quick-set circuit runs the combined gsg+GS optimizer twice from
the same placed design: once on :class:`_FullSTAEngine`, the
rebuild-everything reference (a full ``analyze()`` after every
committed batch), and once on the incremental engine
(``refresh`` re-propagates only through the affected region).

Checked properties, per circuit:

* **agreement** — both flows commit the same number of moves and land
  on the same final delay to 1e-9 (the incremental engine is bit-exact
  against full analysis, so the optimizer walks the same trajectory);
* **work** — the incremental flow performs measurably fewer timing
  node updates (star rebuilds + arrival evaluations + required-time
  evaluations, the unit both flows are made of): at least 1.4x less
  per circuit, at least 2x less over the whole set (XOR-heavy
  circuits like c499 propagate every batch almost everywhere, so the
  2x acceptance floor is held in aggregate).

A third case times the committed updates of a timing-aware
wirelength polish on the first quick-set circuit.  Its target is
pinned, so after the initial analysis every update must cost what
changed: no whole-network level pass and no whole-network slack fold.
A fourth checks that the reference is honest: it analyzes each
netlist version at most once, so it is not charged work no real flow
does.

``REPRO_BENCH_SET=quick`` trims the circuit list for CI smoke runs.
"""

from __future__ import annotations

import time

import pytest

from repro.rapids.engine import SupergateCache, _site_factory
from repro.rapids.wirelength import reduce_wirelength
from repro.sizing.coudert import optimize
from repro.suite.flow import FlowConfig, prepare_benchmark
from repro.timing.sta import TimingEngine

from bench_helpers import QUICK_SET, quick_mode, record_result

#: Acceptance floor over the whole circuit set.
MIN_AGGREGATE_REDUCTION = 2.0
#: Per-circuit sanity floor (worst case: XOR-dominated netlists).
MIN_CIRCUIT_REDUCTION = 1.4

#: name -> (full node updates, incr node updates)
_WORK: dict[str, tuple[int, int]] = {}

_HEADER = (
    f"{'ckt':<8}{'gates':>6}{'moves':>6}{'full-updates':>14}"
    f"{'incr-updates':>14}{'reduction':>10}"
    f"{'full-s':>8}{'incr-s':>8}"
)


class _FullSTAEngine(TimingEngine):
    """The full-STA-per-round reference the incremental engine is
    measured against: every refresh of a changed netlist re-analyzes
    the whole network."""

    def refresh(self) -> None:
        if not self.is_fresh():
            self.analyze()


def bench_names() -> list[str]:
    """Three circuits for the CI smoke run, the full quick set otherwise."""
    return QUICK_SET[:3] if quick_mode() else QUICK_SET


@pytest.mark.parametrize("name", bench_names())
def test_incremental_sta_agrees_and_saves_work(name, library):
    outcome = prepare_benchmark(name, FlowConfig(), library)
    runs = {}
    for flavor, engine_class in (
        ("full", _FullSTAEngine), ("incremental", TimingEngine),
    ):
        net = outcome.network.copy()
        placement = outcome.placement.copy()
        start = time.perf_counter()
        result = optimize(
            net, placement, library,
            _site_factory("gsg_gs", library, SupergateCache(net)),
            engine_class(net, placement, library),
            mode="gsg_gs",
        )
        runs[flavor] = {
            "result": result,
            "seconds": time.perf_counter() - start,
        }
    full = runs["full"]["result"]
    incr = runs["incremental"]["result"]
    # agreement: incremental timing is exact, so the greedy loop makes
    # identical decisions and reaches an identical design
    assert incr.moves_applied == full.moves_applied, name
    assert incr.final_delay == pytest.approx(full.final_delay, abs=1e-9), name
    assert incr.final_area == pytest.approx(full.final_area, abs=1e-9), name
    # work: measurably fewer timing propagations
    full_work = full.timing_stats["node_updates"]
    incr_work = incr.timing_stats["node_updates"]
    assert incr_work > 0, name
    reduction = full_work / incr_work
    print()
    print(_HEADER)
    print(
        f"{name:<8}{len(outcome.network):>6d}{full.moves_applied:>6d}"
        f"{full_work:>14d}{incr_work:>14d}{reduction:>9.1f}x"
        f"{runs['full']['seconds']:>8.2f}"
        f"{runs['incremental']['seconds']:>8.2f}"
    )
    _WORK[name] = (full_work, incr_work)
    record_result(
        "incremental_sta", name,
        gates=len(outcome.network),
        moves=full.moves_applied,
        full_node_updates=full_work,
        incr_node_updates=incr_work,
        node_update_reduction=round(reduction, 3),
        full_seconds=round(runs["full"]["seconds"], 3),
        incr_seconds=round(runs["incremental"]["seconds"], 3),
    )
    assert reduction >= MIN_CIRCUIT_REDUCTION, (
        f"{name}: incremental STA saved only {reduction:.2f}x "
        f"(full={full_work}, incremental={incr_work})"
    )
    # the incremental run must actually have run incrementally
    assert incr.timing_stats["incremental_updates"] > 0, name
    assert incr.timing_stats["full_analyses"] <= 1 + full.rounds, name


def test_incremental_sta_aggregate_reduction():
    """The acceptance criterion: >= 2x less work over the whole set."""
    if not _WORK:
        pytest.skip("per-circuit benches were deselected")
    full_total = sum(full for full, _ in _WORK.values())
    incr_total = sum(incr for _, incr in _WORK.values())
    reduction = full_total / incr_total
    print(
        f"\naggregate over {sorted(_WORK)}: "
        f"full={full_total} incremental={incr_total} -> {reduction:.2f}x "
        f"node updates"
    )
    record_result(
        "incremental_sta", "aggregate",
        node_update_reduction=round(reduction, 3),
    )
    assert reduction >= MIN_AGGREGATE_REDUCTION, (
        f"incremental STA saved only {reduction:.2f}x in aggregate "
        f"(full={full_total}, incremental={incr_total})"
    )


def test_pinned_polish_updates_do_no_whole_network_pass(library):
    """Committed updates under the polish's pinned target are local."""
    name = QUICK_SET[0]
    outcome = prepare_benchmark(name, FlowConfig(), library)
    net = outcome.network.copy()
    placement = outcome.placement.copy()
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    initial = (engine.stats.level_rebuilds, engine.stats.full_folds)
    committed = engine.apply_and_update
    seconds = 0.0

    def timed_update(*args, **kwargs):
        nonlocal seconds
        start = time.perf_counter()
        try:
            committed(*args, **kwargs)
        finally:
            seconds += time.perf_counter() - start

    engine.apply_and_update = timed_update
    result = reduce_wirelength(net, placement, timing_engine=engine)
    stats = engine.stats
    print(
        f"\n{name}: {result.swaps_applied} swaps, "
        f"{stats.incremental_updates} committed updates in "
        f"{seconds:.3f} s, level rebuilds {stats.level_rebuilds}, "
        f"full folds {stats.full_folds}"
    )
    record_result(
        "incremental_sta", f"{name}_pinned_polish",
        gates=len(net),
        swaps=result.swaps_applied,
        committed_updates=stats.incremental_updates,
        committed_update_seconds=round(seconds, 4),
        level_rebuilds_after_analysis=stats.level_rebuilds - initial[0],
        full_folds_after_analysis=stats.full_folds - initial[1],
    )
    assert stats.incremental_updates > 0, name
    assert stats.full_analyses == 1, name
    assert (stats.level_rebuilds, stats.full_folds) == initial, name


def test_full_sta_baseline_never_reanalyzes_an_unchanged_netlist(library):
    """The reference runs one full analysis per netlist version: a
    phase, area-recovery round or sweep that committed nothing leaves
    the engine fresh, and re-analyzing it would charge the reference
    work no real flow does."""
    outcome = prepare_benchmark(QUICK_SET[0], FlowConfig(), library)
    net = outcome.network.copy()
    placement = outcome.placement.copy()
    engine = _FullSTAEngine(net, placement, library)
    versions = []
    analyze = engine.analyze

    def counted():
        versions.append(net.version)
        analyze()

    engine.analyze = counted
    result = optimize(
        net, placement, library, _site_factory("gs", library, None), engine,
    )
    assert result.rounds > 1
    assert len(versions) > 1
    assert len(versions) == len(set(versions)), versions
    assert engine.is_fresh()
