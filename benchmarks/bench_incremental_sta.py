"""Incremental vs. full-STA optimizer loop — same answer, less work.

Each quick-set circuit runs the combined gsg+GS optimizer twice from
the same placed design: once with the historical rebuild-everything
flow (a fresh ``TimingEngine`` plus full ``analyze()`` after every
committed batch) and once with the incremental engine
(``apply_and_update`` re-propagates only through the affected region).

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

``REPRO_BENCH_SET=quick`` trims the circuit list for CI smoke runs.
"""

from __future__ import annotations

import time

import pytest

from repro.rapids.engine import run_rapids
from repro.suite.flow import FlowConfig, prepare_benchmark

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


def bench_names() -> list[str]:
    """Three circuits for the CI smoke run, the full quick set otherwise."""
    return QUICK_SET[:3] if quick_mode() else QUICK_SET


@pytest.mark.parametrize("name", bench_names())
def test_incremental_sta_agrees_and_saves_work(name, library):
    outcome = prepare_benchmark(name, FlowConfig(), library)
    runs = {}
    for flavor, incremental in (("full", False), ("incremental", True)):
        net = outcome.network.copy()
        placement = outcome.placement.copy()
        start = time.perf_counter()
        result = run_rapids(
            net, placement, library, mode="gsg_gs", incremental=incremental,
        )
        runs[flavor] = {
            "result": result,
            "seconds": time.perf_counter() - start,
        }
    full = runs["full"]["result"].optimize
    incr = runs["incremental"]["result"].optimize
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
