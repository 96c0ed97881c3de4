"""What crash safety costs: checkpoint overhead of a guarded run.

``tests/test_checkpoint.py`` locks *correctness* — a SIGTERMed
checkpointed run resumes to the same fingerprint.  This bench records
the price: a whole ``run_rapids`` run (the ``gsg_gs`` optimizer, then
the timing-aware wirelength polish) saving its pickled resume state
(network, placement, the timing engine's period and the loop's state)
at its stage and round boundaries is timed against the saving it
does.  The manager's save budget (``repro.checkpoint.SAVE_BUDGET``)
decides which unforced boundaries save: the first one, then each one
reached once the last save's cost over the budget has passed; the
polish hand-off and the finished report always save.  The run must
save at least ``MIN_SAVES`` times, so the ratio measures the save path
rather than one fsync's latency, and at least ``MIN_BUDGETED_SAVES`` of
those must be budgeted ones (unforced, after the first), so it times
the cadence the budget sets rather than the saves every run makes.
``save_seconds / runtime`` — the budgeted saves plus the forced ones —
must stay under 5%, and the checkpointed result is asserted identical
to the unguarded one.

Rows land in ``REPRO_BENCH_JSON`` (``BENCH_9.json`` in CI) under the
``robustness`` key.
"""

from __future__ import annotations

import time

import pytest

from repro.checkpoint import SAVE_BUDGET, CheckpointManager
from repro.rapids import engine as rapids_engine
from repro.rapids.engine import run_rapids
from repro.suite.flow import FlowConfig, prepare_benchmark

from bench_helpers import QUICK_SET, record_result

#: The largest quick-set circuit.
CIRCUIT = QUICK_SET[-1]

#: Size and optimizer of the guarded run, fixed whatever ``REPRO_SCALE``
#: says: the budget spaces unforced saves ~50 save costs apart, and the
#: ``gs`` run at scale 0.35 spans only 1-2 such gaps (more ``wl_passes``
#: or ``max_rounds`` add no boundaries: the polish converges in one pass
#: and the optimizer stagnates).  This run makes 5-6 budgeted saves.
SCALE = 0.7
MODE = "gsg_gs"

#: Ceiling on ``save_seconds / runtime`` for the budgeted and forced saves.
MAX_OVERHEAD = 0.05

#: Boundaries the guarded run must save at for the ratio to mean
#: per-save cost.
MIN_SAVES = 3

#: Of those, the saves the budget must have allowed: the first boundary
#: and the forced ``wl`` and ``done`` ones save in every run.
MIN_BUDGETED_SAVES = 2


def _summary(result) -> tuple:
    """What a checkpoint must not change: moves, delay, area, HPWL."""
    return (
        result.optimize.move_log,
        result.optimize.final_delay,
        result.optimize.final_area,
        result.wirelength.final_hpwl,
        result.wirelength.swaps_applied,
    )


def test_checkpoint_overhead(library, tmp_path, monkeypatch):
    """Checkpointing under the save budget must cost a fraction of the run."""
    outcome = prepare_benchmark(CIRCUIT, FlowConfig(scale=SCALE), library)
    network, placement = outcome.network, outcome.placement

    plain = run_rapids(
        network.copy(), placement.copy(), library, mode=MODE,
        wl_passes=1, collect_log=True,
    )

    managers: list[CheckpointManager] = []

    class RecordedManager(CheckpointManager):
        """The run's own manager, kept for its save counters."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.budgeted_saves = 0
            managers.append(self)

        def boundary(self, stage, builder, force=False) -> None:
            first, saves = self.saves == 0, self.saves
            super().boundary(stage, builder, force)
            if not force and not first and self.saves > saves:
                self.budgeted_saves += 1

    monkeypatch.setattr(rapids_engine, "CheckpointManager", RecordedManager)
    path = tmp_path / "bench.ckpt"
    started = time.perf_counter()
    guarded = run_rapids(
        network.copy(), placement.copy(), library, mode=MODE,
        wl_passes=1, collect_log=True, checkpoint=str(path),
    )
    runtime = time.perf_counter() - started
    (manager,) = managers
    # safety must be free of trajectory changes before it can be cheap
    assert _summary(guarded) == _summary(plain)
    assert manager.saves >= MIN_SAVES
    assert manager.budgeted_saves >= MIN_BUDGETED_SAVES, (
        f"{manager.budgeted_saves} budgeted saves of {manager.saves}: the "
        f"run is too short to time the save cadence"
    )

    overhead = manager.save_seconds / max(runtime, 1e-9)
    size = path.stat().st_size
    print(
        f"\ncheckpoint overhead on {CIRCUIT} ({len(network)} gates): "
        f"{manager.saves} saves ({manager.budgeted_saves} budgeted), "
        f"{manager.save_seconds:.3f}s of "
        f"{runtime:.3f}s ({100 * overhead:.1f}%), "
        f"{size} B on disk"
    )
    record_result(
        "robustness", "checkpoint_overhead",
        circuit=CIRCUIT,
        scale=SCALE,
        mode=MODE,
        gates=len(network),
        saves=manager.saves,
        budgeted_saves=manager.budgeted_saves,
        save_seconds=round(manager.save_seconds, 4),
        runtime_seconds=round(runtime, 4),
        checkpoint_overhead=round(overhead, 4),
        checkpoint_bytes=size,
    )
    assert overhead < MAX_OVERHEAD, (
        f"checkpointing under a {100 * SAVE_BUDGET:g}% save budget costs "
        f"{100 * overhead:.1f}% of the run — the save path or the budget "
        f"has regressed"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
