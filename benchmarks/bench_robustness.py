"""What crash safety costs: checkpoint overhead of a guarded run.

``tests/test_checkpoint.py`` locks *correctness* — a SIGTERMed
checkpointed run resumes to the same fingerprint.  This bench records
the price: an optimization run saving its pickled resume state
(network, placement and the timing engine's exported ``EvalState``) at
every round boundary is timed against the saving it does.
``save_seconds / runtime`` must stay under 5%, and the checkpointed
trajectory is asserted identical to the unguarded one.

Rows land in ``REPRO_BENCH_JSON`` (``BENCH_9.json`` in CI) under the
``robustness`` key.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import CheckpointManager
from repro.rapids.engine import _gs_factory
from repro.sizing.coudert import optimize
from repro.suite.flow import FlowConfig, prepare_benchmark

from bench_helpers import QUICK_SET, record_result

#: The largest quick-set circuit: enough rounds that the ratio measures
#: the save path rather than one fsync's latency.
CIRCUIT = QUICK_SET[-1]

#: Ceiling on ``save_seconds / runtime`` for saving every round.
MAX_OVERHEAD = 0.05


def test_checkpoint_overhead(library, tmp_path):
    """Round-boundary checkpointing must cost a fraction of the run."""
    outcome = prepare_benchmark(CIRCUIT, FlowConfig(), library)
    network, placement = outcome.network, outcome.placement

    net_plain, pl_plain = network.copy(), placement.copy()
    plain = optimize(
        net_plain, pl_plain, library, _gs_factory(library),
        collect_log=True,
    )

    manager = CheckpointManager(str(tmp_path / "bench.ckpt"))
    net_ckpt, pl_ckpt = network.copy(), placement.copy()
    guarded = optimize(
        net_ckpt, pl_ckpt, library, _gs_factory(library),
        collect_log=True, checkpoint=manager,
    )
    # safety must be free of trajectory changes before it can be cheap
    assert guarded.move_log == plain.move_log
    assert guarded.final_delay == plain.final_delay
    assert manager.saves >= 1

    overhead = manager.save_seconds / max(guarded.runtime_seconds, 1e-9)
    size = (tmp_path / "bench.ckpt").stat().st_size
    print(
        f"\ncheckpoint overhead on {CIRCUIT} ({len(network)} gates): "
        f"{manager.saves} saves, {manager.save_seconds:.3f}s of "
        f"{guarded.runtime_seconds:.3f}s ({100 * overhead:.1f}%), "
        f"{size} B on disk"
    )
    record_result(
        "robustness", "checkpoint_overhead",
        circuit=CIRCUIT,
        gates=len(network),
        saves=manager.saves,
        save_seconds=round(manager.save_seconds, 4),
        runtime_seconds=round(guarded.runtime_seconds, 4),
        checkpoint_overhead=round(overhead, 4),
        checkpoint_bytes=size,
    )
    assert overhead < MAX_OVERHEAD, (
        f"checkpointing every round costs {100 * overhead:.1f}% of the "
        f"run — the save path has regressed"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
