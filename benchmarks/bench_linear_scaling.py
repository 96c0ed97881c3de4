"""Section 3's headline claim: symmetry detection in linear time.

Runs supergate extraction over a size sweep of generated control logic
and fits the runtime growth exponent — for a linear algorithm it must
stay close to 1 (quadratic detection, the naive pairwise approach,
would show ~2).  Also benchmarks one representative extraction so the
per-gate cost is tracked by pytest-benchmark.

A second workload times the compiled netlist snapshot at 1e5-gate
scale (scaled by ``REPRO_SCALE`` like everything else): a full
``compile_network`` must sustain at least 10k gates/s, and a repeat
``get_compiled`` hit on an unmutated network must beat it by 50x.
"""

from __future__ import annotations

import math
import time

from repro.logic.simcore import compile_network, get_compiled
from repro.suite.circuits import random_control
from repro.suite.registry import build_benchmark, configured_scale
from repro.symmetry.supergate import extract_supergates
from repro.synth.strash import script_rugged

from bench_helpers import record_result

#: Floors for the compiled-snapshot workload (see module docstring).
COMPILE_GATES_PER_S = 10_000
CACHED_VIEW_SPEEDUP = 50.0

#: End-to-end throughput floor for one partitioned rewiring pass
#: (carve + per-region selection + serial commit, timing-blind) over
#: the ``tiled100k`` workload — CI asserts the 1e5-gate path never
#: regresses below a third of the measured steady-state rate.
PARTITION_GATES_PER_S = 1_500


def _prepared(num_gates: int):
    net = random_control(
        num_inputs=max(16, num_gates // 12),
        num_gates=num_gates,
        num_outputs=max(8, num_gates // 14),
        seed=num_gates,
        max_depth=30,
    )
    script_rugged(net)
    return net


def test_extraction_scales_linearly(benchmark):
    benchmark.pedantic(_scaling_sweep, rounds=1, iterations=1)


def _scaling_sweep():
    sizes = [600, 1200, 2400, 4800, 9600]
    measurements: list[tuple[int, float]] = []
    for size in sizes:
        net = _prepared(size)
        # min over repetitions: the robust wall-clock estimator (mean
        # absorbs GC pauses and scheduler noise, inflating the exponent)
        best = min(
            _timed(extract_supergates, net) for _ in range(5)
        )
        measurements.append((len(net), best))
    print("\nextraction runtime sweep:")
    for gates, seconds in measurements:
        print(f"  {gates:6d} gates: {seconds * 1000:8.2f} ms "
              f"({seconds / gates * 1e6:.2f} us/gate)")
    # least-squares slope of log(time) vs log(size)
    logs = [
        (math.log(gates), math.log(seconds))
        for gates, seconds in measurements
    ]
    n = len(logs)
    mean_x = sum(x for x, _ in logs) / n
    mean_y = sum(y for _, y in logs) / n
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in logs
    ) / sum((x - mean_x) ** 2 for x, _ in logs)
    print(f"  growth exponent: {slope:.2f} (1.0 = linear)")
    record_result(
        "linear_scaling", "extraction_sweep",
        growth_exponent=round(slope, 3),
        sizes=[gates for gates, _ in measurements],
        seconds=[round(seconds, 5) for _, seconds in measurements],
    )
    # linear with noise headroom; the naive pairwise detector sits at ~2
    assert slope < 1.5, slope


def _timed(func, *args) -> float:
    start = time.perf_counter()
    func(*args)
    return time.perf_counter() - start


def test_extraction_throughput(benchmark):
    net = _prepared(2400)
    sgn = benchmark(extract_supergates, net)
    assert sum(len(sg.covered) for sg in sgn.supergates.values()) == len(net)


def test_compile_and_cached_view_floors():
    """Compiled-snapshot cost structure at 1e5-gate scale.

    A full compile is the price of any mutation; an unmutated network
    must hand out its cached snapshot at near-zero cost.
    """
    target = max(2000, int(100_000 * configured_scale()))
    net = random_control(
        num_inputs=max(16, target // 12),
        num_gates=target,
        num_outputs=max(8, target // 14),
        seed=target,
        max_depth=40,
    )
    compile_s = min(_timed(compile_network, net) for _ in range(3))
    gates_per_s = len(net) / compile_s
    get_compiled(net)  # fill the cache for the repeat-hit probe
    cached_s = min(_timed(get_compiled, net) for _ in range(5))
    cached_speedup = compile_s / cached_s
    print(
        f"\ncompiled snapshot at {len(net)} gates:"
        f"\n  compile_network:   {compile_s * 1000:9.2f} ms "
        f"({gates_per_s:.0f} gates/s)"
        f"\n  get_compiled hit:  {cached_s * 1000:9.4f} ms "
        f"({cached_speedup:.0f}x)"
    )
    record_result(
        "linear_scaling", "compiled_snapshot",
        gates=len(net),
        compile_gates_per_s=round(gates_per_s, 1),
        cached_view_speedup=round(cached_speedup, 1),
    )
    assert gates_per_s >= COMPILE_GATES_PER_S, (
        f"compile_network sustains only {gates_per_s:.0f} gates/s"
    )
    assert cached_speedup >= CACHED_VIEW_SPEEDUP, (
        f"a cached get_compiled hit is only {cached_speedup:.1f}x faster "
        f"than a full compile"
    )


def test_partitioned_rewiring_scales():
    """The 1e5-gate rewiring path: carve, select, commit, verify.

    Builds the ``tiled100k`` workload at the configured scale (the
    full 1e5 gates at ``REPRO_SCALE=1.0``), grid-places it, and runs
    one timing-blind partitioned wirelength pass.  Asserts the
    structural contract (multiple regions under the bound, zero
    boundary conflicts, HPWL monotone, function preserved) and a
    throughput floor over the whole carve+rewire step.
    """
    from repro.library.cells import default_library
    from repro.place.placement import grid_placement
    from repro.rapids.partition import reduce_wirelength_partitioned
    from repro.synth.mapper import map_network
    from repro.verify.equiv import networks_equivalent

    target = max(4000, int(100_000 * configured_scale()))
    net = build_benchmark("tiled100k", scale=target / 100_000)
    map_network(net, default_library())
    placement = grid_placement(net)
    reference = net.copy()

    start = time.perf_counter()
    result = reduce_wirelength_partitioned(
        net, placement, max_gates=2048, max_passes=1,
        timing_engine=None,
    )
    elapsed = time.perf_counter() - start
    gates_per_s = len(net) / elapsed
    print(
        f"\npartitioned rewiring at {len(net)} gates:"
        f"\n  regions: {result.regions} "
        f"(max {result.max_region_gates} gates, "
        f"{result.boundary_nets} boundary nets)"
        f"\n  swaps: {result.swaps_applied} + "
        f"{result.cross_swaps_applied} cross in {result.rounds} rounds"
        f"\n  hpwl: {result.initial_hpwl:.0f} -> {result.final_hpwl:.0f} "
        f"({result.improvement_percent:+.1f}%)"
        f"\n  wall: {elapsed:.2f} s ({gates_per_s:.0f} gates/s)"
    )
    record_result(
        "linear_scaling", "partitioned_rewiring",
        gates=len(net),
        regions=result.regions,
        max_region_gates=result.max_region_gates,
        boundary_nets=result.boundary_nets,
        swaps_applied=result.swaps_applied + result.cross_swaps_applied,
        hpwl_improvement_percent=round(result.improvement_percent, 2),
        gates_per_s=round(gates_per_s, 1),
    )
    assert result.regions > 1
    assert result.max_region_gates <= 2048
    assert result.boundary_conflicts == 0
    assert result.swaps_applied + result.cross_swaps_applied > 0
    assert result.final_hpwl <= result.initial_hpwl
    assert networks_equivalent(reference, net)
    assert gates_per_s >= PARTITION_GATES_PER_S, (
        f"partitioned rewiring sustains only {gates_per_s:.0f} gates/s"
    )
