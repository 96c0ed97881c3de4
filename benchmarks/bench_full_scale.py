"""Full-scale stage benchmark: the tiled100k polish path at two sizes.

The per-gate targets of the scale-out path (mapping, the first full
STA, supergate extraction, the carve inside the polish) are stated at
scale 1.0, where ``tiled100k`` maps to ~123k gates.  This bench runs
that path stage by stage at scale 0.15 (~18k gates, the size the
perfbench polish workload runs) and at 1.0:

* ``map`` — ``map_network``;
* ``grid`` — ``grid_placement``;
* ``first_sta`` — the first full ``TimingEngine.analyze``;
* ``extract`` — one standalone ``extract_supergates`` (the polish
  extracts again; this span isolates the pass for its growth fit);
* ``polish`` — one serial, timing-aware partitioned polish, at most
  2,500 gates per region;
* ``verify`` — ``networks_equivalent`` of the mapped and the polished
  netlist.

Each scale runs in a fresh interpreter, so neither inherits the other's
caches or heap.  Per stage it records seconds, µs/gate and the peak
RSS reached by the end of the stage; per scale, bytes of peak RSS per
gate; across the two scales, each stage's growth exponent
``log(t1/t0) / log(n1/n0)`` (1.0 = linear).  Stage spans are explicit
``perf_counter`` calls around the library calls.  There is no floor:
the numbers are evidence for the per-gate work, not a gate.  The only
assertion is that both polished netlists are equivalent to their
input.

A full run takes about a minute, so ``REPRO_BENCH_SET=quick`` skips it::

    REPRO_BENCH_JSON=out.json python -m pytest -q -s benchmarks/bench_full_scale.py

One scale alone (prints one JSON object)::

    PYTHONPATH=src python benchmarks/bench_full_scale.py --scale 1.0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

import pytest

#: The two sizes: the perfbench polish workload's and paper size.
SCALES = (0.15, 1.0)

#: Region bound and carve seed of the polish (perfbench's bound).
MAX_REGION_GATES = 2500
CARVE_SEED = 101

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stages(scale: float) -> dict:
    """Run the polish path once at *scale*; per-stage seconds and RSS."""
    from repro.library.cells import default_library
    from repro.place.placement import grid_placement
    from repro.rapids.partition import reduce_wirelength_partitioned
    from repro.suite.registry import build_benchmark
    from repro.symmetry.supergate import extract_supergates
    from repro.synth.mapper import map_network
    from repro.timing.sta import TimingEngine
    from repro.verify.equiv import networks_equivalent

    library = default_library()
    network = build_benchmark("tiled100k", scale=scale)
    stages: dict[str, dict] = {}

    def stage(name, func, *args, **kwargs):
        start = time.perf_counter()
        value = func(*args, **kwargs)
        stages[name] = {
            "s": time.perf_counter() - start,
            "peak_rss_mb": _peak_rss_mb(),
        }
        return value

    stage("map", map_network, network, library)
    gates = len(network)
    reference = network.copy()
    placement = stage("grid", grid_placement, network)
    timing = TimingEngine(network, placement, library)
    stage("first_sta", timing.analyze)
    stage("extract", extract_supergates, network)
    result = stage(
        "polish", reduce_wirelength_partitioned, network, placement,
        max_gates=MAX_REGION_GATES, max_passes=1, timing_engine=timing,
        slack_margin=0.0, workers=1, carve_seed=CARVE_SEED,
    )
    equivalent = stage("verify", networks_equivalent, reference, network)
    return {
        "scale": scale,
        "gates": gates,
        "regions": result.regions,
        "swaps": result.swaps_applied + result.cross_swaps_applied,
        "equivalent": equivalent,
        "stages": stages,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _spawn(scale: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--scale", str(scale)],
        env=env, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SET", "").lower() == "quick",
    reason="a full-scale run takes about a minute",
)
def test_full_scale_stages():
    from bench_helpers import record_result

    runs = [_spawn(scale) for scale in SCALES]
    print("\nfull-scale stages (tiled100k, serial polish):")
    for run in runs:
        gates = run["gates"]
        print(
            f"  scale {run['scale']}: {gates} gates, {run['regions']} "
            f"regions, {run['swaps']} swaps, peak RSS "
            f"{run['peak_rss_mb']:.1f} MB "
            f"({run['peak_rss_mb'] * 2**20 / gates:.0f} B/gate)"
        )
        row = {
            "gates": gates,
            "regions": run["regions"],
            "swaps": run["swaps"],
            "peak_rss_mb": round(run["peak_rss_mb"], 1),
            "bytes_per_gate": round(run["peak_rss_mb"] * 2**20 / gates),
        }
        for name, stage in run["stages"].items():
            seconds = stage["s"]
            print(
                f"    {name:10s} {seconds:8.3f} s "
                f"{seconds / gates * 1e6:7.2f} us/gate "
                f"peak {stage['peak_rss_mb']:7.1f} MB"
            )
            row[f"{name}_s"] = round(seconds, 4)
            row[f"{name}_us_per_gate"] = round(seconds / gates * 1e6, 2)
            row[f"{name}_peak_rss_mb"] = round(stage["peak_rss_mb"], 1)
        record_result("full_scale", f"scale_{run['scale']}", **row)
    small, large = runs
    size_ratio = math.log(large["gates"] / small["gates"])
    exponents = {
        name: round(math.log(
            large["stages"][name]["s"] / small["stages"][name]["s"]
        ) / size_ratio, 3)
        for name in small["stages"]
    }
    print("  growth exponents (1.0 = linear): " + ", ".join(
        f"{name} {value:.2f}" for name, value in exponents.items()
    ))
    record_result("full_scale", "growth_exponents", **exponents)
    assert all(run["equivalent"] is True for run in runs)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    print(json.dumps(run_stages(parser.parse_args().scale)))
