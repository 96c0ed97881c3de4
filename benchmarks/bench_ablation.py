"""Ablations of the design choices DESIGN.md calls out.

Three knobs with a story in the paper:

* **pre-placement sizing** (our stand-in for SIS's timing-driven
  mapping): without it, post-placement GS mostly repairs a badly sized
  netlist and its gains are inflated far beyond the paper's 5.4 %;
  with it, GS only harvests the wire-load-estimate gap.
* **inverting swaps**: Definition 3's ES-based swaps add inverters;
  disabling them restricts gsg to NES swaps.
* **internal-pin swaps**: the logic-level-reduction move; leaves-only
  rewiring exchanges external signals but never restructures trees.
"""

from __future__ import annotations

import pytest

from repro.library.cells import default_library
from repro.rapids.engine import run_rapids
from repro.rapids.moves import swap_sites
from repro.sizing.coudert import optimize
from repro.suite.flow import FlowConfig, prepare_benchmark
from repro.symmetry.supergate import extract_supergates
from repro.timing.sta import TimingEngine

CIRCUIT = "s5378"


@pytest.fixture(scope="module")
def ablation_library():
    return default_library()


def _prepare(presize: bool, ablation_library):
    config = FlowConfig(presize=presize)
    return prepare_benchmark(CIRCUIT, config, ablation_library)


def test_presize_ablation(benchmark, ablation_library):
    """GS gain with vs without pre-placement sizing."""

    def run():
        results = {}
        for presize in (True, False):
            outcome = _prepare(presize, ablation_library)
            result = run_rapids(
                outcome.network.copy(), outcome.placement.copy(),
                ablation_library, mode="gs",
            )
            results[presize] = result.improvement_percent
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nGS improvement with presize: {results[True]:.1f}%  "
          f"without: {results[False]:.1f}%")
    # without timing-driven pre-sizing the post-placement sizer is
    # repairing the netlist, not exploiting placement knowledge
    assert results[False] >= results[True] - 0.5


@pytest.mark.parametrize(
    "label,include_inverting,include_internal",
    [
        ("full", True, True),
        ("no-inverting", False, True),
        ("leaves-only", True, False),
    ],
)
def test_swap_flavour_ablation(
    benchmark, label, include_inverting, include_internal,
    ablation_library,
):
    """gsg gain under restricted swap vocabularies."""
    outcome = _prepare(True, ablation_library)
    network = outcome.network.copy()
    placement = outcome.placement.copy()

    def factory(net, engine):
        sgn = extract_supergates(net)
        return swap_sites(
            net, engine, sgn,
            include_internal=include_internal,
            include_inverting=include_inverting,
        )

    result = benchmark.pedantic(
        optimize,
        args=(network, placement, ablation_library),
        kwargs={
            "site_factory": factory,
            "engine": TimingEngine(network, placement, ablation_library),
            "mode": f"gsg-{label}",
        },
        rounds=1, iterations=1,
    )
    print(f"\ngsg[{label}]: {result.improvement_percent:.2f}% "
          f"({result.moves_applied} moves)")
    assert result.final_delay <= result.initial_delay + 1e-9
