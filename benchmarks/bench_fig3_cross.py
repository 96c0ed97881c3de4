"""Fig. 3 — cross-supergate swapping under DeMorgan transformation.

Benchmarks the figure's fanin-group exchange and reports how many
cross-swappable supergate pairs exist in the flow's circuits (the
feature the paper leaves out of its timing formulation; here it is a
library feature exercised by the wirelength example).
"""

from __future__ import annotations

import pytest

from repro.network.builder import NetworkBuilder
from repro.symmetry.cross import apply_cross_swap, find_cross_swaps
from repro.symmetry.supergate import extract_supergates
from repro.verify.equiv import networks_equivalent

from bench_helpers import table1_names


def _fig3():
    builder = NetworkBuilder("fig3")
    a, b, c, d, e, g = builder.inputs(6)
    sg1 = builder.and_(a, b, c, name="sg1")
    sg2 = builder.and_(d, e, g, name="sg2")
    builder.output(builder.or_(sg1, sg2, name="f"))
    return builder.build()


def test_fig3_exchange(benchmark):
    reference = _fig3()

    def exchange():
        net = reference.copy()
        sgn = extract_supergates(net)
        cross = find_cross_swaps(sgn)[0]
        apply_cross_swap(net, sgn, cross)
        return net

    net = benchmark(exchange)
    assert networks_equivalent(reference, net)
    assert set(net.gate("sg1").fanins) == {"i3", "i4", "i5"}
    print("\nFig.3: fanin groups exchanged, function preserved")


@pytest.mark.parametrize("name", table1_names()[:6])
def test_cross_swap_census(benchmark, name, library, outcome_cache):
    outcome = outcome_cache.get(name, library)
    network = outcome.network

    def census():
        sgn = extract_supergates(network)
        return find_cross_swaps(sgn)

    crosses = benchmark.pedantic(census, rounds=1, iterations=1)
    print(f"\n{name}: {len(crosses)} cross-swappable supergate pairs")
    # validate a sample end-to-end
    for cross in crosses[:3]:
        trial = network.copy()
        apply_cross_swap(trial, extract_supergates(trial), cross)
        assert networks_equivalent(network, trial)
