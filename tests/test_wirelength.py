"""Wirelength-driven rewiring (Section 5, use (1))."""

import pytest

from repro.place.placement import total_hpwl
from repro.place.placer import place
from repro.rapids.wirelength import reduce_wirelength
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import enumerate_swaps
from repro.synth.mapper import map_network
from repro.verify.equiv import networks_equivalent

from helpers import random_network, swap_hpwl_delta


def prepared(seed, library, gates=50):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed)
    return net, placement


def test_swap_delta_is_reversible(library):
    net, placement = prepared(21, library)
    sgn = extract_supergates(net)
    checked = 0
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(sg, include_inverting=False):
            fanins = {g.name: list(g.fanins) for g in net.gates()}
            swap_hpwl_delta(net, placement, swap)
            # probing must leave the network untouched
            assert all(
                net.gate(name).fanins == value
                for name, value in fanins.items()
            )
            checked += 1
            if checked > 20:
                return


def test_reduce_wirelength_monotone_and_safe(library):
    improved_any = False
    for seed in (22, 23, 24):
        net, placement = prepared(seed, library)
        reference = net.copy()
        before = total_hpwl(net, placement)
        result = reduce_wirelength(net, placement)
        after = total_hpwl(net, placement)
        assert after <= before + 1e-6
        assert result.final_hpwl == pytest.approx(after)
        assert result.initial_hpwl == pytest.approx(before)
        assert networks_equivalent(reference, net), seed
        if result.swaps_applied:
            improved_any = True
            assert result.improvement_percent > 0
    assert improved_any, "no seed produced a single wirelength swap"


def test_reduce_wirelength_is_idempotent(library):
    net, placement = prepared(25, library)
    reduce_wirelength(net, placement)
    again = reduce_wirelength(net, placement)
    assert again.swaps_applied == 0
    assert again.improvement_percent == pytest.approx(0.0, abs=1e-6)


def test_placement_untouched(library):
    net, placement = prepared(26, library)
    locations = dict(placement.locations)
    reduce_wirelength(net, placement)
    assert placement.locations == locations
