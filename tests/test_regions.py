"""Properties of the placement-coherent region carve.

The partitioned rewiring pipeline trusts :func:`carve_regions` for
three things — complete disjoint coverage, the region size bound, and
a truthful internal/boundary net classification — and the whole
stacked-determinism story additionally needs the carve itself to be a
pure function of (network, placement, knobs).  Each property gets a
direct test on mapped random networks.
"""

from __future__ import annotations

import hashlib

import pytest
from helpers import random_network

from repro.library.cells import default_library
from repro.place.placement import grid_placement
from repro.place.placer import place
from repro.place.regions import carve_regions
from repro.synth.mapper import map_network


def _placed(seed: int, num_gates: int = 120):
    library = default_library()
    network = random_network(seed, num_gates=num_gates, num_outputs=6)
    map_network(network, library)
    placement = place(network, library, seed=seed)
    return network, placement


def test_max_gates_validated():
    network, placement = _placed(1, num_gates=20)
    with pytest.raises(ValueError):
        carve_regions(network, placement, max_gates=0)


def test_coverage_disjoint_and_bounded():
    network, placement = _placed(2)
    regions = carve_regions(network, placement, max_gates=30)
    assert len(regions.regions) >= 2
    assert regions.max_region_gates <= 30
    seen: set[str] = set()
    for region in regions.regions:
        assert len(region) >= 1
        assert not (seen & set(region.gates)), "regions overlap"
        seen.update(region.gates)
    assert seen == set(network.gate_names())
    # region_of agrees with the region list
    for region in regions.regions:
        for gate in region.gates:
            assert regions.region_of[gate] == region.index


def test_net_classification_truthful():
    network, placement = _placed(3)
    regions = carve_regions(network, placement, max_gates=30)
    for net in network.nets():
        terminals = set()
        if not network.is_input(net):
            terminals.add(net)
        terminals.update(pin.gate for pin in network.fanout(net))
        if not terminals:
            assert net not in regions.net_region
            assert net not in regions.boundary_nets
            continue
        owners = {regions.region_of[g] for g in terminals}
        if len(owners) == 1:
            assert regions.net_region[net] == owners.pop()
            assert net not in regions.boundary_nets
        else:
            assert net not in regions.net_region
            assert net in regions.boundary_nets


def test_single_region_when_bound_exceeds_size():
    network, placement = _placed(4, num_gates=40)
    regions = carve_regions(network, placement, max_gates=10**9)
    assert len(regions.regions) == 1
    assert regions.boundary_nets == frozenset()
    assert regions.fm_passes == regions.fm_moves == 0
    # every net with a terminal is internal to region 0
    for net in network.nets():
        if network.fanout(net) or not network.is_input(net):
            assert regions.net_region[net] == 0


def test_carve_deterministic_across_calls():
    network, placement = _placed(5)
    a = carve_regions(network, placement, max_gates=25)
    b = carve_regions(network, placement, max_gates=25)
    assert [r.gates for r in a.regions] == [r.gates for r in b.regions]
    assert a.boundary_nets == b.boundary_nets
    assert a.net_region == b.net_region


def test_geometric_seed_carve_is_spatially_coherent():
    # with refinement off the carve is pure recursive median splitting,
    # so on a grid placement every region's bounding box must be a
    # fraction of the die — the compactness that keeps the frozen
    # boundary fraction low at scale (FM passes then only *refine* a
    # coherent seed instead of discovering a cut from randomness)
    library = default_library()
    network = random_network(6, num_gates=200, num_outputs=8)
    map_network(network, library)
    placement = grid_placement(network)
    regions = carve_regions(
        network, placement, max_gates=50, refine_passes=0
    )
    assert len(regions.regions) >= 4
    die_area = placement.die_width * placement.die_height
    for region in regions.regions:
        xs = [placement.locations[g][0] for g in region.gates]
        ys = [placement.locations[g][1] for g in region.gates]
        box = (max(xs) - min(xs)) * (max(ys) - min(ys))
        assert box <= 0.5 * die_area


def test_carve_golden():
    """The carve of a few-thousand-gate grid placement is pinned bit for
    bit: regions, internal-net owners, boundary nets and FM passes."""
    library = default_library()
    network = random_network(
        21, num_inputs=40, num_gates=6000, num_outputs=40
    )
    map_network(network, library)
    regions = carve_regions(network, grid_placement(network), max_gates=300)
    assert len(regions.regions) >= 10
    digest = hashlib.blake2b(digest_size=16)
    for region in regions.regions:
        digest.update(("|".join(region.gates) + ";").encode())
    for net in sorted(regions.net_region):
        digest.update(f"{net}:{regions.net_region[net]};".encode())
    digest.update("|".join(sorted(regions.boundary_nets)).encode())
    digest.update(f"#{regions.fm_passes}".encode())
    assert digest.hexdigest() == "4026f09a03f3f2f1ebcb60946ff00850"
