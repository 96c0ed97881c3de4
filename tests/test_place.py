"""Placement substrate: FM partitioning, placer, wirelength metrics."""

import hashlib
import random


from repro.network.builder import NetworkBuilder
from repro.place.fm import bipartition
from repro.place.placement import (
    Placement,
    die_for,
    manhattan,
    net_hpwl,
    net_terminals,
    perturbation,
    total_hpwl,
)
from repro.place.placer import place
from repro.synth.mapper import map_network

from helpers import random_network


# ----------------------------------------------------------------------
# FM bipartitioning
# ----------------------------------------------------------------------
def test_fm_finds_obvious_clusters():
    # two 6-cliques joined by a single net: optimal cut = 1
    nets = []
    for base in (0, 6):
        for i in range(6):
            for j in range(i + 1, 6):
                nets.append([base + i, base + j])
    nets.append([0, 6])
    result = bipartition(12, nets, seed=1)
    assert result.cut <= 2
    side_of_first = result.side[0]
    assert all(result.side[i] == side_of_first for i in range(6))


def test_fm_respects_balance():
    rng = random.Random(0)
    nets = [[rng.randrange(30), rng.randrange(30)] for _ in range(60)]
    weights = [1.0] * 30
    result = bipartition(30, nets, weights, balance=0.55, seed=0)
    left = sum(w for w, s in zip(weights, result.side) if s == 0)
    assert 30 * 0.45 <= left <= 30 * 0.55 + 1


def test_fm_improves_over_random():
    rng = random.Random(3)
    # ring topology: random cut ~ n/2, optimal = 2
    nets = [[i, (i + 1) % 40] for i in range(40)]
    initial = [rng.randint(0, 1) for _ in range(40)]
    initial_cut = sum(
        1 for a, b in nets if initial[a] != initial[b]
    )
    result = bipartition(40, nets, initial=initial, seed=3)
    assert result.cut < initial_cut


def test_fm_handles_degenerate_inputs():
    assert bipartition(1, [], seed=0).cut == 0
    assert bipartition(3, [[0, 1, 2]], seed=0).cut <= 1


# ----------------------------------------------------------------------
# placement model
# ----------------------------------------------------------------------
def test_manhattan():
    assert manhattan((0, 0), (3, 4)) == 7


def test_placement_accessors():
    pl = Placement(die_width=100, die_height=100)
    pl.set_location("g", 10, 20)
    assert pl.locations["g"] == (10, 20)
    dup = pl.copy()
    dup.set_location("g", 0, 0)
    assert pl.locations["g"] == (10, 20)


def test_hpwl_of_simple_net():
    builder = NetworkBuilder()
    a = builder.input("a")
    f = builder.buf(a, name="f")
    builder.output(f)
    net = builder.build()
    pl = Placement(die_width=100, die_height=100)
    pl.input_pads["a"] = (0.0, 0.0)
    pl.output_pads[0] = (100.0, 0.0)
    pl.set_location("f", 40.0, 30.0)
    assert net_terminals(net, pl, "a") == [(0.0, 0.0), (40.0, 30.0)]
    assert net_hpwl(net, pl, "a") == 70.0
    assert net_hpwl(net, pl, "f") == 90.0  # f -> output pad
    assert total_hpwl(net, pl) == 160.0


def test_ensure_covered_places_new_gates():
    builder = NetworkBuilder()
    a = builder.input("a")
    f = builder.buf(a, name="f")
    builder.output(f)
    net = builder.build()
    pl = Placement(die_width=100, die_height=100)
    pl.input_pads["a"] = (0.0, 0.0)
    pl.output_pads[0] = (100.0, 0.0)
    pl.set_location("f", 40.0, 30.0)
    inv = net.fresh_name("new_inv")
    from repro.network.gatetype import GateType

    net.add_gate(inv, GateType.INV, ["a"])
    net.replace_fanin(__import__("repro.network.netlist",
                                 fromlist=["Pin"]).Pin("f", 0), inv)
    pl.ensure_covered(net)
    assert pl.locations[inv] == (40.0, 30.0)  # its sink's location


def test_perturbation_audit():
    before = Placement(die_width=10, die_height=10)
    before.set_location("a", 1, 1)
    before.set_location("b", 2, 2)
    after = before.copy()
    after.set_location("a", 3, 1)
    after.set_location("new", 0, 0)
    audit = perturbation(before, after)
    assert audit["moved_cells"] == 1
    assert audit["added_cells"] == 1
    assert audit["total_displacement"] == 2


# ----------------------------------------------------------------------
# the placer
# ----------------------------------------------------------------------
def test_place_produces_legal_locations(library):
    net = random_network(5, num_gates=40)
    map_network(net, library)
    pl = place(net, library, seed=0)
    assert set(pl.locations) == set(net.gate_names())
    for name, (x, y) in pl.locations.items():
        assert 0 <= x <= pl.die_width
        assert 0 <= y <= pl.die_height
    assert len(pl.input_pads) == len(net.inputs)
    assert len(pl.output_pads) == len(net.outputs)


def test_annealing_does_not_hurt(library):
    net = random_network(7, num_gates=60, num_outputs=4)
    map_network(net, library)
    base = place(net, library, seed=0, anneal_moves=0)
    polished = place(net, library, seed=0, anneal_moves=4000)
    assert total_hpwl(net, polished) <= total_hpwl(net, base) * 1.02


def test_anneal_trajectory_golden(library):
    """The annealed placement is pinned bit for bit: a drifting move
    trajectory (RNG draws, net order, float sums) changes the digest."""
    net = random_network(3, num_gates=120, num_outputs=6)
    map_network(net, library)
    placement = place(net, library, seed=3, anneal_moves=4000)
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(placement.locations):
        x, y = placement.locations[name]
        digest.update(f"{name}:{x!r}:{y!r};".encode())
    assert digest.hexdigest() == "961deb4ad57069bd0a7d0c87280107da"


def test_die_sizing(library):
    net = random_network(2, num_gates=30)
    map_network(net, library)
    width, height = die_for(net, library)
    from repro.synth.mapper import network_area

    assert width * height >= network_area(net, library)


def test_placement_deterministic(library):
    net = random_network(9, num_gates=30)
    map_network(net, library)
    one = place(net, library, seed=4, anneal_moves=500)
    two = place(net, library, seed=4, anneal_moves=500)
    assert one.locations == two.locations
