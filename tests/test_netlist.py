"""Network container: construction, queries, mutation, caching."""

import pytest

from repro.network.gatetype import GateType
from repro.network.netlist import Network, NetworkError, Pin
from repro.place.placement import grid_placement
from repro.symmetry.supergate import extract_supergates
from repro.synth.mapper import map_network
from repro.timing.netmodel import build_star

from helpers import random_network


def build_simple() -> Network:
    net = Network("simple")
    net.add_input("a")
    net.add_input("b")
    net.add_input("c")
    net.add_gate("g1", GateType.AND, ["a", "b"])
    net.add_gate("g2", GateType.OR, ["g1", "c"])
    net.add_output("g2")
    return net


def test_membership_and_lookup():
    net = build_simple()
    assert "a" in net and "g1" in net and "zzz" not in net
    assert net.gate("g1").gtype is GateType.AND
    assert net.is_input("a") and not net.is_input("g1")
    assert net.driver("a") is None
    assert net.driver("g2").name == "g2"
    with pytest.raises(NetworkError):
        net.gate("a")  # PIs have no gate
    with pytest.raises(NetworkError):
        net.driver("zzz")


def test_duplicate_names_rejected():
    net = build_simple()
    with pytest.raises(NetworkError):
        net.add_input("a")
    with pytest.raises(NetworkError):
        net.add_gate("g1", GateType.AND, ["a", "b"])
    with pytest.raises(NetworkError):
        net.add_gate("a", GateType.AND, ["b", "c"])


def test_arity_checked_at_creation():
    net = Network("t")
    net.add_input("x")
    with pytest.raises(NetworkError):
        net.add_gate("bad", GateType.INV, ["x", "x"])
    with pytest.raises(NetworkError):
        net.add_gate("bad", GateType.AND, ["x"])
    with pytest.raises(NetworkError):
        net.add_gate("bad", GateType.CONST0, ["x"])


def test_fanout_map():
    net = build_simple()
    assert net.fanout("a") == [Pin("g1", 0)]
    assert net.fanout("g1") == [Pin("g2", 0)]
    assert net.fanout("g2") == []
    assert net.fanout_degree("g2") == 1  # the primary output counts
    assert net.fanout_degree("g1") == 1
    assert net.fanout_degree("c") == 1


def test_topo_order_and_cycle_detection():
    net = build_simple()
    order = net.topo_order()
    assert order.index("g1") < order.index("g2")
    # create a cycle
    net.replace_fanin(Pin("g1", 0), "g2")
    with pytest.raises(NetworkError):
        net.topo_order()


def test_levels_and_depth():
    net = build_simple()
    levels = net.levels()
    assert levels["a"] == 0
    assert levels["g1"] == 1
    assert levels["g2"] == 2
    assert net.depth() == 2


def test_replace_and_swap_fanins():
    net = build_simple()
    old = net.replace_fanin(Pin("g1", 1), "c")
    assert old == "b"
    assert net.gate("g1").fanins == ["a", "c"]
    net.swap_fanins(Pin("g1", 0), Pin("g2", 1))
    assert net.gate("g1").fanins == ["c", "c"]
    assert net.gate("g2").fanins == ["g1", "a"]
    with pytest.raises(NetworkError):
        net.replace_fanin(Pin("g1", 0), "nope")


def test_remove_gate_guards():
    net = build_simple()
    with pytest.raises(NetworkError):
        net.remove_gate("g1")  # still drives g2
    with pytest.raises(NetworkError):
        net.remove_gate("g2")  # primary output
    net.replace_fanin(Pin("g2", 0), "a")
    net.remove_gate("g1")
    assert "g1" not in net


def test_replace_output():
    net = build_simple()
    net.replace_output("g2", "g1")
    assert net.outputs == ["g1"]
    with pytest.raises(NetworkError):
        net.replace_output("g1", "zzz")


def test_version_bumps_invalidate_caches():
    net = build_simple()
    first = net.topo_order()
    version = net.version
    net.replace_fanin(Pin("g2", 1), "a")
    assert net.version > version
    second = net.topo_order()
    assert second is not first


def test_copy_is_deep():
    net = build_simple()
    dup = net.copy()
    dup.gate("g1").fanins[0] = "c"
    assert net.gate("g1").fanins[0] == "a"
    dup.add_input("d")
    assert "d" not in net


def test_recent_gates():
    net = build_simple()
    assert net.recent_gates(1) == ["g2"]
    assert net.recent_gates(2) == ["g1", "g2"]
    assert net.recent_gates(0) == []


def test_fresh_name_never_collides():
    net = build_simple()
    name1 = net.fresh_name("g1")
    assert name1 != "g1" and name1 not in net
    assert net.fresh_name("brand_new") == "brand_new"


def test_random_networks_are_deterministic():
    one = random_network(7)
    two = random_network(7)
    assert list(one.gate_names()) == list(two.gate_names())
    assert [g.fanins for g in one.gates()] == [g.fanins for g in two.gates()]


def test_per_gate_records_have_no_instance_dict(library):
    # a run keeps one of these per gate, net, root or pin, tens of
    # thousands at scale: slotted records carry no per-instance dict
    net = random_network(5, num_gates=30, num_outputs=3)
    map_network(net, library)
    placement = grid_placement(net)
    supergates = list(extract_supergates(net).supergates.values())
    star = next(
        build_star(net, placement, library, name)
        for name in net.gate_names() if net.fanout(name)
    )
    records = {
        "Gate": next(net.gates()),
        "Supergate": supergates[0],
        "SgLeaf": next(leaf for sg in supergates for leaf in sg.leaves),
        "StarNet": star,
        "StarSink": star.sinks[0],
    }
    for kind, record in records.items():
        assert not hasattr(record, "__dict__"), kind
