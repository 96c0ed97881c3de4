"""Primitive transforms: all must preserve primary-output functions."""

from repro.logic.simulate import truth_tables
from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType
from repro.network.netlist import Pin
from repro.network.transform import (
    cleanup,
    collapse_wire_pairs,
    complement_net,
    propagate_constants,
    swap_inverting,
    swap_noninverting,
    sweep,
)
from repro.verify.equiv import networks_equivalent

from helpers import random_network


def test_complement_net_taps_driving_inverter():
    builder = NetworkBuilder()
    a = builder.input()
    n = builder.inv(a, name="n")
    f = builder.buf(n, name="f")
    builder.output(f)
    net = builder.build()
    # complement of n is just a - no new gate
    before = len(net)
    assert complement_net(net, "n") == a
    assert len(net) == before


def test_complement_net_respects_unstable_pins():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    inv = builder.inv(a, name="inv_a")
    f = builder.and_(inv, b, name="f")
    builder.output(f)
    net = builder.build()
    # the only existing inverter of a is inv_a; if its in-pin is
    # unstable we must create a fresh one
    fresh = complement_net(
        net, a, unstable_pins=frozenset({Pin("inv_a", 0)})
    )
    assert fresh != "inv_a"
    assert net.gate(fresh).gtype is GateType.INV


def test_swap_noninverting_exchanges_nets():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    f = builder.and_(a, b, name="f")
    g = builder.and_(c, c, name="g") if False else builder.buf(c, name="g")
    builder.output(f)
    builder.output(g)
    net = builder.build()
    swap_noninverting(net, Pin("f", 0), Pin("g", 0))
    assert net.gate("f").fanins == [c, b]
    assert net.gate("g").fanins == [a]


def test_swap_inverting_cancels_against_inverter_drivers():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    na = builder.inv(a, name="na")
    f = builder.and_(na, b, name="f")
    builder.output(f)
    net = builder.build()
    # inverting swap of the two pins of f: na's complement is a itself
    swap_inverting(net, Pin("f", 0), Pin("f", 1))
    tables = truth_tables(net)
    # f was (not a) and b == after swap (not b) and a
    i0, i1 = tables["i0"], tables["i1"]
    assert tables["f"] == (~i1 & i0) & 0b1111


def test_propagate_constants_fold():
    builder = NetworkBuilder()
    a = builder.input()
    one = builder.network.add_gate("one", GateType.CONST1).name
    zero = builder.network.add_gate("zero", GateType.CONST0).name
    f = builder.and_(a, one, name="f")       # -> BUF(a)
    g = builder.and_(a, zero, name="g")      # -> CONST0
    h = builder.xor(a, one, name="h")        # -> INV(a)
    builder.output(f)
    builder.output(g)
    builder.output(h)
    net = builder.build()
    reference = net.copy()
    folded = propagate_constants(net)
    assert folded >= 3
    assert net.gate("f").gtype is GateType.BUF
    assert net.gate("g").gtype is GateType.CONST0
    assert net.gate("h").gtype is GateType.INV
    assert networks_equivalent(reference, net)


def test_collapse_wire_pairs_and_sweep():
    builder = NetworkBuilder()
    a = builder.input()
    n1 = builder.inv(a)
    n2 = builder.inv(n1)
    f = builder.buf(n2, name="f")
    builder.output(f)
    net = builder.build()
    reference = net.copy()
    collapse_wire_pairs(net)
    swept = sweep(net)
    assert swept >= 1
    assert networks_equivalent(reference, net)


def test_cleanup_runs_to_fixpoint_on_random_networks():
    for seed in range(10):
        net = random_network(seed, num_gates=20)
        reference = net.copy()
        cleanup(net)
        assert networks_equivalent(reference, net), seed
        # idempotent
        again = cleanup(net)
        assert again == {"folded": 0, "retargeted": 0, "swept": 0}
