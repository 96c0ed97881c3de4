"""Definition 1 predicates and Theorem 1 (reachability <=> symmetry)."""

from repro.network.builder import NetworkBuilder
from repro.network.netlist import Pin
from repro.symmetry.verify import pin_pair_symmetry

from helpers import fanin_cone, random_network
from reachability import (
    and_or_implied_value,
    and_or_reachable,
    reachability_class,
    xor_reachable,
)


def test_and_or_reachability_basic():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    inner = builder.nor(a, b, name="inner")
    f = builder.and_(inner, c, name="f")
    builder.output(f)
    net = builder.build()
    # f=1 forces inner=1 and c=1; NOR=1 forces a=b=0
    assert and_or_implied_value(net, Pin("f", 1), "f") == 1
    assert and_or_implied_value(net, Pin("inner", 0), "f") == 0
    assert and_or_implied_value(net, Pin("inner", 1), "f") == 0
    assert and_or_reachable(net, Pin("inner", 0), "f")
    assert not xor_reachable(net, Pin("inner", 0), "f")


def test_reachability_stops_at_nonforcing():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    inner = builder.and_(a, b, name="inner")
    f = builder.or_(inner, c, name="f")
    builder.output(f)
    net = builder.build()
    # f=0 forces inner=0, but AND=0 forces nothing below
    assert and_or_reachable(net, Pin("f", 0), "f")
    assert not and_or_reachable(net, Pin("inner", 0), "f")


def test_reachability_stops_at_multifanout():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    shared = builder.and_(a, b, name="shared")
    g = builder.and_(shared, c, name="g")
    h = builder.inv(shared, name="h")
    builder.output(g)
    builder.output(h)
    net = builder.build()
    # shared has two fanouts: growth from g must not enter it
    assert not and_or_reachable(net, Pin("shared", 0), "g")
    assert and_or_reachable(net, Pin("g", 0), "g")


def test_xor_reachability():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    x1 = builder.xor(a, b, name="x1")
    f = builder.xnor(x1, c, name="f")
    builder.output(f)
    net = builder.build()
    assert xor_reachable(net, Pin("x1", 0), "f")
    assert xor_reachable(net, Pin("f", 1), "f")
    assert not and_or_reachable(net, Pin("x1", 0), "f")


def test_xor_reachability_blocked_by_andor():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    inner = builder.and_(a, b, name="inner")
    f = builder.xor(inner, c, name="f")
    builder.output(f)
    net = builder.build()
    assert xor_reachable(net, Pin("f", 0), "f")
    assert not xor_reachable(net, Pin("inner", 0), "f")
    assert not and_or_reachable(net, Pin("inner", 0), "f")


def test_classes_are_mutually_exclusive():
    """The paper: and-or and xor reachability are mutually exclusive."""
    for seed in range(20):
        net = random_network(seed, num_gates=15)
        roots = list(net.gate_names())
        for root in roots:
            for name in net.gate_names():
                for index in range(net.gate(name).arity()):
                    pin = Pin(name, index)
                    ao = and_or_reachable(net, pin, root)
                    xo = xor_reachable(net, pin, root)
                    assert not (ao and xo), (seed, root, pin)


def test_theorem1_reachable_pins_are_symmetric():
    """Theorem 1, soundness direction, on fanout-free constructions.

    If two pins are both and-or-reachable or both xor-reachable from a
    root (paths not containing each other), they are functionally
    symmetric w.r.t. the root.
    """
    checked = 0
    for seed in range(12):
        net = random_network(seed, num_gates=10, num_outputs=1, reuse=0.1)
        for root in list(net.gate_names())[-4:]:
            pins = [
                Pin(name, index)
                for name in net.gate_names()
                for index in range(net.gate(name).arity())
            ]
            reach = {
                pin: reachability_class(net, pin, root) for pin in pins
            }
            both_ao = [p for p, c in reach.items() if c == "and-or"]
            both_xo = [p for p, c in reach.items() if c == "xor"]
            for group in (both_ao, both_xo):
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        pin_a, pin_b = group[i], group[j]
                        if _on_same_path(net, pin_a, pin_b, root):
                            continue
                        kinds = pin_pair_symmetry(net, root, pin_a, pin_b)
                        assert kinds, (seed, root, pin_a, pin_b)
                        checked += 1
    assert checked > 20


def _on_same_path(net, pin_a, pin_b, root) -> bool:
    """Proper-containment guard for the Theorem 1 test."""
    cone_a = fanin_cone(net, net.fanin_net(pin_a)) | {net.fanin_net(pin_a)}
    cone_b = fanin_cone(net, net.fanin_net(pin_b)) | {net.fanin_net(pin_b)}
    return pin_b.gate in cone_a or pin_a.gate in cone_b or (
        pin_a.gate == pin_b.gate and pin_a.index == pin_b.index
    )
