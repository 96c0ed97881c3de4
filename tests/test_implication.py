"""Direct backward implication: the engine behind supergate growth."""

from repro.logic.implication import backward_imply, implies_inputs
from repro.logic.simulate import truth_tables
from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType

from helpers import random_network


def test_implies_inputs_table():
    assert implies_inputs(GateType.AND, 1) == 1
    assert implies_inputs(GateType.AND, 0) is None
    assert implies_inputs(GateType.NAND, 0) == 1
    assert implies_inputs(GateType.NAND, 1) is None
    assert implies_inputs(GateType.OR, 0) == 0
    assert implies_inputs(GateType.NOR, 1) == 0
    assert implies_inputs(GateType.XOR, 0) is None
    assert implies_inputs(GateType.XOR, 1) is None
    assert implies_inputs(GateType.INV, 1) == 0
    assert implies_inputs(GateType.INV, 0) == 1
    assert implies_inputs(GateType.BUF, 1) == 1


def test_paper_example_and_gate():
    # Section 2.0: "let type(g) = AND and v=1. All in-pins of g are
    # inferred with logic value 1."
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    g = builder.and_(a, b, c, name="g")
    builder.output(g)
    net = builder.build()
    result = backward_imply(net, "g", 1)
    assert result.values == {"g": 1, "i0": 1, "i1": 1, "i2": 1}
    assert not result.conflicts and not result.agreements


def test_implication_stops_at_nonforcing_value():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    inner = builder.and_(a, b, name="inner")
    f = builder.or_(inner, c, name="f")
    builder.output(f)
    net = builder.build()
    result = backward_imply(net, "f", 0)
    # f=0 forces inner=0 and c=0, but AND=0 does not force a, b
    assert result.values == {"f": 0, "inner": 0, "i2": 0}
    assert "inner" in result.frontier


def test_implication_through_wires():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    inv = builder.inv(a, name="n")
    f = builder.and_(inv, b, name="f")
    builder.output(f)
    net = builder.build()
    result = backward_imply(net, "f", 1)
    assert result.values["n"] == 1
    assert result.values["i0"] == 0  # through the inverter


def test_conflict_detected_on_reconvergence():
    # f = AND(x, INV(x)): f=1 implies x=1 and (via INV) x=0
    builder = NetworkBuilder()
    x = builder.input()
    inv = builder.inv(x, name="n")
    f = builder.and_(x, inv, name="f")
    builder.output(f)
    net = builder.build()
    result = backward_imply(net, "f", 1)
    assert result.conflicts == [x]


def test_agreement_detected_on_reconvergence():
    # h = AND(AND(x, y), x): forcing h=1 reaches stem x twice with 1
    builder = NetworkBuilder()
    x, y = builder.inputs(2)
    g = builder.and_(x, y, name="g")
    h = builder.and_(g, x, name="h")
    builder.output(h)
    net = builder.build()
    result = backward_imply(net, "h", 1)
    assert result.agreements == [x]
    assert result.values[x] == 1


def test_cross_fanout_flag_stops_at_stems():
    builder = NetworkBuilder()
    x, y = builder.inputs(2)
    g = builder.and_(x, y, name="g")
    h = builder.and_(g, x, name="h")
    builder.output(h)
    builder.output(g)  # g is also observed: multi-fanout
    net = builder.build()
    confined = backward_imply(net, "h", 1, cross_fanout=False)
    assert "g" in confined.frontier
    assert "i1" not in confined.values
    free = backward_imply(net, "h", 1, cross_fanout=True)
    assert free.values.get("i1") == 1


def test_implied_values_are_sound():
    """Every implication must hold on every satisfying input vector."""
    for seed in range(15):
        net = random_network(seed, num_gates=12, num_outputs=1)
        tables = truth_tables(net)
        num_vars = len(net.inputs)
        for target in list(net.gate_names())[:6]:
            for value in (0, 1):
                result = backward_imply(net, target, value)
                if result.conflicts:
                    continue
                for minterm in range(1 << num_vars):
                    if ((tables[target] >> minterm) & 1) != value:
                        continue
                    for net_name, implied in result.values.items():
                        actual = (tables[net_name] >> minterm) & 1
                        assert actual == implied, (
                            seed, target, value, net_name, minterm,
                        )

