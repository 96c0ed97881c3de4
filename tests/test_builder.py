"""NetworkBuilder conveniences: folding, trees, arithmetic blocks."""

import pytest

from repro.logic.simulate import truth_tables, variable_word
from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType
from repro.network.validate import check_network


def test_single_input_gates_fold_to_wires():
    builder = NetworkBuilder()
    a = builder.input()
    assert builder.network.gate(builder.and_(a)).gtype is GateType.BUF
    assert builder.network.gate(builder.nand(a)).gtype is GateType.INV
    assert builder.network.gate(builder.xor(a)).gtype is GateType.BUF
    assert builder.network.gate(builder.xnor(a)).gtype is GateType.INV


def test_auto_names_are_unique():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    names = {builder.and_(a, b) for _ in range(10)}
    assert len(names) == 10


def test_balanced_tree_function_and_depth():
    builder = NetworkBuilder()
    nets = builder.inputs(9)
    root = builder.tree(GateType.AND, nets, fanin_limit=3)
    builder.output(root)
    net = builder.build()
    check_network(net)
    tables = truth_tables(net)
    expect = (1 << (1 << 9)) - 1
    for index in range(9):
        expect &= variable_word(index, 9)
    assert tables[root] == expect
    assert net.depth() == 2  # 9 -> 3 -> 1 with fanin 3


def test_chain_tree_function():
    builder = NetworkBuilder()
    nets = builder.inputs(5)
    root = builder.tree(GateType.XOR, nets, style="chain")
    builder.output(root)
    net = builder.build()
    tables = truth_tables(net)
    expect = 0
    for index in range(5):
        expect ^= variable_word(index, 5)
    assert tables[root] == expect


def test_inverted_tree_types():
    builder = NetworkBuilder()
    nets = builder.inputs(6)
    root = builder.tree(GateType.NAND, nets, fanin_limit=2)
    builder.output(root)
    net = builder.build()
    tables = truth_tables(net)
    conj = (1 << (1 << 6)) - 1
    for index in range(6):
        conj &= variable_word(index, 6)
    assert tables[root] == ~conj & ((1 << (1 << 6)) - 1)


def test_tree_rejects_empty():
    builder = NetworkBuilder()
    with pytest.raises(ValueError):
        builder.tree(GateType.AND, [])


def test_mux_function():
    builder = NetworkBuilder()
    s, a, b = builder.inputs(3)
    out = builder.mux(s, a, b, name="m")
    builder.output(out)
    tables = truth_tables(builder.build())
    sel = variable_word(0, 3)
    w_a = variable_word(1, 3)
    w_b = variable_word(2, 3)
    mask = (1 << 8) - 1
    assert tables["m"] == ((~sel & w_a) | (sel & w_b)) & mask


def test_full_adder_function():
    builder = NetworkBuilder()
    a, b, cin = builder.inputs(3)
    total, carry = builder.full_adder(a, b, cin)
    builder.output(total)
    builder.output(carry)
    tables = truth_tables(builder.build())
    for minterm in range(8):
        bits = [(minterm >> i) & 1 for i in range(3)]
        expect = sum(bits)
        got = ((tables[total] >> minterm) & 1) + 2 * (
            (tables[carry] >> minterm) & 1
        )
        assert got == expect, minterm


def test_constants():
    builder = NetworkBuilder()
    builder.input()
    one = builder.network.add_gate("one", GateType.CONST1).name
    zero = builder.network.add_gate("zero", GateType.CONST0).name
    builder.output(one)
    builder.output(zero)
    net = builder.build()
    tables = truth_tables(net)
    assert tables[one] == 0b11
    assert tables[zero] == 0
