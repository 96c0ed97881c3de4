"""Logic substrate: simulation, truth-table algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.simulate import (
    extract_cone,
    random_simulate_outputs,
    simulate,
    table_mask,
    truth_tables,
    variable_word,
)
from repro.logic.truthtable import cofactor, is_es, is_nes
from repro.network.builder import NetworkBuilder

from helpers import (
    complement_variable,
    es_check_by_swap,
    nes_check_by_swap,
    random_network,
    swap_variables,
)


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------
def test_variable_word_patterns():
    assert variable_word(0, 3) == 0b10101010
    assert variable_word(1, 3) == 0b11001100
    assert variable_word(2, 3) == 0b11110000
    with pytest.raises(ValueError):
        variable_word(3, 3)


def test_simulate_requires_all_inputs():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    builder.output(builder.and_(a, b, name="f"))
    net = builder.build()
    with pytest.raises(KeyError):
        simulate(net, {"i0": 1})


def test_truth_tables_refuse_wide_support():
    from repro.network.gatetype import GateType

    builder = NetworkBuilder()
    nets = builder.inputs(25)
    builder.output(builder.tree(GateType.AND, nets, fanin_limit=4))
    net = builder.build()
    with pytest.raises(ValueError):
        truth_tables(net)


def test_extract_cone_is_selfcontained():
    net = random_network(3, num_gates=18)
    out = net.outputs[0]
    cone = extract_cone(net, [out])
    assert cone.outputs == [out]
    assert set(cone.inputs) <= set(net.inputs)
    # the cone computes the output's function over the cone's inputs
    full = truth_tables(net)
    assert truth_tables(cone, support=list(net.inputs))[out] == full[out]


def test_random_simulation_deterministic():
    net = random_network(4)
    assert random_simulate_outputs(net, seed=1) == (
        random_simulate_outputs(net, seed=1)
    )
    # different seeds almost surely differ on a non-constant circuit
    outs = {tuple(random_simulate_outputs(net, seed=s)) for s in range(4)}
    assert len(outs) > 1


# ----------------------------------------------------------------------
# truth-table algebra (hypothesis-driven)
# ----------------------------------------------------------------------
@st.composite
def table_and_vars(draw, max_vars=4):
    num_vars = draw(st.integers(min_value=2, max_value=max_vars))
    table = draw(st.integers(min_value=0, max_value=table_mask(num_vars)))
    var_i = draw(st.integers(min_value=0, max_value=num_vars - 1))
    var_j = draw(
        st.integers(min_value=0, max_value=num_vars - 1).filter(
            lambda v: v != var_i
        )
    )
    return table, num_vars, var_i, var_j


@given(table_and_vars())
@settings(max_examples=200)
def test_nes_equals_swap_invariance(args):
    table, num_vars, var_i, var_j = args
    assert is_nes(table, num_vars, var_i, var_j) == nes_check_by_swap(
        table, num_vars, var_i, var_j
    )


@given(table_and_vars())
@settings(max_examples=200)
def test_es_equals_swap_complement_invariance(args):
    table, num_vars, var_i, var_j = args
    assert is_es(table, num_vars, var_i, var_j) == es_check_by_swap(
        table, num_vars, var_i, var_j
    )


@given(table_and_vars())
@settings(max_examples=100)
def test_cofactor_idempotent_and_independent(args):
    table, num_vars, var_i, _ = args
    pos = cofactor(table, num_vars, var_i, 1)
    assert cofactor(pos, num_vars, var_i, 0) == pos
    assert cofactor(pos, num_vars, var_i, 1) == pos


@given(table_and_vars())
@settings(max_examples=100)
def test_swap_variables_involution(args):
    table, num_vars, var_i, var_j = args
    once = swap_variables(table, num_vars, var_i, var_j)
    assert swap_variables(once, num_vars, var_i, var_j) == table


@given(table_and_vars())
@settings(max_examples=100)
def test_complement_variable_involution(args):
    table, num_vars, var_i, _ = args
    once = complement_variable(table, num_vars, var_i)
    assert complement_variable(once, num_vars, var_i) == table
    shannon = cofactor(table, num_vars, var_i, 1) != cofactor(
        table, num_vars, var_i, 0
    )
    assert (once != table) == shannon


def test_known_symmetries_of_majority():
    # majority(a, b, c) is totally NES-symmetric
    maj = 0
    for minterm in range(8):
        bits = [(minterm >> i) & 1 for i in range(3)]
        if sum(bits) >= 2:
            maj |= 1 << minterm
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert is_nes(maj, 3, i, j)
        assert not is_es(maj, 3, i, j)


def test_known_symmetries_of_xor():
    # XOR is both NES and ES in every pair
    xor3 = variable_word(0, 3) ^ variable_word(1, 3) ^ variable_word(2, 3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert is_nes(xor3, 3, i, j)
        assert is_es(xor3, 3, i, j)
