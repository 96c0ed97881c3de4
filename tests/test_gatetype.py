"""Gate-type algebra: controlling values, inversion, evaluation."""

import pytest

from repro.network.gatetype import (
    GateType,
    base_type,
    complement_type,
    controlling_value,
    eval_gate,
    forced_input_value,
    forcing_output_value,
    is_inverted,
    max_arity,
    min_arity,
    noncontrolling_value,
)


def test_base_type_strips_inversion():
    assert base_type(GateType.NAND) is GateType.AND
    assert base_type(GateType.NOR) is GateType.OR
    assert base_type(GateType.XNOR) is GateType.XOR
    assert base_type(GateType.INV) is GateType.BUF
    assert base_type(GateType.AND) is GateType.AND


def test_inverted_flags():
    assert is_inverted(GateType.NAND)
    assert is_inverted(GateType.NOR)
    assert is_inverted(GateType.XNOR)
    assert is_inverted(GateType.INV)
    assert not is_inverted(GateType.AND)
    assert not is_inverted(GateType.BUF)


def test_complement_type_is_involution():
    for gtype in GateType:
        assert complement_type(complement_type(gtype)) is gtype


def test_controlling_values_match_paper():
    # Section 2.0: for AND, cv = 0
    assert controlling_value(GateType.AND) == 0
    assert controlling_value(GateType.NAND) == 0
    assert controlling_value(GateType.OR) == 1
    assert controlling_value(GateType.NOR) == 1
    assert controlling_value(GateType.XOR) is None
    assert controlling_value(GateType.INV) is None


def test_noncontrolling_is_opposite():
    for gtype in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR):
        assert noncontrolling_value(gtype) == 1 - controlling_value(gtype)


@pytest.mark.parametrize(
    "gtype,expected",
    [
        (GateType.AND, 1),   # AND=1 forces all inputs 1
        (GateType.NAND, 0),  # NAND=0 forces all inputs 1
        (GateType.OR, 0),
        (GateType.NOR, 1),
        (GateType.XOR, None),
        (GateType.XNOR, None),
    ],
)
def test_forcing_output_value(gtype, expected):
    assert forcing_output_value(gtype) == expected


def test_forced_input_value_is_ncv():
    assert forced_input_value(GateType.AND) == 1
    assert forced_input_value(GateType.NAND) == 1
    assert forced_input_value(GateType.OR) == 0
    assert forced_input_value(GateType.NOR) == 0


def test_eval_gate_truth_tables():
    # two variables: a=0b0101 (lsb-first minterms), b=0b0011
    a, b = 0b1010, 0b1100
    mask = 0b1111
    assert eval_gate(GateType.AND, [a, b], mask) == 0b1000
    assert eval_gate(GateType.OR, [a, b], mask) == 0b1110
    assert eval_gate(GateType.XOR, [a, b], mask) == 0b0110
    assert eval_gate(GateType.NAND, [a, b], mask) == 0b0111
    assert eval_gate(GateType.NOR, [a, b], mask) == 0b0001
    assert eval_gate(GateType.XNOR, [a, b], mask) == 0b1001
    assert eval_gate(GateType.INV, [a], mask) == 0b0101
    assert eval_gate(GateType.BUF, [a], mask) == a


def test_eval_gate_constants():
    assert eval_gate(GateType.CONST0, [], 0b1111) == 0
    assert eval_gate(GateType.CONST1, [], 0b1111) == 0b1111


def test_eval_gate_wide():
    words = [0b1111, 0b1110, 0b1100]
    assert eval_gate(GateType.AND, words, 0b1111) == 0b1100
    assert eval_gate(GateType.OR, words, 0b1111) == 0b1111


def test_eval_gate_rejects_bad_arity():
    with pytest.raises(ValueError):
        eval_gate(GateType.INV, [1, 2], 3)
    with pytest.raises(ValueError):
        eval_gate(GateType.AND, [], 1)


def test_arity_bounds():
    assert min_arity(GateType.INV) == 1
    assert max_arity(GateType.INV) == 1
    assert min_arity(GateType.AND) == 2
    assert max_arity(GateType.AND) is None
    assert min_arity(GateType.CONST0) == 0
    assert max_arity(GateType.CONST1) == 0
