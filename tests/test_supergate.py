"""GISG extraction: partition invariants, classes, paths, statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType
from repro.network.netlist import Pin
from repro.symmetry.supergate import (
    SgClass,
    extract_supergates,
    grow_supergate,
)

from helpers import fig2_network, random_network
from reachability import and_or_implied_value, xor_reachable


def test_fig2_supergate():
    net = fig2_network()
    sgn = extract_supergates(net)
    sg = sgn.supergates["f"]
    assert sg.sg_class is SgClass.ANDOR
    assert sg.root_value == 1
    assert set(sg.covered) == {"f", "inner"}
    leaves = {leaf.pin: leaf.imp_value for leaf in sg.leaves}
    assert leaves == {
        Pin("f", 1): 1,
        Pin("inner", 0): 0,
        Pin("inner", 1): 0,
    }


def test_partition_covers_every_gate_exactly_once():
    for seed in range(25):
        net = random_network(seed, num_gates=20)
        sgn = extract_supergates(net)
        assert set(sgn.owner) == set(net.gate_names()), seed
        seen: set[str] = set()
        for sg in sgn.supergates.values():
            for name in sg.covered:
                assert name not in seen, (seed, name)
                seen.add(name)
        assert seen == set(net.gate_names())


def test_roots_are_stems_or_outputs():
    """Coverage never crosses a multi-fanout net or a PO net."""
    for seed in range(15):
        net = random_network(seed, num_gates=18)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            for name in sg.covered:
                if name == sg.root:
                    continue
                # interior gates drive exactly one pin and are not POs
                assert net.fanout_degree(name) == 1, (seed, name)
                assert name not in net.outputs


def test_interior_values_match_reachability():
    """pin_values of and-or supergates equal Definition 1 imp values."""
    for seed in range(12):
        net = random_network(seed, num_gates=15)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            if sg.sg_class is not SgClass.ANDOR:
                continue
            for pin, value in sg.pin_values.items():
                definition = and_or_implied_value(net, pin, sg.root)
                assert definition == value, (seed, sg.root, pin)


def test_xor_supergate_pins_are_xor_reachable():
    for seed in range(12):
        net = random_network(seed, num_gates=15)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            if sg.sg_class is not SgClass.XOR:
                continue
            for pin in sg.pins():
                assert xor_reachable(net, pin, sg.root), (seed, pin)


def test_wire_chain_supergate():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    stem = builder.and_(a, b, name="stem")
    n1 = builder.inv(stem, name="n1")
    n2 = builder.inv(n1, name="n2")
    builder.output(n2)
    builder.output(stem)  # make the AND a stem
    net = builder.build()
    sgn = extract_supergates(net)
    sg = sgn.supergates["n2"]
    assert sg.sg_class is SgClass.WIRE
    assert set(sg.covered) == {"n1", "n2"}
    assert len(sg.leaves) == 1
    assert sg.leaves[0].net == "stem"


def test_inv_rooted_andor_supergate():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    inner = builder.nand(a, b, name="inner")
    root = builder.inv(inner, name="root")
    builder.output(root)
    net = builder.build()
    sg = grow_supergate(net, "root")
    assert sg.sg_class is SgClass.ANDOR
    assert set(sg.covered) == {"root", "inner"}
    # NAND forcing output is 0; INV(0) = 1 at the root
    assert sg.root_value == 1
    assert {leaf.imp_value for leaf in sg.leaves} == {1}


def test_const_supergate():
    builder = NetworkBuilder()
    builder.input()
    one = builder.network.add_gate("one", GateType.CONST1).name
    builder.output(one)
    net = builder.build()
    sg = grow_supergate(net, "one")
    assert sg.sg_class is SgClass.CONST
    assert sg.is_trivial


def test_root_paths_and_containment():
    net = fig2_network()
    sg = extract_supergates(net).supergates["f"]
    path = sg.root_path(Pin("inner", 0))
    assert path == [Pin("inner", 0), Pin("f", 0)]
    assert sg.properly_contains(Pin("inner", 0), Pin("f", 0))
    assert not sg.properly_contains(Pin("inner", 0), Pin("inner", 1))
    assert not sg.properly_contains(Pin("inner", 0), Pin("f", 1))
    with pytest.raises(KeyError):
        sg.root_path(Pin("nope", 0))


def test_stats_and_coverage():
    net = fig2_network()
    sgn = extract_supergates(net)
    stats = sgn.stats()
    assert stats["supergates"] == 1
    assert stats["nontrivial"] == 1
    assert sgn.coverage() == 1.0
    assert sgn.max_supergate_inputs() == 3


def test_supergate_of_lookup():
    net = fig2_network()
    sgn = extract_supergates(net)
    assert sgn.supergates[sgn.owner["inner"]].root == "f"
    assert sgn.supergates[sgn.owner["f"]].root == "f"


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_extraction_never_crashes_and_partitions(seed):
    net = random_network(
        seed, num_inputs=4, num_gates=seed % 17 + 3, num_outputs=2
    )
    sgn = extract_supergates(net)
    covered = sum(len(sg.covered) for sg in sgn.supergates.values())
    assert covered == len(net)


def test_supergate_truth_table_canonical_forms():
    """The extracted local function matches the supergate algebra.

    Cutting every leaf pin (in leaf order) leaves the root's function
    over the leaves.  An and-or supergate computes "root equals
    ``root_value`` iff every leaf equals its ``imp_value``" — an AND of
    leaf literals, complemented when ``root_value`` is 0; an xor
    supergate computes a parity (up to polarity) over its leaves.
    """
    from repro.logic.simulate import table_mask, variable_word
    from repro.symmetry.verify import cut_pin_function

    checked_andor = checked_xor = 0
    for seed in range(12):
        net = random_network(seed, num_gates=14, num_outputs=2)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            if sg.num_inputs == 0 or sg.num_inputs > 10:
                continue
            pins = [leaf.pin for leaf in sg.leaves]
            table, num_vars, _ = cut_pin_function(net, sg.root, pins)
            assert num_vars == len(pins)
            mask = table_mask(num_vars)
            if sg.sg_class is SgClass.ANDOR:
                product = mask
                for index, leaf in enumerate(sg.leaves):
                    literal = variable_word(index, num_vars)
                    if leaf.imp_value == 0:
                        literal ^= mask
                    product &= literal
                expected = product if sg.root_value == 1 else product ^ mask
                assert table == expected, (seed, sg.root)
                checked_andor += 1
            elif sg.sg_class is SgClass.XOR:
                parity = 0
                for index in range(num_vars):
                    parity ^= variable_word(index, num_vars)
                assert table in (parity, parity ^ mask), (seed, sg.root)
                checked_xor += 1
            elif sg.sg_class is SgClass.WIRE:
                literal = variable_word(0, 1)
                assert table in (literal, literal ^ table_mask(1)), (
                    seed, sg.root,
                )
    assert checked_andor > 5 and checked_xor > 0
