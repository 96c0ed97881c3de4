"""Swappable pins (Lemmas 6-8): legality, kinds, function preservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.netlist import Pin
from repro.symmetry.supergate import SgClass, extract_supergates
from repro.symmetry.swap import (
    apply_swap,
    count_swappable_pairs,
    enumerate_swaps,
    swap_kinds,
    swapped_copy,
)
from repro.symmetry.verify import pin_pair_symmetry
from repro.verify.equiv import networks_equivalent

from helpers import fig2_network, random_network


def test_fig2_swap_kinds():
    net = fig2_network()
    sg = extract_supergates(net).supergates["f"]
    # equal implied values -> non-inverting (Lemma 7)
    assert swap_kinds(sg, Pin("inner", 0), Pin("inner", 1)) == {
        "non-inverting"
    }
    # different implied values -> inverting
    assert swap_kinds(sg, Pin("f", 1), Pin("inner", 0)) == {"inverting"}
    # containment -> nothing (Lemma 6's constraint)
    assert swap_kinds(sg, Pin("f", 0), Pin("inner", 0)) == set()
    assert swap_kinds(sg, Pin("f", 0), Pin("f", 0)) == set()


def test_xor_supergates_allow_both_kinds():
    from repro.network.builder import NetworkBuilder

    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    x1 = builder.xor(a, b, name="x1")
    f = builder.xnor(x1, c, name="f")
    builder.output(f)
    net = builder.build()
    sg = extract_supergates(net).supergates["f"]
    assert sg.sg_class is SgClass.XOR
    kinds = swap_kinds(sg, Pin("x1", 0), Pin("f", 1))
    assert kinds == {"non-inverting", "inverting"}


def test_every_enumerated_swap_preserves_function():
    """The headline safety property, over many random networks."""
    total = 0
    for seed in range(30):
        net = random_network(seed, num_gates=14)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            for swap in enumerate_swaps(sg, leaves_only=False):
                trial = swapped_copy(net, swap)
                assert networks_equivalent(net, trial), (
                    seed, swap,
                )
                total += 1
    assert total > 300


def test_swap_kinds_match_ground_truth_symmetry():
    """Lemma 7/8 against NES/ES tables: structural implies functional."""
    for seed in range(15):
        net = random_network(seed, num_gates=12)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            for swap in enumerate_swaps(sg, leaves_only=False):
                truth = pin_pair_symmetry(
                    net, sg.root, swap.pin_a, swap.pin_b
                )
                expected = "es" if swap.inverting else "nes"
                assert expected in truth, (seed, swap)


def test_leaves_only_excludes_internal_pins():
    net = fig2_network()
    sg = extract_supergates(net).supergates["f"]
    leaf_swaps = list(enumerate_swaps(sg, leaves_only=True))
    all_swaps = list(enumerate_swaps(sg, leaves_only=False))
    leaf_pins = {leaf.pin for leaf in sg.leaves}
    for swap in leaf_swaps:
        assert swap.pin_a in leaf_pins and swap.pin_b in leaf_pins
    assert len(all_swaps) >= len(leaf_swaps)


def test_include_inverting_flag():
    net = fig2_network()
    sg = extract_supergates(net).supergates["f"]
    without = list(enumerate_swaps(sg, include_inverting=False))
    assert all(not swap.inverting for swap in without)


def test_apply_swap_noninverting_keeps_gate_count():
    net = fig2_network()
    sg = extract_supergates(net).supergates["f"]
    swap = next(
        s for s in enumerate_swaps(sg) if not s.inverting
    )
    before = len(net)
    apply_swap(net, swap)
    assert len(net) == before


def test_apply_swap_inverting_adds_at_most_two_gates():
    net = fig2_network()
    sg = extract_supergates(net).supergates["f"]
    swap = next(
        s for s in enumerate_swaps(sg, leaves_only=False) if s.inverting
    )
    before = len(net)
    reference = net.copy()
    apply_swap(net, swap)
    assert len(net) <= before + 2
    assert networks_equivalent(reference, net)


def test_count_swappable_pairs_census():
    net = fig2_network()
    sgn = extract_supergates(net)
    census = count_swappable_pairs(sgn)
    assert census["non-inverting"] == 1  # the two NOR pins
    assert census["inverting"] == 2      # x against each NOR pin
    assert census["supergates_with_swaps"] == 1


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_swap_safety_property(seed):
    net = random_network(seed, num_inputs=4, num_gates=10)
    sgn = extract_supergates(net)
    for sg in sgn.supergates.values():
        for swap in enumerate_swaps(sg, leaves_only=False):
            trial = swapped_copy(net, swap)
            assert networks_equivalent(net, trial)
