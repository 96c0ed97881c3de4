"""Cross-supergate swapping (Definition 4 / Theorem 2)."""

from repro.network.builder import NetworkBuilder
from repro.symmetry.cross import apply_cross_swap, find_cross_swaps
from repro.symmetry.supergate import extract_supergates
from repro.verify.equiv import networks_equivalent

from helpers import fig3_network, random_network


def test_fig3_cross_swap_found_and_preserves():
    net = fig3_network()
    sgn = extract_supergates(net)
    crosses = find_cross_swaps(sgn)
    assert len(crosses) == 1
    cross = crosses[0]
    assert {cross.sg1_root, cross.sg2_root} == {"sg1", "sg2"}
    assert not cross.needs_output_inverters
    reference = net.copy()
    apply_cross_swap(net, sgn, cross)
    assert networks_equivalent(reference, net)
    # the fanin groups really moved
    assert set(net.gate("sg1").fanins) == {"i3", "i4", "i5"}
    assert set(net.gate("sg2").fanins) == {"i0", "i1", "i2"}


def test_mixed_polarity_cross_swap():
    # AND parent over an OR-rooted and a NAND-rooted supergate: their
    # root polarities agree (both forced at 0), so no output inverters
    builder = NetworkBuilder()
    a, b, c, d = builder.inputs(4)
    s1 = builder.or_(a, b, name="s1")
    s2 = builder.nand(c, d, name="s2")
    f = builder.and_(s1, s2, name="f")
    builder.output(f)
    net = builder.build()
    sgn = extract_supergates(net)
    crosses = find_cross_swaps(sgn)
    assert crosses
    reference = net.copy()
    apply_cross_swap(net, sgn, crosses[0])
    assert networks_equivalent(reference, net)


def test_opposite_polarity_requires_output_inverters():
    # XOR parent accepts both kinds, children AND vs OR have opposite
    # root polarities: the polarity-preserving variant applies via the
    # parent's inverting swappability, so no output inverters needed
    builder = NetworkBuilder()
    a, b, c, d = builder.inputs(4)
    s1 = builder.and_(a, b, name="s1")
    s2 = builder.or_(c, d, name="s2")
    f = builder.xor(s1, s2, name="f")
    builder.output(f)
    net = builder.build()
    sgn = extract_supergates(net)
    crosses = find_cross_swaps(sgn)
    assert crosses
    for cross in crosses:
        trial = net.copy()
        apply_cross_swap(trial, extract_supergates(trial), cross)
        assert networks_equivalent(net, trial)


def test_unequal_fanin_counts_rejected():
    builder = NetworkBuilder()
    a, b, c, d, e = builder.inputs(5)
    s1 = builder.and_(a, b, name="s1")
    s2 = builder.and_(c, d, e, name="s2")
    f = builder.or_(s1, s2, name="f")
    builder.output(f)
    net = builder.build()
    assert find_cross_swaps(extract_supergates(net)) == []


def test_multifanout_roots_rejected():
    net = fig3_network()
    net.add_output("sg1")  # sg1 now observed: rebinding would corrupt it
    sgn = extract_supergates(net)
    assert find_cross_swaps(sgn) == []


def test_cross_swaps_on_random_networks_preserve_function():
    found = 0
    for seed in range(60):
        net = random_network(seed, num_inputs=4, num_gates=10)
        sgn = extract_supergates(net)
        for cross in find_cross_swaps(sgn):
            trial = net.copy()
            apply_cross_swap(trial, extract_supergates(trial), cross)
            assert networks_equivalent(net, trial), (seed, cross)
            found += 1
    # the pattern is rare in random logic but must occur somewhere
    assert found >= 1
