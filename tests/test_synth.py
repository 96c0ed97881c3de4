"""Synthesis pipeline: strash, decomposition, phase mapping, binding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.builder import NetworkBuilder
from repro.network.gatetype import CONST_TYPES, GateType
from repro.network.validate import check_network
from repro.synth.mapper import (
    decompose,
    map_network,
    network_area,
)
from repro.synth.phase import phase_map
from repro.synth.strash import script_rugged, simplify_trivial, strash
from repro.verify.equiv import networks_equivalent

from helpers import random_network

_MAPPED_TYPES = frozenset(
    {
        GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR,
        GateType.INV, GateType.BUF,
    }
) | CONST_TYPES


def test_strash_merges_duplicates():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    g1 = builder.and_(a, b)
    g2 = builder.and_(b, a)  # same multiset of fanins
    f = builder.or_(g1, g2, name="f")
    builder.output(f)
    net = builder.build()
    reference = net.copy()
    merged = strash(net)
    assert merged == 1
    assert networks_equivalent(reference, net)


def test_strash_cascades():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    g1 = builder.and_(a, b)
    g2 = builder.and_(a, b)
    h1 = builder.or_(g1, c)
    h2 = builder.or_(g2, c)
    f = builder.xor(h1, h2, name="f")
    builder.output(f)
    net = builder.build()
    reference = net.copy()
    merged = strash(net)
    assert merged >= 2  # the merge of g's makes the h's identical too
    assert networks_equivalent(reference, net)


def test_simplify_trivial():
    from repro.network.netlist import Network

    net = Network("t")
    net.add_input("a")
    net.add_input("b")
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_output("g")
    # degenerate arity appears only through direct mutation (generators,
    # constant folding); the checked constructor refuses it
    net.gate("g").fanins = ["a"]
    net._touch()
    assert simplify_trivial(net) == 1
    assert net.gate("g").gtype is GateType.BUF


def test_script_rugged_preserves_function():
    for seed in range(10):
        net = random_network(seed, num_gates=22)
        reference = net.copy()
        script_rugged(net)
        assert networks_equivalent(reference, net), seed


def test_decompose_respects_library_arity(library):
    builder = NetworkBuilder()
    nets = builder.inputs(9)
    builder.output(builder.gate(GateType.AND, *nets, name="wide"))
    builder.output(builder.gate(GateType.XNOR, *nets[:5], name="wx"))
    net = builder.build()
    reference = net.copy()
    decompose(net, library)
    check_network(net)
    for gate in net.gates():
        if gate.gtype in (GateType.NAND, GateType.NOR, GateType.AND,
                          GateType.OR):
            assert gate.arity() <= 4
        if gate.gtype in (GateType.XOR, GateType.XNOR):
            assert gate.arity() <= 2
    assert networks_equivalent(reference, net)


def test_phase_map_only_inverting_cells():
    for seed in range(10):
        net = random_network(seed, num_gates=18, max_arity=4)
        mapped = phase_map(net)
        check_network(mapped)
        for gate in mapped.gates():
            assert gate.gtype in _MAPPED_TYPES, (seed, gate)
        assert networks_equivalent(net, mapped), seed


def test_phase_map_shares_pi_inverters():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    # two ORs in negative contexts need 'a' inverted twice
    f = builder.and_(builder.or_(a, b), builder.or_(a, c), name="f")
    builder.output(f)
    net = builder.build()
    mapped = phase_map(net)
    inverters_of_a = [
        g for g in mapped.gates()
        if g.gtype is GateType.INV and g.fanins == ["i0"]
    ]
    assert len(inverters_of_a) <= 1


def test_map_network_full_pipeline(library):
    for seed in range(8):
        net = random_network(seed, num_gates=20, max_arity=5)
        reference = net.copy()
        map_network(net, library)
        check_network(net)
        assert all(
            gate.cell is not None
            for gate in net.gates() if gate.gtype not in CONST_TYPES
        )
        assert networks_equivalent(reference, net), seed
        for gate in net.gates():
            if gate.cell is not None:
                cell = library.cell(gate.cell)
                assert cell.function is gate.gtype
                assert cell.arity == gate.arity()


def test_wlm_sizing_upsizes_heavy_fanout(library):
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    hub = builder.and_(a, b, name="hub")
    for index in range(12):
        builder.output(builder.nand(hub, a, name=f"o{index}"))
    net = builder.build()
    map_network(net, library)
    hub_cell = library.cell(net.gate("hub").cell)
    leaf_cell = library.cell(net.gate("o3").cell)
    assert hub_cell.size > leaf_cell.size


def test_area_and_stats(library):
    net = random_network(3, num_gates=15)
    map_network(net, library)
    area = network_area(net, library)
    assert area > 0
    assert area == sum(library.cell(gate.cell).area for gate in net.gates()
                       if gate.cell is not None)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=30, deadline=None)
def test_mapping_equivalence_property(seed):
    library = __import__(
        "repro.library.cells", fromlist=["default_library"]
    ).default_library()
    net = random_network(seed, num_inputs=4, num_gates=12, max_arity=5)
    reference = net.copy()
    map_network(net, library)
    assert networks_equivalent(reference, net)
