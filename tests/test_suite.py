"""Benchmark suite: generators, registry, redundancy injection, flow."""

import pytest

from repro.logic.simulate import simulate_outputs
from repro.suite import circuits
from repro.suite.flow import FlowConfig, prepare_benchmark, run_benchmark
from repro.suite.redundant import inject_redundant_wires
from repro.suite.registry import (
    PAPER_AVERAGES,
    REGISTRY,
    UnknownBenchmarkError,
    benchmark_names,
    build_benchmark,
    configured_scale,
    synthetic_names,
)
from repro.network.validate import check_network
from repro.verify.equiv import networks_equivalent


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def test_alu_adds_correctly():
    net = circuits.alu(bits=4)
    # op1=0 -> arithmetic; op0=0 -> sum
    for a_val, b_val in ((3, 5), (9, 8), (15, 1), (0, 0)):
        inputs = {"op0": 0, "op1": 0, "sub": 0}
        for i in range(4):
            inputs[f"a{i}"] = (a_val >> i) & 1
            inputs[f"b{i}"] = (b_val >> i) & 1
        outs = dict(zip(net.outputs, simulate_outputs(net, inputs)))
        total = sum(outs[f"y{i}"] << i for i in range(4))
        assert total == (a_val + b_val) % 16, (a_val, b_val)


def test_alu_subtracts():
    net = circuits.alu(bits=4)
    inputs = {"op0": 0, "op1": 0, "sub": 1}
    a_val, b_val = 9, 3
    for i in range(4):
        inputs[f"a{i}"] = (a_val >> i) & 1
        inputs[f"b{i}"] = (b_val >> i) & 1
    outs = dict(zip(net.outputs, simulate_outputs(net, inputs)))
    total = sum(outs[f"y{i}"] << i for i in range(4))
    assert total == (a_val - b_val) % 16


def test_multiplier_is_correct():
    net = circuits.multiplier(bits=4)
    for a_val, b_val in ((3, 5), (7, 7), (15, 15), (0, 9), (1, 13)):
        inputs = {}
        for i in range(4):
            inputs[f"a{i}"] = (a_val >> i) & 1
            inputs[f"b{i}"] = (b_val >> i) & 1
        outs = dict(zip(net.outputs, simulate_outputs(net, inputs)))
        product = sum(
            outs[name] << index
            for index, name in enumerate(net.outputs)
        )
        assert product == a_val * b_val, (a_val, b_val)


def test_sec_circuit_shapes():
    net = circuits.sec_circuit(data_bits=16, syndrome_bits=6)
    check_network(net)
    assert len(net.inputs) == 22
    # syndrome outputs + corrected data outputs
    assert len(net.outputs) == 6 + 16


def test_interrupt_controller_priority():
    net = circuits.interrupt_controller(channels=4, buses=2)
    check_network(net)
    # all requests on bus 0 active, all enables on: channel 0 wins
    inputs = {pi: 0 for pi in net.inputs}
    for c in range(4):
        inputs[f"r0_{c}"] = 1
    inputs["e0"] = 1
    outs = dict(zip(net.outputs, simulate_outputs(net, inputs)))
    assert outs["gc0"] == 1
    assert outs["gc1"] == 0 and outs["gc2"] == 0


def test_pla_and_control_are_deterministic():
    one = circuits.pla_control(num_inputs=12, num_terms=20, num_outputs=6)
    two = circuits.pla_control(num_inputs=12, num_terms=20, num_outputs=6)
    assert list(one.gate_names()) == list(two.gate_names())
    ctl_a = circuits.random_control(num_inputs=10, num_gates=40,
                                    num_outputs=5, seed=3)
    ctl_b = circuits.random_control(num_inputs=10, num_gates=40,
                                    num_outputs=5, seed=3)
    assert [g.fanins for g in ctl_a.gates()] == [
        g.fanins for g in ctl_b.gates()
    ]


def test_random_control_depth_bounded():
    net = circuits.random_control(
        num_inputs=20, num_gates=300, num_outputs=10, seed=1, max_depth=12,
    )
    assert net.depth() <= 12


def test_bus_interface_valid():
    net = circuits.bus_interface(width=6, control_gates=60)
    check_network(net)
    assert "eq" in net.outputs and "par" in net.outputs


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_all_19_table1_circuits():
    assert len(benchmark_names()) == 19
    for name in ("alu2", "c6288", "k2", "s38417"):
        assert name in REGISTRY


def test_registry_paper_averages_match_paper():
    assert PAPER_AVERAGES["gsg_percent"] == 3.1
    assert PAPER_AVERAGES["gs_percent"] == 5.4
    assert PAPER_AVERAGES["gsg_gs_percent"] == 9.0


def test_build_benchmark_scales():
    small = build_benchmark("alu2", scale=0.2)
    large = build_benchmark("alu2", scale=0.6)
    assert len(large) > len(small)
    with pytest.raises(KeyError):
        build_benchmark("nonesuch")


def test_every_registered_benchmark_builds():
    # registry round-trip: every entry's generator runs at tiny scale
    # and yields a valid non-empty network whose name round-trips —
    # a registry typo (bad parameter, renamed generator) fails here
    # instead of deep inside a Table 1 run
    for name in benchmark_names():
        net = build_benchmark(name, scale=0.05)
        check_network(net)
        assert len(net) > 0, name
        assert net.name == name
    for name in synthetic_names():
        net = build_benchmark(name, scale=0.01)
        check_network(net)
        assert len(net) > 0, name
        assert net.name == name


def test_synthetic_workloads_out_of_table1():
    assert set(synthetic_names()) == {"tiled100k", "tiled1m"}
    for name in synthetic_names():
        assert name not in benchmark_names()
        assert name in REGISTRY


def test_unknown_benchmark_error_is_helpful():
    with pytest.raises(UnknownBenchmarkError) as excinfo:
        build_benchmark("alu3")
    message = str(excinfo.value)
    assert "alu3" in message
    # close-match suggestion plus the full inventory
    assert "alu2" in message and "alu4" in message
    assert "tiled100k" in message
    # the historical contract: still a KeyError
    assert isinstance(excinfo.value, KeyError)


def test_configured_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert configured_scale() == 0.5
    monkeypatch.setenv("REPRO_SCALE", "0.01")
    assert configured_scale() == 0.05
    # a value that is not a positive number is an error, not the default
    for raw in ("garbage", "abc", "-3", "0", "nan", "inf"):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError, match=f"^REPRO_SCALE={raw!r}"):
            configured_scale()
    monkeypatch.setenv("REPRO_SCALE", "")
    assert configured_scale() == pytest.approx(0.35)
    monkeypatch.delenv("REPRO_SCALE")
    assert configured_scale() == pytest.approx(0.35)


# ----------------------------------------------------------------------
# redundancy injection
# ----------------------------------------------------------------------
def test_injection_preserves_function():
    for seed in range(8):
        net = build_benchmark("c432", scale=0.2)
        reference = net.copy()
        added = inject_redundant_wires(net, 4, seed=seed)
        assert added > 0
        assert networks_equivalent(reference, net), seed


def test_injection_is_detectable():
    from repro.symmetry.redundancy import find_easy_redundancies

    net = build_benchmark("c432", scale=0.3)
    baseline = len(find_easy_redundancies(net))
    inject_redundant_wires(net, 6, seed=2)
    assert len(find_easy_redundancies(net)) > baseline


# ----------------------------------------------------------------------
# the flow (kept tiny for test runtime)
# ----------------------------------------------------------------------
def test_prepare_benchmark_produces_placed_mapped_design(library):
    config = FlowConfig(scale=0.15, presize=False, anneal_moves=200)
    outcome = prepare_benchmark("alu2", config, library)
    check_network(outcome.network)
    assert outcome.initial_delay > 0
    assert outcome.hpwl > 0
    assert set(outcome.placement.locations) == set(
        outcome.network.gate_names()
    )
    assert outcome.stats["gates"] == len(outcome.network)


def test_run_benchmark_full_row(library):
    config = FlowConfig(
        scale=0.15, presize=False, anneal_moves=200,
        max_rounds=2, check_equivalence=True,
    )
    outcome = run_benchmark("c432", config, library)
    assert outcome.row is not None
    row = outcome.row
    assert row.circuit == "c432"
    assert row.gates == len(outcome.network)
    for mode, result in outcome.results.items():
        assert result.equivalent is True, mode
        assert result.optimize.final_delay <= (
            result.optimize.initial_delay + 1e-9
        )


# ----------------------------------------------------------------------
# tree-builder utilities behind the generators
# ----------------------------------------------------------------------
def test_slotted_tree_shares_aligned_halves():
    from repro.network.builder import NetworkBuilder
    from repro.network.gatetype import GateType
    from repro.suite.circuits import slotted_tree

    builder = NetworkBuilder()
    nets = builder.inputs(8)
    memo = {}
    # two patterns agreeing on the lower half share its product
    slots_a = list(nets)
    slots_b = list(nets[:4]) + [None, nets[5], None, nets[7]]
    slotted_tree(builder, GateType.AND, slots_a, memo)
    gates_mid = len(builder.network)
    slotted_tree(builder, GateType.AND, slots_b, memo)
    added = len(builder.network) - gates_mid
    # the shared lower half costs nothing the second time
    assert added <= 3


def test_slotted_tree_functions():
    from repro.logic.simulate import truth_tables, variable_word
    from repro.network.builder import NetworkBuilder
    from repro.network.gatetype import GateType
    from repro.suite.circuits import slotted_tree

    builder = NetworkBuilder()
    nets = builder.inputs(6)
    slots = [nets[0], None, nets[2], nets[3], None, nets[5]]
    root = slotted_tree(builder, GateType.AND, slots, {})
    builder.output(root)
    net = builder.build()
    tables = truth_tables(net)
    expect = (1 << 64) - 1
    for index in (0, 2, 3, 5):
        expect &= variable_word(index, 6)
    assert tables[root] == expect


def test_slotted_tree_degenerate_cases():
    from repro.network.builder import NetworkBuilder
    from repro.network.gatetype import GateType
    from repro.suite.circuits import slotted_tree

    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    assert slotted_tree(builder, GateType.AND, [None, None], {}) is None
    assert slotted_tree(builder, GateType.AND, [a, None], {}) == a
