"""ATPG engine: five-valued simulation, PODEM search, Lemma 1."""

import pytest

from repro.atpg.faults import Fault, all_faults, fault_site_support
from repro.atpg.podem import evaluate_gate, find_test, is_testable, simulate5
from repro.logic.simulate import truth_tables
from repro.logic.truthtable import is_es, is_nes
from repro.logic.values import Value
from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType
from repro.network.netlist import Pin
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import enumerate_swaps

from atpg_symmetry import es_by_atpg, nes_by_atpg, pin_symmetry_by_atpg
from helpers import random_network


def simple_and():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    builder.output(builder.and_(a, b, name="f"))
    return builder.build()


def test_evaluate_gate_five_valued():
    assert evaluate_gate(GateType.AND, [Value.D, Value.ONE]) is Value.D
    assert evaluate_gate(GateType.AND, [Value.D, Value.ZERO]) is Value.ZERO
    assert evaluate_gate(GateType.OR, [Value.D, Value.ZERO]) is Value.D
    assert evaluate_gate(GateType.NAND, [Value.D, Value.ONE]) is Value.DBAR
    assert evaluate_gate(GateType.XOR, [Value.D, Value.DBAR]) is Value.ONE
    assert evaluate_gate(GateType.INV, [Value.D]) is Value.DBAR
    assert evaluate_gate(GateType.CONST1, []) is Value.ONE


def test_simulate5_with_stem_fault():
    net = simple_and()
    values = simulate5(
        net,
        {"i0": Value.ONE, "i1": Value.ONE},
        fault=Fault(net="i0", stuck_at=0),
    )
    assert values["i0"] is Value.D
    assert values["f"] is Value.D


def test_simulate5_with_branch_fault():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    g = builder.and_(a, b, name="g")
    h = builder.or_(a, g, name="h")
    builder.output(h)
    net = builder.build()
    # branch a->g stuck at 1; a=0, b=1: g sees a=1 faulty
    values = simulate5(
        net,
        {"i0": Value.ZERO, "i1": Value.ONE},
        fault=Fault(net="i0", stuck_at=1, pin=Pin("g", 0)),
    )
    assert values["i0"] is Value.ZERO       # the stem itself is healthy
    assert values["g"] is Value.DBAR        # the branch view is faulty
    assert values["h"] is Value.DBAR


def test_find_test_for_testable_fault():
    net = simple_and()
    result = find_test(net, fault=Fault(net="i0", stuck_at=0))
    assert result.test is not None
    assert result.test["i0"] == 1 and result.test["i1"] == 1


def test_find_test_proves_untestable():
    # f = OR(a, AND(a, b)): the AND output s-a-0 is untestable
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    g = builder.and_(a, b, name="g")
    f = builder.or_(a, g, name="f")
    builder.output(f)
    net = builder.build()
    assert is_testable(net, Fault(net="g", stuck_at=0)) is False
    assert is_testable(net, Fault(net="g", stuck_at=1)) is True


def test_every_testable_test_actually_detects():
    """Returned tests must produce different good/faulty outputs."""
    from repro.logic.simulate import simulate_outputs

    for seed in range(6):
        net = random_network(seed, num_gates=10, num_outputs=2)
        for fault in list(all_faults(net, include_branches=False))[:20]:
            result = find_test(net, fault=fault, max_backtracks=3000)
            if result.test is None:
                continue
            good = simulate_outputs(net, result.test)
            faulty_net = _with_stuck_net(net, fault)
            faulty = simulate_outputs(faulty_net, result.test)
            assert good != faulty, (seed, str(fault))


def _with_stuck_net(net, fault):
    trial = net.copy()
    if trial.is_input(fault.net):
        # replace the PI by a constant via a rename dance
        const = trial.fresh_name("stuck")
        trial.add_gate(
            const,
            GateType.CONST1 if fault.stuck_at else GateType.CONST0,
            [],
        )
        for pin in list(trial.fanout(fault.net)):
            trial.replace_fanin(pin, const)
        trial.outputs = [
            const if net_name == fault.net else net_name
            for net_name in trial.outputs
        ]
        return trial
    gate = trial.gate(fault.net)
    gate.fanins = []
    trial.set_gate_type(
        fault.net,
        GateType.CONST1 if fault.stuck_at else GateType.CONST0,
    )
    return trial


def test_find_test_requires_some_target():
    net = simple_and()
    with pytest.raises(ValueError):
        find_test(net)


def test_fault_site_support_subset_of_inputs():
    net = random_network(1, num_gates=12)
    for fault in list(all_faults(net, include_branches=False))[:10]:
        support = fault_site_support(net, fault)
        assert set(support) <= set(net.inputs)


def test_lemma1_nes_es_match_truth_tables():
    for seed in range(12):
        net = random_network(
            seed, num_inputs=4, num_gates=10, num_outputs=1
        )
        tables = truth_tables(net)
        out = net.outputs[0]
        n = len(net.inputs)
        for i in range(n):
            for j in range(i + 1, n):
                gt_nes = is_nes(tables[out], n, i, j)
                gt_es = is_es(tables[out], n, i, j)
                assert nes_by_atpg(
                    net, net.inputs[i], net.inputs[j]
                ) == gt_nes, (seed, i, j)
                assert es_by_atpg(
                    net, net.inputs[i], net.inputs[j]
                ) == gt_es, (seed, i, j)


def test_pin_symmetry_by_atpg_agrees_with_swap_kinds():
    """Lemma 1 baseline against the linear-time detector."""
    for seed in range(8):
        net = random_network(seed, num_gates=10, num_outputs=1)
        sgn = extract_supergates(net)
        for sg in sgn.supergates.values():
            for swap in enumerate_swaps(sg, leaves_only=False):
                kinds = pin_symmetry_by_atpg(
                    net, sg.root, swap.pin_a, swap.pin_b
                )
                expected = "es" if swap.inverting else "nes"
                assert expected in kinds, (seed, swap)
