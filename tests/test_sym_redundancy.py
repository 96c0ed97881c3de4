"""Fig. 1 redundancy events: detection, exact confirmation, removal."""

import pytest

from repro.logic.simulate import simulate, table_mask, variable_word
from repro.network.builder import NetworkBuilder
from repro.network.netlist import Pin
from repro.symmetry.redundancy import (
    find_easy_redundancies,
    prove_branch_redundant,
    redundancy_counts,
    remove_redundancy,
    unique_stems,
)
from repro.verify.equiv import networks_equivalent

from helpers import random_network


def fig1a_network():
    """Conflict (Fig. 1a): forcing f reaches stem x with both values."""
    builder = NetworkBuilder("fig1a")
    x, y = builder.inputs(2)
    inv = builder.inv(x, name="n")
    f = builder.and_(x, inv, name="f")   # constant 0
    out = builder.or_(f, y, name="out")
    builder.output(out)
    return builder.build()


def fig1b_network():
    """Agreement (Fig. 1b): stem x implied 1 along two branches."""
    builder = NetworkBuilder("fig1b")
    x, y, z = builder.inputs(3)
    g = builder.and_(x, y, name="g")
    h = builder.and_(g, x, name="h")
    out = builder.or_(h, z, name="out")
    builder.output(out)
    return builder.build()


def test_conflict_detected():
    net = fig1a_network()
    events = find_easy_redundancies(net)
    kinds = {(e.root, e.kind) for e in events}
    assert ("f", "conflict") in kinds


def test_agreement_detected():
    net = fig1b_network()
    events = find_easy_redundancies(net)
    agreements = [e for e in events if e.kind == "agreement"]
    assert agreements
    assert agreements[0].stem == "i0"
    assert agreements[0].implied_value == 1


def test_agreement_confirmed_by_equivalence():
    """The paper's claim: the duplicated branch is s-a-1 untestable."""
    net = fig1b_network()
    assert prove_branch_redundant(net, Pin("h", 1), stuck_at=1) is True
    # the other x branch (into g) is ALSO untestable here by symmetry
    assert prove_branch_redundant(net, Pin("g", 0), stuck_at=1) is True
    # but y's branch is testable
    assert prove_branch_redundant(net, Pin("g", 1), stuck_at=1) is False


@pytest.mark.parametrize(
    "num_inputs, num_gates, seeds",
    [
        (5, 16, range(10)),         # networks_equivalent: exhaustive path
        (16, 40, range(100, 102)),  # beyond its exhaustive limit: BDDs
        (18, 40, range(200, 202)),
    ],
    ids=["exhaustive-5in", "bdd-16in", "bdd-18in"],
)
def test_prover_matches_exhaustive_forced_simulation(
    num_inputs, num_gates, seeds
):
    """A branch is redundant iff no input pattern detects its fault.

    Every pin of every gate is checked at both stuck-at values against
    a forced re-simulation over all ``2**n`` patterns.
    """
    verdicts = set()
    for seed in seeds:
        net = random_network(
            seed, num_inputs=num_inputs, num_gates=num_gates, num_outputs=3
        )
        assignments = {
            pi: variable_word(index, num_inputs)
            for index, pi in enumerate(net.inputs)
        }
        mask = table_mask(num_inputs)
        good = simulate(net, assignments, mask)
        for gate in net.gates():
            for index in range(gate.arity()):
                pin = Pin(gate.name, index)
                for stuck_at in (0, 1):
                    proof = prove_branch_redundant(net, pin, stuck_at)
                    detected = _brute_force_detects(
                        net, pin, stuck_at, assignments, mask, good
                    )
                    assert isinstance(proof, bool), (seed, pin, stuck_at)
                    assert proof == (not detected), (seed, pin, stuck_at)
                    verdicts.add(proof)
    assert verdicts == {True, False}


def _brute_force_detects(net, pin, stuck_at, assignments, mask, good):
    """Does any pattern tell the network with *pin* stuck apart?"""
    words = {pi: assignments[pi] & mask for pi in net.inputs}
    for name in net.topo_order():
        gate = net.gate(name)
        fanin_words = [
            (mask if stuck_at else 0) if Pin(name, index) == pin
            else words[fanin]
            for index, fanin in enumerate(gate.fanins)
        ]
        words[name] = gate.eval(fanin_words, mask)
    return any(words[out] != good[out] for out in net.outputs)


def test_removal_preserves_function():
    net = fig1b_network()
    reference = net.copy()
    events = find_easy_redundancies(net)
    agreement = next(e for e in events if e.kind == "agreement")
    assert remove_redundancy(net, agreement) is True
    assert networks_equivalent(reference, net)


def test_conflict_removal_makes_root_constant():
    net = fig1a_network()
    reference = net.copy()
    events = find_easy_redundancies(net)
    conflict = next(e for e in events if e.kind == "conflict")
    assert remove_redundancy(net, conflict) is True
    assert networks_equivalent(reference, net)
    from repro.network.gatetype import CONST_TYPES

    assert net.gate("f").gtype in CONST_TYPES


def test_counts_helper():
    net = fig1b_network()
    events = find_easy_redundancies(net)
    counts = redundancy_counts(events)
    assert counts["events"] == len(events)
    assert counts["agreements"] >= 1
    assert counts["stems"] == len(unique_stems(events))


def test_irredundant_networks_report_nothing():
    builder = NetworkBuilder()
    a, b, c = builder.inputs(3)
    builder.output(builder.and_(a, b, c, name="f"))
    net = builder.build()
    assert find_easy_redundancies(net) == []


def test_removal_never_breaks_random_networks():
    removed = 0
    for seed in range(12):
        net = random_network(seed, num_gates=16)
        reference = net.copy()
        for event in find_easy_redundancies(net):
            if remove_redundancy(net, event):
                removed += 1
                assert networks_equivalent(reference, net), seed
    # some random networks do contain easy redundancies
    assert removed >= 0  # smoke: the loop itself must be safe
