"""Incremental STA must match a fresh full analysis, always.

Property: after an arbitrary sequence of committed moves (pin swaps,
inverting swaps, gate resizes, dead-gate sweeps), the incrementally
maintained engine reports every net's arrival, required time and slack,
its logic levels and its critical delay bit for bit as a freshly
constructed full ``analyze()`` — while doing its work through
``apply_and_update`` only (exactly one full analysis for the initial
state).
"""

from __future__ import annotations

import random

import pytest

from repro.network.gatetype import GateType
from repro.network.netlist import Network
from repro.network.transform import sweep
from repro.place.placer import place
from repro.rapids.moves import bind_new_inverters
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import apply_swap, enumerate_swaps
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine

from helpers import random_network


def prepared(seed, library, gates=35):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed)
    return net, placement


def assert_matches_fresh(engine, network, placement, library, context=""):
    """Every cached timing quantity equals a from-scratch analysis."""
    fresh = TimingEngine(network, placement, library, period=engine.period)
    fresh.analyze()
    # levels are sort keys of the pricing and worklist order; every
    # value is bit-exact, because the polish reads the optimizer's
    # incremental engine where it once analyzed a fresh one
    assert engine._levels == fresh._levels, context
    assert engine.max_delay == fresh.max_delay, context
    assert engine.arrival == fresh.arrival, context
    assert engine._req0 == fresh._req0, context
    assert engine.slack == fresh.slack, context


def random_move(network, library, rng):
    """Commit one random resize or (possibly inverting) pin swap."""
    if rng.random() < 0.5:
        sized = [
            gate for gate in network.gates()
            if gate.cell is not None
            and len(library.sizes_of(library.cell(gate.cell))) > 1
        ]
        if sized:
            gate = rng.choice(sized)
            alt = rng.choice([
                cell for cell in library.sizes_of(library.cell(gate.cell))
                if cell.name != gate.cell
            ])
            network.set_cell(gate.name, alt.name)
            return f"resize {gate.name} -> {alt.name}"
    swaps = [
        swap
        for sg in extract_supergates(network).nontrivial()
        for swap in enumerate_swaps(sg, leaves_only=True)
    ]
    if not swaps:
        return None
    swap = rng.choice(swaps)
    before = len(network)
    apply_swap(network, swap)
    added = len(network) - before
    if added > 0:
        bind_new_inverters(network, library, network.recent_gates(added))
    return f"swap {swap.pin_a}<->{swap.pin_b} inv={swap.inverting}"


def leaf_swaps(network, inverting):
    """Leaf swaps of every non-trivial supergate with that polarity."""
    return [
        swap
        for sg in extract_supergates(network).nontrivial()
        for swap in enumerate_swaps(sg, leaves_only=True)
        if swap.inverting == inverting
    ]


@pytest.mark.parametrize("seed", [1, 2, 5, 9, 12])
def test_incremental_matches_full_after_random_moves(seed, library):
    net, placement = prepared(seed, library)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    rng = random.Random(1000 + seed)
    moves = 0
    for step in range(20):
        label = random_move(net, library, rng)
        if label is None:
            break
        moves += 1
        engine.apply_and_update()
        assert_matches_fresh(
            engine, net, placement, library, context=f"step {step}: {label}"
        )
    assert moves, "property test never exercised a move"
    # the whole sequence must have been served incrementally
    assert engine.stats.full_analyses == 1
    assert engine.stats.incremental_updates == moves


def test_incremental_handles_gate_removal(library):
    net, placement = prepared(21, library)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    rng = random.Random(77)
    # inverting swaps leave cancelled inverters dangling; sweep removes
    # them through remove_gate changes the engine must absorb
    for _ in range(8):
        random_move(net, library, rng)
    swept = sweep(net)
    engine.apply_and_update()
    assert_matches_fresh(
        engine, net, placement, library, context=f"after sweep ({swept})"
    )
    assert engine.stats.full_analyses == 1


def test_incremental_with_explicit_period(library):
    net, placement = prepared(33, library)
    probe = TimingEngine(net, placement, library)
    probe.analyze()
    engine = TimingEngine(
        net, placement, library, period=probe.max_delay + 0.5
    )
    engine.analyze()
    rng = random.Random(5)
    for _ in range(6):
        random_move(net, library, rng)
        engine.apply_and_update()
    assert_matches_fresh(engine, net, placement, library, context="period")


def test_refresh_full_fallback_on_untracked_mutation(library):
    net, placement = prepared(55, library)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    net._touch()  # untracked mutation: engine must fall back to full STA
    engine.refresh()
    assert engine.stats.full_analyses == 2
    assert_matches_fresh(engine, net, placement, library, context="fallback")


@pytest.mark.parametrize("seed", [3, 8, 13, 21])
def test_pinned_period_inverting_swaps_and_sweeps(seed, library):
    """A pinned target re-folds only the changed nets' slacks; inverting
    swaps add inverters, undoing one strands its inverters and sweeps
    remove them, re-levelling the cone each way."""
    net, placement = prepared(seed, library)
    probe = TimingEngine(net, placement, library)
    probe.analyze()
    engine = TimingEngine(net, placement, library, period=probe.max_delay)
    engine.analyze()
    rng = random.Random(500 + seed)
    swept = 0
    swap = None
    for step in range(16):
        if step % 2 == 0:
            swaps = leaf_swaps(net, inverting=True)
            assert swaps, f"step {step}: no inverting swap left"
            swap = rng.choice(swaps)
        # odd steps swap the same pins back through fresh inverters'
        # complements, leaving the previous step's inverters dangling
        before = len(net)
        apply_swap(net, swap)
        bind_new_inverters(net, library, net.recent_gates(len(net) - before))
        label = f"step {step}: swap {swap.pin_a}<->{swap.pin_b}"
        if step % 4 == 3:
            removed = sweep(net)
            swept += removed
            label += f", sweep removed {removed}"
        engine.apply_and_update()
        assert_matches_fresh(engine, net, placement, library, context=label)
    assert swept, "property test never swept a stranded inverter"
    assert engine.stats.full_analyses == 1
    assert engine.stats.level_rebuilds == 1
    assert engine.stats.full_folds == 1


def test_pinned_round_of_pin_swaps_does_no_whole_network_pass(
    library, monkeypatch
):
    """Non-inverting pin swaps under a pinned period: no level rebuild,
    no full slack fold and no topological sort in the committed update."""
    net, placement = prepared(17, library, gates=60)
    engine = TimingEngine(net, placement, library, period=10.0)
    engine.analyze()
    swaps = leaf_swaps(net, inverting=False)
    assert swaps
    sorts = []
    original = Network.topo_order

    def counted(self, *args, **kwargs):
        sorts.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Network, "topo_order", counted)
    rng = random.Random(3)
    for _ in range(6):
        for swap in rng.sample(swaps, min(3, len(swaps))):
            apply_swap(net, swap)
        engine.apply_and_update()
    assert sorts == []
    assert engine.stats.incremental_updates == 6
    assert engine.stats.level_rebuilds == 1  # the initial analysis
    assert engine.stats.full_folds == 1
    monkeypatch.undo()
    assert_matches_fresh(engine, net, placement, library, context="pinned")


def test_critical_delay_follows_a_pad_that_only_moves_its_wire(library):
    """A primary input read as an output keeps arrival 0: only its pad
    wire delay moves, first past the critical delay and then back."""
    net = Network("pi_po")
    for pi in "abc":
        net.add_input(pi)
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_gate("h", GateType.NOR, ["g", "c"])
    net.add_output("h")
    net.add_output("a")
    map_network(net, library)
    placement = place(net, library, seed=1)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    baseline = engine.max_delay
    (slot,) = net.output_slots("a")
    x, y = placement.output_pads[slot]
    for pad, label in (((x + 4000.0, y), "far pad"), ((x, y), "pad back")):
        placement.output_pads[slot] = pad
        # the engine sees the placement only through network changes:
        # rebinding a consumer of a to its own cell re-models net a
        consumer = net.gate(net.fanout("a")[0].gate)
        net.set_cell(consumer.name, consumer.cell)
        engine.apply_and_update()
        assert_matches_fresh(engine, net, placement, library, context=label)
        if label == "far pad":
            assert engine.max_delay > baseline
    assert engine.max_delay == baseline
