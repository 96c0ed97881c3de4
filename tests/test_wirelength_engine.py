"""Incremental wirelength engine + batched rewiring.

Locks the PR-4 contracts:

* cached per-net boxes == fresh ``total_hpwl`` to 1e-9 under random
  applied-swap sequences (incremental correctness);
* ``rebuild``'s one-pass extrema rows equal the definition (min, max,
  their counts, the runner-up after removing one copy) row for row,
  on annealed and grid placements;
* after random ``replace_fanin``/``swap_fanins`` rebindings every
  folded-in row equals a fresh ``rebuild`` (the engine reads sinks
  from the network's fanout index while it handles a change);
* structural mutations invalidate the flattening (engine notices);
* candidate pricing hands listeners **zero** changes (listener spy);
* batch deltas are bit-identical to scalar and to the interpreted
  trial-apply-and-revert computation;
* cell-swap deltas (the annealer's pricing) are bit-identical to the
  interpreted ``net_hpwl`` sums over the anneal's affected nets, and
  committed cell swaps keep every cached box exact;
* batched rewiring preserves function on random networks x random
  placements and never lengthens the total;
* candidate enumeration is deduplicated, same-net-free and
  ``PYTHONHASHSEED``-independent (subprocess comparison).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.network.gatetype import GateType
from repro.network.netlist import Pin
from repro.place.hpwl import WirelengthEngine
from repro.place.placement import (
    bbox_hpwl,
    grid_placement,
    net_hpwl,
    total_hpwl,
)
from repro.place.placer import place
from repro.rapids.wirelength import reduce_wirelength
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import enumerate_swaps
from repro.synth.mapper import map_network
from repro.verify.equiv import networks_equivalent

from helpers import ChangeSpy, random_network, swap_hpwl_delta


def prepared(seed, library, gates=60):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed)
    return net, placement


def leaf_pairs(net):
    sgn = extract_supergates(net)
    pairs = []
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False, network=net
        ):
            pairs.append((swap.pin_a, swap.pin_b))
    return pairs


def test_incremental_matches_fresh_total(library):
    for seed in (41, 42, 43):
        net, placement = prepared(seed, library)
        engine = WirelengthEngine(net, placement)
        rng = random.Random(seed)
        pairs = leaf_pairs(net)
        if not pairs:
            continue
        for _ in range(30):
            pin_a, pin_b = rng.choice(pairs)
            if net.fanin_net(pin_a) != net.fanin_net(pin_b):
                net.swap_fanins(pin_a, pin_b)
            assert engine.total_hpwl() == pytest.approx(
                total_hpwl(net, placement), abs=1e-9
            )
        # the whole sequence rode the event hook, never a rebuild
        assert engine.rebuilds == 1


def _grid_network_with_lone_terminals(seed):
    """A grid-placed random network plus two one-terminal nets: an
    unused primary input (its pad only) and a fanout-free gate that is
    no output (its driver only).  Grid rows and columns give many
    duplicated extrema."""
    net = random_network(seed, num_inputs=6, num_gates=40, num_outputs=4)
    net.add_input(net.fresh_name("lone_pi"))
    net.add_gate(net.fresh_name("lone_gate"), GateType.INV, [net.inputs[0]])
    return net, grid_placement(net)


INF = float("inf")


def _defined_extrema_row(points):
    """The second-extrema row straight from its definition (a tuple
    with ``int`` counts, the engine's representation)."""
    row = ()
    for axis in (0, 1):
        values = [point[axis] for point in points]
        low, high = min(values), max(values)
        cnt_low, cnt_high = values.count(low), values.count(high)
        low2 = low if cnt_low > 1 else min(
            [value for value in values if value != low], default=INF
        )
        high2 = high if cnt_high > 1 else max(
            [value for value in values if value != high], default=-INF
        )
        row += (low, low2, cnt_low, high, high2, cnt_high)
    return row


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_rebuild_rows_equal_scalar_extrema(seed, library):
    """Every row and HPWL of ``rebuild`` equals the defined extrema of
    the net's terminal list and its bounding-box HPWL."""
    cases = {
        "annealed": prepared(seed, library),
        "grid": _grid_network_with_lone_terminals(seed),
    }
    for label, (net, placement) in cases.items():
        engine = WirelengthEngine(net, placement)
        engine.rebuild()
        seen = set()
        for index, name in enumerate(engine._names):
            points = engine._points(index)
            row = _defined_extrema_row(points)
            context = (seed, label, name)
            assert engine._ext[index] == row, context
            assert list(map(type, engine._ext[index])) == list(
                map(type, row)
            ), context
            assert engine._hpwl[index] == (
                (row[3] - row[0]) + (row[9] - row[6])
            ), context
            assert engine._hpwl[index] == bbox_hpwl(points), context
            if len(points) == 1:
                seen.add("one-terminal")
            if net.is_output(name):
                seen.add("po-pad")
            if row[2] > 1 or row[5] > 1 or row[8] > 1 or row[11] > 1:
                seen.add("duplicate-extremum")
        if label == "grid":
            assert seen == {
                "one-terminal", "po-pad", "duplicate-extremum"
            }, context


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_rebound_rows_equal_a_fresh_rebuild(seed, library):
    """After random ``replace_fanin``/``swap_fanins`` rebindings every
    extrema row and HPWL the live engine folded in equals a fresh
    ``rebuild`` on the same network.  The engine reads sinks from the
    network's fanout index while it handles the change, so this fails
    if the network ever hands listeners a change before it updates the
    index."""
    net, placement = prepared(seed, library)
    engine = WirelengthEngine(net, placement)
    engine.rebuild()
    rng = random.Random(seed)
    # rebind only to nets earlier in one fixed topological order, so
    # the network stays acyclic
    order = {name: rank for rank, name in enumerate(net.topo_order())}
    rank = {**dict.fromkeys(net.inputs, -1), **order}
    pins = [Pin(g.name, i) for g in net.gates() for i in range(g.arity())]
    rebound = 0
    for _ in range(60):
        pin = rng.choice(pins)
        if rng.random() < 0.5:
            earlier = [n for n in rank if rank[n] < order[pin.gate]]
            net.replace_fanin(pin, rng.choice(earlier))
        else:
            other = rng.choice(pins)
            nets = (net.fanin_net(pin), net.fanin_net(other))
            if max(map(rank.get, nets)) >= min(order[pin.gate], order[other.gate]):
                continue
            net.swap_fanins(pin, other)
        rebound += 1
        fresh = WirelengthEngine(net, placement)
        fresh.rebuild()
        assert engine._ext == fresh._ext, (seed, rebound)
        assert engine._hpwl == fresh._hpwl, (seed, rebound)
    assert rebound >= 40, seed
    # every rebinding was folded in incrementally, never by a rebuild
    assert engine.rebuilds == 1 and not engine._needs_rebuild


def test_structural_mutation_invalidates(library):
    net, placement = prepared(44, library)
    engine = WirelengthEngine(net, placement)
    before = engine.total_hpwl()
    assert before == pytest.approx(total_hpwl(net, placement), abs=1e-9)
    # splice an inverter in front of some sink: structural mutation
    gate = next(g for g in net.gates() if g.fanins)
    victim = gate.fanins[0]
    inv = net.fresh_name(f"{victim}_spy")
    net.add_gate(inv, GateType.INV, [victim])
    net.replace_fanin(Pin(gate.name, 0), inv)
    placement.ensure_covered(net)
    assert engine.total_hpwl() == pytest.approx(
        total_hpwl(net, placement), abs=1e-9
    )
    assert engine.rebuilds == 2


def test_candidate_pricing_fires_zero_events(library):
    net, placement = prepared(45, library)
    engine = WirelengthEngine(net, placement)
    engine.refresh()
    pairs = leaf_pairs(net)
    assert pairs, "seed produced no swap candidates"
    spy = ChangeSpy(net)
    engine.score_swaps(pairs)
    for pair in pairs[:10]:
        engine.score_swaps([pair])
    sgn = extract_supergates(net)
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False
        ):
            swap_hpwl_delta(net, placement, swap)
    assert spy.changes == [], f"pricing mutated the network: {spy.changes}"


def test_batch_deltas_bit_identical_to_interpreted(library):
    for seed in (46, 47):
        net, placement = prepared(seed, library)
        engine = WirelengthEngine(net, placement)
        pairs = leaf_pairs(net)
        batch = engine.score_swaps(pairs)
        for (pin_a, pin_b), batch_delta in zip(pairs, batch):
            [scalar] = engine.score_swaps([(pin_a, pin_b)])
            net_a = net.fanin_net(pin_a)
            net_b = net.fanin_net(pin_b)
            before = net_hpwl(net, placement, net_a) + net_hpwl(
                net, placement, net_b
            )
            net.swap_fanins(pin_a, pin_b)
            after = net_hpwl(net, placement, net_a) + net_hpwl(
                net, placement, net_b
            )
            net.swap_fanins(pin_a, pin_b)
            interpreted = after - before
            assert batch_delta == interpreted, (seed, pin_a, pin_b)
            assert scalar == interpreted, (seed, pin_a, pin_b)


def _anneal_nets(net, a, b):
    """The nets the annealer re-prices when cells *a* and *b* swap."""
    return sorted({a, b, *net.gate(a).fanins, *net.gate(b).fanins})


def _interpreted_cell_swap_delta(net, placement, a, b):
    """Trial swap, interpreted ``net_hpwl`` sums before and after."""
    nets = _anneal_nets(net, a, b)
    locations = placement.locations
    before = sum(net_hpwl(net, placement, name) for name in nets)
    locations[a], locations[b] = locations[b], locations[a]
    after = sum(net_hpwl(net, placement, name) for name in nets)
    locations[a], locations[b] = locations[b], locations[a]
    return after - before


def _cell_swap_network(seed, library):
    """A placed mapped network with a gate holding two pins on one net
    and a dangling (one-terminal) gate."""
    net, placement = prepared(seed, library, gates=90)
    double = next(g for g in net.gates() if len(g.fanins) >= 2)
    net.replace_fanin(Pin(double.name, 1), double.fanins[0])
    dangling = net.fresh_name("dangling")
    net.add_gate(dangling, GateType.INV, [double.name])
    placement.ensure_covered(net)
    placement.set_location(dangling, 1.5, 2.5)
    return net, placement, double.name, dangling


def test_cell_swap_delta_bit_identical_to_interpreted(library):
    for seed in (61, 62, 63):
        net, placement, double, dangling = _cell_swap_network(seed, library)
        engine = WirelengthEngine(net, placement)
        names = sorted(net.gate_names())
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(names, 2)) for _ in range(150)]
        for gate in net.gates():
            # driver/sink pairs: nets holding both cells
            sinks = net.fanout(gate.name)
            if sinks:
                pairs.append((gate.name, sinks[0].gate))
        pairs += [(double, name) for name in names[:10] if name != double]
        pairs += [(dangling, name) for name in names[:10]
                  if name != dangling]
        covered = set()
        for a, b in pairs:
            on_a = {a, *net.gate(a).fanins}
            on_b = {b, *net.gate(b).fanins}
            if any(net.is_input(name) for name in on_a | on_b):
                covered.add("input")
            if any(net.is_output(name) for name in on_a | on_b):
                covered.add("output")
            if on_a & on_b:
                covered.add("both")
            assert engine.cell_swap_delta(a, b) == (
                _interpreted_cell_swap_delta(net, placement, a, b)
            ), (seed, a, b)
        assert covered == {"input", "output", "both"}, (seed, covered)


def test_swap_cells_keeps_cached_boxes_exact(library):
    for seed in (64, 65):
        net, placement, double, dangling = _cell_swap_network(seed, library)
        engine = WirelengthEngine(net, placement)
        expected = dict(placement.locations)
        names = sorted(net.gate_names())
        rng = random.Random(seed)
        moves = [tuple(rng.sample(names, 2)) for _ in range(200)]
        moves += [(double, dangling), (dangling, names[0])]
        for a, b in moves:
            engine.swap_cells(a, b)
            expected[a], expected[b] = expected[b], expected[a]
        assert placement.locations == expected
        for name in net.nets():
            cached = engine._hpwl[engine._ids[name]]
            assert cached == net_hpwl(net, placement, name)
        # committed rows (per-net re-box) == a fresh flattening
        fresh = WirelengthEngine(net, placement)
        fresh.refresh()
        assert engine._ext == fresh._ext
        # pin-swap pricing still agrees with the interpreted oracle
        swaps = [
            swap
            for sg in extract_supergates(net).nontrivial()
            for swap in enumerate_swaps(
                sg, leaves_only=True, include_inverting=False, network=net
            )
        ]
        assert swaps, seed
        batch = engine.score_swaps([(s.pin_a, s.pin_b) for s in swaps])
        for swap, batch_delta in zip(swaps, batch):
            interpreted = swap_hpwl_delta(net, placement, swap)
            [single] = engine.score_swaps([(swap.pin_a, swap.pin_b)])
            assert single == interpreted
            assert batch_delta == interpreted
        assert engine.rebuilds == 1


def test_batched_preserves_function_and_total(library):
    improved_any = False
    for seed in (48, 49, 50, 51):
        net, placement = prepared(seed, library)
        reference = net.copy()
        before = total_hpwl(net, placement)
        result = reduce_wirelength(net, placement)
        after = total_hpwl(net, placement)
        assert result.mode == "batched"
        assert after <= before + 1e-6
        assert result.final_hpwl == pytest.approx(after, abs=1e-9)
        assert networks_equivalent(reference, net), seed
        if result.swaps_applied or result.cross_swaps_applied:
            improved_any = True
    assert improved_any, "no seed produced a single batched move"


def test_batched_is_idempotent(library):
    net, placement = prepared(52, library)
    reduce_wirelength(net, placement)
    again = reduce_wirelength(net, placement)
    assert again.swaps_applied == 0
    assert again.cross_swaps_applied == 0


def test_enumeration_dedupes_same_net_pairs(library):
    for seed in (53, 54):
        net, _ = prepared(seed, library)
        sgn = extract_supergates(net)
        for sg in sgn.nontrivial():
            swaps = list(enumerate_swaps(
                sg, leaves_only=True, include_inverting=False, network=net
            ))
            keys = [(s.pin_a, s.pin_b) for s in swaps]
            assert len(keys) == len(set(keys))
            for swap in swaps:
                assert net.fanin_net(swap.pin_a) != net.fanin_net(swap.pin_b)


_TRAJECTORY_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {tests_dir!r})
from helpers import random_network
from repro.library.cells import default_library
from repro.place.placer import place
from repro.rapids.wirelength import reduce_wirelength
from repro.synth.mapper import map_network

library = default_library()
net = random_network(55, num_gates=70, num_outputs=4)
map_network(net, library)
placement = place(net, library, seed=55)
result = reduce_wirelength(net, placement)
digest = hashlib.blake2b(digest_size=16)
for name in sorted(net.gate_names()):
    gate = net.gate(name)
    digest.update(f"{{name}}:{{gate.gtype.value}}:{{','.join(gate.fanins)}}".encode())
digest.update(f"{{result.final_hpwl:.9f}}:{{result.swaps_applied}}".encode())
print(digest.hexdigest())
"""


def test_batched_trajectory_hash_seed_independent():
    """The batched apply order must not depend on PYTHONHASHSEED."""
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    script = _TRAJECTORY_SCRIPT.format(
        tests_dir=os.path.abspath(os.path.dirname(__file__))
    )
    fingerprints = {}
    for seed in ("1", "9001"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = src
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
            timeout=300,
        )
        fingerprints[seed] = result.stdout.strip()
    assert len(set(fingerprints.values())) == 1, fingerprints
