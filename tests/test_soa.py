"""The SoA kernel must stay consistent with the object API, always.

Under randomized mutation sequences mirroring
``tests/test_incremental_sta.py``, the kernel's flat form (and its
numpy arrays) equals a from-scratch ``compile_network`` after every
committed move, whether the kernel absorbed the event as an in-place
patch or rebuilt.
"""

from __future__ import annotations

import collections
import random

import pytest

from repro.logic.simcore.compiled import compile_network
from repro.network.netlist import Pin
from repro.network.soa import get_soa

from test_incremental_sta import prepared, random_move

np = pytest.importorskip("numpy")


def _flat_view(compiled):
    """Per-gate (opcode, invert, fanin names) by name — order-free."""
    names = list(compiled.inputs) + list(compiled.gate_names)
    view = {}
    for position, gate in enumerate(compiled.gate_names):
        fanins = tuple(
            names[compiled.fanin_flat[slot]]
            for slot in range(
                compiled.fanin_offset[position],
                compiled.fanin_offset[position + 1],
            )
        )
        view[gate] = (
            compiled.opcode[position], compiled.invert[position], fanins,
        )
    return view


def assert_kernel_matches_fresh(kernel, network, context=""):
    """Kernel flat form + numpy arrays describe the live network.

    A patched kernel legally preserves its historical topological
    order, which need not equal a fresh compile's tie-break — so the
    comparison is semantic (same gates, same edges, same bindings)
    plus the structural invariants every consumer relies on (a valid
    topological order, a consumer CSR that inverts the fanin CSR edge
    for edge, fanout degrees matching the network).
    """
    compiled = kernel.sync()
    fresh = compile_network(network)
    assert compiled.inputs == fresh.inputs, context
    assert sorted(compiled.gate_names) == sorted(fresh.gate_names), context
    assert _flat_view(compiled) == _flat_view(fresh), context
    assert compiled.version == network.version, context
    num_inputs = compiled.num_inputs
    # the stored order must be topologically valid: every gate fanin is
    # a PI or a gate at an earlier position
    for position in range(compiled.num_gates):
        for slot in range(
            compiled.fanin_offset[position],
            compiled.fanin_offset[position + 1],
        ):
            index = compiled.fanin_flat[slot]
            assert index < num_inputs + position, context
    cells = {
        name: network.gate(name).cell for name in compiled.gate_names
    }
    assert dict(zip(compiled.gate_names, kernel.cells)) == cells, context
    arrays = kernel.arrays()
    # consumer CSR inverts the fanin CSR edge for edge: each net lists
    # the gate of every fanin slot reading it, in slot order
    readers = [[] for _ in range(compiled.num_nets)]
    for position in range(compiled.num_gates):
        for slot in range(
            compiled.fanin_offset[position],
            compiled.fanin_offset[position + 1],
        ):
            readers[compiled.fanin_flat[slot]].append(position)
    offset = arrays["consumer_offset"].tolist()
    consumer_gate = arrays["consumer_gate"].tolist()
    counts = arrays["consumer_counts"].tolist()
    for net in range(compiled.num_nets):
        edges = consumer_gate[offset[net]:offset[net + 1]]
        assert edges == readers[net], (context, net)
        assert counts[net] == len(readers[net]), (context, net)
    assert offset[-1] == len(compiled.fanin_flat), context
    # consumer counts plus PO listings are the network's fanout degree
    names = list(compiled.inputs) + list(compiled.gate_names)
    po_listings = collections.Counter(network.outputs)
    for index, name in enumerate(names):
        degree = counts[index] + po_listings[name]
        assert degree == network.fanout_degree(name), (context, name)


@pytest.mark.parametrize("seed", [1, 2, 5, 9, 12])
def test_kernel_matches_fresh_compile_after_random_moves(seed, library):
    net, _placement = prepared(seed, library)
    kernel = get_soa(net)
    assert_kernel_matches_fresh(kernel, net, context="initial")
    rng = random.Random(2000 + seed)
    moves = 0
    for step in range(20):
        label = random_move(net, library, rng)
        if label is None:
            break
        moves += 1
        assert_kernel_matches_fresh(
            kernel, net, context=f"step {step}: {label}"
        )
    assert moves, "property test never exercised a move"


def test_kernel_absorbs_pin_rewires_without_rebuilding(library):
    net, _placement = prepared(7, library)
    kernel = get_soa(net)
    compiled = kernel.sync()
    epoch = kernel.epoch
    # rewiring any pin to a primary input keeps the stored topological
    # order valid, so the kernel must patch in place: same compiled
    # object, same epoch, higher revision
    gate = next(iter(net.gate_names()))
    target = net.inputs[0]
    revision = compiled.revision
    net.replace_fanin(Pin(gate, 0), target)
    assert kernel.sync() is compiled
    assert kernel.epoch == epoch
    assert compiled.revision > revision
    assert kernel.patches >= 1
    assert_kernel_matches_fresh(kernel, net, context="pin rewire")
