"""Every ``Network`` mutation keeps the three listening engines exact.

A differential test over random mapped, placed networks with the
incremental timing engine, the supergate cache and the wirelength
engine all subscribed.  Each step applies one of the ten typed
mutators, an out-of-band edit announced by a bare ``_touch()``, or the
optimizer's ``_snapshot``/``_restore`` rollback; after every step each
engine must equal a from-scratch computation on the mutated network.
"""

from __future__ import annotations

import random

import pytest

from repro.network.gatetype import GateType
from repro.network.netlist import Change, Pin
from repro.place.hpwl import WirelengthEngine
from repro.rapids.engine import SupergateCache
from repro.sizing.coudert import _restore, _snapshot
from repro.symmetry.supergate import extract_supergates
from repro.timing.sta import TimingEngine

from helpers import ChangeSpy, fanout_cone, partition_signature
from test_incremental_sta import assert_matches_fresh, prepared

#: logic type -> a type of the same arity (set_gate_type's targets)
_FLIPPED = {
    GateType.AND: GateType.OR,
    GateType.OR: GateType.AND,
    GateType.NAND: GateType.NOR,
    GateType.NOR: GateType.NAND,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.INV: GateType.BUF,
    GateType.BUF: GateType.INV,
}


def _sources(net, gate):
    """Nets *gate* may read without closing a cycle."""
    banned = fanout_cone(net, gate) | {gate}
    return [name for name in net.nets() if name not in banned]


def _driven_gates(net):
    return [gate for gate in net.gates() if gate.fanins]


def _replace_fanin(net, placement, library, rng, state):
    gate = rng.choice(_driven_gates(net))
    index = rng.randrange(gate.arity())
    choices = [n for n in _sources(net, gate.name) if n != gate.fanins[index]]
    net.replace_fanin(Pin(gate.name, index), rng.choice(choices))
    return True


def _swap_fanins(net, placement, library, rng, state):
    pins = [
        Pin(gate.name, index)
        for gate in net.gates() for index in range(gate.arity())
    ]
    for _ in range(50):
        pin_a, pin_b = rng.sample(pins, 2)
        net_a, net_b = net.fanin_net(pin_a), net.fanin_net(pin_b)
        if (
            net_a != net_b
            and net_b in _sources(net, pin_a.gate)
            and net_a in _sources(net, pin_b.gate)
        ):
            net.swap_fanins(pin_a, pin_b)
            return True
    return False


def _add_gate(net, placement, library, rng, state):
    gtype, arity = rng.choice(
        [(GateType.INV, 1), (GateType.NAND, 2), (GateType.NOR, 2)]
    )
    fanins = rng.sample(list(net.nets()), arity)
    cell = library.default_cell(gtype, arity).name
    net.add_gate(net.fresh_name("chg"), gtype, fanins, cell=cell)
    return True


def _remove_gate(net, placement, library, rng, state):
    dangling = [
        name for name in net.gate_names()
        if not net.fanout(name) and not net.is_output(name)
    ]
    if not dangling:
        return False
    net.remove_gate(rng.choice(dangling))
    return True


def _set_cell(net, placement, library, rng, state):
    sized = [
        gate for gate in net.gates()
        if gate.cell is not None
        and len(library.sizes_of(library.cell(gate.cell))) > 1
    ]
    if not sized:
        return False
    gate = rng.choice(sized)
    alternatives = [
        cell.name for cell in library.sizes_of(library.cell(gate.cell))
        if cell.name != gate.cell
    ]
    net.set_cell(gate.name, rng.choice(alternatives))
    return True


def _set_fanins(net, placement, library, rng, state):
    gate = rng.choice(_driven_gates(net))
    sources = _sources(net, gate.name)
    if len(sources) < gate.arity():
        return False
    net.set_fanins(gate.name, rng.sample(sources, gate.arity()))
    return True


def _set_gate_type(net, placement, library, rng, state):
    gate = rng.choice([g for g in net.gates() if g.gtype in _FLIPPED])
    net.set_gate_type(gate.name, _FLIPPED[gate.gtype])
    return True


def _add_input(net, placement, library, rng, state):
    name = net.fresh_name("chg_pi")
    placement.input_pads[name] = (0.0, rng.uniform(0.0, placement.die_height))
    net.add_input(name)
    return True


def _add_output(net, placement, library, rng, state):
    candidates = [name for name in net.gate_names() if not net.is_output(name)]
    placement.output_pads[len(net.outputs)] = (
        placement.die_width, rng.uniform(0.0, placement.die_height)
    )
    net.add_output(rng.choice(candidates))
    return True


def _replace_output(net, placement, library, rng, state):
    old = rng.choice(net.outputs)
    candidates = [name for name in net.gate_names() if name != old]
    net.replace_output(old, rng.choice(candidates))
    return True


def _touch(net, placement, library, rng, state):
    # an out-of-band rewire the typed mutators never saw
    gate = rng.choice(_driven_gates(net))
    index = rng.randrange(gate.arity())
    gate.fanins[index] = rng.choice(_sources(net, gate.name))
    net._touch()
    return True


def _rollback(net, placement, library, rng, state):
    if net.version == state["snapshot"][2]:
        return False
    _restore(net, placement, state["snapshot"])
    state["snapshot"] = _snapshot(net, placement)
    return True


STEPS = {
    "replace_fanin": _replace_fanin,
    "swap_fanins": _swap_fanins,
    "add_gate": _add_gate,
    "remove_gate": _remove_gate,
    "set_cell": _set_cell,
    "set_fanins": _set_fanins,
    "set_gate_type": _set_gate_type,
    "add_input": _add_input,
    "add_output": _add_output,
    "replace_output": _replace_output,
    "_touch": _touch,
    "_restore": _rollback,
}


def assert_listeners_exact(net, placement, library, timing, cache, wires,
                           context):
    timing.refresh()
    assert_matches_fresh(timing, net, placement, library, context)
    sgn = cache.get()
    fresh = extract_supergates(net)
    assert sgn.owner == fresh.owner, context
    assert partition_signature(sgn) == partition_signature(fresh), context
    assert wires.total_hpwl() == (
        WirelengthEngine(net, placement).total_hpwl()
    ), context


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_every_mutation_keeps_listeners_exact(seed, library):
    net, placement = prepared(seed, library)
    timing = TimingEngine(net, placement, library)
    cache = SupergateCache(net)
    wires = WirelengthEngine(net, placement)
    log = ChangeSpy(net)
    assert_listeners_exact(
        net, placement, library, timing, cache, wires, "initial"
    )
    rng = random.Random(seed)
    state = {"snapshot": _snapshot(net, placement)}
    applied = set()
    for round_ in range(4):
        order = list(STEPS)
        rng.shuffle(order)
        for name in order:
            changes_before = len(log.changes)
            if not STEPS[name](net, placement, library, rng, state):
                continue
            # one mutation, one change record
            assert len(log.changes) == changes_before + 1, name
            applied.add(name)
            placement.ensure_covered(net)
            assert_listeners_exact(
                net, placement, library, timing, cache, wires,
                f"seed {seed} round {round_}: {name}",
            )
    assert applied == set(STEPS), sorted(set(STEPS) - applied)
    assert all(isinstance(change, Change) for change in log.changes)
