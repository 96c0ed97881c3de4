"""Network-owned fanout and primary-output indexes.

The typed mutators keep both indexes current; every query must agree
with a from-scratch scan of the gate table and the output list —
including the scan's pin order (gate insertion, then pin index), which
star RC models and inverter reuse consume.
"""

import pickle
import random

from repro.network.gatetype import GateType
from repro.network.netlist import Network, Pin

from helpers import random_network


def scanned_fanout(net: Network) -> dict[str, list[Pin]]:
    fanout: dict[str, list[Pin]] = {}
    for gate in net.gates():
        for index, fanin in enumerate(gate.fanins):
            fanout.setdefault(fanin, []).append(Pin(gate.name, index))
    return fanout


def scanned_slots(net: Network) -> dict[str, tuple[int, ...]]:
    slots: dict[str, tuple[int, ...]] = {}
    for position, output in enumerate(net.outputs):
        slots[output] = slots.get(output, ()) + (position,)
    return slots


def assert_fresh(net: Network) -> None:
    fanout = scanned_fanout(net)
    slots = scanned_slots(net)
    for name in sorted(set(net.nets()) | set(fanout) | set(slots)):
        assert net.fanout(name) == fanout.get(name, []), name
        assert net.output_slots(name) == slots.get(name, ()), name
        assert net.is_output(name) == (name in slots), name
        assert net.fanout_degree(name) == (
            len(fanout.get(name, ())) + len(slots.get(name, ()))
        ), name


def _random_step(rng: random.Random, net: Network, step: int) -> None:
    nets = list(net.nets())
    gates = list(net.gate_names())
    pins = [
        Pin(gate.name, index)
        for gate in net.gates() for index in range(gate.arity())
    ]
    action = rng.randrange(9)
    if action == 0 or not gates:
        fanins = rng.sample(nets, min(2, len(nets)))
        gtype = GateType.AND if len(fanins) == 2 else GateType.BUF
        net.add_gate(f"n{step}", gtype, fanins)
    elif action == 1 and pins:
        net.replace_fanin(rng.choice(pins), rng.choice(nets))
    elif action == 2 and len(pins) > 1:
        net.swap_fanins(*rng.sample(pins, 2))
    elif action == 3:
        name = rng.choice(gates)
        arity = net.gate(name).arity()
        net.set_fanins(name, [rng.choice(nets) for _ in range(arity)])
    elif action == 4:
        free = [
            name for name in gates
            if not net.fanout(name) and not net.is_output(name)
        ]
        if free:
            net.remove_gate(rng.choice(free))
    elif action == 5:
        net.add_output(rng.choice(nets))
    elif action == 6 and net.outputs:
        net.replace_output(rng.choice(net.outputs), rng.choice(nets))
    elif action == 7:
        # an out-of-band edit announced through the catch-all hook
        name = rng.choice(gates)
        net.gate(name).fanins[0] = rng.choice(nets)
        net._touch()
    else:
        net.adopt(net.copy())


def test_indexes_match_a_fresh_scan_under_random_mutations():
    for seed in range(12):
        rng = random.Random(seed)
        net = random_network(seed, num_gates=20, num_outputs=3)
        assert_fresh(net)
        for step in range(60):
            _random_step(rng, net, step)
            assert_fresh(net)


def test_duplicate_outputs_and_retargeting():
    net = Network("po")
    for name in ("a", "b"):
        net.add_input(name)
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_gate("h", GateType.OR, ["a", "g"])
    net.add_output("h")
    net.add_output("g")
    net.add_output("h")
    assert net.output_slots("h") == (0, 2)
    assert net.fanout_degree("h") == 2
    net.replace_output("g", "h")
    assert net.output_slots("h") == (0, 1, 2)
    assert not net.is_output("g")
    net.replace_output("h", "g")
    assert net.output_slots("g") == (0, 1, 2) and not net.is_output("h")
    assert_fresh(net)


def test_held_fanout_list_is_a_snapshot():
    net = random_network(3, num_gates=16)
    stem = max(net.nets(), key=lambda name: len(net.fanout(name)))
    held = net.fanout(stem)
    before = list(held)
    other = next(name for name in net.inputs if name != stem)
    for pin in held:
        net.replace_fanin(pin, other)
    assert held == before
    assert net.fanout(stem) == []
    assert_fresh(net)


def test_readded_gate_sorts_after_older_consumers():
    net = Network("order")
    net.add_input("a")
    net.add_gate("x", GateType.BUF, ["a"])
    net.add_gate("y", GateType.BUF, ["a"])
    net.fanout("a")  # build the index before mutating
    net.remove_gate("x")
    net.add_gate("x", GateType.BUF, ["a"])
    net.replace_fanin(Pin("y", 0), "x")
    net.replace_fanin(Pin("y", 0), "a")
    assert net.fanout("a") == [Pin("y", 0), Pin("x", 0)]
    assert_fresh(net)


def test_pickle_copy_and_adopt_rebuild_identical_indexes():
    net = random_network(5, num_gates=18, num_outputs=3)
    net.fanout(net.inputs[0])
    for other in (pickle.loads(pickle.dumps(net)), net.copy()):
        assert_fresh(other)
        for name in net.nets():
            assert other.fanout(name) == net.fanout(name)
            assert other.output_slots(name) == net.output_slots(name)
    state = net.__getstate__()
    assert "_fanout_index" not in state and "_po_index" not in state
