"""Compiled simulation core: compiled form, engine.

The load-bearing property: the compiled sweep must match the
interpreted ``repro.logic.simulate`` walker bit-for-bit — on random
networks, at random pattern widths including non-multiples of 64, and
on reads after random mutations.
"""

from __future__ import annotations

import random

import pytest

from repro.logic.simcore import SimEngine, compile_network, get_compiled
from repro.logic.simulate import random_words, simulate, truth_tables
from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType
from repro.network.netlist import Pin

from helpers import fanout_cone, random_network
from test_incremental_sta import prepared, random_move

WIDTHS = [1, 7, 64, 65, 100, 128, 200, 257]


def _fanins(compiled, position):
    """Fanin net indices of the gate at topological *position*."""
    offset = compiled.fanin_offset
    return compiled.fanin_flat[offset[position]:offset[position + 1]]


# ----------------------------------------------------------------------
# compiled form
# ----------------------------------------------------------------------
def test_compiled_form_shape():
    net = random_network(3, num_inputs=4, num_gates=12, num_outputs=2)
    compiled = compile_network(net)
    assert compiled.num_inputs == len(net.inputs)
    assert compiled.num_gates == len(net)
    assert list(compiled.gate_names) == net.topo_order()
    assert len(compiled.po_index) == len(net.outputs)
    # every gate's fanins are compiled before it
    for position in range(compiled.num_gates):
        for fanin in _fanins(compiled, position):
            assert fanin < compiled.num_inputs + position


def test_get_compiled_caches_and_invalidates():
    net = random_network(4, num_gates=10)
    first = get_compiled(net)
    assert get_compiled(net) is first
    name = next(net.gate_names())
    # every mutation moves the version, a cell rebind included: the
    # next call hands out a new snapshot of the new version
    net.set_cell(name, None)
    second = get_compiled(net)
    assert second is not first
    assert second.version == net.version
    assert get_compiled(net) is second
    gate = net.gate(name)
    net.set_fanins(name, list(gate.fanins))
    assert get_compiled(net) is not second
    assert get_compiled(net).version == net.version


def _flat_view(compiled):
    """Per-gate (opcode, invert, fanin names) by name — order-free."""
    names = list(compiled.inputs) + list(compiled.gate_names)
    return {
        gate: (
            compiled.opcode[position],
            compiled.invert[position],
            tuple(names[index] for index in _fanins(compiled, position)),
        )
        for position, gate in enumerate(compiled.gate_names)
    }


def test_get_compiled_recompiles_after_pin_rewiring():
    net = random_network(7, num_inputs=5, num_gates=14, num_outputs=2)
    first = get_compiled(net)
    before = _flat_view(first)
    # find a gate pin that can legally point at a primary input it
    # does not already read
    for gate in net.gates():
        for index in range(len(gate.fanins)):
            for candidate in net.inputs:
                if candidate not in gate.fanins:
                    net.replace_fanin(Pin(gate.name, index), candidate)
                    rewired = get_compiled(net)
                    assert rewired is not first
                    assert rewired.version == net.version
                    assert _flat_view(rewired) == _flat_view(
                        compile_network(net)
                    )
                    assert _fanins(
                        rewired, rewired.gate_names.index(gate.name)
                    )[index] == rewired.net_index[candidate]
                    # the old snapshot is never edited
                    assert _flat_view(first) == before
                    return
    pytest.skip("no legal rewiring candidate in the random net")


@pytest.mark.parametrize("seed", [1, 2, 5, 9, 12])
def test_get_compiled_matches_fresh_compile_after_random_moves(
    seed, library
):
    """Under the randomized moves of ``tests/test_incremental_sta.py``
    the cached snapshot always describes the live network, and a
    repeat call without a mutation returns the identical object."""

    def assert_current(context):
        compiled = get_compiled(net)
        assert compiled.version == net.version, context
        assert _flat_view(compiled) == _flat_view(compile_network(net)), (
            context
        )
        assert get_compiled(net) is compiled, context

    net, _placement = prepared(seed, library)
    assert_current("initial")
    rng = random.Random(2000 + seed)
    moves = 0
    for step in range(20):
        label = random_move(net, library, rng)
        if label is None:
            break
        moves += 1
        assert_current(f"step {step}: {label}")
    assert moves, "property test never exercised a move"


# ----------------------------------------------------------------------
# the compiled sweep agrees with the reference walker
# ----------------------------------------------------------------------
def test_engine_matches_reference_walker():
    for seed in range(8):
        net = random_network(seed, num_inputs=6, num_gates=22, num_outputs=3)
        engine = SimEngine(net)
        rng = random.Random(seed)
        for width in WIDTHS:
            assignments = random_words(net.inputs, width=width, seed=rng.randrange(999))
            engine.set_patterns(assignments, width)
            reference = simulate(net, assignments, mask=(1 << width) - 1)
            assert engine.words() == reference, (seed, width)


def test_truth_tables_match_reference():
    for seed in range(6):
        net = random_network(seed, num_inputs=5, num_gates=15)
        engine = SimEngine(net)
        assert engine.truth_tables() == truth_tables(net), seed


def test_constants_and_wide_gates():
    builder = NetworkBuilder("consts")
    a, b = builder.inputs(2)
    builder.gate(GateType.CONST1, name="one")
    builder.gate(GateType.CONST0, name="zero")
    wide = builder.gate(GateType.NAND, a, b, "one", name="wide")
    builder.output(builder.gate(GateType.XNOR, wide, "zero", name="f"))
    net = builder.build()
    engine = SimEngine(net)
    for width in (1, 3, 64, 130):
        assignments = random_words(net.inputs, width=width, seed=1)
        engine.set_patterns(assignments, width)
        assert engine.words() == simulate(
            net, assignments, mask=(1 << width) - 1
        )


# ----------------------------------------------------------------------
# import surface: the package facade is the supported entry point
# ----------------------------------------------------------------------
def test_simcore_import_surface_is_complete():
    """Everything consumers need importable from ``repro.logic.simcore``
    itself (not its submodules), declared in ``__all__``, and resolvable."""
    import repro.logic.simcore as simcore

    required = {
        "SimEngine", "get_compiled", "CompiledNetwork",
        "compile_network", "eval_word", "random_pattern_block", "sweep",
    }
    missing = required - set(simcore.__all__)
    assert not missing, f"missing from simcore __all__: {sorted(missing)}"
    for name in simcore.__all__:
        assert getattr(simcore, name, None) is not None, name
    # the logic package facade re-exports the engine-level surface too
    import repro.logic as logic

    for name in ("SimEngine", "get_compiled",
                 "CompiledNetwork", "compile_network"):
        assert getattr(logic, name) is getattr(simcore, name), name
        assert name in logic.__all__, name


# ----------------------------------------------------------------------
# reads after mutations re-sweep the stored patterns
# ----------------------------------------------------------------------
def _random_safe_mutation(net, rng):
    """Apply one function-changing mutation that keeps the DAG acyclic."""
    gates = [g.name for g in net.gates() if g.arity() >= 1]
    name = rng.choice(gates)
    gate = net.gate(name)
    kind = rng.choice(["replace", "swap", "settype"])
    if kind == "replace":
        pin = Pin(name, rng.randrange(gate.arity()))
        forbidden = fanout_cone(net, name) | {name}
        candidates = [x for x in net.nets() if x not in forbidden]
        net.replace_fanin(pin, rng.choice(candidates))
    elif kind == "swap":
        other_name = rng.choice(gates)
        other = net.gate(other_name)
        pin_a = Pin(name, rng.randrange(gate.arity()))
        pin_b = Pin(other_name, rng.randrange(other.arity()))
        net_a, net_b = net.fanin_net(pin_a), net.fanin_net(pin_b)
        if (
            net_b in fanout_cone(net, name) or net_b == name
            or net_a in fanout_cone(net, other_name) or net_a == other_name
        ):
            return  # would create a cycle; skip this step
        net.swap_fanins(pin_a, pin_b)
    else:
        if gate.arity() == 1:
            net.set_gate_type(
                name, rng.choice([GateType.INV, GateType.BUF])
            )
        else:
            net.set_gate_type(name, rng.choice([
                GateType.AND, GateType.OR, GateType.XOR,
                GateType.NAND, GateType.NOR, GateType.XNOR,
            ]))


def test_incremental_resimulation_matches_fresh():
    """Reads after each of a sequence of mutations match a fresh
    reference simulation of the live network."""
    for seed in range(8):
        base = random_network(seed, num_inputs=6, num_gates=25, num_outputs=3)
        net = base.copy()
        rng = random.Random(seed + 1000)
        engine = SimEngine(net)
        width = rng.choice(WIDTHS)
        assignments = random_words(net.inputs, width=width, seed=seed)
        engine.set_patterns(assignments, width)
        for step in range(25):
            _random_safe_mutation(net, rng)
            reference = simulate(net, assignments, mask=(1 << width) - 1)
            assert engine.words() == reference, (seed, step)


def test_exhaustive_patterns_require_full_support():
    """A support that misses a primary input fails loudly, like the
    reference ``truth_tables`` (no silent zero-fill)."""
    net = random_network(0, num_inputs=4, num_gates=8)
    engine = SimEngine(net)
    with pytest.raises(KeyError):
        engine.set_exhaustive_patterns(support=net.inputs[:-1])


def test_structural_mutation_forces_consistent_state():
    net = random_network(5, num_inputs=5, num_gates=15, num_outputs=2)
    engine = SimEngine(net)
    assignments = random_words(net.inputs, width=96, seed=5)
    engine.set_patterns(assignments, 96)
    new = net.fresh_name("extra")
    net.add_gate(new, GateType.AND, [net.inputs[0], net.inputs[1]])
    net.replace_fanin(Pin(next(net.gate_names()), 0), new)
    assert engine.words() == simulate(net, assignments, mask=(1 << 96) - 1)
