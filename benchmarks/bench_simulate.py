"""Compiled simulation core vs. the interpreted reference walker.

Two evaluators sweep identical pattern blocks over the quick-set
circuits:

* **legacy** — ``repro.logic.simulate.simulate``: the historical
  per-call interpreted walker (dict lookups, per-gate list building,
  64-bit words per pass), the hot path everything used before the
  simcore refactor;
* **compiled** — :class:`repro.logic.simcore.SimEngine`: the same
  arbitrary-precision word algebra, but running over the compiled
  topo-ordered index arrays with whole multi-word blocks per sweep.

Acceptance floor: the compiled sweep must deliver >= 5x the aggregate
throughput (net-patterns evaluated per second) of the interpreted
walker on the quick circuit set, at the 4096-pattern block size fault
simulation and equivalence filtering use.

The second table times the end-to-end consumer: a full
``networks_equivalent`` verification pass against the pre-refactor
implementation (four sequential 64-bit random rounds + truth-table
walks through the interpreted simulator).
"""

from __future__ import annotations

import time

import pytest

from repro.library.cells import default_library
from repro.logic.simcore import SimEngine
from repro.logic.simulate import (
    random_simulate_outputs,
    random_words,
    simulate,
    truth_tables,
)
from repro.suite.registry import REGISTRY
from repro.synth.mapper import map_network
from repro.synth.strash import script_rugged
from repro.verify.equiv import networks_equivalent

from bench_helpers import QUICK_SET

#: Patterns per sweep for the throughput comparison (64 words).
BLOCK = 4096
#: Acceptance floor: compiled aggregate vs. interpreted reference.
MIN_COMPILED_SPEEDUP = 5.0

#: circuit -> {evaluator: net-patterns per second}
_THROUGHPUT: dict[str, dict[str, float]] = {}

_HEADER = f"{'ckt':<8}{'gates':>6}{'legacy':>12}{'compiled':>12}{'speedup':>9}"


def _mapped(name):
    library = default_library()
    network = REGISTRY[name].build(0.35)
    script_rugged(network)
    map_network(network, library)
    return network


def _time(fn, min_seconds=0.2):
    fn()  # warm caches (compiled form)
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and reps >= 3:
            return elapsed / reps


@pytest.mark.parametrize("name", QUICK_SET)
def test_throughput_and_agreement(name):
    network = _mapped(name)
    gates = len(network)
    assignments = random_words(network.inputs, width=BLOCK, seed=0)
    mask = (1 << BLOCK) - 1
    words64 = random_words(network.inputs, width=64, seed=0)

    rounds = BLOCK // 64
    legacy_sweep = lambda: [
        simulate(network, words64, mask=(1 << 64) - 1) for _ in range(rounds)
    ]
    rates = {"legacy": gates * BLOCK / _time(legacy_sweep)}
    reference = simulate(network, assignments, mask)

    engine = SimEngine(network)
    rates["compiled"] = gates * BLOCK / _time(
        lambda: engine.set_patterns(assignments, BLOCK)
    )
    # identical results across evaluators, bit for bit
    assert engine.words() == reference, name

    _THROUGHPUT[name] = rates
    print()
    print(_HEADER)
    print(
        f"{name:<8}{gates:>6d}"
        f"{rates['legacy'] / 1e6:>10.1f}Mp{rates['compiled'] / 1e6:>10.1f}Mp"
        f"{rates['compiled'] / rates['legacy']:>8.1f}x"
    )


def test_compiled_aggregate_speedup():
    """The acceptance criterion: >= 5x net-patterns/s over the reference."""
    if not _THROUGHPUT:
        pytest.skip("per-circuit benches were deselected")
    # aggregate = total work / total time, i.e. harmonic weighting
    legacy_time = sum(1.0 / r["legacy"] for r in _THROUGHPUT.values())
    compiled_time = sum(1.0 / r["compiled"] for r in _THROUGHPUT.values())
    speedup = legacy_time / compiled_time
    print(
        f"\naggregate over {sorted(_THROUGHPUT)}: "
        f"compiled {speedup:.1f}x vs interpreted reference"
    )
    assert speedup >= MIN_COMPILED_SPEEDUP, (
        f"compiled sweep delivered only {speedup:.2f}x aggregate throughput"
    )


def _sim_filter_legacy(before, after, exhaustive_limit=14):
    """The simulation stages of the pre-simcore ``networks_equivalent``.

    Four sequential 64-bit random rounds through the interpreted
    walker, then exhaustive truth tables for narrow designs.  The BDD
    fallback for wide designs is byte-identical in both
    implementations, so the A/B timing deliberately excludes it.
    """
    for seed in range(4):
        if random_simulate_outputs(before, seed=seed) != (
            random_simulate_outputs(after, seed=seed)
        ):
            return False
    if len(before.inputs) <= exhaustive_limit:
        tables_before = truth_tables(before)
        tables_after = truth_tables(after, support=list(before.inputs))
        return all(
            tables_before[old] == tables_after[new]
            for old, new in zip(before.outputs, after.outputs)
        )
    return True


def _sim_filter_simcore(before, after, exhaustive_limit=14):
    """The same stages as run by today's ``networks_equivalent``."""
    engine_before = SimEngine(before)
    engine_after = SimEngine(after)
    if engine_before.random_output_words() != (
        engine_after.random_output_words()
    ):
        return False
    if len(before.inputs) <= exhaustive_limit:
        engine_before.set_exhaustive_patterns()
        engine_after.set_exhaustive_patterns(list(before.inputs))
        return engine_before.output_words() == engine_after.output_words()
    return True


def test_equivalence_check_speedup():
    """End-to-end consumer: the optimizer's verification filter pass."""
    total_legacy = total_new = 0.0
    print()
    print(f"{'ckt':<8}{'legacy-eq':>11}{'simcore-eq':>12}{'speedup':>9}")
    for name in QUICK_SET:
        network = _mapped(name)
        copy = network.copy()
        # sanity: the production check (including BDD fallback) passes
        assert networks_equivalent(network, copy) is True
        assert _sim_filter_legacy(network, copy) is True
        legacy = _time(
            lambda: _sim_filter_legacy(network, copy), min_seconds=0.1
        )
        current = _time(
            lambda: _sim_filter_simcore(network, copy), min_seconds=0.1
        )
        total_legacy += legacy
        total_new += current
        print(
            f"{name:<8}{legacy * 1e3:>9.1f}ms{current * 1e3:>10.1f}ms"
            f"{legacy / current:>8.1f}x"
        )
    speedup = total_legacy / total_new
    print(f"aggregate equivalence-check speedup: {speedup:.1f}x")
    assert speedup >= 1.5, (
        f"simcore equivalence checking is only {speedup:.2f}x faster"
    )
