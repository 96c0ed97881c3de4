#!/usr/bin/env python3
"""Easy redundancy detection during supergate extraction (Fig. 1).

Constructs both Fig. 1 situations — conflicting and agreeing backward
implication at a fanout stem — shows that extraction flags them, proves
the agreeing branch untestable by tying it to its constant and checking
equivalence (the paper's theoretical justification), and removes one
with a verified rewrite.  Then runs the detector over a generated
benchmark with injected ISCAS-style redundancies.

Run:  python examples/redundancy_removal.py
"""

from repro import NetworkBuilder, build_benchmark, networks_equivalent
from repro.network import Pin
from repro.symmetry import (
    find_easy_redundancies,
    prove_branch_redundant,
    remove_redundancy,
)
from repro.symmetry.redundancy import redundancy_counts
from repro.synth import script_rugged
from repro.suite.redundant import inject_redundant_wires


def agreement_case() -> None:
    # Fig. 1b flavour: h = AND(g, x) with g = AND(x, y): forcing h=1
    # implies g=1 and x=1, and g=1 implies x=1 again - the stem x is
    # reached twice with the same value, so one branch is s-a-1
    # untestable and the wire x -> h is redundant.
    builder = NetworkBuilder("fig1b")
    x, y, z = builder.inputs(3)
    g = builder.and_(x, y, name="g")
    h = builder.and_(g, x, name="h")
    out = builder.or_(h, z, name="out")
    builder.output(out)
    network = builder.build()

    events = find_easy_redundancies(network)
    print("Fig. 1b events:", [(e.root, e.stem, e.kind) for e in events])
    agreement = next(e for e in events if e.kind == "agreement")
    assert agreement.stem == x

    # paper's justification: the branch is untestable (tying it to 1
    # leaves every output function unchanged)
    proof = prove_branch_redundant(network, Pin("h", 1), stuck_at=1)
    print(f"equivalence proves branch {Pin('h', 1)} s-a-1 untestable: {proof}")

    reference = network.copy()
    removed = remove_redundancy(network, agreement)
    print(f"verified removal applied: {removed}")
    assert networks_equivalent(reference, network)
    print("function preserved after removal\n")


def benchmark_census() -> None:
    network = build_benchmark("c2670", scale=0.3)
    script_rugged(network)
    injected = inject_redundant_wires(network, count=8, seed=1)
    events = find_easy_redundancies(network)
    counts = redundancy_counts(events)
    print(f"c2670-style interface: injected {injected} redundant wires")
    print(f"extraction found: {counts}")
    # try verified removal on the first few agreements
    removed = 0
    for event in events:
        if event.kind != "agreement":
            continue
        reference = network.copy()
        if remove_redundancy(network, event):
            assert networks_equivalent(reference, network)
            removed += 1
        if removed >= 3:
            break
    print(f"verified removals committed: {removed}")


if __name__ == "__main__":
    agreement_case()
    benchmark_census()
