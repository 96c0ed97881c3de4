#!/usr/bin/env python3
"""Post-placement wirelength reduction (Section 5, use (1)).

Generates the k2-like PLA control benchmark, maps and places it, then
lets the rewiring engine exchange symmetric signals so wires get
shorter — without moving a single placed cell.  Also demonstrates a
cross-supergate fanin-group swap (Theorem 2) on a constructed example.

This demo runs the polish on its own, timing-blind.  In the Table-1
flow the polish now runs *by default* (``wl_passes=1``) in its
timing-aware form: every swap is additionally gated on its projected
slack neighborhood, so wirelength recovery never degrades the
re-timed delay — see ``examples/timing_aware_wirelength.py``.

Run:  python examples/wirelength_rewiring.py
"""

from repro import (
    NetworkBuilder,
    build_benchmark,
    default_library,
    extract_supergates,
    map_network,
    networks_equivalent,
    place,
    script_rugged,
)
from repro.rapids import reduce_wirelength
from repro.place import perturbation
from repro.symmetry import apply_cross_swap, find_cross_swaps


def wirelength_demo() -> None:
    library = default_library()
    network = build_benchmark("k2", scale=0.6)
    script_rugged(network)
    map_network(network, library)
    placement = place(network, library, seed=0, anneal_moves=4000)
    reference = network.copy()
    placement_before = placement.copy()

    result = reduce_wirelength(network, placement)  # batched engine path
    print(f"k2-style control logic: {len(network)} gates")
    print(f"  HPWL {result.initial_hpwl:.0f} -> {result.final_hpwl:.0f} um "
          f"({result.improvement_percent:+.1f}%) with "
          f"{result.swaps_applied} swaps + "
          f"{result.cross_swaps_applied} cross exchanges in "
          f"{result.passes} passes "
          f"({result.candidates_scored} candidates priced, "
          f"zero trial mutations)")
    audit = perturbation(placement_before, placement)
    print(f"  cells moved: {audit['moved_cells']:.0f}, "
          f"added: {audit['added_cells']:.0f} (placement untouched)")
    assert networks_equivalent(reference, network)
    print("  function preserved")


def cross_supergate_demo() -> None:
    # Fig. 3 flavour: f = OR(AND(a,b,c), AND(d,e,g)) — the two AND
    # supergates have symmetric outputs, so their fanin groups are
    # exchangeable while both gates stay put.
    builder = NetworkBuilder("fig3")
    a, b, c, d, e, g = builder.inputs(6)
    sg1 = builder.and_(a, b, c, name="sg1")
    sg2 = builder.and_(d, e, g, name="sg2")
    f = builder.or_(sg1, sg2, name="f")
    builder.output(f)
    network = builder.build()
    reference = network.copy()

    sgn = extract_supergates(network)
    crosses = find_cross_swaps(sgn)
    print(f"\ncross-supergate candidates: {len(crosses)}")
    cross = crosses[0]
    print(f"  exchanging fanins of {cross.sg1_root} and {cross.sg2_root}"
          f" (output inverters needed: {cross.needs_output_inverters})")
    apply_cross_swap(network, sgn, cross)
    print(f"  sg1 fanins now: {network.gate('sg1').fanins}")
    print(f"  sg2 fanins now: {network.gate('sg2').fanins}")
    assert networks_equivalent(reference, network)
    print("  function preserved")


if __name__ == "__main__":
    wirelength_demo()
    cross_supergate_demo()
