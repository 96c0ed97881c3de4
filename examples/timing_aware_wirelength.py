#!/usr/bin/env python3
"""Timing-aware wirelength recovery: shorter wires, delay guaranteed.

The timing-blind Section-5 polish accepts any symmetric swap that
shortens estimated wiring — including swaps that stretch a wire on the
critical path.  The timing-aware polish (the Table-1 default since
``wl_passes=1``) prices every candidate twice: its HPWL delta against
the incremental wirelength engine *and* its projected slack
neighborhood against the incremental STA engine
(``TimingEngine.project_swap_slacks``).  A swap is committed only when
the wiring improves and every projected slack stays inside the guard
band — so at the default margin of 0.0 the re-timed delay can never
get worse than the netlist the polish started from.

This demo runs both variants from the same placed k2-style control
benchmark and prints before/after HPWL and critical delay.

Run:  python examples/timing_aware_wirelength.py
"""

from repro import (
    build_benchmark,
    default_library,
    map_network,
    networks_equivalent,
    place,
    script_rugged,
)
from repro.rapids import reduce_wirelength
from repro.timing.sta import TimingEngine


def polish(reference, placement, library, timing_aware, slack_margin=0.0):
    network = reference.copy()
    trial = placement.copy()
    timing_engine = None
    if timing_aware:
        timing_engine = TimingEngine(network, trial, library)
        timing_engine.analyze()
    result = reduce_wirelength(
        network, trial,
        timing_engine=timing_engine, slack_margin=slack_margin,
    )
    retimed = TimingEngine(network, trial, library)
    retimed.analyze()
    assert networks_equivalent(reference, network)
    return result, retimed.max_delay


def main() -> None:
    library = default_library()
    network = build_benchmark("k2", scale=0.6)
    script_rugged(network)
    map_network(network, library)
    placement = place(network, library, seed=0, anneal_moves=4000)

    baseline = TimingEngine(network, placement, library)
    baseline.analyze()
    print(f"k2-style control logic: {len(network)} gates, "
          f"critical delay {baseline.max_delay:.4f} ns")

    blind, blind_delay = polish(network, placement, library,
                                timing_aware=False)
    aware, aware_delay = polish(network, placement, library,
                                timing_aware=True)

    print("\n                 HPWL (um)          delay (ns)")
    print(f"  before      {blind.initial_hpwl:>10.0f}      "
          f"{baseline.max_delay:>12.4f}")
    print(f"  blind       {blind.final_hpwl:>10.0f}      "
          f"{blind_delay:>12.4f}   "
          f"({blind.swaps_applied}+{blind.cross_swaps_applied} cross)")
    print(f"  timing-aware{aware.final_hpwl:>10.0f}      "
          f"{aware_delay:>12.4f}   "
          f"({aware.swaps_applied}+{aware.cross_swaps_applied} cross, "
          f"{aware.timing_rejected} slack-rejected)")

    assert aware_delay <= baseline.max_delay + 1e-9, (
        "the margin-0 guard band guarantees this"
    )
    print("\nthe timing-aware polish recovered "
          f"{aware.improvement_percent:.1f}% of wirelength without "
          "giving back a picosecond of delay "
          f"(projection drift {aware.projection_drift:.2e} ns)")
    if blind_delay > baseline.max_delay + 1e-9:
        print(f"the blind polish spent "
              f"{1000 * (blind_delay - baseline.max_delay):.1f} ps of "
              "delay for its extra "
              f"{blind.final_hpwl - aware.final_hpwl:+.0f} um")


if __name__ == "__main__":
    main()
