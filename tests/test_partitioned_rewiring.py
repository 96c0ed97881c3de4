"""Partitioned rewiring: parity, frozen boundaries, worker invariance.

The pipeline's contracts, each pinned by a property test:

* **one-region parity** — with a region bound above the gate count the
  partitioned path must reproduce the unpartitioned batched path
  bit-for-bit (same selection, same commits, same HPWL), both
  timing-blind and timing-aware, and the whole-flow fingerprint must
  match the unpartitioned flow for every worker count;
* **frozen boundaries** — no boundary net's driver or sink-pin
  bindings ever change, region commits never collide on a net
  (``boundary_conflicts == 0``), and the rewired network stays
  functionally equivalent;
* **worker invariance** — the trajectory is identical for 1, 2 and 4
  workers (forked children select against the round-frozen engines
  they inherit; commits are serial in region order), and a child that
  dies or raises costs an inline re-selection, never a different
  answer;
* **fork safety** — a forked child leaves every ``repro`` module
  global as it found it (audited inside the children themselves,
  since a child's writes vanish with it and no static walk follows
  the selector closure it runs).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections.abc import Mapping, Sequence, Set

import pytest
from helpers import random_network

from repro.library.cells import default_library
from repro.parallel import regions as region_selection
from repro.place.placer import place
from repro.place.regions import carve_regions
from repro.rapids import partition
from repro.rapids.engine import SUPERGATE_STORE
from repro.rapids.partition import reduce_wirelength_partitioned
from repro.rapids.wirelength import reduce_wirelength
from repro.suite.flow import FlowConfig, trajectory_fingerprint
from repro.suite.registry import PAPER_AVERAGES
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine
from repro.verify.equiv import networks_equivalent

HUGE = 10**9  # region bound above any test netlist: exactly one region


def _prepared(seed: int, num_gates: int = 150, place_seed: int = 3):
    library = default_library()
    network = random_network(seed, num_gates=num_gates, num_outputs=8)
    map_network(network, library)
    placement = place(network, library, seed=place_seed)
    return network, placement, library


def _fanins(network) -> dict[str, tuple[str, ...]]:
    return {g.name: tuple(g.fanins) for g in network.gates()}


# ----------------------------------------------------------------------
# one-region parity with the unpartitioned batched path
# ----------------------------------------------------------------------
def test_one_region_matches_monolithic_timing_blind():
    network, placement, _ = _prepared(11)
    net_a, net_b = network.copy(), network.copy()
    base = reduce_wirelength(
        net_a, placement.copy(), max_passes=3, timing_engine=None
    )
    part = reduce_wirelength_partitioned(
        net_b, placement.copy(), max_gates=HUGE, max_passes=3,
        timing_engine=None,
    )
    assert part.regions == 1
    assert part.boundary_nets == 0
    assert _fanins(net_a) == _fanins(net_b)
    assert part.swaps_applied == base.swaps_applied
    assert part.cross_swaps_applied == base.cross_swaps_applied
    assert part.final_hpwl == pytest.approx(base.final_hpwl, abs=1e-9)
    assert part.candidates_scored == base.candidates_scored


def test_one_region_matches_monolithic_timing_aware():
    network, placement, library = _prepared(12)
    net_a, pl_a = network.copy(), placement.copy()
    net_b, pl_b = network.copy(), placement.copy()
    eng_a = TimingEngine(net_a, pl_a, library)
    eng_a.analyze()
    base = reduce_wirelength(
        net_a, pl_a, max_passes=3, timing_engine=eng_a, slack_margin=0.0,
    )
    eng_b = TimingEngine(net_b, pl_b, library)
    eng_b.analyze()
    part = reduce_wirelength_partitioned(
        net_b, pl_b, max_gates=HUGE, max_passes=3,
        timing_engine=eng_b, slack_margin=0.0,
    )
    assert part.regions == 1
    assert _fanins(net_a) == _fanins(net_b)
    assert part.swaps_applied == base.swaps_applied
    assert part.cross_swaps_applied == base.cross_swaps_applied
    assert part.timing_rejected == base.timing_rejected
    assert part.final_hpwl == base.final_hpwl
    assert networks_equivalent(network, net_a)


def test_flow_fingerprint_matches_unpartitioned_for_all_worker_counts():
    # the whole-flow contract: partition=True with one region is the
    # same experiment, for every worker count (satellite of the
    # stacked-determinism story — same comparator as the hash-seed
    # matrix in test_determinism.py)
    base_config = FlowConfig(
        scale=0.08, max_rounds=2, anneal_moves=1500, modes=("gsg",),
    )
    expected = trajectory_fingerprint("alu2", base_config)
    for workers in (1, 2, 4):
        config = FlowConfig(
            scale=0.08, max_rounds=2, anneal_moves=1500, modes=("gsg",),
            partition=True, partition_max_gates=HUGE, workers=workers,
        )
        assert trajectory_fingerprint("alu2", config) == expected, (
            f"partitioned flow diverged with workers={workers}"
        )


# ----------------------------------------------------------------------
# frozen boundaries + functional equivalence
# ----------------------------------------------------------------------
def _boundary_bindings(network, boundary_nets):
    """(driver gate?, sorted sink pins) per boundary net."""
    snapshot = {}
    for net in boundary_nets:
        driver = None if network.is_input(net) else net
        sinks = sorted(
            (pin.gate, pin.index) for pin in network.fanout(net)
        )
        snapshot[net] = (driver, tuple(sinks))
    return snapshot


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_boundary_nets_frozen_and_function_preserved(seed):
    network, placement, _ = _prepared(seed, num_gates=180)
    reference = network.copy()
    regions = carve_regions(network, placement, max_gates=40)
    assert len(regions.regions) >= 2
    before = _boundary_bindings(network, regions.boundary_nets)
    result = reduce_wirelength_partitioned(
        network, placement, max_gates=40, max_passes=2,
        timing_engine=None,
    )
    assert result.regions == len(regions.regions)
    assert result.boundary_conflicts == 0
    assert result.final_hpwl <= result.initial_hpwl + 1e-9
    after = _boundary_bindings(network, regions.boundary_nets)
    assert after == before, "a frozen boundary net was rebound"
    assert networks_equivalent(reference, network)


def test_timing_aware_partitioned_never_degrades_delay():
    network, placement, library = _prepared(31, num_gates=200)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    before = engine.max_delay
    result = reduce_wirelength_partitioned(
        network, placement, max_gates=50, max_passes=2,
        timing_engine=engine, slack_margin=0.0, workers=2,
        library=library,
    )
    assert result.boundary_conflicts == 0
    check = TimingEngine(network, placement, library)
    check.analyze()
    assert check.max_delay <= before + 1e-9
    # cross-region timing overlaps must defer, not collide
    assert result.deferred_timing_conflicts >= 0


# ----------------------------------------------------------------------
# worker-count invariance
# ----------------------------------------------------------------------
def test_trajectory_invariant_across_worker_counts():
    network, placement, library = _prepared(41, num_gates=220)
    outcomes = {}
    for workers in (1, 2, 4):
        net, pl = network.copy(), placement.copy()
        result = reduce_wirelength_partitioned(
            net, pl, max_gates=50, max_passes=2, timing_engine=None,
            workers=workers, library=library,
        )
        assert result.fallback_reason is None
        assert result.boundary_conflicts == 0
        outcomes[workers] = (
            _fanins(net),
            result.swaps_applied,
            result.cross_swaps_applied,
            result.final_hpwl,
            result.candidates_scored,
        )
    assert outcomes[1] == outcomes[2] == outcomes[4]


def test_remote_selection_actually_runs():
    # parallel_rounds > 0 proves the worker path executed (not a
    # silent inline fallback masquerading as parity)
    network, placement, library = _prepared(42, num_gates=220)
    result = reduce_wirelength_partitioned(
        network, placement, max_gates=50, max_passes=2,
        timing_engine=None, workers=2, library=library,
    )
    assert result.workers == 2
    assert result.parallel_rounds > 0
    assert result.fallback_reason is None


def _state(value, nested: bool = False) -> tuple:
    """A module global plus a copy of what an in-place write changes.

    Containers carry their content; an instance of a ``repro`` class
    carries its attribute dict, one level deep.  Anything else is
    compared by identity only, which catches rebinding.
    """
    if isinstance(value, Mapping):
        content = list(value.items())
    elif isinstance(value, Set):
        content = set(value)
    elif isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        content = list(value)
    elif (
        not nested
        and type(value).__module__.startswith("repro.")
        and hasattr(value, "__dict__")
    ):
        content = {
            name: _state(attr, nested=True)
            for name, attr in vars(value).items()
        }
    else:
        content = None
    return value, content


def _module_state() -> dict:
    """``(module, name) -> _state`` for every loaded ``repro`` global."""
    return {
        (modname, name): _state(value)
        for modname, module in list(sys.modules.items())
        if modname.startswith("repro.") and module is not None
        for name, value in vars(module).items()
        if not name.startswith("__")
    }


def _audited_select_shard(*args):
    """The real shard, inside the forked child, fenced by a state audit.

    A child's writes vanish with it, so a worker that writes module
    state would walk another trajectory than the serial run.  Raising
    here turns such a write into the pool's ``fallback_reason``.
    """
    before = _module_state()
    packed = _REAL_SELECT_SHARD(*args)
    after = _module_state()
    written = sorted(
        key for key in before.keys() | after.keys()
        if key not in before or key not in after
        or before[key][0] is not after[key][0]
        or before[key][1] != after[key][1]
    )
    if written:
        raise RuntimeError(f"child wrote module state: {written}")
    return packed


_REAL_SELECT_SHARD = region_selection._select_shard


def _store_hit():
    SUPERGATE_STORE.hits += 1


def _registry_write():
    PAPER_AVERAGES["audit"] += 1


@pytest.mark.parametrize("plant, written", [
    pytest.param(None, None, id="clean"),
    pytest.param(
        _store_hit, "('repro.rapids.engine', 'SUPERGATE_STORE')",
        id="planted-store-hit",
    ),
    pytest.param(
        _registry_write, "('repro.suite.registry', 'PAPER_AVERAGES')",
        id="planted-dict-write",
    ),
])
def test_forked_children_leave_module_state_alone(
    plant, written, monkeypatch
):
    """Timing-aware children score HPWL and project slacks without
    writing any module global; a planted write is caught by name."""
    monkeypatch.setattr(
        region_selection, "_select_shard", _audited_select_shard
    )
    if plant is not None:
        monkeypatch.setattr(SUPERGATE_STORE, "hits", SUPERGATE_STORE.hits)
        monkeypatch.setitem(PAPER_AVERAGES, "audit", 0)
        real_select_batch = partition._select_batch

        def planted(*args):
            plant()
            return real_select_batch(*args)

        monkeypatch.setattr(partition, "_select_batch", planted)
    network, placement, library = _prepared(31, num_gates=200)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    result = reduce_wirelength_partitioned(
        network, placement, max_gates=50, max_passes=2,
        timing_engine=engine, slack_margin=0.0, workers=2,
        library=library,
    )
    assert result.parallel_rounds > 0
    if written is None:
        assert result.fallback_reason is None
    else:
        assert written in result.fallback_reason


# ----------------------------------------------------------------------
# failures: a dead or raising child never changes the trajectory
# ----------------------------------------------------------------------
_SERIAL_REFERENCE: dict = {}


def _serial_reference():
    """Serial partitioned run on the failure-test design (computed once)."""
    if not _SERIAL_REFERENCE:
        network, placement, library = _prepared(51, num_gates=220)
        net, pl = network.copy(), placement.copy()
        result = reduce_wirelength_partitioned(
            net, pl, max_gates=50, max_passes=2, timing_engine=None,
            workers=1, library=library,
        )
        _SERIAL_REFERENCE.update(
            inputs=(network, placement, library),
            fanins=_fanins(net),
            stats=(
                result.swaps_applied,
                result.cross_swaps_applied,
                result.final_hpwl,
                result.candidates_scored,
            ),
        )
    return _SERIAL_REFERENCE


@pytest.mark.parametrize("workers,action", [
    (2, "kill"), (4, "kill"), (2, "raise"),
])
def test_partitioned_trajectory_survives_injected_faults(
    workers, action, monkeypatch
):
    """Every forked child fails; the parent re-selects each failed shard
    inline, so only the health counters show it."""
    def failing_child(*_args):
        if action == "kill":
            os._exit(3)
        raise RuntimeError("injected child failure")

    monkeypatch.setattr(region_selection, "_select_shard", failing_child)
    reference = _serial_reference()
    network, placement, library = reference["inputs"]
    net, pl = network.copy(), placement.copy()
    result = reduce_wirelength_partitioned(
        net, pl, max_gates=50, max_passes=2, timing_engine=None,
        workers=workers, library=library,
    )
    assert _fanins(net) == reference["fanins"]
    assert (
        result.swaps_applied,
        result.cross_swaps_applied,
        result.final_hpwl,
        result.candidates_scored,
    ) == reference["stats"]
    assert result.health["inline_fallbacks"] >= 1
    expected = (
        "worker exited with status 3" if action == "kill"
        else "RuntimeError: injected child failure"
    )
    assert result.fallback_reason == expected
    assert multiprocessing.active_children() == []


def test_inline_without_fork_records_reason(monkeypatch):
    # a platform without the fork start method selects every region
    # inline, says why, and still walks the serial trajectory
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    reference = _serial_reference()
    network, placement, library = reference["inputs"]
    net, pl = network.copy(), placement.copy()
    result = reduce_wirelength_partitioned(
        net, pl, max_gates=50, max_passes=2, timing_engine=None,
        workers=2, library=library,
    )
    assert result.parallel_rounds == 0
    assert "fork" in result.fallback_reason
    assert _fanins(net) == reference["fanins"]
