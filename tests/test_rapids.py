"""The RAPIDS engine: three modes, equivalence, placement discipline."""

import pytest

from repro.config import FlowConfig
from repro.place.placer import place
from repro.rapids.engine import MODES, run_rapids
from repro.rapids.moves import MAX_MOVES_PER_SITE, SwapMove, swap_sites
from repro.rapids.report import (
    Table1Row,
    averages,
    build_row,
    fanout_profile,
)
from repro.symmetry.supergate import extract_supergates
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine
from repro.verify.equiv import networks_equivalent

from helpers import partition_signature, random_network


def prepared(seed, library, gates=45):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed, anneal_moves=2000)
    return net, placement


@pytest.mark.parametrize("mode", MODES)
def test_modes_preserve_function_and_never_worsen(mode, library):
    net, placement = prepared(11, library)
    reference = net.copy()
    result = run_rapids(
        net, placement, library, mode=mode, check_equivalence=True,
    )
    assert result.equivalent is True
    assert networks_equivalent(reference, net)
    assert result.optimize.final_delay <= (
        result.optimize.initial_delay + 1e-9
    )
    assert result.mode == mode
    assert result.coverage_percent >= 0
    assert result.max_supergate_inputs >= 1


def test_unknown_mode_rejected(library):
    net, placement = prepared(12, library)
    with pytest.raises(ValueError):
        run_rapids(net, placement, library, mode="frobnicate")


def test_class_swaps_knob_only_accepts_false(library):
    net, placement = prepared(12, library)
    with pytest.raises(ValueError, match="wl_class_swaps"):
        run_rapids(net, placement, library, wl_class_swaps=True)


def test_sim_backend_knob_only_accepts_auto(library):
    net, placement = prepared(12, library)
    with pytest.raises(ValueError, match="sim_backend"):
        run_rapids(net, placement, library, sim_backend="numpy")
    assert FlowConfig.sim_backend == "auto"
    # the serial greedy polish is gone too; perfbench still passes the
    # knob, so only its default value is accepted
    with pytest.raises(ValueError, match="wl_batched"):
        run_rapids(net, placement, library, wl_batched=False)
    assert FlowConfig.wl_batched is True


def test_rewiring_moves_no_cells(library):
    """The paper's headline: gsg leaves every placed cell in place."""
    net, placement = prepared(13, library)
    result = run_rapids(net, placement, library, mode="gsg")
    assert result.perturbation["moved_cells"] == 0
    # only inverters may appear or disappear
    assert result.perturbation["added_cells"] >= 0


def test_gs_mode_does_not_touch_topology(library):
    net, placement = prepared(14, library)
    fanins_before = {g.name: list(g.fanins) for g in net.gates()}
    run_rapids(net, placement, library, mode="gs")
    for gate in net.gates():
        assert gate.fanins == fanins_before[gate.name]


def test_swap_sites_cap(library):
    net, placement = prepared(15, library, gates=60)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    sgn = extract_supergates(net)
    for site in swap_sites(net, engine, sgn):
        assert len(site.moves) <= 2 * MAX_MOVES_PER_SITE


def test_swap_move_footprint_and_area(library):
    net, placement = prepared(16, library)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    sgn = extract_supergates(net)
    sites = swap_sites(net, engine, sgn)
    if not sites:
        pytest.skip("no swap sites on this seed")
    move = sites[0].moves[0]
    assert isinstance(move, SwapMove)
    footprint = move.footprint(net)
    assert move.swap.pin_a.gate in footprint
    if move.swap.inverting:
        assert move.area_delta(library) > 0
    else:
        assert move.area_delta(library) == 0


def test_table1_row_assembly(library):
    net, placement = prepared(17, library, gates=30)
    results = {}
    for mode in MODES:
        trial_net, trial_place = net.copy(), placement.copy()
        results[mode] = run_rapids(trial_net, trial_place, library, mode=mode)
    row = build_row("toy", len(net), results["gsg"].optimize.initial_delay,
                    results)
    text = row.format()
    assert "toy" in text
    assert len(text.split()) >= 13
    avg = averages([row])
    assert avg["gsg_gs_percent"] == pytest.approx(row.gsg_gs_percent)
    assert Table1Row.HEADER.split()[0] == "ckt"


def test_fanout_profile(library):
    net, _ = prepared(18, library)
    profile = fanout_profile(net)
    assert profile["max_fanout"] >= 1
    assert profile["nets_over_100"] >= 0


def test_supergate_cache_matches_fresh_extraction(library):
    """Partial invalidation yields the same partition as re-extraction."""
    import random

    from repro.network.transform import sweep
    from repro.rapids.engine import SupergateCache
    from repro.rapids.moves import bind_new_inverters
    from repro.symmetry.swap import apply_swap, enumerate_swaps

    for seed in (23, 29, 31):
        net, _ = prepared(seed, library)
        cache = SupergateCache(net)
        rng = random.Random(seed)
        for step in range(12):
            sgn = cache.get()
            fresh = extract_supergates(net)
            assert sgn.owner == fresh.owner, (seed, step)
            assert partition_signature(sgn) == partition_signature(fresh)
            swaps = [
                swap
                for sg in sgn.nontrivial()
                for swap in enumerate_swaps(sg, leaves_only=True)
            ]
            if not swaps:
                break
            swap = rng.choice(swaps)
            before = len(net)
            apply_swap(net, swap)
            added = len(net) - before
            if added > 0:
                bind_new_inverters(net, library, net.recent_gates(added))
            if step % 4 == 3:
                sweep(net)
        # the whole walk must have been served by partial refreshes
        # (the initial partition may come from the shared store)
        assert cache.full_extractions + cache.store_fetches == 1
        assert cache.partial_refreshes >= 1


def test_supergate_cache_sees_class_changing_folds(library):
    """A gate whose class changes must re-open its consumers' growth.

    Constant folding turns XOR(a, CONST1) into INV(a) via
    set_fanins + set_gate_type; the inverter is now absorbable by the
    downstream AND supergate, so the cached partition must re-grow
    the consumer — not just the folded gate's own supergate.
    """
    from repro.network.builder import NetworkBuilder
    from repro.network.gatetype import GateType
    from repro.network.transform import propagate_constants
    from repro.rapids.engine import SupergateCache

    builder = NetworkBuilder("fold")
    a, x = builder.inputs(2)
    net = builder.build()
    net.add_gate("one", GateType.CONST1)
    net.add_gate("g", GateType.XOR, [a, "one"])
    net.add_gate("r", GateType.AND, ["g", x])
    net.add_output("r")
    cache = SupergateCache(net)
    cache.get()
    propagate_constants(net)
    sgn = cache.get()
    fresh = extract_supergates(net)
    assert sgn.owner == fresh.owner
    assert sgn.owner["g"] == "r"  # the inverter was absorbed downstream


def test_combined_mode_superset_of_sites(library):
    """gsg+GS must expose sizing for trivially-covered gates."""
    from repro.rapids.engine import SupergateCache, _site_factory

    net, placement = prepared(19, library)
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    sites = _site_factory("gsg_gs", library, SupergateCache(net))(net, engine)
    kinds = {site.key.split(":")[0] for site in sites}
    assert "gate" in kinds  # sizing sites exist
    sgn = extract_supergates(net)
    nontrivial_gates = {
        name for sg in sgn.nontrivial() for name in sg.covered
    }
    for site in sites:
        prefix, name = site.key.split(":", 1)
        if prefix == "gate":
            assert name not in nontrivial_gates


def test_persistent_supergate_store_shares_across_copies(library):
    """Copies with identical logic reuse one extraction (Table-1 modes)."""
    from repro.rapids.engine import (
        PersistentSupergateStore,
        network_content_hash,
    )

    net, _ = prepared(17, library)
    store = PersistentSupergateStore()
    first = store.get_or_extract(net)
    assert store.misses == 1 and store.hits == 0
    clone = net.copy()
    second = store.get_or_extract(clone)
    assert store.hits == 1
    assert second.network is clone
    assert second.supergates.keys() == first.supergates.keys()
    assert second.owner == first.owner
    # cell rebinding (pure sizing) keeps the structural hash stable...
    resized = net.copy()
    name = next(resized.gate_names())
    resized.set_cell(name, None)
    assert network_content_hash(resized) == network_content_hash(net)
    # ...while rewiring changes it and forces a fresh extraction
    rewired = net.copy()
    gate = next(g for g in rewired.gates() if g.arity() >= 2)
    from repro.network.netlist import Pin

    rewired.swap_fanins(Pin(gate.name, 0), Pin(gate.name, 1))
    assert network_content_hash(rewired) != network_content_hash(net)
    store.get_or_extract(rewired)
    assert store.misses == 2


def test_store_partitions_independent_after_attach(library):
    """A partial refresh on one attached copy must not corrupt others."""
    from repro.rapids.engine import PersistentSupergateStore

    net, _ = prepared(18, library)
    store = PersistentSupergateStore()
    original = store.get_or_extract(net)
    snapshot_roots = set(original.supergates.keys())
    attached = store.fetch(net.copy())
    attached.supergates.pop(next(iter(attached.supergates)))
    # mutating the attached copy's dicts leaves the store intact
    again = store.fetch(net.copy())
    assert set(again.supergates.keys()) == snapshot_roots
