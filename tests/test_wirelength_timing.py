"""Timing-aware wirelength rewiring: slack projections and guard bands.

Covers the cross-layer contract between
:meth:`repro.timing.sta.TimingEngine.project_swap_slacks` and the
batched committer in :mod:`repro.rapids.wirelength`:

* exact projections realize bit-near-identically (1e-9) once the swap
  batch is committed and the engine re-folds incrementally;
* the guard band rejects wire-motivated swaps that would eat critical
  slack at margin 0 and admits them again at a negative margin;
* an exact projection is complete: every net a committed leaf or
  cross swap re-times lies in its ``touched`` set, and every changed
  slack is one it projected;
* a larger guard band always admits a subset of the moves a smaller
  one admits (monotonicity);
* the Table-1 flow runs the slack-guarded polish by default.
"""

import pytest

from repro.network.builder import NetworkBuilder
from repro.place.placement import Placement
from repro.place.placer import place
from repro.rapids.engine import run_rapids
from repro.rapids.wirelength import reduce_wirelength, swap_bindings
from repro.suite.flow import FlowConfig
from repro.symmetry.cross import cross_swap_bindings, find_cross_swaps
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import enumerate_swaps
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine
from repro.verify.equiv import networks_equivalent

from helpers import random_network, swap_hpwl_delta


def _prepared(seed, library, gates=60):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed, anneal_moves=2000)
    return net, placement


def _pinned_engine(network, placement, library) -> TimingEngine:
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    engine.period = engine.max_delay
    return engine


def _leaf_swap_bindings(network):
    """All non-inverting leaf-swap candidates as rebinding tuples."""
    sgn = extract_supergates(network)
    bindings = []
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False, network=network
        ):
            bindings.append(
                swap_bindings(network, swap.pin_a, swap.pin_b)
            )
    return bindings


# ----------------------------------------------------------------------
# a hand-built circuit where the best wirelength swap eats critical slack
# ----------------------------------------------------------------------
def _critical_tradeoff_case():
    """Wire-improving swap on the critical path: HPWL -30 um, delay up.

    ``root = AND(inner, c)`` with ``inner = AND(a, b)`` makes pins
    ``a`` (on inner) and ``c`` (on root) non-inverting swappable.  Net
    ``a`` also feeds ``tap`` whose output pad sits far away — the
    critical path.  Swapping moves net a's other sink from ``inner``
    (y=50) to ``root`` (y=80): net a's bounding box is unchanged (the
    sink is interior) but its star center drifts from the source, so
    the Elmore delay to the critical ``tap`` sink grows; net c
    meanwhile shrinks from 35 um to 5 um.  Total HPWL improves while
    the critical path slows — exactly what the margin-0 guard must
    reject and a sufficiently negative margin must re-admit.
    """
    builder = NetworkBuilder("tradeoff")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    inner = builder.and_(a, b, name="inner")
    root = builder.and_(inner, c, name="root")
    tap = builder.buf(a, name="tap")
    builder.output(root)
    builder.output(tap)
    network = builder.build()
    placement = Placement(
        die_width=200.0,
        die_height=600.0,
        locations={
            "inner": (0.0, 50.0),
            "root": (0.0, 80.0),
            "tap": (0.0, 100.0),
        },
        input_pads={
            "a": (0.0, 0.0),
            "b": (0.0, 50.0),
            "c": (0.0, 45.0),
        },
        output_pads={
            0: (0.0, 80.0),     # root's pad, right at the gate
            1: (0.0, 500.0),    # tap's pad, far: the critical path
        },
    )
    return network, placement


def test_critical_path_swap_rejected_at_margin_zero(library):
    network, placement = _critical_tradeoff_case()
    engine = _pinned_engine(network, placement, library)
    # precondition: the projection itself sees the trade-off
    bindings = _leaf_swap_bindings(network)
    improving = [
        binding for binding in bindings
        if _hpwl_delta(network, placement, binding) < -1e-9
    ]
    assert improving, "construction lost its wirelength-improving swap"
    projection = engine.project_swap_slacks(improving, exact=True)[0]
    assert min(projection.projected.values()) < -1e-12, (
        "construction lost its critical-path degradation"
    )

    reference = network.copy()
    result = reduce_wirelength(
        network, placement, timing_engine=engine, slack_margin=0.0,
    )
    assert result.timing_aware
    assert result.swaps_applied == 0 and result.cross_swaps_applied == 0
    assert result.timing_rejected >= 1
    assert result.final_hpwl == pytest.approx(result.initial_hpwl)
    assert networks_equivalent(reference, network)


def test_critical_path_swap_accepted_at_negative_margin(library):
    network, placement = _critical_tradeoff_case()
    reference = network.copy()
    engine = _pinned_engine(network, placement, library)
    baseline_delay = engine.max_delay
    result = reduce_wirelength(
        network, placement, timing_engine=engine, slack_margin=-1.0,
    )
    assert result.swaps_applied >= 1
    assert result.final_hpwl < result.initial_hpwl - 1e-9
    assert networks_equivalent(reference, network)
    # the admitted swap really did spend delay for wire
    retimed = TimingEngine(network, placement, library)
    retimed.analyze()
    assert retimed.max_delay > baseline_delay + 1e-12
    assert retimed.max_delay <= baseline_delay + 1.0 + 1e-9


def _hpwl_delta(network, placement, binding):
    from repro.symmetry.swap import PinSwap

    (pin_a, _), (pin_b, _) = binding
    return swap_hpwl_delta(
        network, placement,
        PinSwap(root="", pin_a=pin_a, pin_b=pin_b, inverting=False),
    )


# ----------------------------------------------------------------------
# projected == applied under random swap batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 7, 11, 19])
def test_projected_slacks_agree_with_applied(seed, library):
    """Exact batch projections realize to 1e-9 after the re-fold.

    Builds random conflict-free batches (pairwise-disjoint ``touched``
    sets — the committer's rule), applies them, lets the engine update
    incrementally, and compares every projected slack with the
    engine's realized value.
    """
    network, placement = _prepared(seed, library)
    engine = _pinned_engine(network, placement, library)
    bindings = _leaf_swap_bindings(network)
    if not bindings:
        pytest.skip("no leaf-swap candidates on this seed")
    checked = 0
    while bindings and checked < 3:
        projections = engine.project_swap_slacks(bindings, exact=True)
        touched: set[str] = set()
        batch = []
        for binding, projection in zip(bindings, projections):
            if projection.touched & touched:
                continue
            touched |= projection.touched
            batch.append((binding, projection))
        for (pin_a, _), (pin_b, _) in (b for b, _ in batch):
            network.swap_fanins(pin_a, pin_b)
        engine.refresh()
        for _binding, projection in batch:
            for net, projected in projection.projected.items():
                assert engine.slack[net] == pytest.approx(
                    projected, abs=1e-9
                ), (seed, net)
        checked += 1
        # recompute candidates against the new wiring for the next round
        bindings = _leaf_swap_bindings(network)


# ----------------------------------------------------------------------
# exact projections are complete
# ----------------------------------------------------------------------
def _pure_cross_bindings(network):
    """Every inverter-free cross swap as a rebinding list."""
    sgn = extract_supergates(network)
    found = [
        cross_swap_bindings(sgn, cross) for cross in find_cross_swaps(sgn)
    ]
    return [bindings for bindings in found if bindings is not None]


def _fresh_state(network, placement, library, period):
    """Arrival, zero-target required and slack maps of a fresh analysis."""
    fresh = TimingEngine(network, placement, library, period=period)
    fresh.analyze()
    return fresh.arrival, fresh._req0, fresh.slack


@pytest.mark.parametrize("seed", [1, 11, 34])
def test_exact_projection_covers_every_changed_net(seed, library):
    """No net outside ``touched`` moves when a rebinding is committed.

    Commits single leaf swaps and pure cross swaps one at a time and
    diffs fresh analyses from before and after the move: every net
    whose arrival, zero-target required pair or slack changed must be
    in the engine's exact projection's ``touched``, and every changed
    slack must be projected to 1e-9.  The engine follows each move
    incrementally, and the move is undone before the next.
    """
    network, placement = _prepared(seed, library, gates=120)
    engine = _pinned_engine(network, placement, library)
    leaf = _leaf_swap_bindings(network)
    crosses = _pure_cross_bindings(network)
    assert leaf and crosses
    for bindings in [*leaf[:: max(1, len(leaf) // 12)], *crosses]:
        before = _fresh_state(network, placement, library, engine.period)
        [projection] = engine.project_swap_slacks([bindings], exact=True)
        undo = [(pin, network.fanin_net(pin)) for pin, _ in bindings]
        for pin, net in bindings:
            network.replace_fanin(pin, net)
        engine.refresh()
        after = _fresh_state(network, placement, library, engine.period)
        for old, new in zip(before, after):
            changed = {
                net for net in old.keys() | new.keys()
                if old.get(net) != new.get(net)
            }
            assert changed <= projection.touched, (seed, bindings)
        for net, slack in after[2].items():
            if slack != before[2][net]:
                assert projection.projected[net] == pytest.approx(
                    slack, abs=1e-9
                ), (seed, bindings, net)
        for pin, net in undo:
            network.replace_fanin(pin, net)
        engine.refresh()


# ----------------------------------------------------------------------
# guard-band monotonicity
# ----------------------------------------------------------------------
def test_guard_band_monotone(library):
    """A larger margin admits a subset of what a smaller margin admits."""
    network, placement = _prepared(13, library)
    engine = _pinned_engine(network, placement, library)
    bindings = _leaf_swap_bindings(network)
    assert bindings
    projections = engine.project_swap_slacks(bindings, exact=True)
    margins = [-0.5, -0.1, 0.0, 0.05, 0.2]
    admitted = [
        {index for index, p in enumerate(projections) if p.admissible(m)}
        for m in margins
    ]
    for smaller, larger in zip(admitted, admitted[1:]):
        assert larger <= smaller
    assert admitted[0]  # a deeply negative margin admits everything left


def test_timing_aware_polish_never_degrades_delay(library):
    for seed in (22, 23, 24, 31):
        network, placement = _prepared(seed, library, gates=80)
        reference = network.copy()
        engine = _pinned_engine(network, placement, library)
        baseline_delay = engine.max_delay
        result = reduce_wirelength(
            network, placement, timing_engine=engine,
        )
        assert networks_equivalent(reference, network), seed
        assert result.projection_drift <= 1e-9, seed
        retimed = TimingEngine(network, placement, library)
        retimed.analyze()
        assert retimed.max_delay <= baseline_delay + 1e-9, seed


# ----------------------------------------------------------------------
# flow plumbing
# ----------------------------------------------------------------------
def test_table1_flow_defaults_to_guarded_polish():
    config = FlowConfig()
    assert config.wl_passes == 1
    assert config.wl_timing_aware is True
    assert config.wl_slack_margin == 0.0


def test_run_rapids_reports_guarded_wirelength(library):
    net, placement = _prepared(17, library, gates=45)
    reference = net.copy()
    result = run_rapids(
        net, placement, library, mode="gsg", wl_passes=1,
        check_equivalence=True,
    )
    assert result.equivalent is True
    assert result.wirelength is not None
    assert result.wirelength.timing_aware is True
    assert result.wirelength.projection_drift <= 1e-9
    assert networks_equivalent(reference, net)
    # the reported delay describes the polished netlist
    retimed = TimingEngine(net, placement, library)
    retimed.analyze()
    assert result.optimize.final_delay == pytest.approx(
        retimed.max_delay, abs=1e-9
    )
