"""Timing substrate: star/Elmore net model and the STA engine."""

import pytest

from repro.network.builder import NetworkBuilder
from repro.network.netlist import Pin
from repro.place.placement import Placement
from repro.library.cells import wire_capacitance, wire_resistance
from repro.synth.mapper import map_network
from repro.timing.netmodel import PO_PAD_CAP, build_star
from repro.timing.sta import TimingEngine

from helpers import random_network


def chain_network(library):
    """PI -> NAND2 -> NAND2 -> PO with hand-placed cells."""
    builder = NetworkBuilder("chain")
    a, b = builder.inputs(2)
    g1 = builder.nand(a, b, name="g1")
    g2 = builder.nand(g1, a, name="g2")
    builder.output(g2)
    net = builder.build()
    for gate in net.gates():
        gate.cell = "NAND2_X2"
    pl = Placement(die_width=1000, die_height=1000)
    pl.input_pads["i0"] = (0.0, 0.0)
    pl.input_pads["i1"] = (0.0, 100.0)
    pl.output_pads[0] = (1000.0, 0.0)
    pl.set_location("g1", 300.0, 0.0)
    pl.set_location("g2", 600.0, 0.0)
    return net, pl


# ----------------------------------------------------------------------
# star net model
# ----------------------------------------------------------------------
def test_star_single_sink_geometry(library):
    net, pl = chain_network(library)
    star = build_star(net, pl, library, "g1")
    assert star.source == (300.0, 0.0)
    # single sink at (600, 0): center midway
    assert star.center == (450.0, 0.0)
    sink = star.sinks[0]
    assert sink.pin == Pin("g2", 0)
    assert sink.pin_cap == library.cell("NAND2_X2").input_cap
    # total load: 300 um of wire plus the sink pin
    assert star.total_cap == pytest.approx(
        wire_capacitance(300.0) + sink.pin_cap
    )
    # Elmore: R_src * (everything) + R_sink * (segment + pin)
    r_half, c_half = wire_resistance(150.0), wire_capacitance(150.0)
    expected = r_half * (c_half * 2 + sink.pin_cap) + r_half * (
        c_half + sink.pin_cap
    )
    assert sink.wire_delay == pytest.approx(expected)


def test_star_po_pad_sink(library):
    net, pl = chain_network(library)
    star = build_star(net, pl, library, "g2")
    pad_sinks = [s for s in star.sinks if s.pin is None]
    assert len(pad_sinks) == 1
    assert pad_sinks[0].pin_cap == PO_PAD_CAP


def test_star_zero_fanout(library):
    net, pl = chain_network(library)
    # i1 drives only g1; make an isolated net by querying a PI with one
    # sink removed through an override
    star = build_star(net, pl, library, "i1", override_sinks=[])
    assert star.total_cap == 0.0
    assert star.sinks == ()


def test_longer_wire_means_more_delay(library):
    net, pl = chain_network(library)
    near = build_star(net, pl, library, "g1")
    pl.set_location("g2", 900.0, 0.0)
    far = build_star(net, pl, library, "g1")
    assert far.sinks[0].wire_delay > near.sinks[0].wire_delay
    assert far.total_cap > near.total_cap


# ----------------------------------------------------------------------
# STA
# ----------------------------------------------------------------------
def test_sta_hand_computed_chain(library):
    net, pl = chain_network(library)
    engine = TimingEngine(net, pl, library)
    engine.analyze()
    cell = library.cell("NAND2_X2")
    load_g1 = engine.stars["g1"].total_cap
    # arrival at g1 (negative unate: rise from fall and vice versa,
    # inputs arrive at 0 so both transitions reduce to wire + gate)
    rise, fall = engine.arrival["g1"]
    assert rise == pytest.approx(
        max(
            engine.stars["i0"].sink_delay(Pin("g1", 0)),
            engine.stars["i1"].sink_delay(Pin("g1", 1)),
        ) + cell.delay(load_g1, "rise")
    )
    assert engine.max_delay > 0
    assert engine.is_fresh()
    net._touch()
    assert not engine.is_fresh()


def test_sta_slack_and_required(library):
    net, pl = chain_network(library)
    engine = TimingEngine(net, pl, library)
    engine.analyze()
    # with the period defaulting to the max delay, the worst slack is ~0
    assert engine.worst_slack() == pytest.approx(0.0, abs=1e-9)
    # an explicit looser period shifts every slack up uniformly
    relaxed = TimingEngine(net, pl, library, period=engine.max_delay + 1.0)
    relaxed.analyze()
    assert relaxed.worst_slack() == pytest.approx(1.0, abs=1e-6)


def test_sta_critical_path_is_connected(library):
    net = random_network(11, num_gates=30, num_outputs=3)
    map_network(net, library)
    from repro.place.placer import place

    pl = place(net, library, seed=1)
    engine = TimingEngine(net, pl, library)
    engine.analyze()
    path = engine.critical_path()
    assert path, "must find a path"
    assert net.is_input(path[0].net)
    for earlier, later in zip(path, path[1:]):
        assert earlier.net in net.gate(later.net).fanins
    assert path[-1].arrival == pytest.approx(
        max(
            engine.worst_arrival(out) for out in net.outputs
        ), rel=1e-6,
    )


def test_reports_follow_committed_mutations(library):
    """critical_path/worst_slack refresh the caches after a rewire."""
    net = random_network(11, num_gates=30, num_outputs=3)
    map_network(net, library)
    from repro.place.placer import place

    pl = place(net, library, seed=1)
    engine = TimingEngine(net, pl, library, period=5.0)
    path = engine.critical_path()
    last = path[-1].net
    # move the critical pin of the PO driver onto a primary input
    critical_pin = Pin(last, net.gate(last).fanins.index(path[-2].net))
    net.replace_fanin(critical_pin, net.inputs[0])
    fresh = TimingEngine(net, pl, library, period=5.0)
    fresh.analyze()
    assert engine.worst_slack() == pytest.approx(
        fresh.worst_slack(), abs=1e-12
    )
    path = engine.critical_path()
    expected = fresh.critical_path()
    assert [point.net for point in path] == [point.net for point in expected]
    for point, reference in zip(path, expected):
        assert point.arrival == pytest.approx(reference.arrival, abs=1e-12)


def test_arrivals_monotone_along_path(library):
    net = random_network(13, num_gates=25, num_outputs=2)
    map_network(net, library)
    from repro.place.placer import place

    pl = place(net, library, seed=2)
    engine = TimingEngine(net, pl, library)
    engine.analyze()
    for point_a, point_b in zip(
        engine.critical_path(), engine.critical_path()[1:]
    ):
        assert point_b.arrival >= point_a.arrival - 1e-12


def test_swap_gain_matches_real_delay_direction(library):
    """Projected positive min-gains should usually reduce real delay."""
    from repro.symmetry.supergate import extract_supergates
    from repro.symmetry.swap import enumerate_swaps, swapped_copy

    agreements = 0
    checked = 0
    for seed in (3, 5, 8):
        net = random_network(seed, num_gates=40, num_outputs=4)
        map_network(net, library)
        from repro.place.placer import place

        pl = place(net, library, seed=seed)
        engine = TimingEngine(net, pl, library)
        engine.analyze()
        sgn = extract_supergates(net)
        for sg in sgn.nontrivial():
            for swap in enumerate_swaps(sg, leaves_only=True):
                gains = engine.swap_gain(swap)
                if gains.min_gain <= 0.003:
                    continue
                trial = swapped_copy(net, swap)
                from repro.rapids.moves import bind_new_inverters

                bind_new_inverters(
                    trial, library,
                    trial.recent_gates(len(trial) - len(net)),
                )
                trial_engine = TimingEngine(trial, pl.copy(), library)
                trial_engine.analyze()
                checked += 1
                if trial_engine.max_delay <= engine.max_delay + 1e-9:
                    agreements += 1
    if checked:
        assert agreements / checked >= 0.7, (agreements, checked)


def test_resize_gain_sign_sanity(library):
    net = random_network(17, num_gates=30, num_outputs=2)
    map_network(net, library)
    from repro.place.placer import place

    pl = place(net, library, seed=3)
    engine = TimingEngine(net, pl, library)
    engine.analyze()
    # upsizing the most critical driver should project a gain
    path = engine.critical_path()
    for point in reversed(path):
        if net.is_input(point.net):
            continue
        gate = net.gate(point.net)
        if gate.cell is None:
            continue
        cells = library.sizes_of(library.cell(gate.cell))
        bigger = [c for c in cells if c.size > library.cell(gate.cell).size]
        if not bigger:
            continue
        gains = engine.resize_gain(point.net, bigger[-1].name)
        # not strictly guaranteed, but the projection must be finite
        assert abs(gains.min_gain) < 10
        assert abs(gains.sum_gain) < 100
        break
