"""Timing substrate: star/Elmore net model and the STA engine."""

import hashlib

import pytest

from repro.network.builder import NetworkBuilder
from repro.network.netlist import Pin
from repro.place.placement import Placement
from repro.library.cells import UNIT_WIRE_CAP_PER_UM, UNIT_WIRE_RES_PER_UM
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
        UNIT_WIRE_CAP_PER_UM * 300.0 + sink.pin_cap
    )
    # Elmore: R_src * (everything) + R_sink * (segment + pin)
    r_half = UNIT_WIRE_RES_PER_UM * 150.0
    c_half = UNIT_WIRE_CAP_PER_UM * 150.0
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
    assert min(engine.slack.values()) == pytest.approx(0.0, abs=1e-9)
    # an explicit looser period shifts every slack up uniformly
    relaxed = TimingEngine(net, pl, library, period=engine.max_delay + 1.0)
    relaxed.analyze()
    assert min(relaxed.slack.values()) == pytest.approx(1.0, abs=1e-6)


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
    """critical_path refreshes the caches after a rewire, and the
    refreshed slacks equal a fresh analysis."""
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
    path = engine.critical_path()
    assert min(engine.slack.values()) == pytest.approx(
        min(fresh.slack.values()), abs=1e-12
    )
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


def _reference_star(network, placement, library, net, override_sinks=None):
    """``build_star`` before it was inlined, as a list of plain fields:
    (net, source, center, total_cap, [(pin, location, cap, delay)])."""
    from repro.place.placement import manhattan
    from repro.timing.netmodel import pin_capacitance

    source = placement.source_location(network, net)
    if override_sinks is None:
        sink_specs = []
        for pin in network.fanout(net):
            sink_specs.append((
                pin,
                placement.locations[pin.gate],
                pin_capacitance(network, library, pin),
            ))
        for index in network.output_slots(net):
            sink_specs.append((None, placement.output_pads[index], PO_PAD_CAP))
    else:
        sink_specs = override_sinks
    if not sink_specs:
        return (net, source, source, 0.0, [])
    points = [source] + [spec[1] for spec in sink_specs]
    center = (
        sum(p[0] for p in points) / len(points),
        sum(p[1] for p in points) / len(points),
    )
    source_len = manhattan(source, center)
    r_source = UNIT_WIRE_RES_PER_UM * source_len
    c_source = UNIT_WIRE_CAP_PER_UM * source_len
    sink_lens = [manhattan(center, spec[1]) for spec in sink_specs]
    c_segments = [UNIT_WIRE_CAP_PER_UM * length for length in sink_lens]
    downstream_cap = sum(c_segments) + sum(spec[2] for spec in sink_specs)
    total_cap = c_source + downstream_cap
    sinks = []
    for spec, length, c_seg in zip(sink_specs, sink_lens, c_segments):
        pin, location, cap = spec
        r_seg = UNIT_WIRE_RES_PER_UM * length
        delay = r_source * (c_source + downstream_cap) + r_seg * (
            c_seg + cap
        )
        sinks.append((pin, location, cap, delay))
    return (net, source, center, total_cap, sinks)


def _star_fields(star):
    return (
        star.net, star.source, star.center, star.total_cap,
        [(s.pin, s.location, s.pin_cap, s.wire_delay) for s in star.sinks],
    )


def test_build_star_matches_the_reference_field_for_field(library):
    """Every field of every star, bit for bit (``repr`` tells -0.0 from
    0.0): PO pads (a net listed twice among the outputs too), unmapped
    gates, repeated fanins and what-if ``override_sinks``."""
    from repro.place.placer import place

    checked = 0
    for seed in (2, 9, 31):
        network = random_network(seed, num_gates=40, num_outputs=6)
        map_network(network, library)
        gates = list(network.gates())
        for gate in gates[::5]:
            gate.cell = None  # unmapped: zero pin capacitance
        for gate in gates[1::6]:
            if len(gate.fanins) >= 2:  # a repeated fanin
                network.replace_fanin(Pin(gate.name, 1), gate.fanins[0])
        network.add_output(network.outputs[0])
        placement = place(network, library, seed=seed)
        for net in network.nets():
            star = build_star(network, placement, library, net)
            assert repr(_star_fields(star)) == repr(_reference_star(
                network, placement, library, net
            ))
            checked += 1
            specs = [
                (Pin(gate.name, 0), placement.locations[gate.name], 0.01 * i)
                for i, gate in enumerate(gates[seed % 7::9])
            ] + [(None, (3.5, 1e3), PO_PAD_CAP)]
            for override in (specs, specs[:1], []):
                star = build_star(network, placement, library, net,
                                  override_sinks=override)
                assert repr(_star_fields(star)) == repr(_reference_star(
                    network, placement, library, net, override
                ))
    assert checked > 75


# ----------------------------------------------------------------------
# golden STA digests: the full pass, the committed worklist and the
# projections, pinned bit for bit on three suite circuits
# ----------------------------------------------------------------------
def _hex_pair(pair) -> str:
    return f"{pair[0].hex()},{pair[1].hex()}"


def _digest_engine(digest, engine) -> None:
    for net in sorted(engine.arrival):
        digest.update(f"a{net}:{_hex_pair(engine.arrival[net])};".encode())
    for net in sorted(engine._req0):
        digest.update(f"r{net}:{_hex_pair(engine._req0[net])};".encode())
    for net in sorted(engine.slack):
        digest.update(f"s{net}:{engine.slack[net].hex()};".encode())
    digest.update(f"#{engine.max_delay.hex()}".encode())


def _sta_digest(library, name: str, scale: float) -> str:
    from repro.place.placement import grid_placement
    from repro.place.placer import place
    from repro.suite.registry import build_benchmark
    from repro.symmetry.swap import PinSwap

    network = build_benchmark(name, scale)
    map_network(network, library)
    if name.startswith("tiled"):
        placement = grid_placement(network)
    else:
        placement = place(network, library, seed=1, anneal_moves=2000)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    digest = hashlib.blake2b(digest_size=16)
    _digest_engine(digest, engine)
    # exchanging the two fanins of one gate never closes a cycle
    swaps = [
        (Pin(gate.name, 0), Pin(gate.name, 1))
        for gate in network.gates()
        if len(gate.fanins) >= 2 and gate.fanins[0] != gate.fanins[1]
    ][::7]
    batch = [
        ((pin_a, network.fanin_net(pin_b)), (pin_b, network.fanin_net(pin_a)))
        for pin_a, pin_b in swaps
    ]
    for exact in (False, True):
        for projection in engine.project_swap_slacks(batch, exact=exact):
            for net in sorted(projection.projected):
                digest.update(
                    f"p{net}:{projection.projected[net].hex()}"
                    f",{projection.current.get(net, 0.0).hex()};".encode()
                )
            digest.update("|".join(sorted(projection.touched)).encode())
    for pin_a, pin_b in swaps:
        gains = engine.swap_gain(PinSwap(pin_a.gate, pin_a, pin_b, False))
        digest.update(f"g{gains.min_gain.hex()},{gains.sum_gain.hex()};".encode())
    for pin_a, pin_b in swaps[::3]:
        network.swap_fanins(pin_a, pin_b)
        engine.apply_and_update()
    _digest_engine(digest, engine)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, scale, expected",
    [
        ("alu2", 0.35, "c10ca9f616b2f94e85f040c7d020d469"),
        ("s5378", 0.35, "ea176a9d62b087e9a8cdb27fbf5762d5"),
        ("tiled100k", 0.02, "598933c36efed15ab580351bd200cf96"),
    ],
)
def test_sta_golden_digest(library, name, scale, expected):
    """Arrival, zero-target required and slack of every net, the
    critical delay, frontier and exact projections, swap gains and the
    state after committed swaps, pinned bit for bit: a reordered float
    expression anywhere in the star model or the evaluators moves it."""
    assert _sta_digest(library, name, scale) == expected
