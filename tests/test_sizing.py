"""The two-phase Coudert optimizer: monotonicity, area recovery, moves."""

import pytest

from repro.place.placer import place
from repro.sizing.coudert import optimize
from repro.sizing.moves import ResizeMove, resize_sites
from repro.synth.mapper import map_network, network_area
from repro.timing.sta import TimingEngine
from repro.verify.equiv import networks_equivalent

from helpers import random_network


def network_delay(net, placement, library):
    """Critical-path delay of a fresh analysis."""
    engine = TimingEngine(net, placement, library)
    engine.analyze()
    return engine.max_delay


def prepared(seed, library, gates=40):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed)
    return net, placement


def test_resize_move_mechanics(library):
    net, placement = prepared(1, library)
    sites = resize_sites(net, library)
    assert sites
    move = sites[0].moves[0]
    assert isinstance(move, ResizeMove)
    area_before = network_area(net, library)
    move.apply(net, library)
    assert net.gate(move.gate).cell == move.new_cell
    assert network_area(net, library) == pytest.approx(
        area_before + move.area_delta(library)
    )
    assert move.gate in move.footprint(net)
    assert "resize" in move.describe()


def test_resize_sites_filter(library):
    net, _ = prepared(2, library)
    allowed = {list(net.gate_names())[0]}
    sites = resize_sites(net, library, gate_filter=lambda n: n in allowed)
    assert {site.key.split(":")[1] for site in sites} <= allowed


def test_optimize_never_worsens_delay(library):
    for seed in (3, 4, 5):
        net, placement = prepared(seed, library)
        before = network_delay(net, placement, library)
        reference = net.copy()
        result = optimize(
            net, placement, library,
            site_factory=lambda n, e: resize_sites(n, library),
            engine=TimingEngine(net, placement, library),
            mode="gs",
        )
        after = network_delay(net, placement, library)
        assert after <= before + 1e-9, seed
        assert result.final_delay == pytest.approx(after, abs=1e-6)
        assert result.initial_delay == pytest.approx(before, abs=1e-6)
        assert networks_equivalent(reference, net), seed


def test_improvement_percent_math(library):
    net, placement = prepared(6, library)
    result = optimize(
        net, placement, library,
        site_factory=lambda n, e: resize_sites(n, library),
        engine=TimingEngine(net, placement, library),
        mode="gs",
    )
    expect = 100.0 * (
        result.initial_delay - result.final_delay
    ) / result.initial_delay
    assert result.improvement_percent == pytest.approx(expect)
    assert result.rounds >= 1


def test_empty_site_factory_is_noop(library):
    net, placement = prepared(7, library)
    before_delay = network_delay(net, placement, library)
    result = optimize(
        net, placement, library,
        site_factory=lambda n, e: [],
        engine=TimingEngine(net, placement, library),
        mode="noop",
    )
    assert result.moves_applied == 0
    assert result.final_delay == pytest.approx(before_delay, abs=1e-9)


def test_collect_log(library):
    net, placement = prepared(8, library)
    result = optimize(
        net, placement, library,
        site_factory=lambda n, e: resize_sites(n, library),
        engine=TimingEngine(net, placement, library),
        collect_log=True,
    )
    if result.moves_applied:
        assert result.move_log
        assert any("resize" in line for line in result.move_log)


def test_area_recovery_shrinks_oversized_designs(library):
    net, placement = prepared(9, library, gates=100)
    # inflate everything to X8 - recovery pulls back what positive
    # slack allows (it never trades the achieved delay for area, so on
    # all-critical gates the X8 stays)
    for gate in net.gates():
        if gate.cell is None:
            continue
        cells = library.sizes_of(library.cell(gate.cell))
        gate.cell = cells[-1].name
    net._touch()
    inflated = network_area(net, library)
    delay_before = network_delay(net, placement, library)
    optimize(
        net, placement, library,
        site_factory=lambda n, e: resize_sites(n, library),
        engine=TimingEngine(net, placement, library),
        mode="gs",
    )
    assert network_area(net, library) < inflated * 0.85
    assert network_delay(net, placement, library) <= delay_before + 1e-9
