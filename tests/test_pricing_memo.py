"""The per-phase pricing memo never changes a price.

``TimingEngine`` memoizes each gate's committed pricing terms (cell,
load, own delay, one fanin arrival + wire delay per pin) and
``swap_gain``/``resize_gain`` recompute only the pins a move overrides.
Differential oracle: along random commit sequences — resizes,
non-inverting and inverting pin swaps, one snapshot rollback — every
site's moves priced from a warm memo equal, as whole ``Gains`` tuples,
the prices computed with the memo dropped before each call.  A gain
priced after a mutation but before ``refresh()`` must not read the
memo built before the mutation, nor a gain priced after the refresh
the memo built before it.
"""

from __future__ import annotations

import random

import pytest

from repro.place.placer import place
from repro.rapids.moves import SwapMove, swap_sites
from repro.sizing.coudert import _restore, _snapshot
from repro.sizing.moves import resize_sites
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import enumerate_swaps
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine

from helpers import random_network

KINDS = ("resize", "swap", "inverting swap")


def _sites(network, engine, library):
    sgn = extract_supergates(network)
    return swap_sites(network, engine, sgn) + resize_sites(network, library)


def _prices(engine, sites, cold):
    """Every move's ``Gains``; *cold* drops the memo before each call."""
    prices = []
    for site in sites:
        for move in site.moves:
            if cold:
                engine._pricing_memo.clear()
            prices.append(move.gains(engine))
    return prices


def _commit(network, library, kind, rng):
    """Commit one random move of *kind*; ``False`` when none exists."""
    if kind == "resize":
        sized = [
            gate for gate in network.gates()
            if gate.cell is not None
            and len(library.sizes_of(library.cell(gate.cell))) > 1
        ]
        if not sized:
            return False
        gate = rng.choice(sized)
        alt = rng.choice([
            cell for cell in library.sizes_of(library.cell(gate.cell))
            if cell.name != gate.cell
        ])
        network.set_cell(gate.name, alt.name)
        return True
    swaps = [
        swap
        for sg in extract_supergates(network).nontrivial()
        for swap in enumerate_swaps(sg, leaves_only=True)
        if swap.inverting == (kind == "inverting swap")
        and network.fanin_net(swap.pin_a) != network.fanin_net(swap.pin_b)
    ]
    if not swaps:
        return False
    SwapMove(rng.choice(swaps)).apply(network, library)
    return True


def _assert_warm_equals_cold(engine, network, library, context):
    sites = _sites(network, engine, library)
    _prices(engine, sites, cold=False)  # warm every site's gates
    assert engine._pricing_memo, context
    warm = _prices(engine, sites, cold=False)
    cold = _prices(engine, sites, cold=True)
    assert warm == cold, context
    return sites


@pytest.mark.parametrize("seed", [3, 8, 14])
def test_warm_memo_prices_equal_cold_prices(seed, library):
    network = random_network(seed, num_gates=40, num_outputs=4)
    map_network(network, library)
    placement = place(network, library, seed=seed)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    rng = random.Random(500 + seed)
    committed = {kind: 0 for kind in KINDS}
    snapshot = None
    for step in range(12):
        kind = KINDS[step % len(KINDS)]
        if step == 4:
            snapshot = _snapshot(network, placement)
        if step == 9:
            _restore(network, placement, snapshot)
        elif _commit(network, library, kind, rng):
            committed[kind] += 1
        engine.refresh()
        _assert_warm_equals_cold(
            engine, network, library, f"seed {seed} step {step} ({kind})"
        )
    assert all(committed.values()), committed


def test_price_between_mutation_and_refresh_reads_live_state(library):
    network = random_network(21, num_gates=40, num_outputs=4)
    map_network(network, library)
    placement = place(network, library, seed=21)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    sites = _assert_warm_equals_cold(engine, network, library, "analyzed")
    before = _prices(engine, sites, cold=False)
    # resize the gate every move prices through: its committed cell,
    # delay and fanin loads all change under the warm memo
    gate = max(
        (
            gate for gate in network.gates()
            if gate.cell is not None
            and len(library.sizes_of(library.cell(gate.cell))) > 1
        ),
        key=lambda gate: (len(network.fanout(gate.name)), gate.name),
    )
    alt = next(
        cell for cell in library.sizes_of(library.cell(gate.cell))
        if cell.name != gate.cell
    )
    network.set_cell(gate.name, alt.name)
    assert not engine.is_fresh()
    warm = _prices(engine, sites, cold=False)
    cold = _prices(engine, sites, cold=True)
    assert warm == cold
    assert warm != before
    # the memo built from the pre-refresh state must not survive it
    engine.refresh()
    _assert_warm_equals_cold(engine, network, library, "refreshed")
