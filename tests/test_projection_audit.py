"""The projection-only pricing contract, audited where priced calls run.

Every callable marked ``@projection_only`` (``repro.contracts``) prices
a candidate move as a what-if and must leave the ``Network`` as it
found it.  This audit wraps each marked callable of the ``repro``
package (``helpers.projection_only_surfaces``) in place and runs a
timing-aware ``gsg_gs`` flow, unpartitioned and with a partitioned
polish.  While any wrapped call
is on the stack, a write of ``Network.version`` or a call of
``Network._touch`` (the hook every mutator announces through) raises
at once, naming the innermost priced function.  It raises rather than
records: a priced mutation usually corrupts engine state, and the
flow would crash on that before a recorded offender could be shown.
"""

from __future__ import annotations

import functools

import pytest

from repro.config import FlowConfig
from repro.contracts import projection_only
from repro.network.netlist import Network
from repro.place.hpwl import WirelengthEngine
from repro.suite.flow import run_benchmark
from repro.timing.sta import TimingEngine

from helpers import projection_only_surfaces

PRICING_SURFACES = {
    "TimingEngine.swap_gain",
    "TimingEngine.resize_gain",
    "TimingEngine.project_swap_slacks",
    "WirelengthEngine.cell_swap_delta",
    "WirelengthEngine.score_swaps",
    "WirelengthEngine.rebind_delta",
    "SwapMove.gains",
    "ResizeMove.gains",
    "coudert.best_phase_move",
}


class PricedMutation(AssertionError):
    """A ``@projection_only`` call wrote the network it was pricing."""


def _install_audit(monkeypatch) -> set[str]:
    """Wrap every marked callable; returns the labels called so far."""
    called: set[str] = set()
    pricing: list[str] = []

    def priced(label, func):
        @functools.wraps(func)
        def audited(*args, **kwargs):
            called.add(label)
            pricing.append(label)
            try:
                return func(*args, **kwargs)
            finally:
                pricing.pop()

        return audited

    for owner, attr, label in projection_only_surfaces():
        monkeypatch.setattr(owner, attr, priced(label, getattr(owner, attr)))

    real_setattr = Network.__setattr__
    real_touch = Network._touch

    def guarded_setattr(network, name, value):
        if name == "version" and pricing:
            raise PricedMutation(f"{pricing[-1]} wrote Network.version")
        real_setattr(network, name, value)

    def guarded_touch(network, change=None):
        if pricing:
            raise PricedMutation(f"{pricing[-1]} called Network._touch")
        real_touch(network, change)

    monkeypatch.setattr(Network, "__setattr__", guarded_setattr)
    monkeypatch.setattr(Network, "_touch", guarded_touch)
    return called


def _flow(partition: bool) -> None:
    run_benchmark("alu2", FlowConfig(
        scale=0.2, modes=("gsg_gs",), wl_timing_aware=True,
        partition=partition, partition_max_gates=60, workers=1,
    ))


def test_discovery_finds_every_pricing_surface():
    assert {
        label for _, _, label in projection_only_surfaces()
    } == PRICING_SURFACES


def test_priced_calls_never_write_the_network(monkeypatch):
    """A timing-aware flow, whole and partitioned, reaches every
    pricing surface, and none of them writes the network."""
    called = _install_audit(monkeypatch)
    for partition in (False, True):
        _flow(partition)
    assert called == PRICING_SURFACES, sorted(PRICING_SURFACES - called)


@pytest.mark.parametrize("owner, attr, write, named", [
    pytest.param(
        TimingEngine, "swap_gain",
        lambda network: setattr(network, "version", network.version + 1),
        "TimingEngine.swap_gain wrote Network.version", id="version-bump",
    ),
    pytest.param(
        WirelengthEngine, "rebind_delta", lambda network: network._touch(),
        "WirelengthEngine.rebind_delta called Network._touch", id="touch",
    ),
])
def test_planted_write_is_named(owner, attr, write, named, monkeypatch):
    """The audit fires on a priced write and names the function."""
    real = getattr(owner, attr)

    @projection_only
    def planted(self, *args):
        write(self.network)
        return real(self, *args)

    monkeypatch.setattr(owner, attr, planted)
    _install_audit(monkeypatch)
    with pytest.raises(PricedMutation, match=named):
        _flow(partition=True)
