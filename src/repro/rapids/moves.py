"""Rewiring moves: supergate pin swaps packaged for the optimizer.

Pricing contract: :meth:`SwapMove.gains` is *projection-only* — it
rides :meth:`~repro.timing.sta.TimingEngine.swap_gain`, which rebuilds
the two affected stars with sinks exchanged off the cached analysis
and never mutates the network, so candidate evaluation hands
listeners zero changes (the wirelength path honors the same contract through
:mod:`repro.place.hpwl`); ``apply`` is the only mutating entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..contracts import projection_only
from ..library.cells import Library
from ..network.gatetype import GateType
from ..network.netlist import Network
from ..sizing.coudert import Site
from ..symmetry.supergate import Supergate, SupergateNetwork
from ..symmetry.swap import PinSwap, apply_swap, enumerate_swaps
from ..timing.sta import Gains, TimingEngine

#: Per-supergate cap on evaluated swap candidates; beyond this, pairs
#: are restricted to the most timing-critical pins.
MAX_MOVES_PER_SITE = 80


@dataclass(frozen=True)
class SwapMove:
    """Exchange the drivers of two symmetric pins (Definition 3)."""

    swap: PinSwap

    @projection_only
    def gains(self, engine: TimingEngine) -> Gains:
        return engine.swap_gain(self.swap)

    def footprint(self, network: Network) -> set[str]:
        return self.swap.footprint(network)

    def apply(self, network: Network, library: Library) -> None:
        before = len(network)
        apply_swap(network, self.swap)
        added = len(network) - before
        if added > 0:
            bind_new_inverters(network, library, network.recent_gates(added))

    def area_delta(self, library: Library) -> float:
        if not self.swap.inverting:
            return 0.0
        inv = library.implementations(GateType.INV, 1)[0]
        return 2.0 * inv.area  # upper bound: both legs need an inverter

    def describe(self) -> str:
        kind = "inv-swap" if self.swap.inverting else "swap"
        return f"{kind} {self.swap.pin_a}<->{self.swap.pin_b}"


def bind_new_inverters(
    network: Network, library: Library, names: list[str]
) -> None:
    """Bind freshly created INV/BUF gates to the smallest library cell."""
    for name in names:
        gate = network.gate(name)
        if gate.cell is not None:
            continue
        if gate.gtype in (GateType.INV, GateType.BUF):
            network.set_cell(
                name, library.implementations(gate.gtype, 1)[0].name
            )


def swap_sites(
    network: Network,
    engine: TimingEngine,
    sgn: SupergateNetwork,
    include_internal: bool = True,
    include_inverting: bool = True,
) -> list[Site]:
    """One site per non-trivial supergate, moves = its legal pin swaps."""
    sites: list[Site] = []
    for sg in sgn.nontrivial():
        moves = [
            SwapMove(swap)
            for swap in _bounded_swaps(
                sg, engine, include_internal, include_inverting
            )
        ]
        if moves:
            sites.append(Site(key=f"sg:{sg.root}", moves=moves))
    return sites


def _bounded_swaps(
    sg: Supergate,
    engine: TimingEngine,
    include_internal: bool,
    include_inverting: bool,
) -> list[PinSwap]:
    """Swap candidates of one supergate, capped for very wide supergates.

    When the full pair enumeration exceeds :data:`MAX_MOVES_PER_SITE`,
    only pairs touching the supergate's most critical pins (smallest
    slack on the driving net) are evaluated — critical pins are where
    rewiring gains live.
    """
    all_swaps = list(
        enumerate_swaps(
            sg,
            leaves_only=not include_internal,
            include_inverting=include_inverting,
        )
    )
    if len(all_swaps) <= MAX_MOVES_PER_SITE:
        return all_swaps

    def pin_slack(pin) -> float:
        net = engine.network.fanin_net(pin)
        return engine.slack.get(net, 0.0)

    # the pin itself tie-breaks equal slacks: a bare float key would
    # leave ties in set-iteration (= PYTHONHASHSEED) order and the [:8]
    # cutoff would then pick different pins per process
    critical: list = sorted(
        {swap.pin_a for swap in all_swaps}
        | {swap.pin_b for swap in all_swaps},
        key=lambda pin: (pin_slack(pin), pin),
    )[:8]
    critical_set = set(critical)
    bounded = [
        swap for swap in all_swaps
        if swap.pin_a in critical_set or swap.pin_b in critical_set
    ]
    return bounded[:MAX_MOVES_PER_SITE]
