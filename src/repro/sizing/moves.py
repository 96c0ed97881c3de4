"""Gate-resize moves for the two-phase optimizer (the GS of Table 1).

Pricing contract: :meth:`ResizeMove.gains` is *projection-only* — it
rides :meth:`~repro.timing.sta.TimingEngine.resize_gain`, which builds
what-if star models off the cached analysis and never touches the
network.  Candidate evaluation therefore hands listeners zero changes
(no trial apply-and-revert), the invariant the sharded evaluator and
the incremental caches rely on; ``apply`` is the only mutating entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..contracts import projection_only
from ..library.cells import Library
from ..network.netlist import Network
from ..sizing.coudert import Site
from ..timing.sta import Gains, TimingEngine


@dataclass(frozen=True)
class ResizeMove:
    """Rebind a gate to a different drive strength of the same function."""

    gate: str
    old_cell: str
    new_cell: str

    @projection_only
    def gains(self, engine: TimingEngine) -> Gains:
        return engine.resize_gain(self.gate, self.new_cell)

    def footprint(self, network: Network) -> set[str]:
        """Exactly the nets whose timing a resize can move: the gate's
        own output net (its delay arcs change) and every fanin net
        (their loads see the new pin capacitance)."""
        gate = network.gate(self.gate)
        return {self.gate, *gate.fanins}

    def apply(self, network: Network, library: Library) -> None:
        network.set_cell(self.gate, self.new_cell)

    def area_delta(self, library: Library) -> float:
        return (
            library.cell(self.new_cell).area - library.cell(self.old_cell).area
        )

    def describe(self) -> str:
        return f"resize {self.gate}: {self.old_cell} -> {self.new_cell}"


def resize_sites(
    network: Network,
    library: Library,
    gate_filter=None,
) -> list[Site]:
    """One site per resizable gate, optionally filtered.

    *gate_filter* (name -> bool) restricts sizing to a subset — the
    gsg+GS mode passes the "covered only by a trivial supergate"
    predicate here.
    """
    sites: list[Site] = []
    for gate in network.gates():
        if gate.cell is None:
            continue
        if gate_filter is not None and not gate_filter(gate.name):
            continue
        cell = library.cell(gate.cell)
        alternatives = [
            alt for alt in library.sizes_of(cell) if alt.name != cell.name
        ]
        if not alternatives:
            continue
        moves = [
            ResizeMove(gate=gate.name, old_cell=cell.name, new_cell=alt.name)
            for alt in alternatives
        ]
        sites.append(Site(key=f"gate:{gate.name}", moves=moves))
    return sites
