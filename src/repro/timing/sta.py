"""Static timing analysis over the placed, mapped network.

Arrival times are computed per net with separate rise and fall values;
gate delays use the library's load-dependent pin-to-pin model, wire
delays come from the star/Elmore net model.  Negative-unate cells
(INV/NAND/NOR/XNOR) couple output rise to input fall and vice versa;
XOR-class cells are treated as non-unate.

Besides the full forward/backward analysis, :class:`TimingEngine`
offers *local what-if evaluation* for the optimizer: the projected
slack effect of a pin swap or a gate resize computed from cached state
in O(neighborhood), without mutating the network.  This mirrors
Coudert's neighborhood formulation that the paper builds on.  The
same cached state also feeds :meth:`TimingEngine.project_swap_slacks`,
the batch slack projection behind timing-aware wirelength rewiring
(``docs/architecture.md`` documents the projection-only pricing
contract and the commit-time additivity rule).

The engine is also *incremental*: it subscribes to the network's
mutation events and, on :meth:`TimingEngine.apply_and_update`,
re-propagates arrival times only through the transitive fanout of the
changed nets (a levelized worklist that stops as soon as values
converge) and required times only through the affected fanin frontier.
Required times are cached relative to a zero timing target, which
makes them independent of the clock period / critical-path target: a
target shift rescales every slack without re-propagating anything.
Star RC models of untouched nets are reused verbatim, so the
expensive per-node work of an update — star geometry rebuilds and
delay-model evaluations — is O(affected region), not O(network).
(Folding slacks against the target and patching logic levels after a
structural change remain cheap O(nets) arithmetic passes: the default
target is the critical-path delay, which moves with almost every
committed batch and shifts every slack with it.)
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from typing import Iterable, NamedTuple

try:  # numpy accelerates batch slack projection; scalar path needs nothing
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

from ..library.cells import Cell, Library
from ..network.gatetype import CONST_TYPES, GateType, XOR_TYPES, is_inverted
from ..contracts import projection_only
from ..network import events
from ..network.netlist import Network, Pin
from ..network.soa import ragged_indices
from ..place.placement import Placement
from ..symmetry.swap import PinSwap
from .netmodel import (
    PO_PAD_CAP,
    StarNet,
    StarSink,
    build_star,
    pin_capacitance,
)

#: Opt-in to the determinism lint (rule D of ``python -m tools.lint``):
#: this module's float accumulations and tie-breaks must never follow
#: set-iteration (= PYTHONHASHSEED) order.
__deterministic__ = True

_NEGATIVE_UNATE = frozenset(
    {GateType.INV, GateType.NAND, GateType.NOR}
)

#: Minimum incremental-worklist size before a pass assembles the numpy
#: arrays for the masked vector sweep; smaller frontiers stay on the
#: scalar worklist, whose constant factors win there.  Both paths are
#: bit-identical, so the threshold affects speed only.
VECTOR_MIN_SEEDS = 16
#: Work-unit cost model for :attr:`TimingStats.work_units`: one
#: vectorized lane evaluation against one scalar dict-walk evaluation,
#: and the per-net array-assembly overhead each vector context pays.
#: Calibrated against measured wall time on the quick set.
VECTOR_LANE_COST = 0.05
VECTOR_SETUP_COST_PER_NET = 0.15


@dataclass
class _VectorContext:
    """Dense arrays for one incremental update's masked vector sweeps.

    Built transiently per :meth:`TimingEngine.apply_and_update` from
    the shared SoA kernel plus this engine's cached stars — never
    cached across updates, so there is no second source of truth to
    drift.  ``edge_wire[slot]`` is the star-model wire delay of fanin
    slot ``slot``; ``d_rise``/``d_fall`` are the per-gate cell delays
    ``intrinsic + resistance * total_cap`` (the same mul-then-add the
    scalar path performs, so lanes are bit-identical).
    """

    net_index: dict
    net_names: tuple
    num_inputs: int
    num_gates: int
    num_nets: int
    num_levels: int
    gate_level: "object"
    net_level: "object"
    fanin_offset: "object"
    fanin_flat: "object"
    fanin_counts: "object"
    consumer_offset: "object"
    consumer_counts: "object"
    consumer_gate: "object"
    consumer_slot: "object"
    edge_wire: "object"
    d_rise: "object"
    d_fall: "object"
    is_xor: "object"
    is_neg: "object"
    is_const: "object"




@dataclass
class PathPoint:
    """One step of a reported critical path."""

    net: str
    arrival: float
    through: str  # "gate" or "wire" or "pi"


@dataclass
class TimingStats:
    """Work counters for full vs. incremental timing updates.

    ``node_updates`` is the benchmarkable unit of timing-update work: a
    star RC rebuild, a gate arrival evaluation, or a required-time
    evaluation (the three per-node operations both the full and the
    incremental flow are made of).
    """

    full_analyses: int = 0
    incremental_updates: int = 0
    stars_built: int = 0
    arrival_evals: int = 0
    required_evals: int = 0
    #: Subset of arrival/required evaluations served by the masked
    #: vector passes (each also counts in its scalar-named total, so
    #: ``node_updates`` keeps its meaning across code paths).
    vector_arrival_evals: int = 0
    vector_required_evals: int = 0
    #: One per vector pass actually dispatched.
    vector_dispatches: int = 0
    #: Nets charged for vector-context array assembly (once per
    #: context build, ``num_nets`` each).
    vector_setup_nets: int = 0

    @property
    def node_updates(self) -> int:
        return self.stars_built + self.arrival_evals + self.required_evals

    @property
    def work_units(self) -> float:
        """Cost-weighted timing-update work.

        ``node_updates`` counts evaluations; this weights them by what
        they cost: a vectorized lane evaluation is a small fraction of
        a scalar dict-walk one, plus the per-net assembly the vector
        context pays up front.  A full analysis is all-scalar, so for
        it ``work_units == node_updates``.
        """
        vector_evals = self.vector_arrival_evals + self.vector_required_evals
        scalar_evals = (
            self.arrival_evals + self.required_evals - vector_evals
        )
        return (
            self.stars_built
            + scalar_evals
            + VECTOR_LANE_COST * vector_evals
            + VECTOR_SETUP_COST_PER_NET * self.vector_setup_nets
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "full_analyses": self.full_analyses,
            "incremental_updates": self.incremental_updates,
            "stars_built": self.stars_built,
            "arrival_evals": self.arrival_evals,
            "required_evals": self.required_evals,
            "vector_arrival_evals": self.vector_arrival_evals,
            "vector_required_evals": self.vector_required_evals,
            "vector_dispatches": self.vector_dispatches,
            "vector_setup_nets": self.vector_setup_nets,
            "node_updates": self.node_updates,
            "work_units": self.work_units,
        }


@dataclass
class EvalState:
    """Picklable snapshot of an engine's cached analysis (checkpoints).

    Produced by :meth:`TimingEngine.export_eval_state` and turned back
    into an engine by :func:`repro.checkpoint.engine_from_state`.  The
    snapshot carries the engine's *cached* analysis results verbatim
    (arrival times, slacks, star RC models, logic levels), never
    recomputed state, so a resumed engine projects bit-identical
    gains: pickling round-trips floats exactly.
    """

    network: Network
    placement: Placement
    library: Library
    period: float | None
    po_pad_cap: float
    arrival: dict[str, tuple[float, float]]
    slack: dict[str, float]
    stars: dict[str, "StarNet"]
    levels: dict[str, int]
    req0: dict[str, tuple[float, float]]
    max_delay: float
    version: int


class Gains(NamedTuple):
    """Projected local effect of a candidate move.

    ``min_gain`` is the improvement of the neighborhood's *minimum*
    slack (phase 1 of the Coudert loop); ``sum_gain`` the improvement of
    the neighborhood's slack *sum* (the relaxation phase);
    ``projected_min`` is the absolute minimum slack the neighborhood
    would have after the move (what area recovery spends).
    """

    min_gain: float
    sum_gain: float
    projected_min: float = 0.0


#: Float-noise headroom for guard-band comparisons: a projected slack
#: this close to the boundary is treated as on the safe side.
PROJECTION_EPS = 1e-12
#: Projected-vs-applied slack disagreement beyond this triggers the
#: re-pricing fallback in timing-aware consumers (see
#: :meth:`TimingEngine.project_swap_slacks`).
PROJECTION_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class SlackProjection:
    """Projected slack effect of one candidate pin rebinding.

    Produced by :meth:`TimingEngine.project_swap_slacks` without
    mutating the network.  ``projected``/``current`` map every net
    whose slack the move changes to its post-move / cached value;
    ``touched`` is the conflict footprint — every net the projection
    read or would rewrite.  Two moves with disjoint ``touched`` sets
    (exact mode) neither interact nor invalidate each other's
    projection, so their projected slacks realize *exactly* when both
    are committed in one batch.
    """

    bindings: tuple[tuple[Pin, str], ...]
    current: dict[str, float]
    projected: dict[str, float]
    touched: frozenset[str]
    exact: bool = False

    @property
    def projected_min(self) -> float:
        """Post-move minimum slack over the neighborhood."""
        return min(self.projected.values(), default=float("inf"))

    def admissible(self, margin: float) -> bool:
        """Guard-band test: may this move be committed at *margin*?

        Every neighborhood net must either keep a projected slack of at
        least *margin* (the guard band) or not get worse than it
        already is — a move is never rejected for a pre-existing
        violation it does not deepen.  Monotone in *margin*: a larger
        guard band admits a subset of the moves a smaller one admits.
        """
        for net, projected in self.projected.items():
            if projected >= margin - PROJECTION_EPS:
                continue
            current = self.current.get(net)
            if current is not None and projected >= current - PROJECTION_EPS:
                continue
            return False
        return True


class TimingEngine:
    """Placed-network STA with incremental what-if evaluation."""

    def __init__(
        self,
        network: Network,
        placement: Placement,
        library: Library,
        period: float | None = None,
        po_pad_cap: float = PO_PAD_CAP,
    ) -> None:
        self.network = network
        self.placement = placement
        self.library = library
        self.period = period
        self.po_pad_cap = po_pad_cap
        self.arrival: dict[str, tuple[float, float]] = {}
        self.required: dict[str, float] = {}
        self.slack: dict[str, float] = {}
        self.stars: dict[str, StarNet] = {}
        self.max_delay = 0.0
        self.stats = TimingStats()
        self._levels: dict[str, int] = {}
        self._analyzed_version = -1
        # required pairs relative to a zero target (target-independent)
        self._req0: dict[str, tuple[float, float]] = {}
        self._target = 0.0
        # incremental-update state fed by network mutation events
        self._dirty_stars: set[str] = set()
        self._dirty_gates: set[str] = set()
        self._dead: set[str] = set()
        self._structure_dirty = False
        self._needs_full = True
        network.subscribe(self)

    # ------------------------------------------------------------------
    # mutation tracking
    # ------------------------------------------------------------------
    def notify_network_event(self, kind: str, data: dict) -> None:
        """Accumulate dirty state from a network mutation event."""
        if kind == events.REPLACE_FANIN:
            self._dirty_stars.add(data["old"])
            self._dirty_stars.add(data["new"])
            self._dirty_gates.add(data["pin"].gate)
            self._structure_dirty = True
        elif kind == events.SWAP_FANINS:
            self._dirty_stars.add(data["net_a"])
            self._dirty_stars.add(data["net_b"])
            self._dirty_gates.add(data["pin_a"].gate)
            self._dirty_gates.add(data["pin_b"].gate)
            self._structure_dirty = True
        elif kind == events.ADD_GATE:
            self._dead.discard(data["gate"])
            self._dirty_stars.add(data["gate"])
            self._dirty_stars.update(data["fanins"])
            self._dirty_gates.add(data["gate"])
            self._structure_dirty = True
        elif kind == events.REMOVE_GATE:
            name = data["gate"]
            self._dead.add(name)
            self._dirty_stars.discard(name)
            self._dirty_gates.discard(name)
            self._dirty_stars.update(data["fanins"])
            self._structure_dirty = True
        elif kind in (events.SET_CELL, events.SET_GATE_TYPE):
            # own delay arcs change; fanin nets see a new pin load
            self._dirty_gates.add(data["gate"])
            self._dirty_stars.update(data["fanins"])
        elif kind == events.SET_FANINS:
            self._dirty_stars.update(data["old"])
            self._dirty_stars.update(data["new"])
            self._dirty_gates.add(data["gate"])
            self._structure_dirty = True
        elif kind == events.ADD_INPUT:
            self._dirty_stars.add(data["net"])
            self._structure_dirty = True
        elif kind == events.ADD_OUTPUT:
            self._dirty_stars.add(data["net"])
        elif kind == events.REPLACE_OUTPUT:
            self._dirty_stars.add(data["old"])
            self._dirty_stars.add(data["new"])
        elif kind == events.RESTORE:
            # a snapshot rollback, delivered as an exact gate diff
            if data["io_changed"]:
                self._needs_full = True
                return
            for name, fanins in data["removed"]:
                self._dead.add(name)
                self._dirty_stars.discard(name)
                self._dirty_gates.discard(name)
                self._dirty_stars.update(fanins)
            for name, fanins in data["added"]:
                self._dead.discard(name)
                self._dirty_stars.add(name)
                self._dirty_stars.update(fanins)
                self._dirty_gates.add(name)
            for name, old_fanins, new_fanins in data["changed"]:
                self._dirty_gates.add(name)
                self._dirty_stars.update(old_fanins)
                self._dirty_stars.update(new_fanins)
            self._structure_dirty = True
        else:
            # untracked mutation: all cached timing is suspect
            self._needs_full = True

    # ------------------------------------------------------------------
    # full analysis
    # ------------------------------------------------------------------
    def analyze(self) -> None:
        """Run full STA (arrival, required, slack for every net)."""
        network = self.network
        self.placement.ensure_covered(network)
        self.stars = {}
        self.arrival = {}
        for pi in network.inputs:
            self.arrival[pi] = (0.0, 0.0)
            self._ensure_star(pi)
        order = network.topo_order()
        self._levels = {net: 0 for net in network.inputs}
        for name in order:
            self._ensure_star(name)
            self.arrival[name] = self._gate_arrival(name)
            gate = network.gate(name)
            self._levels[name] = 1 + max(
                (self._levels[f] for f in gate.fanins), default=0
            )
        self.max_delay = 0.0
        for output in network.outputs:
            rise, fall = self.arrival[output]
            po_delay = self._po_wire_delay(output)
            self.max_delay = max(self.max_delay, rise + po_delay,
                                 fall + po_delay)
        target = self.period if self.period is not None else self.max_delay
        self._backward_required(order)
        self._fold_slacks(target)
        self._analyzed_version = network.version
        self.stats.full_analyses += 1
        self._clear_dirty()

    def is_fresh(self) -> bool:
        """True when the cached analysis matches the network version."""
        return self._analyzed_version == self.network.version

    def _clear_dirty(self) -> None:
        self._dirty_stars.clear()
        self._dirty_gates.clear()
        self._dead.clear()
        self._structure_dirty = False
        self._needs_full = False

    def _ensure_star(self, net: str) -> StarNet:
        star = self.stars.get(net)
        if star is None:
            star = build_star(
                self.network, self.placement, self.library, net,
                po_pad_cap=self.po_pad_cap,
            )
            self.stars[net] = star
            self.stats.stars_built += 1
        return star

    def _cell_of(self, name: str) -> Cell | None:
        gate = self.network.gate(name)
        if gate.cell is None:
            return None
        return self.library.cell(gate.cell)

    def _gate_arrival(self, name: str) -> tuple[float, float]:
        """Arrival (rise, fall) at a gate's output net."""
        self.stats.arrival_evals += 1
        network = self.network
        gate = network.gate(name)
        if gate.gtype in CONST_TYPES:
            return (0.0, 0.0)
        cell = self._cell_of(name)
        load = self._ensure_star(name).total_cap
        if cell is None:
            d_rise = d_fall = 0.0
        else:
            d_rise = cell.delay(load, "rise")
            d_fall = cell.delay(load, "fall")
        worst_rise = 0.0
        worst_fall = 0.0
        for index, fanin in enumerate(gate.fanins):
            pin = Pin(name, index)
            wire = self.stars[fanin].sink_delay(pin)
            in_rise, in_fall = self.arrival[fanin]
            pin_rise = in_rise + wire
            pin_fall = in_fall + wire
            out_rise, out_fall = _propagate(
                gate.gtype, pin_rise, pin_fall
            )
            worst_rise = max(worst_rise, out_rise)
            worst_fall = max(worst_fall, out_fall)
        return (worst_rise + d_rise, worst_fall + d_fall)

    def _po_wire_delay(self, output: str) -> float:
        star = self.stars.get(output)
        if star is None:
            return 0.0
        for sink in star.sinks:
            if sink.pin is None:
                return sink.wire_delay
        return 0.0

    def _backward_required(self, order: list[str]) -> None:
        """Per-transition required times relative to a zero target.

        Unateness couples transitions the same way the forward pass
        does, so on the critical path required meets arrival exactly
        (zero slack at the default period).  The pairs stored in
        ``_req0`` are offsets from the target: absolute required times
        and slacks are derived by :meth:`_fold_slacks`.
        """
        network = self.network
        INF = float("inf")
        req: dict[str, tuple[float, float]] = {
            net: (INF, INF) for net in network.nets()
        }
        for output in network.outputs:
            po_delay = self._po_wire_delay(output)
            old_rise, old_fall = req[output]
            req[output] = (
                min(old_rise, -po_delay),
                min(old_fall, -po_delay),
            )
        for name in reversed(order):
            self.stats.required_evals += 1
            gate = network.gate(name)
            cell = self._cell_of(name)
            if cell is None:
                d_rise = d_fall = 0.0
            else:
                load = self.stars[name].total_cap
                d_rise = cell.delay(load, "rise")
                d_fall = cell.delay(load, "fall")
            out_rise, out_fall = req[name]
            # budget available at the gate's input pins per transition
            pin_rise_budget, pin_fall_budget = _required_through(
                gate.gtype, out_rise - d_rise, out_fall - d_fall
            )
            for index, fanin in enumerate(gate.fanins):
                pin = Pin(name, index)
                wire = self.stars[fanin].sink_delay(pin)
                old_rise, old_fall = req[fanin]
                req[fanin] = (
                    min(old_rise, pin_rise_budget - wire),
                    min(old_fall, pin_fall_budget - wire),
                )
        self._req0 = req

    def _fold_slacks(self, target: float) -> None:
        """Derive absolute required times and slacks from ``_req0``."""
        self._target = target
        required: dict[str, float] = {}
        slack: dict[str, float] = {}
        arrival = self.arrival
        for net, (req_rise, req_fall) in self._req0.items():
            required[net] = min(req_rise, req_fall) + target
            rise, fall = arrival.get(net, (0.0, 0.0))
            slack[net] = min(req_rise - rise, req_fall - fall) + target
        self.required = required
        self.slack = slack

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    def invalidate(self, nets: Iterable[str]) -> None:
        """Mark nets' RC models and timing as stale.

        For callers that change something the mutation events cannot
        see (a placement tweak, an external edit): the named nets'
        stars are rebuilt and their drivers re-evaluated on the next
        :meth:`apply_and_update` / :meth:`refresh`.
        """
        network = self.network
        for net in nets:
            self._dirty_stars.add(net)
            if net in network and not network.is_input(net):
                self._dirty_gates.add(net)

    def refresh(self) -> None:
        """Bring cached timing up to date, incrementally when possible."""
        if self._needs_full or self._analyzed_version < 0:
            self.analyze()
        elif (
            not self.is_fresh()
            or self._dirty_stars or self._dirty_gates or self._dead
        ):
            self.apply_and_update()

    def apply_and_update(self, footprint: Iterable[str] | None = None) -> None:
        """Propagate committed network changes through cached timing.

        Re-propagates arrivals through the transitive fanout of the
        changed nets only (levelized worklist, early termination on
        convergence) and required times through the affected fanin
        frontier; star models of untouched nets are reused.  The
        result matches a fresh :meth:`analyze` exactly.  *footprint*
        optionally names extra nets to invalidate (see
        :meth:`invalidate`).
        """
        if footprint is not None:
            self.invalidate(footprint)
        if self._needs_full or self._analyzed_version < 0:
            self.analyze()
            return
        network = self.network
        self.stats.incremental_updates += 1
        # 0. forget removed nets
        for net in self._dead:
            self.arrival.pop(net, None)
            self._req0.pop(net, None)
            self.required.pop(net, None)
            self.slack.pop(net, None)
            self.stars.pop(net, None)
            self._levels.pop(net, None)
        # 1. place any gates rewiring created (inverters nestle at
        #    their sink, perturbing nothing)
        self.placement.ensure_covered(network)
        # 2. structural caches
        if self._structure_dirty:
            self._levels = {net: 0 for net in network.inputs}
            for name in network.topo_order():
                gate = network.gate(name)
                self._levels[name] = 1 + max(
                    (self._levels[f] for f in gate.fanins), default=0
                )
        levels = self._levels
        # 3. rebuild the RC models of touched nets
        rebuilt: set[str] = set()
        for net in self._dirty_stars:
            if net not in network:
                continue
            self.stars.pop(net, None)
            self._ensure_star(net)
            rebuilt.add(net)
        for pi in network.inputs:
            if pi not in self.arrival:
                self.arrival[pi] = (0.0, 0.0)
        # 4. forward: re-propagate arrivals through the affected fanout
        seeds: set[str] = set()
        for net in rebuilt:
            if not network.is_input(net):
                seeds.add(net)                  # driver sees a new load
            for sink in self.stars[net].sinks:
                if sink.pin is not None:
                    seeds.add(sink.pin.gate)    # sink wire delay moved
        for name in self._dirty_gates:
            if name in network and not network.is_input(name):
                seeds.add(name)
        # large frontiers take the masked vector sweep over the shared
        # SoA arrays; small ones (and any state the arrays cannot
        # describe) stay on the scalar worklist — both are bit-identical
        ctx = (
            self._vector_context()
            if len(seeds) >= VECTOR_MIN_SEEDS
            else None
        )
        if ctx is not None:
            self._forward_arrival_vector(ctx, seeds)
        else:
            heap = [(levels.get(name, 0), name) for name in seeds]
            heapq.heapify(heap)
            done: set[str] = set()
            while heap:
                _, name = heapq.heappop(heap)
                if name in done:
                    continue
                done.add(name)
                new_arrival = self._gate_arrival(name)
                if self.arrival.get(name) != new_arrival:
                    self.arrival[name] = new_arrival
                    for pin in network.fanout(name):
                        if pin.gate not in done:
                            heapq.heappush(
                                heap, (levels.get(pin.gate, 0), pin.gate)
                            )
        # 5. critical path target
        self.max_delay = 0.0
        for output in network.outputs:
            rise, fall = self.arrival[output]
            po_delay = self._po_wire_delay(output)
            self.max_delay = max(self.max_delay, rise + po_delay,
                                 fall + po_delay)
        target = self.period if self.period is not None else self.max_delay
        # 6. backward: re-propagate required through the fanin frontier
        bseeds: set[str] = set()
        for net in rebuilt:
            bseeds.add(net)
            if not network.is_input(net):
                bseeds.update(network.gate(net).fanins)
        for name in self._dirty_gates:
            if name not in network:
                continue
            bseeds.add(name)
            if not network.is_input(name):
                bseeds.update(network.gate(name).fanins)
        if ctx is None and len(bseeds) >= VECTOR_MIN_SEEDS:
            ctx = self._vector_context()
        if ctx is not None:
            self._backward_required_vector(ctx, bseeds)
        else:
            bheap = [(-levels.get(net, 0), net) for net in bseeds]
            heapq.heapify(bheap)
            bdone: set[str] = set()
            while bheap:
                _, net = heapq.heappop(bheap)
                if net in bdone:
                    continue
                bdone.add(net)
                pair = self._recompute_req0(net)
                if self._req0.get(net) != pair:
                    self._req0[net] = pair
                    if not network.is_input(net):
                        for fanin in network.gate(net).fanins:
                            if fanin not in bdone:
                                heapq.heappush(
                                    bheap, (-levels.get(fanin, 0), fanin)
                                )
        # 7. fold slacks against the (possibly shifted) target
        self._fold_slacks(target)
        self._analyzed_version = network.version
        self._clear_dirty()

    def _recompute_req0(self, net: str) -> tuple[float, float]:
        """Zero-target required pair at *net* from its consumers' cache."""
        self.stats.required_evals += 1
        network = self.network
        INF = float("inf")
        rise = fall = INF
        if network.is_output(net):
            po_delay = self._po_wire_delay(net)
            rise = fall = -po_delay
        for pin in network.fanout(net):
            consumer = network.gate(pin.gate)
            out_pair = self._req0.get(pin.gate)
            if out_pair is None:
                continue
            cell = self._cell_of(pin.gate)
            if cell is None:
                d_rise = d_fall = 0.0
            else:
                load = self.stars[pin.gate].total_cap
                d_rise = cell.delay(load, "rise")
                d_fall = cell.delay(load, "fall")
            pin_rise_budget, pin_fall_budget = _required_through(
                consumer.gtype, out_pair[0] - d_rise, out_pair[1] - d_fall
            )
            wire = self.stars[net].sink_delay(pin)
            rise = min(rise, pin_rise_budget - wire)
            fall = min(fall, pin_fall_budget - wire)
        return (rise, fall)

    # ------------------------------------------------------------------
    # masked vector re-propagation (shared SoA kernel arrays)
    # ------------------------------------------------------------------
    def _vector_context(self) -> "_VectorContext | None":
        """Assemble the dense arrays for the vector sweeps, or ``None``.

        Bails to the scalar worklists whenever the flat view or the
        cached timing state cannot fully describe the network — numpy
        missing, a gate without a star, a cell name the library does
        not know, or a star sink that no longer matches the current
        wiring.  Both paths are bit-identical, so bailing only costs
        speed.
        """
        if _np is None:
            return None
        from ..logic.simcore.compiled import OP_CONST0, OP_CONST1, OP_XOR
        from ..network.soa import get_soa

        kernel = get_soa(self.network)
        compiled = kernel.sync()
        arrays = kernel.arrays()
        if arrays is None or compiled.num_gates == 0:
            return None
        num_inputs = compiled.num_inputs
        num_gates = compiled.num_gates
        stars = self.stars
        cells = self.library
        load = _np.zeros(num_gates)
        rise_int = _np.zeros(num_gates)
        rise_res = _np.zeros(num_gates)
        fall_int = _np.zeros(num_gates)
        fall_res = _np.zeros(num_gates)
        for position, name in enumerate(compiled.gate_names):
            star = stars.get(name)
            if star is None:
                return None
            load[position] = star.total_cap
            cell_name = kernel.cells[position]
            if cell_name is None:
                continue
            try:
                cell = cells.cell(cell_name)
            except KeyError:
                return None
            rise_int[position] = cell.rise_intrinsic
            rise_res[position] = cell.rise_resistance
            fall_int[position] = cell.fall_intrinsic
            fall_res[position] = cell.fall_resistance
        net_index = compiled.net_index
        offsets = compiled.fanin_offset
        flat = compiled.fanin_flat
        num_edges = len(flat)
        edge_wire = _np.zeros(num_edges)
        edge_ok = _np.zeros(num_edges, dtype=bool)
        for net, star in stars.items():
            index = net_index.get(net)
            if index is None:
                continue
            for sink in star.sinks:
                pin = sink.pin
                if pin is None:
                    continue
                gate_index = net_index.get(pin.gate)
                if gate_index is None or gate_index < num_inputs:
                    continue
                position = gate_index - num_inputs
                width = offsets[position + 1] - offsets[position]
                if not 0 <= pin.index < width:
                    continue
                slot = offsets[position] + pin.index
                if flat[slot] != index or edge_ok[slot]:
                    continue
                edge_ok[slot] = True
                edge_wire[slot] = sink.wire_delay
        if not edge_ok.all():
            return None
        opcode = arrays["opcode"]
        is_xor = opcode == OP_XOR
        is_const = (opcode == OP_CONST0) | (opcode == OP_CONST1)
        self.stats.vector_setup_nets += compiled.num_nets
        return _VectorContext(
            net_index=net_index,
            net_names=compiled.inputs + compiled.gate_names,
            num_inputs=num_inputs,
            num_gates=num_gates,
            num_nets=compiled.num_nets,
            num_levels=arrays["num_levels"],
            gate_level=arrays["gate_level"],
            net_level=arrays["net_level"],
            fanin_offset=arrays["fanin_offset"],
            fanin_flat=arrays["fanin_flat"],
            fanin_counts=arrays["fanin_counts"],
            consumer_offset=arrays["consumer_offset"],
            consumer_counts=arrays["consumer_counts"],
            consumer_gate=arrays["consumer_gate"],
            consumer_slot=arrays["consumer_slot"],
            edge_wire=edge_wire,
            d_rise=rise_int + rise_res * load,
            d_fall=fall_int + fall_res * load,
            is_xor=is_xor,
            is_neg=arrays["invert"] & ~is_xor,
            is_const=is_const,
        )

    def _forward_arrival_vector(
        self, ctx: _VectorContext, seeds: set[str]
    ) -> None:
        """Levelized forward sweep over a dirty mask (= scalar worklist).

        Arrivals live in dense (rise, fall, present) arrays; each level
        gathers the dirty gates' fanin arrivals plus wire delays in one
        ragged numpy pass, folds unateness and the cell delay, and
        marks consumers of changed nets dirty.  The evaluation set and
        every float match the scalar worklist exactly: fanins sit at
        strictly lower levels, the reductions are pure selections, and
        each lane performs the same mul-then-add arithmetic.
        """
        np = _np
        num_inputs = ctx.num_inputs
        arr_rise = np.zeros(ctx.num_nets)
        arr_fall = np.zeros(ctx.num_nets)
        present = np.zeros(ctx.num_nets, dtype=bool)
        net_index = ctx.net_index
        for net, pair in self.arrival.items():
            index = net_index.get(net)
            if index is not None:
                arr_rise[index] = pair[0]
                arr_fall[index] = pair[1]
                present[index] = True
        dirty = np.zeros(ctx.num_gates, dtype=bool)
        for name in seeds:
            index = net_index.get(name)
            if index is not None and index >= num_inputs:
                dirty[index - num_inputs] = True
        self.stats.vector_dispatches += 1
        gate_level = ctx.gate_level
        changed_positions: list = []
        for level in range(1, ctx.num_levels):
            sel = np.nonzero(dirty & (gate_level == level))[0]
            if sel.size == 0:
                continue
            dirty[sel] = False
            self.stats.arrival_evals += sel.size
            self.stats.vector_arrival_evals += sel.size
            counts = ctx.fanin_counts[sel]
            worst_rise = np.zeros(sel.size)
            worst_fall = np.zeros(sel.size)
            edges, seg_starts = ragged_indices(ctx.fanin_offset[sel], counts)
            if edges.size:
                wire = ctx.edge_wire[edges]
                fanin = ctx.fanin_flat[edges]
                pin_rise = arr_rise[fanin] + wire
                pin_fall = arr_fall[fanin] + wire
                own_xor = np.repeat(ctx.is_xor[sel], counts)
                own_neg = np.repeat(ctx.is_neg[sel], counts)
                both = np.maximum(pin_rise, pin_fall)
                out_rise = np.where(
                    own_xor, both, np.where(own_neg, pin_fall, pin_rise)
                )
                out_fall = np.where(
                    own_xor, both, np.where(own_neg, pin_rise, pin_fall)
                )
                nonempty = counts > 0
                worst_rise[nonempty] = np.maximum.reduceat(
                    out_rise, seg_starts[nonempty]
                )
                worst_fall[nonempty] = np.maximum.reduceat(
                    out_fall, seg_starts[nonempty]
                )
                # scalar worst-folds start at 0.0
                np.maximum(worst_rise, 0.0, out=worst_rise)
                np.maximum(worst_fall, 0.0, out=worst_fall)
            const = ctx.is_const[sel]
            new_rise = np.where(const, 0.0, worst_rise + ctx.d_rise[sel])
            new_fall = np.where(const, 0.0, worst_fall + ctx.d_fall[sel])
            nets = sel + num_inputs
            changed = (
                ~present[nets]
                | (new_rise != arr_rise[nets])
                | (new_fall != arr_fall[nets])
            )
            arr_rise[nets] = new_rise
            arr_fall[nets] = new_fall
            present[nets] = True
            changed_nets = nets[changed]
            if changed_nets.size:
                changed_positions.append(sel[changed])
                cons, _ = ragged_indices(
                    ctx.consumer_offset[changed_nets],
                    ctx.consumer_counts[changed_nets],
                )
                if cons.size:
                    dirty[ctx.consumer_gate[cons]] = True
        if changed_positions:
            all_changed = np.concatenate(changed_positions)
            names = ctx.net_names
            arrival = self.arrival
            rises = arr_rise[all_changed + num_inputs].tolist()
            falls = arr_fall[all_changed + num_inputs].tolist()
            for position, rise, fall in zip(
                all_changed.tolist(), rises, falls
            ):
                arrival[names[num_inputs + position]] = (rise, fall)

    def _backward_required_vector(
        self, ctx: _VectorContext, bseeds: set[str]
    ) -> None:
        """Levelized backward sweep over a dirty net mask.

        The dense mirror of the scalar loop around
        :meth:`_recompute_req0`: per level (descending) each dirty net
        refolds its zero-target required pair from its consumers'
        cached pairs, the consumer cell delays, unateness, and the
        star wire delays; changed nets mark their driver's fanins
        dirty.  A consumer with no cached pair contributes ``+inf`` —
        the identity of the min fold — exactly like the scalar
        ``continue``.
        """
        np = _np
        INF = float("inf")
        num_inputs = ctx.num_inputs
        req_rise = np.full(ctx.num_nets, INF)
        req_fall = np.full(ctx.num_nets, INF)
        present = np.zeros(ctx.num_nets, dtype=bool)
        net_index = ctx.net_index
        for net, pair in self._req0.items():
            index = net_index.get(net)
            if index is not None:
                req_rise[index] = pair[0]
                req_fall[index] = pair[1]
                present[index] = True
        po_base = np.full(ctx.num_nets, INF)
        for net in self.network.outputs:
            index = net_index.get(net)
            if index is not None:
                po_base[index] = -self._po_wire_delay(net)
        dirty = np.zeros(ctx.num_nets, dtype=bool)
        for net in bseeds:
            index = net_index.get(net)
            if index is not None:
                dirty[index] = True
        self.stats.vector_dispatches += 1
        net_level = ctx.net_level
        changed_all: list = []
        for level in range(ctx.num_levels - 1, -1, -1):
            sel = np.nonzero(dirty & (net_level == level))[0]
            if sel.size == 0:
                continue
            dirty[sel] = False
            self.stats.required_evals += sel.size
            self.stats.vector_required_evals += sel.size
            new_rise = po_base[sel].copy()
            new_fall = po_base[sel].copy()
            counts = ctx.consumer_counts[sel]
            edges, seg_starts = ragged_indices(
                ctx.consumer_offset[sel], counts
            )
            if edges.size:
                gates = ctx.consumer_gate[edges]
                gate_nets = gates + num_inputs
                # absent consumer pairs hold the +inf they were
                # initialised with: a no-op in the min fold, like the
                # scalar skip
                out_rise = req_rise[gate_nets] - ctx.d_rise[gates]
                out_fall = req_fall[gate_nets] - ctx.d_fall[gates]
                g_xor = ctx.is_xor[gates]
                g_neg = ctx.is_neg[gates]
                both = np.minimum(out_rise, out_fall)
                budget_rise = np.where(
                    g_xor, both, np.where(g_neg, out_fall, out_rise)
                )
                budget_fall = np.where(
                    g_xor, both, np.where(g_neg, out_rise, out_fall)
                )
                wire = ctx.edge_wire[ctx.consumer_slot[edges]]
                contrib_rise = budget_rise - wire
                contrib_fall = budget_fall - wire
                nonempty = counts > 0
                new_rise[nonempty] = np.minimum(
                    new_rise[nonempty],
                    np.minimum.reduceat(contrib_rise, seg_starts[nonempty]),
                )
                new_fall[nonempty] = np.minimum(
                    new_fall[nonempty],
                    np.minimum.reduceat(contrib_fall, seg_starts[nonempty]),
                )
            changed = (
                ~present[sel]
                | (new_rise != req_rise[sel])
                | (new_fall != req_fall[sel])
            )
            req_rise[sel] = new_rise
            req_fall[sel] = new_fall
            present[sel] = True
            changed_ids = sel[changed]
            if changed_ids.size:
                changed_all.append(changed_ids)
                gate_ids = changed_ids[changed_ids >= num_inputs]
                gate_ids = gate_ids - num_inputs
                if gate_ids.size:
                    fans, _ = ragged_indices(
                        ctx.fanin_offset[gate_ids],
                        ctx.fanin_counts[gate_ids],
                    )
                    if fans.size:
                        dirty[ctx.fanin_flat[fans]] = True
        if changed_all:
            ids = np.concatenate(changed_all)
            names = ctx.net_names
            req0 = self._req0
            rises = req_rise[ids].tolist()
            falls = req_fall[ids].tolist()
            for index, rise, fall in zip(ids.tolist(), rises, falls):
                req0[names[index]] = (rise, fall)

    # ------------------------------------------------------------------
    # snapshot export (checkpoints)
    # ------------------------------------------------------------------
    def export_eval_state(self) -> EvalState:
        """Snapshot the cached analysis for a checkpoint payload.

        The returned :class:`EvalState` is picklable (the network drops
        its listeners on serialization) and references the engine's
        live caches without copying — callers must pickle it before the
        next committed batch.  An engine rebuilt from it by
        :func:`repro.checkpoint.engine_from_state` computes
        :meth:`swap_gain` / :meth:`resize_gain` bit-identically to this
        engine.
        """
        self.refresh()
        return EvalState(
            network=self.network,
            placement=self.placement,
            library=self.library,
            period=self.period,
            po_pad_cap=self.po_pad_cap,
            arrival=self.arrival,
            slack=self.slack,
            stars=self.stars,
            levels=self._levels,
            req0=self._req0,
            max_delay=self.max_delay,
            version=self.network.version,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def worst_arrival(self, net: str) -> float:
        """Scalar (worst of rise/fall) arrival at a net."""
        rise, fall = self.arrival[net]
        return max(rise, fall)

    def worst_slack(self) -> float:
        """Minimum slack over all nets."""
        return min(self.slack.values(), default=0.0)

    def critical_path(self) -> list[PathPoint]:
        """Trace the worst path from its primary output back to a PI."""
        if not self.arrival:
            self.analyze()
        worst_po = max(
            self.network.outputs,
            key=lambda net: self.worst_arrival(net) + self._po_wire_delay(net),
            default=None,
        )
        if worst_po is None:
            return []
        path: list[PathPoint] = []
        current = worst_po
        while True:
            path.append(
                PathPoint(
                    net=current,
                    arrival=self.worst_arrival(current),
                    through="pi" if self.network.is_input(current) else "gate",
                )
            )
            if self.network.is_input(current):
                break
            gate = self.network.gate(current)
            if not gate.fanins:
                break
            best_fanin = None
            best_value = -1.0
            for index, fanin in enumerate(gate.fanins):
                wire = self.stars[fanin].sink_delay(Pin(current, index))
                value = self.worst_arrival(fanin) + wire
                if value > best_value:
                    best_value = value
                    best_fanin = fanin
            current = best_fanin
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # local what-if evaluation
    # ------------------------------------------------------------------
    @projection_only
    def swap_gain(self, swap: PinSwap) -> Gains:
        """Projected local slack gains of a pin swap (ns).

        Positive values mean the neighborhood improves.  The projection
        rebuilds the two affected star nets with their sink pins
        exchanged, recomputes driver arrivals and sink-gate arrivals
        from cached values, and compares slacks; inverting swaps add an
        inverter's delay and input load on both legs.
        """
        network = self.network
        net_a = network.fanin_net(swap.pin_a)
        net_b = network.fanin_net(swap.pin_b)
        if net_a == net_b:
            return Gains(0.0, 0.0, float("inf"))
        inv_cell = None
        if swap.inverting:
            inv_cell = self.library.implementations(GateType.INV, 1)[0]
        context: dict[str, float] = {}
        frontier: dict[str, float] = {}
        stars_new = {}
        for net, lost_pin, gained_pin in (
            (net_a, swap.pin_a, swap.pin_b),
            (net_b, swap.pin_b, swap.pin_a),
        ):
            star = self._ensure_star(net)
            specs = []
            for sink in star.sinks:
                if sink.pin == lost_pin:
                    continue
                specs.append((sink.pin, sink.location, sink.pin_cap))
            gained_cap = (
                inv_cell.input_cap if inv_cell is not None
                else pin_capacitance(network, self.library, gained_pin)
            )
            specs.append(
                (
                    gained_pin,
                    self.placement.locations[gained_pin.gate],
                    gained_cap,
                )
            )
            stars_new[net] = build_star(
                network, self.placement, self.library, net,
                po_pad_cap=self.po_pad_cap, override_sinks=specs,
            )
            context[net] = self._driver_arrival_with_load(
                net, stars_new[net].total_cap
            )
            if network.is_output(net):
                frontier[net] = context[net] + self._po_delta(
                    net, stars_new[net]
                )
        affected_gates = {swap.pin_a.gate, swap.pin_b.gate}
        for net in (net_a, net_b):
            for sink in self.stars[net].sinks:
                if sink.pin is not None:
                    affected_gates.add(sink.pin.gate)
        # project in level order and feed results forward so chained
        # effects inside a supergate (the logic-level-reduction move)
        # are captured, not just first-order ones
        for gate_name in sorted(
            affected_gates,
            key=lambda name: (self._levels.get(name, 0), name),
        ):
            projected = self._project_gate_arrival(
                gate_name,
                stars_new,
                context,
                swapped={swap.pin_a: net_b, swap.pin_b: net_a},
                inv_cell=inv_cell,
                inv_pins={swap.pin_a, swap.pin_b},
            )
            frontier[gate_name] = projected
            context[gate_name] = projected
        return self._local_gain(frontier)

    @projection_only
    def resize_gain(self, gate_name: str, new_cell_name: str) -> Gains:
        """Projected local slack gains of a gate resize."""
        network = self.network
        gate = network.gate(gate_name)
        old_cell = self._cell_of(gate_name)
        new_cell = self.library.cell(new_cell_name)
        if old_cell is None:
            return Gains(0.0, 0.0, float("inf"))
        context: dict[str, float] = {}
        frontier: dict[str, float] = {}
        stars_new: dict[str, StarNet] = {}
        # fanin nets see a different pin capacitance; sorted so the
        # frontier's float-summed gains are PYTHONHASHSEED-independent
        delta_cap = new_cell.input_cap - old_cell.input_cap
        affected_gates: set[str] = {gate_name}
        for fanin in sorted(set(gate.fanins)):
            star = self._ensure_star(fanin)
            new_cap = star.total_cap + delta_cap * gate.fanins.count(fanin)
            stars_new[fanin] = _with_total_cap(star, new_cap)
            context[fanin] = self._driver_arrival_with_load(fanin, new_cap)
            if network.is_output(fanin):
                frontier[fanin] = context[fanin]
            for sink in star.sinks:
                if sink.pin is not None:
                    affected_gates.add(sink.pin.gate)
        for name in sorted(
            affected_gates,
            key=lambda other: (self._levels.get(other, 0), other),
        ):
            projected = self._project_gate_arrival(
                name,
                stars_new,
                context,
                resized={gate_name: new_cell},
            )
            frontier[name] = projected
            context[name] = projected
        return self._local_gain(frontier)

    def _driver_arrival_with_load(self, net: str, new_load: float) -> float:
        """Scalar arrival at *net* if its driver saw *new_load*."""
        if self.network.is_input(net):
            return 0.0
        cell = self._cell_of(net)
        if cell is None:
            return self.worst_arrival(net)
        old_load = self.stars[net].total_cap
        old = self.worst_arrival(net)
        delta = cell.worst_delay(new_load) - cell.worst_delay(old_load)
        return old + delta

    def _project_gate_arrival(
        self,
        gate_name: str,
        stars_new: dict[str, StarNet],
        new_arrivals: dict[str, float],
        swapped: dict[Pin, str] | None = None,
        inv_cell: Cell | None = None,
        inv_pins: set[Pin] | None = None,
        resized: dict[str, Cell] | None = None,
    ) -> float:
        """Scalar arrival of a gate with selected nets/pins overridden."""
        network = self.network
        gate = network.gate(gate_name)
        if gate.gtype in CONST_TYPES:
            return 0.0
        cell = (resized or {}).get(gate_name) or self._cell_of(gate_name)
        load = self.stars[gate_name].total_cap if (
            gate_name in self.stars
        ) else 0.0
        d_gate = cell.worst_delay(load) if cell is not None else 0.0
        worst = 0.0
        for index, fanin in enumerate(gate.fanins):
            pin = Pin(gate_name, index)
            if swapped and pin in swapped:
                fanin = swapped[pin]
            star = stars_new.get(fanin) or self._ensure_star(fanin)
            try:
                wire = star.sink_delay(pin)
            except KeyError:
                # what-if star: the pin keeps its cached wire delay
                wire = self.stars[fanin].sink_delay(pin)
            src = new_arrivals.get(fanin)
            if src is None:
                src = self.worst_arrival(fanin)
            pin_arrival = src + wire
            if inv_cell is not None and inv_pins and pin in inv_pins:
                pin_cap = pin_capacitance(network, self.library, pin)
                pin_arrival += inv_cell.worst_delay(pin_cap)
            worst = max(worst, pin_arrival)
        return worst + d_gate

    def _po_delta(self, net: str, new_star: StarNet) -> float:
        """Change of the PO-pad wire delay when a net's star changes."""
        old = 0.0
        for sink in self._ensure_star(net).sinks:
            if sink.pin is None:
                old = sink.wire_delay
                break
        new = 0.0
        for sink in new_star.sinks:
            if sink.pin is None:
                new = sink.wire_delay
                break
        return new - old

    def _local_gain(self, frontier: dict[str, float]) -> Gains:
        """Compare projected vs. current slacks over the frontier nets.

        The frontier contains only nets whose projected arrival already
        folds in *every* effect of the move (changed fanin arrivals,
        wire delays, own gate delay); upstream nets are deliberately
        excluded because their slowdown or speedup is visible at the
        frontier and their own required times would shift with the
        move.
        """
        current_min = float("inf")
        projected_min = float("inf")
        sum_delta = 0.0
        for net, projected_arrival in frontier.items():
            if net not in self.slack:
                continue
            current = self.slack[net]
            delta = projected_arrival - self.worst_arrival(net)
            current_min = min(current_min, current)
            projected_min = min(projected_min, current - delta)
            sum_delta -= delta
        if current_min == float("inf"):
            return Gains(0.0, 0.0, float("inf"))
        return Gains(projected_min - current_min, sum_delta, projected_min)

    def slack_sum(self, nets: list[str]) -> float:
        """Sum of slacks over the given nets (relaxation-phase metric)."""
        return sum(self.slack.get(net, 0.0) for net in nets)

    # ------------------------------------------------------------------
    # batch slack projection (timing-aware wirelength rewiring)
    # ------------------------------------------------------------------
    @projection_only
    def project_swap_slacks(
        self,
        batch: list[tuple[tuple[Pin, str], ...]],
        exact: bool = False,
    ) -> list[SlackProjection]:
        """Mutation-free slack projections for a batch of pin rebindings.

        Each batch element is a rebinding: a sequence of ``(pin,
        new_net)`` pairs — ``((pin_a, net_b), (pin_b, net_a))`` for a
        non-inverting leaf swap, or the ``cross_swap_bindings`` list of
        a cross-supergate exchange.  Like :meth:`swap_gain`, pricing
        reuses the cached star/arrival state and never mutates the
        network — zero events reach subscribed engines.

        The default *frontier* mode scores the whole batch at once:
        the affected nets' star RC models are re-derived in one
        vectorized numpy pass (pure-Python fallback included) and
        arrivals are re-folded over the two-net neighborhood only —
        cheap, slightly approximate beyond the frontier, right for
        pre-filtering thousands of candidates.

        ``exact=True`` instead mirrors :meth:`apply_and_update`
        per candidate: arrivals are re-propagated through the whole
        affected fanout and required times through the affected fanin
        frontier (worklists over overlay dicts, early termination on
        convergence), so the projected slacks equal the post-commit
        re-fold to float noise and ``touched`` names every net the
        walk visited.  Committing a set of moves whose exact
        ``touched`` sets are pairwise disjoint realizes every
        projection exactly — the additivity the batched wirelength
        committer relies on.  Exact agreement with the applied state
        additionally requires a pinned target (``period`` set):
        with a floating target the re-timed critical path re-folds
        every slack.  Consumers detect residual drift (float noise,
        overlapping neighborhoods) against
        :data:`PROJECTION_DRIFT_TOL` and fall back to re-pricing.
        """
        self.refresh()
        if exact:
            return [self._project_rebind_exact(tuple(b)) for b in batch]
        prepared = [self._rebind_specs(tuple(b)) for b in batch]
        jobs: list[tuple[str, list]] = []
        slots: list[dict[str, int]] = []
        for _moved, specs in prepared:
            slot = {}
            for net, spec in specs.items():
                slot[net] = len(jobs)
                jobs.append((net, spec))
            slots.append(slot)
        stars = self._rebound_stars(jobs)
        projections = []
        for (moved, _specs), slot, bindings in zip(prepared, slots, batch):
            new_stars = {net: stars[index] for net, index in slot.items()}
            projections.append(
                self._fold_rebind_frontier(tuple(bindings), moved, new_stars)
            )
        return projections

    def _rebind_specs(
        self, bindings: tuple[tuple[Pin, str], ...]
    ) -> tuple[dict[Pin, str], dict[str, list]]:
        """Post-move sink specs of every net a rebinding touches.

        Returns ``(moved, specs)``: the effective pin -> new-net map
        (no-op bindings dropped) and, per affected net, the
        ``build_star`` override list — cached sinks minus departing
        pins, arriving pins appended in binding order, so the spec
        order (and the float sums derived from it) is deterministic.
        """
        network = self.network
        moved: dict[Pin, str] = {}
        affected: set[str] = set()
        for pin, new_net in bindings:
            old_net = network.fanin_net(pin)
            if old_net == new_net:
                continue
            moved[pin] = new_net
            affected.add(old_net)
            affected.add(new_net)
        specs: dict[str, list] = {}
        for net in sorted(affected):
            star = self._ensure_star(net)
            spec = [
                (sink.pin, sink.location, sink.pin_cap)
                for sink in star.sinks
                if sink.pin is None or sink.pin not in moved
            ]
            for pin, new_net in moved.items():
                if new_net == net:
                    spec.append(
                        (
                            pin,
                            self.placement.locations[pin.gate],
                            pin_capacitance(network, self.library, pin),
                        )
                    )
            specs[net] = spec
        return moved, specs

    def _rebound_stars(self, jobs: list[tuple[str, list]]) -> list[StarNet]:
        """Star RC models for edited sink lists, one vectorized pass.

        Each job is ``(net, override_specs)``; the result matches
        ``build_star(..., override_sinks=specs)`` (same formulas, same
        per-net summation order) to float associativity.  The numpy
        path flattens every job's sinks into one row table and derives
        centers, loads and per-sink Elmore delays with whole-array
        expressions; the scalar fallback loops over ``build_star``.
        """
        if _np is None or len(jobs) < 2:
            return [
                build_star(
                    self.network, self.placement, self.library, net,
                    po_pad_cap=self.po_pad_cap, override_sinks=spec,
                )
                for net, spec in jobs
            ]
        from ..library.cells import (
            UNIT_WIRE_CAP_PER_UM as _CAP,
            UNIT_WIRE_RES_PER_UM as _RES,
        )
        count = len(jobs)
        placement = self.placement
        network = self.network
        src = _np.empty((count, 2))
        n_sinks = _np.empty(count, dtype=_np.int64)
        job_ids: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        caps: list[float] = []
        for index, (net, spec) in enumerate(jobs):
            src[index] = placement.source_location(network, net)
            n_sinks[index] = len(spec)
            for _pin, (x, y), cap in spec:
                job_ids.append(index)
                xs.append(x)
                ys.append(y)
                caps.append(cap)
        job = _np.asarray(job_ids, dtype=_np.int64)
        x = _np.asarray(xs)
        y = _np.asarray(ys)
        cap = _np.asarray(caps)
        n_points = 1 + n_sinks
        cx = (src[:, 0] + _np.bincount(job, weights=x, minlength=count))
        cy = (src[:, 1] + _np.bincount(job, weights=y, minlength=count))
        cx /= n_points
        cy /= n_points
        empty = n_sinks == 0
        cx[empty] = src[empty, 0]
        cy[empty] = src[empty, 1]
        source_len = _np.abs(src[:, 0] - cx) + _np.abs(src[:, 1] - cy)
        r_source = _RES * source_len
        c_source = _CAP * source_len
        seg_len = _np.abs(x - cx[job]) + _np.abs(y - cy[job])
        c_seg = _CAP * seg_len
        downstream = _np.bincount(
            job, weights=c_seg, minlength=count
        ) + _np.bincount(job, weights=cap, minlength=count)
        total_cap = c_source + downstream
        total_cap[empty] = 0.0
        delay = r_source[job] * (c_source + downstream)[job] + (
            _RES * seg_len
        ) * (c_seg + cap)
        stars: list[StarNet] = []
        row = 0
        for index, (net, spec) in enumerate(jobs):
            sinks = []
            for pin, location, pin_cap in spec:
                sinks.append(
                    StarSink(
                        pin=pin,
                        location=location,
                        pin_cap=pin_cap,
                        wire_delay=float(delay[row]),
                    )
                )
                row += 1
            source = (float(src[index, 0]), float(src[index, 1]))
            stars.append(
                StarNet(
                    net=net,
                    source=source,
                    center=source if not sinks else (
                        float(cx[index]), float(cy[index])
                    ),
                    total_cap=float(total_cap[index]),
                    sinks=tuple(sinks),
                )
            )
        return stars

    def _rebound_gate_arrival(
        self,
        name: str,
        moved: dict[Pin, str],
        new_stars: dict[str, StarNet],
        context: dict[str, tuple[float, float]],
    ) -> tuple[float, float]:
        """Exact (rise, fall) arrival of a gate under a rebind overlay.

        Mirrors :meth:`_gate_arrival` with three overrides: pins in
        *moved* read their new driving net, nets in *new_stars* use
        the edited RC model (wire delays and the gate's own load), and
        nets in *context* use the projected upstream arrival pair.
        """
        network = self.network
        gate = network.gate(name)
        if gate.gtype in CONST_TYPES:
            return (0.0, 0.0)
        cell = self._cell_of(name)
        own_star = new_stars.get(name)
        if own_star is None:
            own_star = self._ensure_star(name)
        if cell is None:
            d_rise = d_fall = 0.0
        else:
            d_rise = cell.delay(own_star.total_cap, "rise")
            d_fall = cell.delay(own_star.total_cap, "fall")
        worst_rise = 0.0
        worst_fall = 0.0
        for index, fanin in enumerate(gate.fanins):
            pin = Pin(name, index)
            fanin = moved.get(pin, fanin)
            star = new_stars.get(fanin)
            if star is None:
                star = self._ensure_star(fanin)
            wire = star.sink_delay(pin)
            in_pair = context.get(fanin)
            if in_pair is None:
                in_pair = self.arrival.get(fanin, (0.0, 0.0))
            out_rise, out_fall = _propagate(
                gate.gtype, in_pair[0] + wire, in_pair[1] + wire
            )
            worst_rise = max(worst_rise, out_rise)
            worst_fall = max(worst_fall, out_fall)
        return (worst_rise + d_rise, worst_fall + d_fall)

    def _fold_rebind_frontier(
        self,
        bindings: tuple[tuple[Pin, str], ...],
        moved: dict[Pin, str],
        new_stars: dict[str, StarNet],
    ) -> SlackProjection:
        """Frontier-only projection: drivers + sink gates of the moved nets."""
        network = self.network
        context: dict[str, tuple[float, float]] = {}
        deltas: dict[str, float] = {}
        for net in new_stars:
            old_pair = self.arrival.get(net, (0.0, 0.0))
            new_pair = old_pair
            if not network.is_input(net):
                cell = self._cell_of(net)
                if cell is not None:
                    old_load = self._ensure_star(net).total_cap
                    new_load = new_stars[net].total_cap
                    new_pair = (
                        old_pair[0]
                        + cell.delay(new_load, "rise")
                        - cell.delay(old_load, "rise"),
                        old_pair[1]
                        + cell.delay(new_load, "fall")
                        - cell.delay(old_load, "fall"),
                    )
            context[net] = new_pair
            if network.is_output(net):
                # the pad sink has no consumer gate to mirror a
                # violation at, so the driver net itself carries the
                # projected pad arrival; non-PO driver slowdowns are
                # measured at their sink gates below (a violated net
                # always violates its critical consumer too)
                deltas[net] = (
                    max(new_pair) - max(old_pair)
                    + self._po_delta(net, new_stars[net])
                )
        gates: set[str] = set()
        for net in new_stars:
            for sink in self._ensure_star(net).sinks:
                if sink.pin is not None:
                    gates.add(sink.pin.gate)
            for sink in new_stars[net].sinks:
                if sink.pin is not None:
                    gates.add(sink.pin.gate)
        for name in sorted(
            gates, key=lambda gate: (self._levels.get(gate, 0), gate)
        ):
            pair = self._rebound_gate_arrival(name, moved, new_stars, context)
            deltas[name] = max(pair) - max(self.arrival.get(name, (0.0, 0.0)))
            context[name] = pair
        current: dict[str, float] = {}
        projected: dict[str, float] = {}
        for net, delta in deltas.items():
            slack = self.slack.get(net)
            if slack is None:
                continue
            current[net] = slack
            projected[net] = slack - delta
        return SlackProjection(
            bindings=bindings,
            current=current,
            projected=projected,
            touched=frozenset(new_stars) | frozenset(gates),
            exact=False,
        )

    def _project_rebind_exact(
        self, bindings: tuple[tuple[Pin, str], ...]
    ) -> SlackProjection:
        """Full-cone projection mirroring :meth:`apply_and_update`.

        Forward arrivals and backward required times are re-derived
        into overlay dicts with the same worklists the committed
        update would run (changes re-push their neighbors, so the
        result is the unique fixed point regardless of visit order);
        the cached engine state is never written.  ``touched`` is the
        complete visited set — the conflict footprint under which
        batched projections add exactly.
        """
        network = self.network
        moved, specs = self._rebind_specs(bindings)
        if not moved:
            return SlackProjection(
                bindings=bindings, current={}, projected={},
                touched=frozenset(), exact=True,
            )
        new_stars = {
            net: build_star(
                network, self.placement, self.library, net,
                po_pad_cap=self.po_pad_cap, override_sinks=spec,
            )
            for net, spec in specs.items()
        }
        levels = self._levels

        def consumers(net: str) -> list[Pin]:
            star = new_stars.get(net)
            if star is not None:
                return [s.pin for s in star.sinks if s.pin is not None]
            return network.fanout(net)

        def effective_fanins(name: str) -> list[str]:
            gate = network.gate(name)
            return [
                moved.get(Pin(name, index), fanin)
                for index, fanin in enumerate(gate.fanins)
            ]

        # forward: arrivals through the affected fanout, overlay-only
        arr_over: dict[str, tuple[float, float]] = {}
        visited_fwd: set[str] = set()
        seeds: set[str] = set()
        for net in new_stars:
            if not network.is_input(net):
                seeds.add(net)
            for sink in self._ensure_star(net).sinks:
                if sink.pin is not None:
                    seeds.add(sink.pin.gate)
            for pin in consumers(net):
                seeds.add(pin.gate)
        heap = [(levels.get(name, 0), name) for name in sorted(seeds)]
        heapq.heapify(heap)
        while heap:
            _, name = heapq.heappop(heap)
            if name not in network or network.is_input(name):
                continue
            visited_fwd.add(name)
            pair = self._rebound_gate_arrival(name, moved, new_stars, arr_over)
            old = arr_over.get(name, self.arrival.get(name))
            if pair != old:
                arr_over[name] = pair
                for pin in consumers(name):
                    heapq.heappush(
                        heap, (levels.get(pin.gate, 0), pin.gate)
                    )
        # backward: required times through the affected fanin frontier
        req_over: dict[str, tuple[float, float]] = {}
        visited_bwd: set[str] = set()
        bseeds: set[str] = set()
        for net in new_stars:
            bseeds.add(net)
            if not network.is_input(net):
                bseeds.update(effective_fanins(net))
        for pin in moved:
            bseeds.add(pin.gate)
            if pin.gate in network and not network.is_input(pin.gate):
                bseeds.update(effective_fanins(pin.gate))
        bheap = [(-levels.get(net, 0), net) for net in sorted(bseeds)]
        heapq.heapify(bheap)
        while bheap:
            _, net = heapq.heappop(bheap)
            if net not in network:
                continue
            visited_bwd.add(net)
            pair = self._rebound_req0(net, moved, new_stars, req_over)
            old = req_over.get(net, self._req0.get(net))
            if pair != old:
                req_over[net] = pair
                if not network.is_input(net):
                    for fanin in effective_fanins(net):
                        heapq.heappush(
                            bheap, (-levels.get(fanin, 0), fanin)
                        )
        # fold changed slacks against the engine's (pinned) target
        target = self.period if self.period is not None else self.max_delay
        current: dict[str, float] = {}
        projected: dict[str, float] = {}
        for net in set(arr_over) | set(req_over):
            req = req_over.get(net, self._req0.get(net))
            if req is None:
                continue
            arrival = arr_over.get(net, self.arrival.get(net, (0.0, 0.0)))
            projected[net] = min(
                req[0] - arrival[0], req[1] - arrival[1]
            ) + target
            slack = self.slack.get(net)
            if slack is not None:
                current[net] = slack
        return SlackProjection(
            bindings=bindings,
            current=current,
            projected=projected,
            touched=frozenset(new_stars) | visited_fwd | visited_bwd,
            exact=True,
        )

    def _rebound_req0(
        self,
        net: str,
        moved: dict[Pin, str],
        new_stars: dict[str, StarNet],
        req_over: dict[str, tuple[float, float]],
    ) -> tuple[float, float]:
        """Zero-target required pair at *net* under a rebind overlay.

        Mirrors :meth:`_recompute_req0`: consumer pins come from the
        post-move sink lists, consumer loads and sink wire delays from
        the overlay stars, consumer required pairs from the overlay.
        """
        network = self.network
        INF = float("inf")
        rise = fall = INF
        star = new_stars.get(net)
        if star is None:
            star = self._ensure_star(net)
        if network.is_output(net):
            po_delay = 0.0
            for sink in star.sinks:
                if sink.pin is None:
                    po_delay = sink.wire_delay
                    break
            rise = fall = -po_delay
        sink_pins = [s.pin for s in star.sinks if s.pin is not None]
        for pin in sink_pins:
            consumer = network.gate(pin.gate)
            out_pair = req_over.get(pin.gate, self._req0.get(pin.gate))
            if out_pair is None:
                continue
            cell = self._cell_of(pin.gate)
            if cell is None:
                d_rise = d_fall = 0.0
            else:
                own_star = new_stars.get(pin.gate)
                if own_star is None:
                    own_star = self.stars[pin.gate]
                load = own_star.total_cap
                d_rise = cell.delay(load, "rise")
                d_fall = cell.delay(load, "fall")
            pin_rise_budget, pin_fall_budget = _required_through(
                consumer.gtype, out_pair[0] - d_rise, out_pair[1] - d_fall
            )
            wire = star.sink_delay(pin)
            rise = min(rise, pin_rise_budget - wire)
            fall = min(fall, pin_fall_budget - wire)
        return (rise, fall)


def _propagate(
    gtype: GateType, pin_rise: float, pin_fall: float
) -> tuple[float, float]:
    """Map pin-arrival transitions to output transitions by unateness."""
    if gtype in XOR_TYPES:
        worst = max(pin_rise, pin_fall)
        return (worst, worst)
    if gtype in _NEGATIVE_UNATE or (
        is_inverted(gtype) and gtype is not GateType.XNOR
    ):
        return (pin_fall, pin_rise)
    return (pin_rise, pin_fall)


def _required_through(
    gtype: GateType, out_rise_budget: float, out_fall_budget: float
) -> tuple[float, float]:
    """Inverse of :func:`_propagate` for the backward required pass.

    Returns the (rise, fall) budgets at the gate's *input* pins given
    the output budgets already reduced by the gate's arc delays.
    """
    if gtype in XOR_TYPES:
        worst = min(out_rise_budget, out_fall_budget)
        return (worst, worst)
    if gtype in _NEGATIVE_UNATE or (
        is_inverted(gtype) and gtype is not GateType.XNOR
    ):
        # pin fall feeds out rise and vice versa
        return (out_fall_budget, out_rise_budget)
    return (out_rise_budget, out_fall_budget)


def _with_total_cap(star: StarNet, total_cap: float) -> StarNet:
    """Copy of a star net with an adjusted total load."""
    return StarNet(
        net=star.net,
        source=star.source,
        center=star.center,
        total_cap=max(total_cap, 0.0),
        sinks=star.sinks,
    )
