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
contract and the commit-time additivity rule).  A move's neighborhood
is defined once: one builder makes a rebinding's what-if star models,
one method lists the sink gates every what-if pricer walks, and the
committed update and the exact projection seed their worklists
through one call, so they seed the same nets by construction.

The engine is also *incremental*: it subscribes to the network's
:class:`~repro.network.netlist.Change` records, its only view of
change (a placement edit sends none), and, on
:meth:`TimingEngine.apply_and_update`, re-propagates arrival times
only through the transitive fanout of the changed nets (a levelized
worklist that stops as soon as values converge) and required times
only through the affected fanin frontier.
Required times are cached relative to a zero timing target, which
makes them independent of the clock period / critical-path target: a
target shift rescales every slack without re-propagating anything.
Star RC models of untouched nets are reused verbatim, so the
expensive per-node work of an update — star geometry rebuilds and
delay-model evaluations — is O(affected region), not O(network).  The
bookkeeping around it is too: logic levels are re-levelled over the
rewired gates' forward cone only, the critical delay rescans the
primary outputs only when the worst one got faster, and slacks are
re-folded only for the nets the worklist changed while the target
stays put (a pinned ``period``).  A floating target — the critical
delay, which moves with almost every committed optimizer batch —
shifts every slack, and then the fold is one O(nets) arithmetic pass.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from ..library.cells import Cell, Library
from ..network.gatetype import CONST_TYPES, GateType, XOR_TYPES, is_inverted
from ..contracts import projection_only
from ..network.netlist import Change, Network, Pin
from ..place.placement import Placement
from ..symmetry.swap import PinSwap
from .netmodel import StarNet, build_star, pin_capacitance

#: How a gate type maps pin transitions to output transitions: positive
#: unate (rise drives rise), negative unate (INV/NAND/NOR: rise drives
#: fall), binate (XOR class: either pin transition moves both), or a
#: constant generator with no arcs.  One lookup per gate evaluation.
_POSITIVE, _NEGATIVE, _BINATE, _CONSTANT = range(4)
_UNATENESS = {
    gtype: (
        _CONSTANT if gtype in CONST_TYPES
        else _BINATE if gtype in XOR_TYPES
        else _NEGATIVE if is_inverted(gtype)
        else _POSITIVE
    )
    for gtype in GateType
}

#: ``(cell, load, worst delay, terms)`` of one gate's committed state;
#: see :meth:`TimingEngine._committed_terms`.
_CommittedTerms = tuple[
    Cell | None, float, float, list[tuple[str, Pin, float]] | None
]


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
    incremental flow are made of).  Projections are not counted.

    ``level_rebuilds`` and ``full_folds`` count the whole-network
    passes (a logic-level pass, a slack fold over every net): one each
    per :meth:`TimingEngine.analyze`, plus one fold per committed update
    whose timing target moved.  They are not node updates.
    """

    full_analyses: int = 0
    incremental_updates: int = 0
    stars_built: int = 0
    arrival_evals: int = 0
    required_evals: int = 0
    level_rebuilds: int = 0
    full_folds: int = 0

    @property
    def node_updates(self) -> int:
        return self.stars_built + self.arrival_evals + self.required_evals

    @property
    def work_units(self) -> int:
        """Same as :attr:`node_updates`: every evaluation is one visit."""
        return self.node_updates

    def as_dict(self) -> dict[str, float]:
        return {
            "full_analyses": self.full_analyses,
            "incremental_updates": self.incremental_updates,
            "stars_built": self.stars_built,
            "arrival_evals": self.arrival_evals,
            "required_evals": self.required_evals,
            "node_updates": self.node_updates,
            "level_rebuilds": self.level_rebuilds,
            "full_folds": self.full_folds,
        }


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

    current: dict[str, float]
    projected: dict[str, float]
    touched: frozenset[str]

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
    ) -> None:
        self.network = network
        self.placement = placement
        self.library = library
        self.period = period
        self.arrival: dict[str, tuple[float, float]] = {}
        self.slack: dict[str, float] = {}
        self.stars: dict[str, StarNet] = {}
        self.max_delay = 0.0
        self.stats = TimingStats()
        self._levels: dict[str, int] = {}
        # the primary output that sets max_delay (None: no PO above 0)
        self._worst_po: str | None = None
        self._analyzed_version = -1
        # required pairs relative to a zero target (target-independent)
        self._req0: dict[str, tuple[float, float]] = {}
        self._target = 0.0
        # incremental-update state fed by network changes
        self._dirty_stars: set[str] = set()
        self._dirty_gates: set[str] = set()
        self._dead: set[str] = set()
        # gates whose fanin nets changed: the seeds of _relevel
        self._rewired: set[str] = set()
        self._gates_added = False
        self._needs_full = True
        # per-gate committed pricing terms; see _committed_terms
        self._pricing_memo: dict[str, _CommittedTerms] = {}
        network.subscribe(self)

    # ------------------------------------------------------------------
    # mutation tracking
    # ------------------------------------------------------------------
    def notify_network_event(self, change: Change) -> None:
        """Accumulate dirty state from one network change."""
        self._pricing_memo.clear()
        if change.whole:
            # IO moved or an untracked mutation: all cached timing is
            # suspect; analyze() runs the one full level pass
            self._needs_full = True
        for name, fanins in change.removed:
            # a removed gate has no consumers: no other level moves
            self._dead.add(name)
            self._dirty_stars.discard(name)
            self._dirty_gates.discard(name)
            self._rewired.discard(name)
            self._dirty_stars.update(fanins)
        for name, fanins in change.added:
            self._dead.discard(name)
            self._dirty_stars.add(name)
            self._dirty_stars.update(fanins)
            self._dirty_gates.add(name)
            self._rewired.add(name)
            self._gates_added = True
        for name, old_fanins, new_fanins in change.rewritten:
            self._dirty_gates.add(name)
            self._rewired.add(name)
            self._dirty_stars.update(old_fanins)
            self._dirty_stars.update(new_fanins)
        for pin, old, new in change.rebound:
            self._dirty_stars.add(old)
            self._dirty_stars.add(new)
            self._dirty_gates.add(pin.gate)
            self._rewired.add(pin.gate)
        for name, fanins in change.recelled:
            # own delay arcs change; fanin nets see a new pin load
            self._dirty_gates.add(name)
            self._dirty_stars.update(fanins)

    # ------------------------------------------------------------------
    # full analysis
    # ------------------------------------------------------------------
    def analyze(self) -> None:
        """Run full STA (arrival, required, slack for every net).

        The evaluators the incremental worklist drives, run over every
        net: arrivals in topological order, then zero-target required
        pairs in reverse topological order, primary inputs last, so
        each net pulls from its consumers' finished pairs; then every
        net's logic level, the critical delay and every slack.
        """
        network = self.network
        self.placement.ensure_covered(network)
        self.stars = {}
        self.arrival = {}
        for pi in network.inputs:
            self.arrival[pi] = (0.0, 0.0)
            self._ensure_star(pi)
        order = network.topo_order()
        for name in order:
            self.arrival[name] = self._arrival_pair(name, {}, {}, {})
        self._req0 = {}
        for net in [*reversed(order), *network.inputs]:
            self._req0[net] = self._req0_pair(net, {}, {})
        self.stats.arrival_evals += len(order)
        self.stats.required_evals += len(self._req0)
        levels = {net: 0 for net in network.inputs}
        for name in order:
            levels[name] = 1 + max(
                (levels[f] for f in network.gate(name).fanins), default=0
            )
        self._levels = levels
        self.stats.level_rebuilds += 1
        self.max_delay = self._critical_delay()
        self._fold_slacks(self._current_target())
        self._analyzed_version = network.version
        self.stats.full_analyses += 1
        self._clear_dirty()
        self._pricing_memo.clear()

    def is_fresh(self) -> bool:
        """True when the cached analysis matches the network version."""
        return self._analyzed_version == self.network.version

    def _clear_dirty(self) -> None:
        self._dirty_stars.clear()
        self._dirty_gates.clear()
        self._dead.clear()
        self._rewired.clear()
        self._gates_added = False
        self._needs_full = False

    def _ensure_star(self, net: str) -> StarNet:
        star = self.stars.get(net)
        if star is None:
            star = build_star(self.network, self.placement, self.library, net)
            self.stars[net] = star
            self.stats.stars_built += 1
        return star

    def _cell_of(self, name: str) -> Cell | None:
        gate = self.network.gate(name)
        if gate.cell is None:
            return None
        return self.library.cell(gate.cell)

    def _arrival_pair(
        self,
        name: str,
        moved: dict[Pin, str],
        new_stars: dict[str, StarNet],
        over: dict[str, tuple[float, float]],
    ) -> tuple[float, float]:
        """Arrival (rise, fall) at a gate's output net.

        Reads the cached state through three overlays, all empty for
        the committed state: pins in *moved* read their new driving
        net, nets in *new_stars* use that RC model (sink wire delays
        and the gate's own load), and nets in *over* use that arrival
        pair.  The worst pin rise and fall are taken first and mapped
        to the output by the gate's unateness once; the cell's arc
        delays are :meth:`repro.library.cells.Cell.delay` inlined.
        """
        gate = self.network.gate(name)
        own_star = new_stars.get(name) or self._ensure_star(name)
        unateness = _UNATENESS[gate.gtype]
        if unateness == _CONSTANT:
            return (0.0, 0.0)
        if gate.cell is None:
            d_rise = d_fall = 0.0
        else:
            cell = self.library.cell(gate.cell)
            load = own_star.total_cap
            d_rise = cell.rise_intrinsic + cell.rise_resistance * load
            d_fall = cell.fall_intrinsic + cell.fall_resistance * load
        arrival = self.arrival
        worst_rise = 0.0
        worst_fall = 0.0
        for index, fanin in enumerate(gate.fanins):
            pin = (name, index)  # equal to, and hashes like, its Pin
            if moved:
                fanin = moved.get(pin, fanin)
            star = new_stars.get(fanin) or self._ensure_star(fanin)
            wire = star.sink_delay(pin)
            in_rise, in_fall = (
                over.get(fanin) or arrival.get(fanin, (0.0, 0.0))
            )
            pin_rise = in_rise + wire
            pin_fall = in_fall + wire
            if pin_rise > worst_rise:
                worst_rise = pin_rise
            if pin_fall > worst_fall:
                worst_fall = pin_fall
        if unateness == _NEGATIVE:
            # pin fall drives out rise and vice versa
            worst_rise, worst_fall = worst_fall, worst_rise
        elif unateness == _BINATE:
            worst_rise = worst_fall = max(worst_rise, worst_fall)
        return (worst_rise + d_rise, worst_fall + d_fall)

    def _req0_pair(
        self,
        net: str,
        new_stars: dict[str, StarNet],
        over: dict[str, tuple[float, float]],
    ) -> tuple[float, float]:
        """Zero-target required (rise, fall) at *net* from its consumers.

        A primary output starts from minus its pad wire delay.  Every
        sink pin then bounds the pair by its consumer's required pair
        (*over* first, then the cache; a consumer with neither is
        skipped) less the consumer's arc delays, mapped back through
        unateness, less the pin's wire delay.  Unateness couples
        transitions as in the forward pass, so on the critical path
        required meets arrival exactly.  Nets in *new_stars* use that
        RC model for sink pins, wire delays and consumer loads.
        """
        network = self.network
        req0 = self._req0
        stars = self.stars
        cell_of = self.library.cell
        star = new_stars.get(net) or self._ensure_star(net)
        rise = fall = float("inf")
        if network.is_output(net):
            rise = fall = -_pad_delay(star)
        for sink in star.sinks:
            pin = sink.pin
            if pin is None:
                continue
            consumer_name = pin.gate
            out_pair = over.get(consumer_name) or req0.get(consumer_name)
            if out_pair is None:
                continue
            consumer = network.gate(consumer_name)
            budget_rise, budget_fall = out_pair
            if consumer.cell is not None:
                cell = cell_of(consumer.cell)
                load = (
                    new_stars.get(consumer_name) or stars[consumer_name]
                ).total_cap
                budget_rise = budget_rise - (
                    cell.rise_intrinsic + cell.rise_resistance * load
                )
                budget_fall = budget_fall - (
                    cell.fall_intrinsic + cell.fall_resistance * load
                )
            unateness = _UNATENESS[consumer.gtype]
            if unateness == _NEGATIVE:
                # pin fall feeds out rise and vice versa
                budget_rise, budget_fall = budget_fall, budget_rise
            elif unateness == _BINATE:
                budget_rise = budget_fall = min(budget_rise, budget_fall)
            wire = sink.wire_delay
            if budget_rise - wire < rise:
                rise = budget_rise - wire
            if budget_fall - wire < fall:
                fall = budget_fall - wire
        return (rise, fall)

    def _critical_delay(self) -> float:
        """Worst primary-output arrival, pad wire delay included.

        Also remembers the primary output that sets it, for
        :meth:`_update_critical_delay`.
        """
        delay = 0.0
        self._worst_po = None
        for output in self.network.outputs:
            po_delay = self._po_delay(output)
            if po_delay > delay:
                delay = po_delay
                self._worst_po = output
        return delay

    def _update_critical_delay(self, changed: Iterable[str]) -> float:
        """:meth:`_critical_delay` after the nets *changed* moved.

        *changed* must name every net whose arrival pair or RC model
        changed since the last value.  Unless the worst primary output
        got faster or stopped being an output, no other output can
        have overtaken it from below, so the new value is the max of
        the old one and the changed outputs; otherwise every output is
        rescanned.
        """
        network = self.network
        worst = self._worst_po
        delay = self.max_delay
        outputs = [net for net in changed if network.is_output(net)]
        if worst is not None and (
            not network.is_output(worst)
            or (worst in outputs and self._po_delay(worst) < delay)
        ):
            return self._critical_delay()
        for output in outputs:
            po_delay = self._po_delay(output)
            if po_delay > delay:
                delay = po_delay
                self._worst_po = output
        return delay

    def _po_delay(self, output: str) -> float:
        """Worst arrival at a primary output's pad."""
        rise, fall = self.arrival[output]
        wire = self._po_wire_delay(output)
        return max(rise + wire, fall + wire)

    def _po_wire_delay(self, output: str) -> float:
        star = self.stars.get(output)
        return 0.0 if star is None else _pad_delay(star)

    def _current_target(self) -> float:
        return self.period if self.period is not None else self.max_delay

    def _fold_slacks(self, target: float) -> None:
        """Derive every net's slack from ``_req0`` against *target*."""
        self._target = target
        self.slack = {}
        self._refold_slacks(self._req0)
        self.stats.full_folds += 1

    def _refold_slacks(self, nets: Iterable[str]) -> None:
        """Fold the slacks of *nets* against the current target."""
        target = self._target
        slack = self.slack
        arrival = self.arrival
        req0 = self._req0
        for net in nets:
            req_rise, req_fall = req0[net]
            rise, fall = arrival.get(net, (0.0, 0.0))
            slack[net] = min(req_rise - rise, req_fall - fall) + target

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring cached timing up to date, incrementally when possible."""
        if (
            self._needs_full or not self.is_fresh()
            or self._dirty_stars or self._dirty_gates or self._dead
        ):
            self.apply_and_update()

    def apply_and_update(self) -> None:
        """Propagate committed network changes through cached timing.

        Re-propagates arrivals through the transitive fanout of the
        changed nets only and required times through the affected fanin
        frontier (:meth:`_repropagate`, early termination on
        convergence); star models of untouched nets are reused.  Logic
        levels, the critical delay and, while the target stays put,
        slacks are patched over what changed too.  The result matches a
        fresh :meth:`analyze` exactly.
        """
        if self._needs_full or self._analyzed_version < 0:
            self.analyze()
            return
        network = self.network
        self.stats.incremental_updates += 1
        # 0. forget removed nets
        for net in self._dead:
            self.arrival.pop(net, None)
            self._req0.pop(net, None)
            self.slack.pop(net, None)
            self.stars.pop(net, None)
            self._levels.pop(net, None)
        # 1. place any gates rewiring created (inverters nestle at
        #    their sink, perturbing nothing)
        if self._gates_added:
            self.placement.ensure_covered(network)
        # 2. logic levels: the worklists below pop in level order
        self._relevel(self._rewired)
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
        # 4. re-propagate from the rebuilt nets and the dirty gates, and
        #    write the overlays back
        arrivals, required, visited_fwd, visited_bwd = self._repropagate(
            rebuilt, self._dirty_gates, {}, {}
        )
        self.arrival.update(arrivals)
        self._req0.update(required)
        self.stats.arrival_evals += len(visited_fwd)
        self.stats.required_evals += len(visited_bwd)
        # 5. fold slacks against the (possibly shifted) target: only a
        #    changed arrival or required pair moves a slack unless the
        #    target moved too
        self.max_delay = self._update_critical_delay([*arrivals, *rebuilt])
        target = self._current_target()
        if target == self._target:
            self._refold_slacks([*required, *arrivals])
        else:
            self._fold_slacks(target)
        self._analyzed_version = network.version
        self._clear_dirty()
        self._pricing_memo.clear()

    def _relevel(self, rewired: Iterable[str]) -> None:
        """Restore ``level = 1 + max(fanin levels)`` after rewiring.

        A worklist from the gates whose fanins changed, lowest cached
        level first; a gate pushes its consumers only when its own level
        moved.  A DAG's levels are the one fixed point of that equation,
        so the result equals a full level pass exactly — the sort keys
        of :meth:`_sink_gates` and the worklists rely on it.  A gate
        without a level yet (just added) is itself a seed, so reading it
        as 0 meanwhile is repaired when it pops.
        """
        network = self.network
        levels = self._levels
        queued = set(rewired)
        heap = [(levels.get(name, 0), name) for name in queued]
        heapq.heapify(heap)
        while heap:
            name = heapq.heappop(heap)[1]
            queued.discard(name)
            level = 1 + max(
                (levels.get(f, 0) for f in network.gate(name).fanins),
                default=0,
            )
            if levels.get(name) == level:
                continue
            levels[name] = level
            for pin in network.fanout(name):
                if pin.gate not in queued:
                    queued.add(pin.gate)
                    heapq.heappush(heap, (levels.get(pin.gate, 0), pin.gate))

    def _repropagate(
        self,
        nets: Iterable[str],
        gates: Iterable[str],
        moved: dict[Pin, str],
        new_stars: dict[str, StarNet],
    ) -> tuple[
        dict[str, tuple[float, float]],
        dict[str, tuple[float, float]],
        set[str],
        set[str],
    ]:
        """Levelized worklists over the overlay *moved*/*new_stars*.

        The one definition of a change's neighborhood, shared by the
        committed update and the exact projection: *nets* got a new RC
        model, *gates* a new cell or fanin pin.  Their drivers and the
        nets' sink gates seed the forward walk, in ascending level
        order; they and their drivers' fanins seed the backward walk
        of zero-target required pairs, in descending level order.  A
        net whose pair changes pushes its consumers (forward) or its
        driver's fanins (backward), so each walk stops where values
        converge.  New pairs go into overlay dicts and the cached state
        is never written.  Returns ``(arrivals, required, forward
        visited, backward visited)``.

        A popped ``(level, net)`` entry equal to the previous pop is
        skipped: equal entries pop back to back.  With current levels
        that is one evaluation per net.  When a rebinding leaves the
        cached levels stale, a net re-pushed after a later pop is
        evaluated again, and the walk still reaches the fixed point.
        """
        network = self.network
        changed = [name for name in (*nets, *gates) if name in network]
        seeds = {
            pin.gate
            for net in nets for pin in self._sinks_under(net, new_stars)
        }
        bseeds = set(changed)
        for name in changed:
            if not network.is_input(name):
                seeds.add(name)
                bseeds.update(self._fanins_under(name, moved))
        levels = self._levels
        arrival = self.arrival
        arrivals: dict[str, tuple[float, float]] = {}
        visited_fwd: set[str] = set()
        heap = [(levels.get(name, 0), name) for name in seeds]
        heapq.heapify(heap)
        previous = None
        while heap:
            entry = heapq.heappop(heap)
            if entry == previous:
                continue
            previous = entry
            name = entry[1]
            if name not in network or network.is_input(name):
                continue
            visited_fwd.add(name)
            pair = self._arrival_pair(name, moved, new_stars, arrivals)
            if pair != arrivals.get(name, arrival.get(name)):
                arrivals[name] = pair
                for pin in self._sinks_under(name, new_stars):
                    heapq.heappush(heap, (levels.get(pin.gate, 0), pin.gate))
        req0 = self._req0
        required: dict[str, tuple[float, float]] = {}
        visited_bwd: set[str] = set()
        heap = [(-levels.get(net, 0), net) for net in bseeds]
        heapq.heapify(heap)
        previous = None
        while heap:
            entry = heapq.heappop(heap)
            if entry == previous:
                continue
            previous = entry
            net = entry[1]
            if net not in network:
                continue
            visited_bwd.add(net)
            pair = self._req0_pair(net, new_stars, required)
            if pair != required.get(net, req0.get(net)):
                required[net] = pair
                if not network.is_input(net):
                    for fanin in self._fanins_under(net, moved):
                        heapq.heappush(heap, (-levels.get(fanin, 0), fanin))
        return arrivals, required, visited_fwd, visited_bwd

    def _sinks_under(
        self, net: str, new_stars: dict[str, StarNet]
    ) -> list[Pin]:
        """Sink pins of *net*, from its overlay star when it has one."""
        star = new_stars.get(net)
        if star is None:
            return self.network.fanout(net)
        return [sink.pin for sink in star.sinks if sink.pin is not None]

    def _fanins_under(self, name: str, moved: dict[Pin, str]) -> list[str]:
        """Fanin nets of gate *name* with the rebound pins in *moved*."""
        fanins = self.network.gate(name).fanins
        if not moved:
            return fanins
        return [
            moved.get(Pin(name, index), fanin)
            for index, fanin in enumerate(fanins)
        ]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def worst_arrival(self, net: str) -> float:
        """Scalar (worst of rise/fall) arrival at a net."""
        rise, fall = self.arrival[net]
        return max(rise, fall)

    def critical_path(self) -> list[PathPoint]:
        """Trace the worst path from its primary output back to a PI."""
        self.refresh()
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
        moved, stars_new = self._rebind_overlay(
            ((swap.pin_a, net_b), (swap.pin_b, net_a)),
            pin_cap=None if inv_cell is None else inv_cell.input_cap,
        )
        # net_a first: the frontier's float-summed gains follow its order
        return self._neighborhood_gain(
            (net_a, net_b),
            stars_new,
            swapped=moved,
            inv_cell=inv_cell,
            inv_pins={swap.pin_a, swap.pin_b},
        )

    @projection_only
    def resize_gain(self, gate_name: str, new_cell_name: str) -> Gains:
        """Projected local slack gains of a gate resize."""
        gate = self.network.gate(gate_name)
        old_cell = self._cell_of(gate_name)
        new_cell = self.library.cell(new_cell_name)
        if old_cell is None:
            return Gains(0.0, 0.0, float("inf"))
        # fanin nets see a different pin capacitance; sorted so the
        # frontier's float-summed gains are PYTHONHASHSEED-independent
        fanins = sorted(set(gate.fanins))
        delta_cap = new_cell.input_cap - old_cell.input_cap
        stars_new: dict[str, StarNet] = {}
        for fanin in fanins:
            star = self._ensure_star(fanin)
            new_cap = star.total_cap + delta_cap * gate.fanins.count(fanin)
            stars_new[fanin] = _with_total_cap(star, new_cap)
        return self._neighborhood_gain(
            fanins, stars_new, resized={gate_name: new_cell}
        )

    def _neighborhood_gain(
        self, nets: Iterable[str], stars_new: dict[str, StarNet], **overrides
    ) -> Gains:
        """:meth:`_local_gain` of a move that gives *nets* new stars.

        Drivers are re-timed under their new loads (a primary output
        enters the frontier with its new pad delay), then the sink
        gates and any resized gate are projected in level order with
        results fed forward, so chained effects inside a supergate are
        captured.  *overrides* go to :meth:`_projected_worst_arrival`;
        the frontier, and so the float-summed gains, follow *nets*.
        """
        network = self.network
        context: dict[str, float] = {}
        frontier: dict[str, float] = {}
        for net in nets:
            context[net] = self._driver_arrival_with_load(
                net, stars_new[net].total_cap
            )
            if network.is_output(net):
                frontier[net] = context[net] + self._po_delta(
                    net, stars_new[net]
                )
        resized = overrides.get("resized", ())
        for name in self._sink_gates(stars_new, resized):
            projected = self._projected_worst_arrival(
                name, stars_new, context, **overrides
            )
            frontier[name] = projected
            context[name] = projected
        return self._local_gain(frontier)

    def _sink_gates(
        self, new_stars: dict[str, StarNet], gates: Iterable[str] = ()
    ) -> list[str]:
        """Sink gates of every net in *new_stars*, before and after the
        move, plus *gates*, in ``(level, name)`` order."""
        found = set(gates)
        for net, star in new_stars.items():
            for sink in (*self._ensure_star(net).sinks, *star.sinks):
                if sink.pin is not None:
                    found.add(sink.pin.gate)
        levels = self._levels
        return sorted(found, key=lambda name: (levels.get(name, 0), name))

    def _driver_arrival_with_load(self, net: str, new_load: float) -> float:
        """Scalar arrival at *net* if its driver saw *new_load*."""
        if self.network.is_input(net):
            return 0.0
        cell, _load, old_delay, _terms = self._committed_terms(net)
        if cell is None:
            return self.worst_arrival(net)
        old = self.worst_arrival(net)
        delta = cell.worst_delay(new_load) - old_delay
        return old + delta

    def _committed_terms(self, gate_name: str) -> _CommittedTerms:
        """The committed pricing terms of a gate, memoized until the next
        network change, :meth:`analyze` or :meth:`apply_and_update`.

        ``(cell, load, cell.worst_delay(load), terms)`` with one ``(fanin,
        pin, worst arrival of fanin + pin wire delay)`` term per pin;
        ``terms`` is ``None`` for a constant gate.  Each value is the
        expression :meth:`_projected_worst_arrival` evaluates for an
        overridden pin, read without overrides, so a pin a move leaves
        alone prices bit for bit from its memoized term.
        """
        entry = self._pricing_memo.get(gate_name)
        if entry is not None:
            return entry
        gate = self.network.gate(gate_name)
        cell = self._cell_of(gate_name)
        load = self.stars[gate_name].total_cap if (
            gate_name in self.stars
        ) else 0.0
        delay = cell.worst_delay(load) if cell is not None else 0.0
        terms = None
        if gate.gtype not in CONST_TYPES:
            terms = []
            for index, fanin in enumerate(gate.fanins):
                pin = Pin(gate_name, index)
                wire = self._ensure_star(fanin).sink_delay(pin)
                terms.append((fanin, pin, self.worst_arrival(fanin) + wire))
        entry = (cell, load, delay, terms)
        self._pricing_memo[gate_name] = entry
        return entry

    def _projected_worst_arrival(
        self,
        gate_name: str,
        stars_new: dict[str, StarNet],
        new_arrivals: dict[str, float],
        swapped: dict[Pin, str] | None = None,
        inv_cell: Cell | None = None,
        inv_pins: set[Pin] | None = None,
        resized: dict[str, Cell] | None = None,
    ) -> float:
        """Scalar arrival of a gate with selected nets/pins overridden.

        Starts from the gate's committed terms and recomputes only the
        pins the move overrides: a pin in *swapped* or *inv_pins*, or
        one whose fanin has an entry in *stars_new* or *new_arrivals*.
        """
        _cell, load, d_gate, terms = self._committed_terms(gate_name)
        if terms is None:
            return 0.0
        if resized and gate_name in resized:
            d_gate = resized[gate_name].worst_delay(load)
        if inv_cell is None or not inv_pins:
            inv_pins = ()
        worst = 0.0
        for fanin, pin, pin_arrival in terms:
            rebound = swapped is not None and pin in swapped
            if (
                rebound or pin in inv_pins
                or fanin in stars_new or fanin in new_arrivals
            ):
                if rebound:
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
                if pin in inv_pins:
                    pin_cap = pin_capacitance(self.network, self.library, pin)
                    pin_arrival += inv_cell.worst_delay(pin_cap)
            if pin_arrival > worst:  # max(worst, pin_arrival), unrolled
                worst = pin_arrival
        return worst + d_gate

    def _po_delta(self, net: str, new_star: StarNet) -> float:
        """Change of the PO-pad wire delay when a net's star changes."""
        return _pad_delay(new_star) - _pad_delay(self._ensure_star(net))

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
        network — zero changes reach subscribed engines.

        The default *frontier* mode rebuilds the affected nets' star RC
        models and re-folds arrivals over the two-net neighborhood
        only — cheap, slightly approximate beyond the frontier, right
        for pre-filtering thousands of candidates.

        ``exact=True`` instead runs :meth:`_repropagate`, seeded by the
        same code as :meth:`apply_and_update` and with the rebinding as
        its overlay: arrivals are re-propagated through the whole
        affected fanout and required times through the affected fanin
        frontier, so the projected slacks equal the post-commit re-fold
        to float noise and ``touched`` names every net the walk
        visited.  Committing a
        set of moves whose exact ``touched`` sets are pairwise disjoint
        realizes every projection exactly — the additivity the batched
        wirelength committer relies on.  Exact agreement with the
        applied state additionally requires a pinned target (``period``
        set): with a floating target the re-timed critical path
        re-folds every slack.  Consumers detect residual drift (float
        noise, overlapping neighborhoods) against
        :data:`PROJECTION_DRIFT_TOL` and fall back to re-pricing.
        """
        self.refresh()
        project = (
            self._project_rebind_exact if exact
            else self._project_rebind_frontier
        )
        return [project(tuple(bindings)) for bindings in batch]

    def _rebind_overlay(
        self,
        bindings: tuple[tuple[Pin, str], ...],
        pin_cap: float | None = None,
    ) -> tuple[dict[Pin, str], dict[str, StarNet]]:
        """Overlay of a rebinding: ``(moved, new_stars)``.

        ``moved`` is the effective pin -> new-net map (no-op bindings
        dropped); ``new_stars`` holds the post-move star of every net
        the rebinding touches, built from the cached sinks minus
        departing pins with arriving pins appended in binding order, so
        the sink order (and the float sums derived from it) is
        deterministic.  An arriving pin loads its new net with its own
        capacitance, or with *pin_cap* when given (an inverting swap
        lands an inverter's input there).
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
        new_stars: dict[str, StarNet] = {}
        for net in sorted(affected):
            spec = [
                (sink.pin, sink.location, sink.pin_cap)
                for sink in self._ensure_star(net).sinks
                if sink.pin is None or sink.pin not in moved
            ]
            for pin, new_net in moved.items():
                if new_net == net:
                    spec.append(
                        (
                            pin,
                            self.placement.locations[pin.gate],
                            pin_capacitance(network, self.library, pin)
                            if pin_cap is None else pin_cap,
                        )
                    )
            new_stars[net] = build_star(
                network, self.placement, self.library, net,
                override_sinks=spec,
            )
        return moved, new_stars

    def _project_rebind_frontier(
        self, bindings: tuple[tuple[Pin, str], ...]
    ) -> SlackProjection:
        """Frontier-only projection: drivers + sink gates of the moved nets."""
        network = self.network
        moved, new_stars = self._rebind_overlay(bindings)
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
        gates = self._sink_gates(new_stars)
        for name in gates:
            pair = self._arrival_pair(name, moved, new_stars, context)
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
            current=current,
            projected=projected,
            touched=frozenset(new_stars) | frozenset(gates),
        )

    def _project_rebind_exact(
        self, bindings: tuple[tuple[Pin, str], ...]
    ) -> SlackProjection:
        """Full-cone projection: :meth:`_repropagate` under the rebinding.

        The rebound nets are the changed nets and the moved pins' gates
        the changed gates, so the walk is seeded by the code that seeds
        the committed update.  ``touched`` is the complete visited set —
        the conflict footprint under which batched projections add
        exactly.
        """
        moved, new_stars = self._rebind_overlay(bindings)
        arrivals, required, visited_fwd, visited_bwd = self._repropagate(
            new_stars, [pin.gate for pin in moved], moved, new_stars
        )
        # fold changed slacks against the engine's (pinned) target
        target = self._current_target()
        current: dict[str, float] = {}
        projected: dict[str, float] = {}
        # in walk order, so the folded dicts are ordered alike under
        # every hash seed
        required_only = [net for net in required if net not in arrivals]
        for net in (*arrivals, *required_only):
            req = required.get(net, self._req0.get(net))
            if req is None:
                continue
            arrival = arrivals.get(net, self.arrival.get(net, (0.0, 0.0)))
            projected[net] = min(
                req[0] - arrival[0], req[1] - arrival[1]
            ) + target
            slack = self.slack.get(net)
            if slack is not None:
                current[net] = slack
        return SlackProjection(
            current=current,
            projected=projected,
            touched=frozenset(new_stars) | visited_fwd | visited_bwd,
        )


def _with_total_cap(star: StarNet, total_cap: float) -> StarNet:
    """Copy of a star net with an adjusted total load."""
    return StarNet(
        net=star.net,
        source=star.source,
        center=star.center,
        total_cap=max(total_cap, 0.0),
        sinks=star.sinks,
    )


def _pad_delay(star: StarNet) -> float:
    """Wire delay to a star's first primary-output pad (0 without one)."""
    for sink in star.sinks:
        if sink.pin is None:
            return sink.wire_delay
    return 0.0
