"""Incremental half-perimeter wirelength engine.

The Section-5 wirelength flow prices thousands of candidate swaps per
pass.  The interpreted path re-walks every net terminal through
``net_hpwl`` *and* mutates the live network twice per candidate (trial
apply + revert), which bumps the version counter and storms every
subscribed incremental engine with changes.  This module removes both
costs: the placement and the net -> terminal structure are flattened
**once** into per-net bounding-box extrema, and a candidate swap's
HPWL delta is computed *arithmetically* from those extrema — zero
network mutation, zero change traffic, O(1) per candidate.

The trick is the classic placer second-extrema form: for each net and
axis keep the two extreme coordinates plus the multiplicity of the
extreme.  Removing one terminal and adding another then yields the
exact new bounding box:

* effective max after removal = ``max2`` when the removed coordinate
  *is* the unique maximum, else ``max1``;
* new max = ``max(effective max, added coordinate)`` (min symmetric).

Every value is a *selection* of an input coordinate — no accumulation
— so deltas are bit-identical to the interpreted ``net_hpwl``
difference.

Cells move through the same arithmetic: a net's driver and sink gates
are movable terminals, only pads are fixed.  ``cell_swap_delta`` prices
exchanging two cells' locations (O(1) per net holding one terminal of
the pair) and ``swap_cells`` commits it.  The annealer
(:func:`repro.place.placer._anneal`) is the only caller that moves
cells; after placement they stay put, the paper's premise.

Freshness follows the change contract (see ``docs/architecture.md``):
the engine subscribes to the network; rebound pins (``swap_fanins`` /
``replace_fanin``) are folded in incrementally (the two affected nets'
extrema are rebuilt from their terminal lists), structural mutations
mark the whole flattening stale for lazy rebuild.  The engine keeps no
copy of the net -> sink structure: a net's sinks are read from the
network's own fanout index (:meth:`Network.fanout`), which every
mutator updates before it hands listeners the change.  Terminal order
cannot change a value, because every extremum and every box is a
selection.  Cell moves made
behind the engine's back (anything but
:meth:`~WirelengthEngine.swap_cells`) need an explicit
:meth:`~WirelengthEngine.rebuild`.
"""

from __future__ import annotations

from collections import ChainMap

from ..contracts import projection_only
from ..network.netlist import Change, Network, Pin
from .placement import Placement, bbox_hpwl

_INF = float("inf")

class WirelengthEngine:
    """Incremental per-net HPWL with arithmetic candidate pricing."""

    def __init__(self, network: Network, placement: Placement) -> None:
        self.network = network
        self.placement = placement
        #: work counters for benchmarks and tests
        self.rebuilds = 0
        self.candidates_scored = 0
        self._needs_rebuild = True
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        #: per net: the driving gate (``None`` for an input-driven net)
        self._driver: list[str | None] = []
        #: per net: the pads on it (input pad first, then PO pads)
        self._fixed: list[tuple[tuple[float, float], ...]] = []
        self._loc: dict[str, tuple[float, float]] = {}
        self._hpwl: list[float] = []
        # per-net, per-axis second-extrema rows:
        # (min1, min2, min_count, max1, max2, max_count) for x then y
        self._ext: list[tuple] = []
        network.subscribe(self)

    # ------------------------------------------------------------------
    # network changes
    # ------------------------------------------------------------------
    def notify_network_event(self, change: Change) -> None:
        if change.whole or change.removed or change.added or change.rewritten:
            # gates or IO bindings appear/disappear (new terminals, new
            # pad points), a gate's fanin list was rewritten or the
            # extent is unknown: the flattening itself is stale
            self._needs_rebuild = True
        if self._needs_rebuild:
            return
        for pin, old, new in change.rebound:
            self._move_pin(pin, old, new)
        # change.recelled needs nothing: a cell rebind keeps every
        # terminal where it was

    def _move_pin(self, pin: Pin, old_net: str, new_net: str) -> None:
        if old_net == new_net:
            return
        old_id = self._ids.get(old_net)
        new_id = self._ids.get(new_net)
        if old_id is None or new_id is None or pin.gate not in self._loc:
            self._needs_rebuild = True
            return
        self._recompute_net(old_id)
        self._recompute_net(new_id)

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Rebuild the flattening if a structural mutation staled it."""
        if self._needs_rebuild:
            self.rebuild()

    def rebuild(self) -> None:
        """Flatten placement + net structure from scratch."""
        network = self.network
        placement = self.placement
        self._loc = dict(placement.locations)
        inputs = network.inputs
        names = list(network.nets())  # primary inputs, then gates
        self._names = names
        ids = self._ids = {net: index for index, net in enumerate(names)}
        self._driver = [None] * len(inputs) + names[len(inputs):]
        # pads per net: the input pad first, then PO pads in slot order
        fixed = self._fixed = [
            (placement.input_pads[net],) for net in inputs
        ] + [()] * (len(names) - len(inputs))
        for slot, net in enumerate(network.outputs):
            fixed[ids[net]] += (placement.output_pads[slot],)
        self._needs_rebuild = False
        self._ext = [_extrema_row(self._points(index))
                     for index in range(len(names))]
        self._hpwl = [(row[3] - row[0]) + (row[9] - row[6])
                      for row in self._ext]
        self.rebuilds += 1

    def _points(
        self, index: int, loc=None, moved=()
    ) -> list[tuple[float, float]]:
        """Terminal coordinates of one net: pads, driver, then sinks.

        Sinks come from the network's own fanout index, which its
        mutators update before listeners run.  *loc* overrides the
        cached cell locations; sink pins in *moved* are left out.
        """
        if loc is None:
            loc = self._loc
        points = list(self._fixed[index])
        driver = self._driver[index]
        if driver is not None:
            points.append(loc[driver])
        for pin in self.network.fanout(self._names[index]):
            if pin not in moved:
                points.append(loc[pin.gate])
        return points

    def _recompute_net(self, index: int) -> None:
        """Exact extrema + HPWL of one net from its terminal list."""
        row = _extrema_row(self._points(index))
        self._ext[index] = row
        self._hpwl[index] = (row[3] - row[0]) + (row[9] - row[6])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def total_hpwl(self) -> float:
        """Sum of cached per-net HPWLs (== a fresh ``total_hpwl``)."""
        self.refresh()
        return float(sum(self._hpwl))

    # ------------------------------------------------------------------
    # cell moves (the annealer)
    # ------------------------------------------------------------------
    def _cell_nets(self, a: str, b: str) -> list[tuple[int, int, int]]:
        """(net index, terminals of *a*, terminals of *b*) for every net
        either cell is on, in net-name order."""
        gates = self.network.gate
        nets_a = [a, *gates(a).fanins]
        nets_b = [b, *gates(b).fanins]
        ids = self._ids
        return [
            (ids[net], nets_a.count(net), nets_b.count(net))
            for net in sorted(set(nets_a) | set(nets_b))
        ]

    @projection_only
    def cell_swap_delta(self, a: str, b: str) -> float:
        """HPWL change of exchanging two cells' locations: the affected
        nets' HPWLs summed after minus before, both in net-name order.

        A net holding one terminal of the pair is priced from its
        extrema row; any other is re-boxed from its terminal list.
        """
        self.refresh()
        loc = self._loc
        loc_a, loc_b = loc[a], loc[b]
        ax, ay = loc_a
        bx, by = loc_b
        hpwl = self._hpwl
        before = []
        after = []
        for index, on_a, on_b in self._cell_nets(a, b):
            before.append(hpwl[index])
            if on_a == 1 and on_b == 0:
                after.append(self._after(index, ax, ay, bx, by))
            elif on_a == 0 and on_b == 1:
                after.append(self._after(index, bx, by, ax, ay))
            else:
                swapped = ChainMap({a: loc_b, b: loc_a}, loc)
                after.append(bbox_hpwl(self._points(index, swapped)))
        return sum(after) - sum(before)

    def swap_cells(self, a: str, b: str) -> None:
        """Commit the exchange of two cells' locations: the placement,
        the cached locations and the affected nets' extrema rows."""
        self.refresh()
        loc = self._loc
        loc[a], loc[b] = loc[b], loc[a]
        locations = self.placement.locations
        locations[a], locations[b] = loc[a], loc[b]
        for index, _, _ in self._cell_nets(a, b):
            self._recompute_net(index)

    # ------------------------------------------------------------------
    # candidate pricing (no mutation, no changes)
    # ------------------------------------------------------------------
    def _after(
        self, index: int,
        removed_x: float, removed_y: float,
        added_x: float, added_y: float,
    ) -> float:
        """HPWL of a net after removing one terminal and adding another."""
        row = self._ext[index]
        width = _axis_after(
            row[0], row[1], row[2], row[3], row[4], row[5],
            removed_x, added_x,
        )
        height = _axis_after(
            row[6], row[7], row[8], row[9], row[10], row[11],
            removed_y, added_y,
        )
        return width + height

    @projection_only
    def score_swaps(self, pairs: list[tuple[Pin, Pin]]) -> list[float]:
        """HPWL change (negative = shorter) of exchanging each pair's
        pin drivers, priced arithmetically against the cached extrema;
        same-net pairs score exactly 0.0."""
        self.refresh()
        self.candidates_scored += len(pairs)
        return [self._scalar_delta(pin_a, pin_b) for pin_a, pin_b in pairs]

    def _scalar_delta(self, pin_a: Pin, pin_b: Pin) -> float:
        network = self.network
        net_a = network.fanin_net(pin_a)
        net_b = network.fanin_net(pin_b)
        if net_a == net_b:
            return 0.0
        index_a = self._ids[net_a]
        index_b = self._ids[net_b]
        ax, ay = self._loc[pin_a.gate]
        bx, by = self._loc[pin_b.gate]
        return (
            self._after(index_a, ax, ay, bx, by)
            + self._after(index_b, bx, by, ax, ay)
        ) - (self._hpwl[index_a] + self._hpwl[index_b])

    @projection_only
    def rebind_delta(self, bindings: list[tuple[Pin, str]]) -> float:
        """HPWL change of a batched pin-rebinding (cross-swap pricing).

        *bindings* maps pins to the nets they would be reconnected to.
        Affected nets' boxes are recomputed over the edited terminal
        multisets — still footprint-only: no mutation, no changes.
        """
        self.refresh()
        network = self.network
        loc = self._loc
        moved: dict[Pin, str] = {}
        affected: set[int] = set()
        for pin, new_net in bindings:
            old_net = network.fanin_net(pin)
            if old_net == new_net:
                continue
            moved[pin] = new_net
            affected.add(self._ids[old_net])
            affected.add(self._ids[new_net])
        self.candidates_scored += 1
        delta = 0.0
        for index in sorted(affected):
            net = self._names[index]
            points = self._points(index, moved=moved)
            for pin, new_net in moved.items():
                if new_net == net:
                    points.append(loc[pin.gate])
            delta += bbox_hpwl(points) - self._hpwl[index]
        return delta

    def footprint_nets(self, pins: list[Pin]) -> set[str]:
        """Current driving nets of the given pins (conflict footprints)."""
        network = self.network
        return {network.fanin_net(pin) for pin in pins}


def _extrema_row(points: list[tuple[float, float]]) -> tuple:
    """(min1, min2, cnt_min, max1, max2, cnt_max) for x then y.

    ``min2``/``max2`` are the extremum left after removing one copy of
    ``min1``/``max1``: ``min1`` itself when it is duplicated, ``+-inf``
    on a one-terminal net.  One pass per axis keeps each extremum, its
    count (an ``int``) and the strict runner-up; every value is a
    selection.
    """
    row: tuple = ()
    for axis in (0, 1):
        low = low2 = _INF
        high = high2 = -_INF
        cnt_low = cnt_high = 0
        for point in points:
            value = point[axis]
            if value < low:
                low2, low, cnt_low = low, value, 1
            elif value == low:
                cnt_low += 1
            elif value < low2:
                low2 = value
            if value > high:
                high2, high, cnt_high = high, value, 1
            elif value == high:
                cnt_high += 1
            elif value > high2:
                high2 = value
        row += (
            low, low if cnt_low > 1 else low2, cnt_low,
            high, high if cnt_high > 1 else high2, cnt_high,
        )
    return row


def _axis_after(
    min1: float, min2: float, cnt_min: int,
    max1: float, max2: float, cnt_max: int,
    removed: float, added: float,
) -> float:
    """Exact axis extent after removing one terminal and adding another."""
    effective_max = max2 if (removed == max1 and cnt_max == 1) else max1
    effective_min = min2 if (removed == min1 and cnt_min == 1) else min1
    new_max = added if added > effective_max else effective_max
    new_min = added if added < effective_min else effective_min
    return new_max - new_min

