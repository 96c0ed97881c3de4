"""Vectorized incremental half-perimeter wirelength engine.

The Section-5 wirelength flow prices thousands of candidate swaps per
pass.  The interpreted path re-walks every net terminal through
``net_hpwl`` *and* mutates the live network twice per candidate (trial
apply + revert), which bumps the version counter and storms every
subscribed incremental engine with events.  This module removes both
costs: the placement and the net -> terminal structure are flattened
**once** into per-net bounding-box extrema, and a candidate swap's
HPWL delta is computed *arithmetically* from those extrema — zero
network mutation, zero event traffic, O(1) per candidate.

The trick is the classic placer second-extrema form: for each net and
axis keep the two extreme coordinates plus the multiplicity of the
extreme.  Removing one terminal and adding another then yields the
exact new bounding box:

* effective max after removal = ``max2`` when the removed coordinate
  *is* the unique maximum, else ``max1``;
* new max = ``max(effective max, added coordinate)`` (min symmetric).

Every value is a *selection* of an input coordinate — no accumulation
— so deltas are bit-identical to the interpreted ``net_hpwl``
difference.  Batches of candidates are scored as single vectorized
numpy expressions over gathered extrema rows (a pure-Python fallback
keeps the engine importable without numpy).

Freshness follows the mutation-event contract (see
``docs/architecture.md``): the engine subscribes to the network; pin
rewires (``swap_fanins`` / ``replace_fanin``) are folded in
incrementally (the two affected nets' extrema are rebuilt from their
terminal lists), structural mutations mark the whole flattening stale
for lazy rebuild.  The placement is assumed frozen — the paper's
premise — and :meth:`rebuild` is the escape hatch for callers that
move cells anyway.
"""

from __future__ import annotations

from ..contracts import projection_only
from ..network import events
from ..network.netlist import Network, Pin
from ..network.soa import get_soa, ragged_indices
from .placement import Placement

try:  # numpy accelerates batch scoring; the scalar path needs nothing
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

#: Opt-in to the determinism lint (rule D of ``python -m tools.lint``):
#: this module's float accumulations and tie-breaks must never follow
#: set-iteration (= PYTHONHASHSEED) order.
__deterministic__ = True

_INCREMENTAL_EVENTS = frozenset({events.SWAP_FANINS, events.REPLACE_FANIN})
#: Mutations with no geometric effect: cell/type rebinds keep every
#: terminal where it was.
_GEOMETRY_NEUTRAL_EVENTS = frozenset({events.SET_CELL, events.SET_GATE_TYPE})
#: Everything else stales the flattening itself: gates or IO bindings
#: appear/disappear (new terminals, new pad points) or the mutation is
#: a restore/untracked change whose extent is unknown to this engine.
_REBUILD_EVENTS = frozenset({
    events.ADD_GATE,
    events.REMOVE_GATE,
    events.SET_FANINS,
    events.ADD_INPUT,
    events.ADD_OUTPUT,
    events.REPLACE_OUTPUT,
    events.RESTORE,
    events.UNKNOWN,
})


class WirelengthEngine:
    """Incremental per-net HPWL with arithmetic candidate pricing."""

    def __init__(self, network: Network, placement: Placement) -> None:
        self.network = network
        self.placement = placement
        #: work counters for benchmarks and tests
        self.rebuilds = 0
        self.net_updates = 0
        self.batches_scored = 0
        self.candidates_scored = 0
        self._needs_rebuild = True
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._sink_pins: list[set[Pin]] = []
        self._fixed: list[list[tuple[float, float]]] = []
        self._loc: dict[str, tuple[float, float]] = {}
        self._hpwl: list[float] = []
        # per-net, per-axis second-extrema rows:
        # [min1, min2, min_count, max1, max2, max_count] for x then y
        self._ext: list[list[float]] = []
        # lazily materialized numpy mirrors of _ext/_hpwl, kept in sync
        # row-wise by _recompute_net once built
        self._ext_np = None
        self._hpwl_np = None
        network.subscribe(self)

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def notify_network_event(self, kind: str, data: dict) -> None:
        if self._needs_rebuild or kind in _GEOMETRY_NEUTRAL_EVENTS:
            return
        if kind == events.SWAP_FANINS:
            self._move_pin(data["pin_a"], data["net_a"], data["net_b"])
            self._move_pin(data["pin_b"], data["net_b"], data["net_a"])
        elif kind == events.REPLACE_FANIN:
            self._move_pin(data["pin"], data["old"], data["new"])
        elif kind in _REBUILD_EVENTS:
            # structural change (gates added/removed, IO rebinds,
            # restores, untracked): the flattening itself is stale
            self._needs_rebuild = True
        else:
            # unregistered/future kinds: treat as untracked
            self._needs_rebuild = True

    def _move_pin(self, pin: Pin, old_net: str, new_net: str) -> None:
        if old_net == new_net:
            return
        old_id = self._ids.get(old_net)
        new_id = self._ids.get(new_net)
        if old_id is None or new_id is None or pin.gate not in self._loc:
            self._needs_rebuild = True
            return
        self._sink_pins[old_id].discard(pin)
        self._sink_pins[new_id].add(pin)
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
        names = list(network.nets())
        self._names = names
        self._ids = {net: index for index, net in enumerate(names)}
        self._sink_pins = [set() for _ in names]
        self._fixed = [[] for _ in names]
        pads = placement.output_pads
        for net in names:
            index = self._ids[net]
            self._fixed[index].append(
                placement.source_location(network, net)
            )
            self._fixed[index].extend(
                pads[slot] for slot in network.output_slots(net)
            )
        for gate in network.gates():
            for pin_index, net in enumerate(gate.fanins):
                self._sink_pins[self._ids[net]].add(
                    Pin(gate.name, pin_index)
                )
        self._hpwl = [0.0] * len(names)
        self._ext = [None] * len(names)  # type: ignore[list-item]
        self._ext_np = None
        self._hpwl_np = None
        self._needs_rebuild = False
        if not self._rebuild_vector():
            for index in range(len(names)):
                self._recompute_net(index)
        self.rebuilds += 1

    def _rebuild_vector(self) -> bool:
        """All nets' extrema rows + HPWL in one segmented numpy pass.

        Sink terminals are gathered through the shared SoA kernel's
        consumer CSR and placement table instead of walking Pin sets
        per net; the second-extrema rows come from segmented
        min/max/count reductions — selections and equality counts only,
        so every row and HPWL is bit-identical to the per-net
        :meth:`_recompute_net` scalar walk.  Returns ``False`` (caller
        falls back to that walk) when numpy or a fully mapped kernel
        view is unavailable.
        """
        if _np is None:
            return False
        kernel = get_soa(self.network)
        compiled = kernel.sync()
        arrays = kernel.arrays()
        if arrays is None:
            return False
        table = kernel.location_table(self.placement)
        if table is None:
            return False
        names = self._names
        net_index = compiled.net_index
        kernel_ids = _np.empty(len(names), dtype=_np.int64)
        for index, net in enumerate(names):
            kernel_id = net_index.get(net)
            if kernel_id is None:
                return False
            kernel_ids[index] = kernel_id
        # terminal points per net: the fixed points (driver + pads)
        # first, then every sink pin's gate location from the CSR
        fixed_counts = _np.array(
            [len(points) for points in self._fixed], dtype=_np.int64
        )
        sink_counts = arrays["consumer_counts"][kernel_ids]
        edges, _ = ragged_indices(
            arrays["consumer_offset"][kernel_ids], sink_counts
        )
        sink_points = table[arrays["consumer_gate"][edges]]
        counts = fixed_counts + sink_counts
        total = int(counts.sum())
        points = _np.empty((total, 2))
        seg_starts = _np.concatenate(
            ([0], _np.cumsum(counts)[:-1])
        ).astype(_np.int64)
        fixed_slots, _ = ragged_indices(seg_starts, fixed_counts)
        flat_fixed = [
            point for net_points in self._fixed for point in net_points
        ]
        points[fixed_slots] = _np.asarray(flat_fixed).reshape(-1, 2)
        sink_slots, _ = ragged_indices(
            seg_starts + fixed_counts, sink_counts
        )
        points[sink_slots] = sink_points
        rows = _np.empty((len(names), 12))
        for axis in (0, 1):
            values = points[:, axis]
            min1 = _np.minimum.reduceat(values, seg_starts)
            max1 = _np.maximum.reduceat(values, seg_starts)
            min1_rep = _np.repeat(min1, counts)
            max1_rep = _np.repeat(max1, counts)
            cnt_min = _np.add.reduceat(
                (values == min1_rep).astype(_np.float64), seg_starts
            )
            cnt_max = _np.add.reduceat(
                (values == max1_rep).astype(_np.float64), seg_starts
            )
            INF = float("inf")
            strict_min2 = _np.minimum.reduceat(
                _np.where(values == min1_rep, INF, values), seg_starts
            )
            strict_max2 = _np.maximum.reduceat(
                _np.where(values == max1_rep, -INF, values), seg_starts
            )
            # one unique extremum and >= 2 points: the strict second;
            # otherwise (duplicated extremum, single point) the extremum
            min2 = _np.where(
                (cnt_min == 1.0) & _np.isfinite(strict_min2),
                strict_min2, min1,
            )
            max2 = _np.where(
                (cnt_max == 1.0) & _np.isfinite(strict_max2),
                strict_max2, max1,
            )
            base = axis * 6
            rows[:, base + 0] = min1
            rows[:, base + 1] = min2
            rows[:, base + 2] = cnt_min
            rows[:, base + 3] = max1
            rows[:, base + 4] = max2
            rows[:, base + 5] = cnt_max
        hpwl = _np.where(
            counts >= 2,
            (rows[:, 3] - rows[:, 0]) + (rows[:, 9] - rows[:, 6]),
            0.0,
        )
        self._ext = rows.tolist()
        self._hpwl = hpwl.tolist()
        self._ext_np = rows
        self._hpwl_np = hpwl
        self.net_updates += len(names)
        return True

    def _recompute_net(self, index: int) -> None:
        """Exact extrema + HPWL of one net from its terminal list."""
        points = list(self._fixed[index])
        loc = self._loc
        for pin in self._sink_pins[index]:
            points.append(loc[pin.gate])
        row = _extrema_row(points)
        self._ext[index] = row
        if len(points) < 2:
            self._hpwl[index] = 0.0
        else:
            self._hpwl[index] = (row[3] - row[0]) + (row[9] - row[6])
        if self._ext_np is not None:
            self._ext_np[index] = row
            self._hpwl_np[index] = self._hpwl[index]
        self.net_updates += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def total_hpwl(self) -> float:
        """Sum of cached per-net HPWLs (== a fresh ``total_hpwl``)."""
        self.refresh()
        return float(sum(self._hpwl))

    def net_hpwl(self, net: str) -> float:
        """Cached HPWL of one net."""
        self.refresh()
        return self._hpwl[self._ids[net]]

    # ------------------------------------------------------------------
    # candidate pricing (no mutation, no events)
    # ------------------------------------------------------------------
    @projection_only
    def swap_delta(self, pin_a: Pin, pin_b: Pin) -> float:
        """HPWL change of exchanging the two pins' drivers (negative =
        shorter), priced arithmetically against the cached extrema."""
        self.refresh()
        network = self.network
        net_a = network.fanin_net(pin_a)
        net_b = network.fanin_net(pin_b)
        if net_a == net_b:
            return 0.0
        index_a = self._ids[net_a]
        index_b = self._ids[net_b]
        ax, ay = self._loc[pin_a.gate]
        bx, by = self._loc[pin_b.gate]
        after_a = self._after(index_a, ax, ay, bx, by)
        after_b = self._after(index_b, bx, by, ax, ay)
        self.candidates_scored += 1
        return (after_a + after_b) - (
            self._hpwl[index_a] + self._hpwl[index_b]
        )

    def _after(
        self, index: int,
        removed_x: float, removed_y: float,
        added_x: float, added_y: float,
    ) -> float:
        """HPWL of a net after removing one sink and adding another."""
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
        """Deltas for a batch of candidate pin swaps, one vectorized pass.

        Same-net pairs score exactly 0.0.  Results are bit-identical to
        calling :meth:`swap_delta` per pair (selection arithmetic only).
        """
        self.refresh()
        self.batches_scored += 1
        self.candidates_scored += len(pairs)
        if _np is None or len(pairs) < 2:
            return [self._scalar_delta(pin_a, pin_b) for pin_a, pin_b in pairs]
        network = self.network
        ids = self._ids
        loc = self._loc
        count = len(pairs)
        index_a = _np.empty(count, dtype=_np.int64)
        index_b = _np.empty(count, dtype=_np.int64)
        ax = _np.empty(count)
        ay = _np.empty(count)
        bx = _np.empty(count)
        by = _np.empty(count)
        for k, (pin_a, pin_b) in enumerate(pairs):
            index_a[k] = ids[network.fanin_net(pin_a)]
            index_b[k] = ids[network.fanin_net(pin_b)]
            ax[k], ay[k] = loc[pin_a.gate]
            bx[k], by[k] = loc[pin_b.gate]
        if self._ext_np is None:
            self._ext_np = _np.asarray(self._ext)
            self._hpwl_np = _np.asarray(self._hpwl)
        ext = self._ext_np
        hpwl = self._hpwl_np
        rows_a = ext[index_a]
        rows_b = ext[index_b]
        after_a = _after_rows(rows_a, ax, ay, bx, by)
        after_b = _after_rows(rows_b, bx, by, ax, ay)
        delta = (after_a + after_b) - (hpwl[index_a] + hpwl[index_b])
        delta[index_a == index_b] = 0.0
        return [float(value) for value in delta]

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
        multisets — still footprint-only: no mutation, no events.
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
            points = list(self._fixed[index])
            for pin in self._sink_pins[index]:
                if pin not in moved:
                    points.append(loc[pin.gate])
            for pin, new_net in moved.items():
                if new_net == net:
                    points.append(loc[pin.gate])
            if len(points) < 2:
                new_hpwl = 0.0
            else:
                xs = [point[0] for point in points]
                ys = [point[1] for point in points]
                new_hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
            delta += new_hpwl - self._hpwl[index]
        return delta

    def footprint_nets(self, pins: list[Pin]) -> set[str]:
        """Current driving nets of the given pins (conflict footprints)."""
        network = self.network
        return {network.fanin_net(pin) for pin in pins}


def _extrema_row(points: list[tuple[float, float]]) -> list[float]:
    """[min1, min2, cnt_min, max1, max2, cnt_max] for x then y."""
    row: list[float] = []
    for axis in (0, 1):
        min1 = min2 = float("inf")
        max1 = max2 = float("-inf")
        cnt_min = cnt_max = 0
        for point in points:
            value = point[axis]
            if value < min1:
                min2 = min1
                min1 = value
                cnt_min = 1
            elif value == min1:
                cnt_min += 1
                min2 = value
            elif value < min2:
                min2 = value
            if value > max1:
                max2 = max1
                max1 = value
                cnt_max = 1
            elif value == max1:
                cnt_max += 1
                max2 = value
            elif value > max2:
                max2 = value
        if not points:
            min1 = min2 = max1 = max2 = 0.0
        elif len(points) == 1:
            min2 = min1
            max2 = max1
        row.extend([min1, min2, float(cnt_min), max1, max2, float(cnt_max)])
    return row


def _axis_after(
    min1: float, min2: float, cnt_min: float,
    max1: float, max2: float, cnt_max: float,
    removed: float, added: float,
) -> float:
    """Exact axis extent after removing one terminal and adding another."""
    effective_max = max2 if (removed == max1 and cnt_max == 1) else max1
    effective_min = min2 if (removed == min1 and cnt_min == 1) else min1
    new_max = added if added > effective_max else effective_max
    new_min = added if added < effective_min else effective_min
    return new_max - new_min


def _after_rows(rows, removed_x, removed_y, added_x, added_y):
    """Vectorized :func:`_axis_after` over gathered extrema rows."""
    effective_max_x = _np.where(
        (removed_x == rows[:, 3]) & (rows[:, 5] == 1.0),
        rows[:, 4], rows[:, 3],
    )
    effective_min_x = _np.where(
        (removed_x == rows[:, 0]) & (rows[:, 2] == 1.0),
        rows[:, 1], rows[:, 0],
    )
    effective_max_y = _np.where(
        (removed_y == rows[:, 9]) & (rows[:, 11] == 1.0),
        rows[:, 10], rows[:, 9],
    )
    effective_min_y = _np.where(
        (removed_y == rows[:, 6]) & (rows[:, 8] == 1.0),
        rows[:, 7], rows[:, 6],
    )
    width = _np.maximum(effective_max_x, added_x) - _np.minimum(
        effective_min_x, added_x
    )
    height = _np.maximum(effective_max_y, added_y) - _np.minimum(
        effective_min_y, added_y
    )
    return width + height
