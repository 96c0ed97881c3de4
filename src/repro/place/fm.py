"""Fiduccia-Mattheyses min-cut bipartitioning.

The placement substrate uses recursive FM bisection, the classic
workhorse behind the timing-driven placers of the paper's era.  This is
a faithful implementation with gain buckets, single-cell moves, balance
constraints and multi-pass refinement; it operates on a hypergraph
given as ``nets: list[list[int]]`` over ``num_cells`` vertices with
per-cell weights.

As in Fiduccia & Mattheyses (DAC 1982), :class:`_GainBuckets` keeps one
bucket array *per side*: an unlocked cell never changes side within a
pass, so when the balance bound blocks every move out of one side that
whole side is skipped in O(1) instead of being popped, rejected and
re-pushed on every pop.  One pass costs O(pins · log cells): every gain
update is one heap push, every stale entry is discarded once, and the
move gain is the popped bucket level.  Disallowed cells are rescanned
only inside a side that is open but holds cells too heavy to move —
the area-weighted placer path; unit-weight carves never rescan.

Deliberately kept quirk: the search cap ``best`` is shared by both
sides and drops to each popped level.  A higher-gain cell that was
blocked when ``best`` passed below it stays ignored after its side
unblocks, until an ``update`` raises ``best`` again.  Textbook FM would
pick it up; fixing this changes every placement and carve, so it is
left for a separate, fingerprint-changing change.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


@dataclass
class FmResult:
    """Outcome of a bipartitioning run."""

    side: list[int]          # 0 or 1 per cell
    cut: int                 # number of cut nets
    passes: int              # refinement passes executed


class _GainBuckets:
    """Per-side bucket arrays keyed by gain (the FM structure).

    Buckets are lazy min-heaps of cell indices: ``gain`` is the source
    of truth (``None`` once a cell is popped), and an entry whose cell's
    gain no longer matches its bucket's level is stale and discarded
    when it reaches the top.  ``pop_best`` returns the *smallest*
    allowed cell index at the highest level at or below the shared
    ``best`` cap — the deterministic (hash-seed-independent) tie-break
    of a full ``min()`` scan over both sides.  ``top[s]`` is an upper
    bound on side *s*'s live levels, so empty levels are not walked.
    """

    def __init__(
        self,
        max_gain: int,
        side: list[int],
        gains: list[int],
        weights: list[float],
        max_side: float,
    ) -> None:
        self.max_gain = max_gain
        # the pass's live side list: only popped (locked) cells change
        # side in it, so a bucketed cell's side is fixed for the pass
        self.side = side
        self.weights = weights
        self.max_side = max_side
        self.gain: list[int | None] = list(gains)
        self.buckets: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in range(2 * max_gain + 1)],
            [[] for _ in range(2 * max_gain + 1)],
        )
        self.top = [-max_gain - 1, -max_gain - 1]
        # lightest cell per side at pass start: a lower bound on every
        # unlocked cell of that side for the rest of the pass
        self.min_weight = [float("inf"), float("inf")]
        for cell, gain in enumerate(gains):
            cell_side = side[cell]
            # ascending cell order keeps every bucket a sorted heap
            self.buckets[cell_side][gain + max_gain].append(cell)
            if gain > self.top[cell_side]:
                self.top[cell_side] = gain
            if weights[cell] < self.min_weight[cell_side]:
                self.min_weight[cell_side] = weights[cell]
        self.best = max(self.top)

    def update(self, cell: int, delta: int) -> None:
        """Shift an unlocked (still bucketed) cell's gain by *delta*."""
        gain = self.gain[cell] + delta
        self.gain[cell] = gain
        cell_side = self.side[cell]
        heapq.heappush(self.buckets[cell_side][gain + self.max_gain], cell)
        if gain > self.best:
            self.best = gain
        if gain > self.top[cell_side]:
            self.top[cell_side] = gain

    def pop_best(self, side_weight: list[float]) -> int | None:
        """Highest-gain movable cell; removes it and returns it.

        A cell may move when its target side stays within ``max_side``.
        ``best`` becomes the popped level.
        """
        max_gain, max_side, top = self.max_gain, self.max_side, self.top
        open0 = side_weight[1] + self.min_weight[0] <= max_side
        open1 = side_weight[0] + self.min_weight[1] <= max_side
        if open0 and open1:
            open_sides, highest = (0, 1), max(top)
        elif open0 or open1:
            open_sides = (0,) if open0 else (1,)
            highest = top[open_sides[0]]
        else:
            return None
        level = min(self.best, max_gain, highest)
        gain, weights = self.gain, self.weights
        while level >= -max_gain:
            found = None
            for cell_side in open_sides:
                if top[cell_side] < level:
                    continue
                heap = self.buckets[cell_side][level + max_gain]
                while heap and gain[heap[0]] != level:
                    heapq.heappop(heap)  # stale entry
                if not heap:
                    if top[cell_side] == level:
                        top[cell_side] = level - 1
                    continue
                cell = heap[0]
                target_weight = side_weight[1 - cell_side]
                if target_weight + weights[cell] > max_side:
                    cell = self._first_allowed(heap, level, target_weight)
                if cell is not None and (found is None or cell < found):
                    found = cell
            if found is not None:
                # its bucket entry goes stale and is discarded later
                gain[found] = None
                self.best = level
                return found
            level -= 1
        return None

    def _first_allowed(
        self, heap: list[int], level: int, target_weight: float
    ) -> int | None:
        """Smallest live cell of *heap* that fits the target side.

        The heap is left holding the same live entries.
        """
        gain, weights, max_side = self.gain, self.weights, self.max_side
        skipped: list[int] = []
        found = None
        while heap:
            cell = heapq.heappop(heap)
            if gain[cell] != level:
                continue  # stale entry
            skipped.append(cell)
            if target_weight + weights[cell] <= max_side:
                found = cell
                break
        for cell in skipped:
            heapq.heappush(heap, cell)
        return found


def bipartition(
    num_cells: int,
    nets: list[list[int]],
    weights: list[float] | None = None,
    balance: float = 0.55,
    max_passes: int = 8,
    seed: int = 0,
    initial: list[int] | None = None,
) -> FmResult:
    """Partition cells into two sides minimizing the net cut.

    *balance* bounds either side's weight fraction.  *initial* seeds the
    partition (random when omitted).  Returns the best partition seen
    over all passes.
    """
    rng = random.Random(seed)
    if weights is None:
        weights = [1.0] * num_cells
    total_weight = sum(weights) or 1.0
    # classic FM balance: a side may exceed the ratio bound by one cell,
    # otherwise no move is ever legal from a perfectly even split
    max_side = max(
        balance * total_weight,
        total_weight / 2.0 + max(weights, default=1.0),
    )
    if initial is None:
        side = [0] * num_cells
        order = list(range(num_cells))
        rng.shuffle(order)
        acc = 0.0
        for cell in order:
            if acc + weights[cell] <= total_weight / 2:
                acc += weights[cell]
            else:
                side[cell] = 1
    else:
        side = list(initial)
    cell_nets: list[list[int]] = [[] for _ in range(num_cells)]
    for net_id, net in enumerate(nets):
        for cell in net:
            cell_nets[cell].append(net_id)
    max_degree = max((len(n) for n in cell_nets), default=1)

    best_side = list(side)
    best_cut = _cut_size(nets, side)
    passes = 0
    for _ in range(max_passes):
        passes += 1
        improved = _fm_pass(
            num_cells, nets, cell_nets, weights, side, max_side, max_degree
        )
        cut = _cut_size(nets, side)
        if cut < best_cut:
            best_cut = cut
            best_side = list(side)
        if not improved:
            break
    return FmResult(side=best_side, cut=best_cut, passes=passes)


def _cut_size(nets: list[list[int]], side: list[int]) -> int:
    cut = 0
    for net in nets:
        if net:
            first = side[net[0]]
            for cell in net:
                if side[cell] != first:
                    cut += 1
                    break
    return cut


def _fm_pass(
    num_cells: int,
    nets: list[list[int]],
    cell_nets: list[list[int]],
    weights: list[float],
    side: list[int],
    max_side: float,
    max_degree: int,
) -> bool:
    """One FM pass of tentative moves; commits the best prefix.

    Returns True when the pass improved the cut.
    """
    counts = [[0, 0] for _ in nets]
    for net, count in zip(nets, counts):
        for cell in net:
            count[side[cell]] += 1
    # a move's gain: nets it uncuts (sole cell on its side) minus nets
    # it cuts (no cell on the other side)
    cell_gain = [0] * num_cells
    side_weight = [0.0, 0.0]
    for cell in range(num_cells):
        origin = side[cell]
        side_weight[origin] += weights[cell]
        gain = 0
        for net_id in cell_nets[cell]:
            count = counts[net_id]
            if count[origin] == 1:
                gain += 1
            if count[1 - origin] == 0:
                gain -= 1
        cell_gain[cell] = gain
    buckets = _GainBuckets(max_degree, side, cell_gain, weights, max_side)

    update = buckets.update
    moves: list[int] = []
    gains: list[int] = []
    locked = bytearray(num_cells)
    while True:
        cell = buckets.pop_best(side_weight)
        if cell is None:
            break
        gains.append(buckets.best)
        origin = side[cell]
        target = 1 - origin
        # update gains of neighbours per FM rules before flipping counts
        for net_id in cell_nets[cell]:
            net = nets[net_id]
            count = counts[net_id]
            if count[target] == 0:
                for other in net:
                    if other != cell and not locked[other]:
                        update(other, +1)
            elif count[target] == 1:
                for other in net:
                    if other != cell and not locked[other] and (
                        side[other] == target
                    ):
                        update(other, -1)
            count[origin] -= 1
            count[target] += 1
            if count[origin] == 0:
                for other in net:
                    if other != cell and not locked[other]:
                        update(other, -1)
            elif count[origin] == 1:
                for other in net:
                    if other != cell and not locked[other] and (
                        side[other] == origin
                    ):
                        update(other, +1)
        side_weight[origin] -= weights[cell]
        side_weight[target] += weights[cell]
        side[cell] = target
        locked[cell] = 1
        moves.append(cell)

    # keep the best prefix of the move sequence
    best_prefix, best_total = 0, 0
    total = 0
    for index, gain in enumerate(gains):
        total += gain
        if total > best_total:
            best_total = total
            best_prefix = index + 1
    for cell in moves[best_prefix:]:
        side[cell] = 1 - side[cell]
    return best_total > 0

