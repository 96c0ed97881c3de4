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

A pass stops popping once no later prefix can win (Fiduccia &
Mattheyses' locked-net argument).  Call a net *dead* once locked cells
sit on both of its sides: locked cells do not move again, so a dead
net stays cut in every later prefix, and a prefix of length k has
cut_k >= dead.  A popped gain never exceeds the true cut decrease of
its move: the gain of a cell c on side s is the sum over its pins of
``[n_s == 1] - [n_other == 0]`` (``n`` = the net's pins per side; the
updates keep it exactly that), and per net with c on it m times this
is ``m([n_s == 1] - [n_other == 0])`` against a true decrease of
``[n_other > 0] - [n_s > m]``.  The two are equal for m = 1.  For a
repeated pin (m >= 2, so n_s >= 2) the gain is 0 when n_other > 0,
where the decrease is 0 or 1, and -m < -1 when n_other == 0, where
the decrease is 0 or -1.  Summed over a prefix, its gain total is at most
cut_0 - cut_k <= cut_0 - dead.  A later prefix replaces the best one
only with a total above ``best_total``, so once
``dead >= cut_0 - best_total`` none can, and the pass stops there: the
committed prefix, the partition, the cut and the pass count are those
of the full pass, bit for bit (``tests/test_fm.py`` checks it against
a copy of the full pass).

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
    moves: int               # cells popped over all passes


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
    over all passes: a pass commits only a prefix that lowers the cut,
    so that is the partition the last pass leaves.
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

    # pins per side of every net, kept exact across passes
    counts = [[0, 0] for _ in nets]
    for net, count in zip(nets, counts):
        for cell in net:
            count[side[cell]] += 1
    cut = sum(1 for count in counts if count[0] and count[1])
    passes = moves = 0
    for _ in range(max_passes):
        passes += 1
        pass_cut, popped = _fm_pass(
            num_cells, nets, cell_nets, counts, weights, side, max_side,
            max_degree, cut,
        )
        moves += popped
        if pass_cut == cut:
            break  # no prefix won: the pass kept its start
        cut = pass_cut
    return FmResult(side=side, cut=cut, passes=passes, moves=moves)


def _fm_pass(
    num_cells: int,
    nets: list[list[int]],
    cell_nets: list[list[int]],
    counts: list[list[int]],
    weights: list[float],
    side: list[int],
    max_side: float,
    max_degree: int,
    cut: int,
) -> tuple[int, int]:
    """One FM pass of tentative moves; commits the best prefix.

    *counts* holds every net's pins per side and *cut* the cut of
    *side*; both are left describing the committed partition.  Returns
    the new cut and the number of cells popped.  A committed non-empty
    prefix lowers the cut by at least its positive gain sum, so the
    cut is unchanged exactly when the pass kept its start.
    """
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
    locked = bytearray(num_cells)
    # per net: bit s set once a locked cell sits on side s; a net with
    # both bits ("dead") stays cut for the rest of the pass
    locked_sides = bytearray(len(nets))
    dead = 0
    start_cut = cut
    total = best_total = best_prefix = 0
    best_cut = cut
    # the cutoff (module docstring): once dead >= start_cut - best_total
    # no later prefix can beat the best one
    while dead < start_cut - best_total:
        cell = buckets.pop_best(side_weight)
        if cell is None:
            break
        total += buckets.best
        origin = side[cell]
        target = 1 - origin
        target_bit = 1 << target
        # update gains of neighbours per FM rules before flipping counts
        for net_id in cell_nets[cell]:
            net = nets[net_id]
            count = counts[net_id]
            if count[target] == 0:
                for other in net:
                    if other != cell and not locked[other]:
                        update(other, +1)
            else:
                cut -= 1
                if count[target] == 1:
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
            else:
                cut += 1
                if count[origin] == 1:
                    for other in net:
                        if other != cell and not locked[other] and (
                            side[other] == origin
                        ):
                            update(other, +1)
            seen = locked_sides[net_id]
            if not seen & target_bit:
                locked_sides[net_id] = seen | target_bit
                if seen:
                    dead += 1
        side_weight[origin] -= weights[cell]
        side_weight[target] += weights[cell]
        side[cell] = target
        locked[cell] = 1
        moves.append(cell)
        if total > best_total:
            best_total = total
            best_prefix = len(moves)
            best_cut = cut

    # keep the best prefix of the move sequence
    for cell in moves[best_prefix:]:
        origin = side[cell]
        side[cell] = 1 - origin
        for net_id in cell_nets[cell]:
            count = counts[net_id]
            count[origin] -= 1
            count[1 - origin] += 1
    return best_cut, len(moves)
