"""Edge cases and determinism of the FM bipartitioner.

``place.fm.bipartition`` used to be exercised only through the placer;
the partitioned-rewiring carve (``place.regions``) now feeds it
geometry-seeded initial partitions and degenerate sub-hypergraphs
(single cells, empty nets, wildly skewed weights), so its corners get
direct coverage here.  The hash-seed test mirrors
``test_determinism.py``: FM tie-breaks must not follow set iteration
order, or the carve — and the whole partitioned trajectory — would
differ per process.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

from repro.place.fm import FmResult, _GainBuckets, bipartition


def _random_hypergraph(
    seed: int, num_cells: int, num_nets: int, max_pins: int = 4
) -> list[list[int]]:
    rng = random.Random(seed)
    nets = []
    for _ in range(num_nets):
        pins = rng.randint(2, max_pins)
        nets.append(rng.sample(range(num_cells), min(pins, num_cells)))
    return nets


def _cut(nets: list[list[int]], side: list[int]) -> int:
    return sum(
        1 for net in nets
        if net and any(side[c] != side[net[0]] for c in net)
    )


def test_empty_and_single_cell():
    empty = bipartition(0, [])
    assert empty.side == [] and empty.cut == 0
    single = bipartition(1, [[0]])
    assert single.side in ([0], [1])
    assert single.cut == 0


def test_two_cells_connected():
    result = bipartition(2, [[0, 1]])
    assert sorted(result.side) in ([0, 0], [0, 1], [1, 1])
    assert result.cut == _cut([[0, 1]], result.side)


def test_valid_partition_properties():
    for seed in range(5):
        nets = _random_hypergraph(seed, num_cells=30, num_nets=45)
        result = bipartition(30, nets, seed=seed)
        assert isinstance(result, FmResult)
        assert len(result.side) == 30
        assert set(result.side) <= {0, 1}
        # the reported cut describes the returned partition
        assert result.cut == _cut(nets, result.side)
        assert 1 <= result.passes <= 8


def test_balance_bound_respected():
    nets = _random_hypergraph(7, num_cells=40, num_nets=60)
    result = bipartition(40, nets, balance=0.55, seed=7)
    heavy = max(result.side.count(0), result.side.count(1))
    # classic FM slack: the ratio bound may be exceeded by one cell
    assert heavy <= 0.55 * 40 + 1


def test_balance_infeasible_weights_still_valid():
    # one cell outweighs everything: no balanced split exists, but the
    # result must still be a valid two-sided partition with a truthful
    # cut (the max_side formula admits the giant on either side)
    nets = [[0, 1], [1, 2], [2, 3], [3, 0]]
    weights = [1000.0, 1.0, 1.0, 1.0]
    result = bipartition(4, nets, weights=weights, seed=3)
    assert len(result.side) == 4
    assert set(result.side) <= {0, 1}
    assert result.cut == _cut(nets, result.side)


def test_initial_partition_skips_random_seed():
    # with an explicit initial partition the RNG is never consulted:
    # different seeds must produce identical refined partitions
    nets = _random_hypergraph(11, num_cells=24, num_nets=36)
    initial = [i % 2 for i in range(24)]
    a = bipartition(24, nets, seed=1, initial=initial)
    b = bipartition(24, nets, seed=999, initial=initial)
    assert a.side == b.side
    assert a.cut == b.cut


def test_refinement_never_worse_than_initial():
    nets = _random_hypergraph(13, num_cells=24, num_nets=36)
    initial = [i % 2 for i in range(24)]
    refined = bipartition(24, nets, initial=initial)
    assert refined.cut <= _cut(nets, initial)


_FM_FINGERPRINT_SCRIPT = """
import random
from repro.place.fm import bipartition

rng = random.Random(5)
nets = [rng.sample(range(60), rng.randint(2, 4)) for _ in range(90)]
result = bipartition(60, nets, seed=5)
print("".join(map(str, result.side)), result.cut)
"""


def _run_fm(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _FM_FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return result.stdout.strip()


def test_bipartition_independent_of_hash_seed():
    outcomes = {seed: _run_fm(seed) for seed in ("1", "4242", "random")}
    assert len(set(outcomes.values())) == 1, (
        "FM partition depends on PYTHONHASHSEED: "
        + ", ".join(f"{s}->{o}" for s, o in outcomes.items())
    )


def _golden_cases():
    """Seeded hypergraphs over every regime the bucket structure has.

    Unit, area-like, continuous, one-giant-cell and heavy-tailed
    weights; random, alternating and skewed initial partitions (a side
    that starts over the balance bound stays blocked for many pops);
    balance 0.5-0.75; empty, single-pin and repeated-pin nets.
    """
    for case in range(216):
        rng = random.Random(1000 + case)
        num_cells = rng.choice((1, 2, 3, 7, 16, 40, 90, 160))
        repeats = case % 7 == 6
        nets = []
        for _ in range(rng.randint(0, 2 * num_cells + 2)):
            pins = rng.choice((0, 1, 2, 2, 2, 3, 3, 4, 6, 9))
            if repeats:
                nets.append([rng.randrange(num_cells) for _ in range(pins)])
            else:
                nets.append(rng.sample(range(num_cells), min(pins, num_cells)))
        kind = case % 6
        if kind == 0:
            weights = None
        elif kind == 1:
            weights = [1.0] * num_cells
        elif kind == 2:  # area-like: a few discrete cell sizes
            weights = [
                rng.choice((1.0, 1.5, 2.0, 3.5, 6.0))
                for _ in range(num_cells)
            ]
        elif kind == 3:
            weights = [rng.uniform(0.5, 8.0) for _ in range(num_cells)]
        elif kind == 4:
            weights = [1.0] * num_cells
            weights[rng.randrange(num_cells)] = float(num_cells)
        else:
            weights = [
                rng.choice((1.0, 1.0, 1.0, 2.0, 12.0))
                for _ in range(num_cells)
            ]
        mode = (case // 6) % 4
        if mode == 0:
            initial = None
        elif mode == 1:
            initial = [rng.randint(0, 1) for _ in range(num_cells)]
        elif mode == 2:
            initial = [
                0 if rng.random() < 0.85 else 1 for _ in range(num_cells)
            ]
        else:
            initial = [cell % 2 for cell in range(num_cells)]
        balance = rng.choice((0.5, 0.5, 0.55, 0.6, 0.75))
        max_passes = rng.choice((1, 3, 8))
        yield num_cells, nets, weights, balance, max_passes, case, initial


def test_bipartition_golden():
    """Every partition is pinned bit for bit: a change to the bucket
    order, the tie-break, the balance test or the best-prefix rule
    moves the digest (and with it every placement and carve)."""
    digest = hashlib.blake2b(digest_size=16)
    for num_cells, nets, weights, balance, passes, seed, initial in (
        _golden_cases()
    ):
        result = bipartition(
            num_cells, nets, weights=weights, balance=balance,
            max_passes=passes, seed=seed, initial=initial,
        )
        assert result.cut == _cut(nets, result.side)
        digest.update(
            f"{result.side}|{result.cut}|{result.passes};".encode()
        )
    assert digest.hexdigest() == "1f297a8ae8e7b1886d27f40b22bd62ab"


# ----------------------------------------------------------------------
# the dead-net cutoff against the full pass it replaced
# ----------------------------------------------------------------------
def _full_pass(num_cells, nets, cell_nets, weights, side, max_side,
               max_degree):
    """The FM pass before the cutoff, verbatim but for the pop count:
    pops until no cell may move.  Returns ``(improved, pops)``."""
    counts = [[0, 0] for _ in nets]
    for net, count in zip(nets, counts):
        for cell in net:
            count[side[cell]] += 1
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
    best_prefix, best_total = 0, 0
    total = 0
    for index, gain in enumerate(gains):
        total += gain
        if total > best_total:
            best_total = total
            best_prefix = index + 1
    for cell in moves[best_prefix:]:
        side[cell] = 1 - side[cell]
    return best_total > 0, len(moves)


def _full_bipartition(num_cells, nets, weights, balance, max_passes,
                      initial):
    """``bipartition`` with full passes; returns (side, cut, passes, pops)."""
    weights = weights or [1.0] * num_cells
    total_weight = sum(weights) or 1.0
    max_side = max(
        balance * total_weight,
        total_weight / 2.0 + max(weights, default=1.0),
    )
    side = list(initial)
    cell_nets = [[] for _ in range(num_cells)]
    for net_id, net in enumerate(nets):
        for cell in net:
            cell_nets[cell].append(net_id)
    max_degree = max((len(n) for n in cell_nets), default=1)
    best_side, best_cut = list(side), _cut(nets, side)
    passes = pops = 0
    for _ in range(max_passes):
        passes += 1
        improved, popped = _full_pass(
            num_cells, nets, cell_nets, weights, side, max_side, max_degree
        )
        pops += popped
        if _cut(nets, side) < best_cut:
            best_cut, best_side = _cut(nets, side), list(side)
        if not improved:
            break
    return best_side, best_cut, passes, pops


def _oracle_cases():
    """Repeated-pin nets, area weights, skewed (blocked-side) starts."""
    for case in range(150):
        rng = random.Random(7000 + case)
        num_cells = rng.choice((2, 5, 12, 30, 60, 120))
        nets = []
        for _ in range(rng.randint(num_cells // 2, 3 * num_cells)):
            pins = rng.choice((1, 2, 2, 3, 3, 4, 5, 8))
            if case % 3 == 0:
                nets.append([rng.randrange(num_cells) for _ in range(pins)])
            else:
                nets.append(rng.sample(range(num_cells), min(pins, num_cells)))
        if case % 4 == 0:
            weights = None
        else:
            weights = [
                rng.choice((1.0, 1.0, 1.5, 2.0, 3.5, 9.0))
                for _ in range(num_cells)
            ]
        skew = rng.choice((0.5, 0.5, 0.8, 0.95))
        initial = [int(rng.random() >= skew) for _ in range(num_cells)]
        balance = rng.choice((0.5, 0.55, 0.6, 0.75))
        yield num_cells, nets, weights, balance, 1 + case % 8, initial


def test_cutoff_matches_the_full_pass():
    """The cutoff stops only where no later prefix could win: side, cut
    and passes equal full passes bit for bit, with fewer pops."""
    cut_short = 0
    for num_cells, nets, weights, balance, passes, initial in _oracle_cases():
        result = bipartition(
            num_cells, nets, weights=weights, balance=balance,
            max_passes=passes, initial=initial,
        )
        side, cut, full_passes, pops = _full_bipartition(
            num_cells, nets, weights, balance, passes, initial,
        )
        assert (result.side, result.cut, result.passes) == (
            side, cut, full_passes
        )
        assert result.moves <= pops
        cut_short += result.moves < pops
    assert cut_short >= 100
