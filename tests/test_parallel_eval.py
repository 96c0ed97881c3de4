"""Serial ≡ parallel, and the fresh engine a checkpoint resume builds.

The contract of ``repro.parallel``: ``run_rapids(..., workers=N)``
walks the bit-identical trajectory for every N, because forked
children select partitioned-polish regions with the parent's own
selector against the engines they inherited, and the parent merges the
selections back in region order.  A checkpoint saves the netlist and
no timing analysis, so an engine built on the pickled netlist, as a
resume builds it, must price and commit exactly like the original.
These tests pin both, from the pool's fork map up to whole-flow
fingerprints that are worker-count- and hash-seed-invariant across
subprocesses.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.library.cells import default_library
from repro.parallel import EvalPool, merge_selections, shard_sites
from repro.rapids.engine import run_rapids
from repro.sizing.coudert import best_phase_move
from repro.sizing.moves import resize_sites
from repro.synth.mapper import map_network
from repro.place.placer import place
from repro.timing.sta import TimingEngine

from helpers import random_network

WORKER_COUNTS = [1, 2, 4]

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def _placed_design(seed: int, num_gates: int = 50):
    library = default_library()
    network = random_network(
        seed, num_inputs=8, num_gates=num_gates, num_outputs=4
    )
    map_network(network, library)
    placement = place(network, library, seed=seed, anneal_moves=1500)
    return network, placement, library


def _trajectory(seed: int, workers: int):
    network, placement, library = _placed_design(seed, num_gates=300)
    result = run_rapids(
        network, placement, library, mode="gsg_gs", collect_log=True,
        workers=workers, wl_passes=2, partition=True,
        partition_max_gates=30,
    )
    opt, wl = result.optimize, result.wirelength
    return (
        tuple(opt.move_log),
        opt.final_delay,
        opt.final_area,
        opt.moves_applied,
        opt.rounds,
        (wl.swaps_applied, wl.cross_swaps_applied, wl.final_hpwl,
         wl.candidates_scored, wl.timing_rejected),
        sorted((g.name, tuple(g.fanins), g.cell) for g in network.gates()),
    )


def _sum_orders(shard):
    return sum(order for order, _item in shard)


# ----------------------------------------------------------------------
# the headline property: identical trajectories for every worker count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11])
def test_optimize_trajectory_worker_count_invariant(seed):
    trajectories = {n: _trajectory(seed, n) for n in WORKER_COUNTS}
    reference = trajectories[1]
    assert reference[0], f"seed {seed}: serial run applied no moves"
    for workers, trajectory in trajectories.items():
        assert trajectory == reference, (
            f"seed {seed}: workers={workers} diverged from serial"
        )


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="no fork start method")
def test_parallel_batches_actually_run_in_the_pool():
    """Every shard after the first runs in its own forked child, and
    results come back in shard order."""
    shards = shard_sites(list(range(10)), 4)
    pool = EvalPool(4)
    pids = pool.map(
        lambda shard: (os.getpid(), _sum_orders(shard)), shards,
        inline=lambda shard: (os.getpid(), _sum_orders(shard)),
    )
    assert [total for _pid, total in pids] == [
        _sum_orders(shard) for shard in shards
    ]
    assert pids[0][0] == os.getpid()
    assert len({pid for pid, _total in pids}) == 4
    assert pool.fallback_reason is None
    assert pool.health["inline_fallbacks"] == 0
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# resumed engine: a fresh analysis of the pickled netlist projects
# identical gains
# ----------------------------------------------------------------------
def _resumed(engine, network, placement, library):
    net2, pl2 = pickle.loads(pickle.dumps((network, placement)))
    replica = TimingEngine(net2, pl2, library, period=engine.period)
    replica.refresh()
    return net2, replica


def test_eval_state_pickle_roundtrip_projects_identical_gains():
    network, placement, library = _placed_design(5, num_gates=40)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    net2, replica = _resumed(engine, network, placement, library)
    sites = resize_sites(network, library)
    replica_sites = resize_sites(net2, library)
    assert sites
    for site, twin in zip(sites, replica_sites):
        assert site.key == twin.key
        for move, twin_move in zip(site.moves, twin.moves):
            assert move.gains(engine) == twin_move.gains(replica), site.key
    # the policy on top of the gains agrees too, bit for bit
    for metric in ("min", "sum"):
        for site, twin in zip(sites, replica_sites):
            assert best_phase_move(
                site, engine, library, metric
            ) == best_phase_move(twin, replica, library, metric)


def test_replica_engine_survives_committing_moves():
    """A resumed engine is a full engine: committing a move through it
    must update incrementally to the same answer as the original."""
    network, placement, library = _placed_design(23, num_gates=30)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    net2, replica = _resumed(engine, network, placement, library)
    resize_sites(network, library)[0].moves[0].apply(network, library)
    engine.refresh()
    resize_sites(net2, library)[0].moves[0].apply(net2, library)
    replica.refresh()
    assert replica.max_delay == engine.max_delay
    assert replica.slack == engine.slack
    assert replica.arrival == engine.arrival


def test_pickled_network_arrives_unobserved():
    """Listeners (engines, caches) must not travel with a pickle."""
    network, placement, library = _placed_design(9, num_gates=30)
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    clone = pickle.loads(pickle.dumps(network))
    assert len(clone._listeners) == 0
    assert list(clone.gate_names()) == list(network.gate_names())
    assert clone.topo_order() == network.topo_order()


# ----------------------------------------------------------------------
# merge determinism: shard boundaries and completion order are invisible
# ----------------------------------------------------------------------
def test_shard_sites_is_a_balanced_contiguous_partition():
    sites = [object() for _ in range(11)]
    for num_shards in (1, 2, 3, 4, 11, 50):
        shards = shard_sites(sites, num_shards)
        flat = [tag for shard in shards for tag in shard]
        assert [order for order, _ in flat] == list(range(len(sites)))
        assert [site for _, site in flat] == sites
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1  # balanced
        assert len(shards) <= max(1, min(num_shards, len(sites)))


def test_merge_selections_ignores_shard_boundaries_and_order():
    selections = [(float(i), -float(i), i % 3) for i in range(9)]
    tagged = list(enumerate(selections))
    splits = [
        [tagged],                                  # one shard
        [tagged[:4], tagged[4:]],                  # two shards
        [tagged[6:], tagged[:3], tagged[3:6]],     # shuffled completion
        [[pair] for pair in reversed(tagged)],     # one site per shard
    ]
    for shard_results in splits:
        assert merge_selections(len(selections), shard_results) == selections


# ----------------------------------------------------------------------
# failure: a child that raises costs one inline shard, nothing more
# ----------------------------------------------------------------------
def _raise_in_child(shard):
    raise OSError("no room for this child")


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="no fork start method")
def test_pool_degrades_to_inline_on_executor_failure():
    shards = shard_sites(list(range(9)), 3)
    pool = EvalPool(3)
    got = pool.map(_raise_in_child, shards, inline=_sum_orders)
    assert got == [_sum_orders(shard) for shard in shards]
    assert pool.health["inline_fallbacks"] == 2
    assert pool.fallback_reason == "OSError: no room for this child"
    # the failure is per shard and per round: the next round forks again
    assert pool.map(_sum_orders, shards, inline=_sum_orders) == got
    assert pool.health["inline_fallbacks"] == 2
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# whole-flow fingerprint: worker-count- and hash-seed-invariant
# ----------------------------------------------------------------------
_FINGERPRINT_SCRIPT = """
from repro.suite.flow import FlowConfig, trajectory_fingerprint

config = FlowConfig(
    scale=0.08, max_rounds=2, anneal_moves=1500, workers={workers},
)
print(trajectory_fingerprint("alu2", config))
"""


def _flow_fingerprint(workers: int, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT.format(workers=workers)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return result.stdout.strip()


def test_flow_fingerprint_worker_count_invariant():
    """test_determinism's contract, extended over the workers axis: the
    fingerprint must survive worker count and hash seed changing at
    once (each subprocess varies both)."""
    fingerprints = {
        (workers, hashseed): _flow_fingerprint(workers, hashseed)
        for workers, hashseed in ((1, "1"), (2, "4242"), (4, "random"))
    }
    assert len(set(fingerprints.values())) == 1, (
        "flow trajectory depends on worker count or hash seed: "
        + ", ".join(f"{key}->{fp}" for key, fp in fingerprints.items())
    )
