"""Concurrent per-region candidate selection for partitioned rewiring.

The partitioned pipeline (:mod:`repro.rapids.partition`) selects moves
per region against *round-start* state and only then commits, so each
round's selection calls are pure functions of that frozen state.  This
module spreads them over :class:`~repro.parallel.pool.EvalPool`: per
round the parent refreshes its engines, forks one child per remote
shard of regions, and selects shard 0 itself.  Each child runs the
parent's own selector against the engines it inherited and sends back
its selections, its new rejected-candidate keys and its scored count.

Worker-count invariance: a child's engines *are* the parent's, frozen
at the fork, and the selector is deterministic and read-only, so
inline and forked selection of the same region agree move-for-move.
"""

from __future__ import annotations

from .pool import EvalPool, merge_selections, shard_sites


def _select_shard(shard, select_inline, gate, engine) -> tuple:
    """Forked-child entry: select one shard of ``(order, task)`` pairs.

    The child owns its copy of *gate*, so it starts the rejected-key set
    empty and returns only the keys its own selections added.
    """
    if gate is not None:
        gate.counters.rejected_keys = set()
    scored_before = engine.candidates_scored
    selections = [(order, select_inline(task)) for order, task in shard]
    rejected = sorted(gate.counters.rejected_keys) if gate is not None else []
    return selections, rejected, engine.candidates_scored - scored_before


class RegionEvalSession:
    """One partitioned run's worth of concurrent region selection.

    *engine* is the run's :class:`~repro.place.hpwl.WirelengthEngine`
    and *gate* its optional slack gate; both are refreshed before every
    fork so no child repeats a catch-up the parent could do once.
    """

    def __init__(self, workers: int, engine, gate=None) -> None:
        self.engine = engine
        self.gate = gate
        self.pool = EvalPool(workers)
        #: True when the most recent round forked.
        self.parallel_last_round = False

    def select_round(
        self, tasks: list[tuple], select_inline
    ) -> tuple[list, int]:
        """Selections for *tasks* (in order) plus the children's scored count.

        *select_inline* is the live-engine selector: the parent runs it
        on shard 0 and on any shard whose child failed, and every child
        runs it on its own shard.
        """
        self.parallel_last_round = self.pool.active and len(tasks) > 1
        if not self.parallel_last_round:
            return [select_inline(task) for task in tasks], 0
        self.engine.refresh()
        if self.gate is not None:
            self.gate.engine.refresh()

        def inline(shard) -> tuple:
            return [(order, select_inline(task)) for order, task in shard], [], 0

        packed = self.pool.map(
            lambda shard: _select_shard(
                shard, select_inline, self.gate, self.engine
            ),
            shard_sites(tasks, self.pool.workers),
            inline,
        )
        scored = 0
        for _selections, rejected, shard_scored in packed:
            scored += shard_scored
            if self.gate is not None:
                self.gate.counters.rejected_keys.update(rejected)
        return merge_selections(
            len(tasks), [selections for selections, _, _ in packed]
        ), scored
