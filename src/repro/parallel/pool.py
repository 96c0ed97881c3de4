"""Fork-per-round map: shards run in children of the live process.

One :meth:`EvalPool.map` call is one round.  It forks ``len(shards) -
1`` children, each with one pipe, and runs ``entry(shard)`` in each of
them.  Meanwhile the parent runs its own inline evaluator on shard 0.
A forked child inherits the parent's whole address space
copy-on-write, round-frozen engines included.  So nothing is encoded,
shipped, cached or kept alive between rounds, and every child exits
as soon as it has sent its result.

A child that dies or raises costs exactly one inline re-evaluation of
its shard in the parent.  The failure is counted in
``health["inline_fallbacks"]``, and the first failure's cause is kept
in :attr:`EvalPool.fallback_reason`.  Later rounds fork again.
Results are identical either way: the evaluator is read-only and
deterministic, and the caller keys results by shard position, not by
completion order.  Without the ``fork`` start method every shard runs
inline and the reason is recorded.  (Forking is safe here because the
program starts no threads that could hold a lock across the fork.)
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")


def shard_sites(
    sites: Sequence[_T], num_shards: int
) -> list[list[tuple[int, _T]]]:
    """Split *sites* into ``num_shards`` contiguous, balanced shards.

    Contiguous slices keep each shard's items structurally close and
    make the shard map trivially reproducible.  Every item keeps its
    enumeration-order tag.
    """
    tagged = list(enumerate(sites))
    num_shards = max(1, min(num_shards, len(tagged)))
    base, extra = divmod(len(tagged), num_shards)
    shards: list[list[tuple[int, _T]]] = []
    start = 0
    for shard_index in range(num_shards):
        size = base + (1 if shard_index < extra else 0)
        shards.append(tagged[start:start + size])
        start += size
    return shards


def merge_selections(
    count: int, shard_results: Sequence[Sequence[tuple[int, object]]]
) -> list:
    """Scatter order-tagged shard results back into enumeration order.

    Independent of shard boundaries, worker count and completion order.
    """
    merged: list = [None] * count
    for results in shard_results:
        for order, selection in results:
            merged[order] = selection
    return merged


def _run_child(entry: Callable, shard, conn) -> None:
    """Body of one forked child: evaluate, send, exit."""
    try:
        message = ("ok", entry(shard))
    except Exception as error:
        message = ("error", f"{type(error).__name__}: {error}")
    conn.send(message)
    conn.close()


class EvalPool:
    """*workers* counts the parent: ``workers=2`` forks one child per map."""

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self.health = {"inline_fallbacks": 0}
        self.fallback_reason: str | None = None
        self._children: list = []
        self._context = None
        if self.workers > 1:
            if "fork" in multiprocessing.get_all_start_methods():
                self._context = multiprocessing.get_context("fork")
            else:
                self.fallback_reason = "no fork start method; ran inline"

    @property
    def active(self) -> bool:
        """True when :meth:`map` forks children."""
        return self._context is not None

    def map(self, entry: Callable, shards: list, inline: Callable) -> list:
        """``[entry(s) for s in shards]``, shards after the first forked.

        *inline* evaluates shard 0 in the parent and re-evaluates any
        shard whose child failed; it must return what *entry* returns.
        """
        if not self.active:
            return [inline(shard) for shard in shards]
        pipes = []
        try:
            for shard in shards[1:]:
                reader, writer = self._context.Pipe(duplex=False)
                child = self._context.Process(
                    target=_run_child, args=(entry, shard, writer),
                    daemon=True,
                )
                child.start()
                writer.close()
                self._children.append(child)
                pipes.append(reader)
            results = [inline(shards[0])]
            for shard, reader, child in zip(
                shards[1:], pipes, self._children
            ):
                try:
                    status, payload = reader.recv()
                except EOFError:  # died before sending anything
                    status, payload = "died", None
                child.join()
                if status != "ok":
                    self.health["inline_fallbacks"] += 1
                    if self.fallback_reason is None:
                        self.fallback_reason = payload or (
                            f"worker exited with status {child.exitcode}"
                        )
                    payload = inline(shard)
                results.append(payload)
            return results
        finally:
            for reader in pipes:
                reader.close()
            self.close()

    def close(self) -> None:
        """Kill and reap any child a failed round left behind (idempotent).

        SIGKILL, not SIGTERM: a child inherits the parent's signal
        handlers, including a checkpoint manager's SIGTERM flag setter.
        """
        for child in self._children:
            if child.is_alive():
                child.kill()
            child.join()
        self._children = []
