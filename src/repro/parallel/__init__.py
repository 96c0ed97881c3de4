"""Region-level parallelism for the partitioned wirelength polish.

* :mod:`pool` — :class:`EvalPool`, a fork-per-round map: children of
  the live process inherit the round-frozen state copy-on-write, so
  nothing is serialized on the way in;
* :mod:`regions` — :class:`~repro.parallel.regions.RegionEvalSession`,
  which spreads one partitioned round's region selection over the pool.

Invariant: the partitioned trajectory is bit-identical for every worker
count (``tests/test_partitioned_rewiring.py``); parallelism buys wall
time only, never a different answer.
"""

from .pool import EvalPool, merge_selections, shard_sites

__all__ = ["EvalPool", "merge_selections", "shard_sites"]
