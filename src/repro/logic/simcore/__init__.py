"""Compiled bit-parallel simulation core.

The subsystem the hot paths of this repository stand on:

* :mod:`compiled` — one-time flattening of a ``Network`` into
  topologically ordered opcode / fanin-index arrays (:func:`get_compiled`
  caches one snapshot per network, keyed by its mutation version);
* :mod:`backends` — the evaluator: one arbitrary-precision integer word
  per net, filled by one forward sweep over the compiled arrays;
* :mod:`engine` — :class:`SimEngine`, which keeps pattern state alive
  across calls and re-sweeps it when the network has mutated, and
  :func:`random_pattern_block`, the random stimulus of its
  equivalence filter.

Invalidation contract: any ``Network`` mutation bumps the version.
There is one compiled snapshot per network version; ``get_compiled``
and ``SimEngine`` revalidate by version, and a ``SimEngine`` read
after a mutation recompiles and re-sweeps its stored patterns.  The
per-engine invalidation rules live in ``docs/architecture.md``.
"""

from .backends import eval_word, sweep
from .compiled import CompiledNetwork, compile_network, get_compiled
from .engine import SimEngine, random_pattern_block

__all__ = [
    "CompiledNetwork",
    "SimEngine",
    "compile_network",
    "eval_word",
    "get_compiled",
    "random_pattern_block",
    "sweep",
]
