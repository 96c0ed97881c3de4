"""Contract markers, checked by tier-1 audits where the code runs.

The repository's headline guarantee — every incremental, batched, or
parallel path is bit-identical to its serial reference — rests on a
handful of invariants that used to live only in docstrings.  This
module gives the pricing invariant *a name in the code* (see
``docs/architecture.md``, "Enforced contracts"):

* :func:`projection_only` — the decorated callable prices candidates
  purely from cached analysis state and never mutates the
  :class:`~repro.network.netlist.Network` or notifies its listeners.
  ``tests/test_projection_audit.py`` checks this where priced calls
  run: it wraps every marked callable and fails on any write of
  ``Network.version`` or call of ``Network._touch`` under it.

The marked callables are also where hash-seed determinism is checked:
``tests/test_determinism.py`` records every marked call's return value
in two processes under different ``PYTHONHASHSEED`` values and fails
on the first call whose value differs.  Code that feeds a priced value
is under that audit once one of its flows reaches it.

The marker is a runtime no-op: it only tags the object for the audits
and for readers.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)


def projection_only(func: _F) -> _F:
    """Declare that *func* prices candidates without mutating anything.

    The contract (see ``docs/architecture.md``, "The projection-only
    pricing contract"): the function — and everything it calls —
    computes what-if results purely from cached engine state.  It never
    calls a mutating ``Network`` method, never notifies listeners, and
    therefore never invalidates a subscribed engine.
    ``tests/test_projection_audit.py`` runs a timing-aware flow with
    every marked callable wrapped and fails on the first write.
    """
    func.__projection_only__ = True
    return func

