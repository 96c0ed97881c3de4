"""Machine-checked contract markers consumed by ``python -m tools.lint``.

The repository's headline guarantee — every incremental, batched, or
parallel path is bit-identical to its serial reference — rests on a
handful of invariants that used to live only in docstrings.  This
module gives those invariants *names in the code* so the static
analysis suite in ``tools/lint`` can enforce them (the rule families
are documented in ``docs/architecture.md``):

* :func:`projection_only` — the decorated callable prices candidates
  purely from cached analysis state: no reachable call (through a
  module-local call graph) may mutate the :class:`~repro.network.
  netlist.Network` or notify its listeners, i.e. call a name in
  :data:`MUTATING_NETWORK_METHODS`.
* modules that declare ``__deterministic__ = True`` opt into the
  determinism lint: unsorted ``set`` iteration whose results feed
  float accumulation, ``min``/``max``/``sorted`` tie-breaking, or
  first-wins selection is flagged (the PR-2 ``PYTHONHASHSEED`` bug
  class).

Both markers are runtime no-ops: they only tag the object (or module)
for the linter and for readers.  The module imports nothing outside
the standard library, so the linter loads it standalone.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)

#: ``Network`` methods that mutate the observed structure and notify
#: listeners (plus ``adopt``, the whole-content replacement, the raw
#: ``_touch`` hook and the listeners' own ``notify_network_event``).
#: The purity lint forbids any call to these names from code marked
#: :func:`projection_only` — pricing a candidate must never mutate.
MUTATING_NETWORK_METHODS: frozenset[str] = frozenset({
    "add_input",
    "add_output",
    "add_gate",
    "remove_gate",
    "replace_fanin",
    "swap_fanins",
    "replace_output",
    "set_gate_type",
    "set_cell",
    "set_fanins",
    "adopt",
    "_touch",
    "notify_network_event",
})


def projection_only(func: _F) -> _F:
    """Declare that *func* prices candidates without mutating anything.

    The contract (see ``docs/architecture.md``, "The projection-only
    pricing contract"): the function — and everything it reaches
    through module-local calls — computes what-if results purely from
    cached engine state.  It never calls a mutating ``Network`` method,
    never notifies listeners, and therefore never invalidates a
    subscribed engine.  ``python -m tools.lint`` verifies this statically;
    listener-spy tests verify it dynamically.
    """
    func.__projection_only__ = True
    return func

