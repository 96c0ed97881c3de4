"""Canonical mutation-event registry: the single source of event truth.

Every mutation a :class:`~repro.network.netlist.Network` can announce
is declared here **once**, as a module-level constant whose value is
the historical wire string (so flow fingerprints are unaffected by the
move from bare strings to constants) plus an :class:`EventKind` entry
recording the operand schema and meaning.

Three consumers rely on this module being exhaustive:

* **emission sites** (`netlist.py`, the optimizer's snapshot restore in
  `sizing/coudert.py`) pass these constants to ``Network._touch`` with
  a payload dict whose keys must equal the registered operand tuple;
* **listeners** (`timing/sta.py`, `place/hpwl.py`,
  `rapids/engine.py`) dispatch on these
  constants and must handle — or explicitly ignore — every registered
  kind;
* **tooling**: ``python -m tools.lint`` statically verifies both rules
  above against this registry, and ``python -m tools.lint --fix-docs``
  regenerates the event table in ``docs/architecture.md`` from it, so
  code and docs cannot drift apart.

Adding a kind therefore means: add the constant and registry entry
here, emit it with a schema-matching payload, teach all three listeners
about it, then run ``python -m tools.lint --fix-docs`` — the linter
fails CI until every step is done.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventKind:
    """Schema of one mutation-event kind.

    ``operands`` names the payload-dict keys, in documentation order;
    ``meaning`` is the one-line description rendered into
    ``docs/architecture.md``; ``structural`` is true when the kind can
    change the gate/net structure itself (as opposed to rebinding a
    cell or retargeting IO on an unchanged structure).
    """

    name: str
    operands: tuple[str, ...]
    meaning: str
    structural: bool


# ---------------------------------------------------------------------------
# kind constants — the values are the historical wire strings; they are
# part of the persisted/compared surface (flow fingerprints, tests with
# listener spies) and must never change.
# ---------------------------------------------------------------------------
ADD_INPUT = "add_input"
ADD_OUTPUT = "add_output"
ADD_GATE = "add_gate"
REMOVE_GATE = "remove_gate"
REPLACE_FANIN = "replace_fanin"
SWAP_FANINS = "swap_fanins"
REPLACE_OUTPUT = "replace_output"
SET_GATE_TYPE = "set_gate_type"
SET_CELL = "set_cell"
SET_FANINS = "set_fanins"
RESTORE = "restore"
UNKNOWN = "unknown"

#: The registry, in documentation order (pin rewires first, structure,
#: rebinds, IO, then the two meta kinds).  ``tools.lint`` checks every
#: emission and every listener against exactly this table.
REGISTRY: dict[str, EventKind] = {
    kind.name: kind
    for kind in (
        EventKind(
            REPLACE_FANIN,
            ("pin", "old", "new"),
            "one pin rewired between nets",
            structural=True,
        ),
        EventKind(
            SWAP_FANINS,
            ("pin_a", "pin_b", "net_a", "net_b"),
            "non-inverting pin swap",
            structural=True,
        ),
        EventKind(
            SET_FANINS,
            ("gate", "old", "new"),
            "whole fanin list replaced",
            structural=True,
        ),
        EventKind(
            ADD_GATE,
            ("gate", "fanins"),
            "gate added (fanin nets may not exist yet)",
            structural=True,
        ),
        EventKind(
            REMOVE_GATE,
            ("gate", "fanins"),
            "fanout-free gate removed",
            structural=True,
        ),
        EventKind(
            SET_GATE_TYPE,
            ("gate", "fanins"),
            "logic type changed in place (cell unbound)",
            structural=False,
        ),
        EventKind(
            SET_CELL,
            ("gate", "fanins"),
            "library-cell rebind without rewiring",
            structural=False,
        ),
        EventKind(
            ADD_INPUT,
            ("net",),
            "primary input declared",
            structural=True,
        ),
        EventKind(
            ADD_OUTPUT,
            ("net",),
            "net declared a primary output",
            structural=False,
        ),
        EventKind(
            REPLACE_OUTPUT,
            ("old", "new"),
            "primary-output references retargeted",
            structural=False,
        ),
        EventKind(
            RESTORE,
            ("added", "removed", "changed", "io_changed"),
            "snapshot rollback delivered as an exact gate diff",
            structural=True,
        ),
        EventKind(
            UNKNOWN,
            (),
            "untracked mutation: all derived state is stale",
            structural=True,
        ),
    )
}

#: ``Network`` methods that mutate the observed structure and emit the
#: like-named event (plus ``adopt``, the whole-content replacement, and
#: the raw ``_touch`` hook itself).  The purity
#: lint (``tools.lint``) forbids any call to these names from code
#: marked ``@projection_only`` — pricing a candidate must never mutate.
MUTATING_NETWORK_METHODS: frozenset[str] = frozenset({
    ADD_INPUT,
    ADD_OUTPUT,
    ADD_GATE,
    REMOVE_GATE,
    REPLACE_FANIN,
    SWAP_FANINS,
    REPLACE_OUTPUT,
    SET_GATE_TYPE,
    SET_CELL,
    SET_FANINS,
    "adopt",
    "_touch",
    "notify_network_event",
})
