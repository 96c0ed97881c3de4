"""Function-preserving redundancy injection.

The ISCAS benchmarks famously contain untestable stuck-at faults
(c2670, c5315 and c7552 each have dozens), and the paper's Table 1
column 14 counts the redundancies its supergate extraction stumbles
over.  Since our generators synthesize irredundant logic, this pass
plants the classic pattern behind Fig. 1b:

    g = AND(x, y, ...)        # g implies x
    h = AND(g, ..., x)        # the extra x is redundant

Adding a transitive literal to a downstream AND (or OR) gate leaves
every function unchanged — ``g <= x`` already — but creates exactly the
reconvergent stem that direct backward implication flags as an
*agreement* (the stem ``x`` is implied 1 along both branches when ``h``
is forced).  The test suite checks that injection preserves every
output function.
"""

from __future__ import annotations

import random

from ..network.gatetype import GateType, base_type, is_inverted
from ..network.netlist import Network

#: Random picks :func:`inject_redundant_wires` may spend before it
#: settles for fewer wires than asked.
MAX_TRIES = 2000


def inject_redundant_wires(network: Network, count: int, seed: int = 0) -> int:
    """Add up to *count* redundant transitive-literal connections.

    Returns the number of wires actually added.  Each injection picks a
    gate ``h`` of AND (or OR) polarity class, one of its fanins ``g`` of
    the *same* class, and re-feeds one of ``g``'s own fanins ``x`` into
    ``h`` — a no-op functionally, a Fig. 1b redundancy structurally.
    """
    rng = random.Random(seed)
    names = list(network.gate_names())
    if not names:
        return 0
    added = 0
    tries = 0
    while added < count and tries < MAX_TRIES:
        tries += 1
        h_name = rng.choice(names)
        h_gate = network.gate(h_name)
        h_class = _conjunction_class(h_gate.gtype)
        if h_class is None or h_gate.arity() < 2:
            continue
        fanin_candidates = [
            net for net in h_gate.fanins if not network.is_input(net)
        ]
        if not fanin_candidates:
            continue
        g_name = rng.choice(fanin_candidates)
        g_gate = network.gate(g_name)
        if _conjunction_class(g_gate.gtype) != h_class:
            continue
        if is_inverted(g_gate.gtype):
            continue  # an inverted stage breaks the implication chain
        x_net = rng.choice(g_gate.fanins)
        if x_net in h_gate.fanins:
            continue
        network.set_fanins(h_name, [*h_gate.fanins, x_net])
        added += 1
    return added


def _conjunction_class(gtype: GateType) -> GateType | None:
    """AND-polarity or OR-polarity class of a gate (None otherwise)."""
    base = base_type(gtype)
    if base in (GateType.AND, GateType.OR):
        return base
    return None
