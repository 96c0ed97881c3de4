"""Five-valued test generation (PODEM-style backtracking search).

The paper grounds its symmetry theory in ATPG (Lemma 1, after
Pomeranz-Reddy): two signals are NES iff no test assigns one ``D`` and
the other ``D'`` and propagates a fault effect to an output; ES iff no
test assigns both ``D``.  This module provides the search engine for
those queries and for conventional single-stuck-at test generation
(used to *prove* the redundancies of Fig. 1 untestable).

The search assigns primary inputs one at a time, five-valued-simulates
the affected cone, and prunes when the fault effect can no longer reach
an output (empty D-frontier with no effect at a PO).  Untestability is
decided exactly when the search space is exhausted within the backtrack
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.gatetype import GateType, base_type
from ..network.netlist import Network, Pin
from ..logic.values import (
    Value,
    and_values,
    from_bit,
    or_values,
    xor_values,
)
from .faults import Fault, fault_site_support

#: PODEM's search budget: past this many backtracks a query is
#: undecided, neither a test nor a proof.
MAX_BACKTRACKS = 20000


@dataclass
class AtpgResult:
    """Outcome of a test-generation attempt."""

    test: dict[str, int] | None   # PI assignment, or None
    proven_untestable: bool       # search space exhausted
    backtracks: int


def evaluate_gate(
    gtype: GateType, inputs: list[Value]
) -> Value:
    """Five-valued evaluation of one gate."""
    if gtype is GateType.CONST0:
        return Value.ZERO
    if gtype is GateType.CONST1:
        return Value.ONE
    base = base_type(gtype)
    if base is GateType.AND:
        value = and_values(inputs)
    elif base is GateType.OR:
        value = or_values(inputs)
    elif base is GateType.XOR:
        value = xor_values(inputs)
    else:
        value = inputs[0]
    from ..network.gatetype import is_inverted

    if is_inverted(gtype):
        value = value.negate()
    return value


def simulate5(
    network: Network,
    assignments: dict[str, Value],
    fault: Fault | None = None,
    injections: dict[str, Value] | None = None,
) -> dict[str, Value]:
    """Five-valued full simulation with an optional fault.

    ``injections`` force composite values onto nets *as observed by all
    consumers* (used for the symmetry queries, where two signals are
    given D / D' directly).  A stem fault overrides the faulty channel
    of its net; a branch fault only affects the faulted pin's view,
    handled when evaluating the sink gate.
    """
    values: dict[str, Value] = {}
    for pi in network.inputs:
        value = assignments.get(pi, Value.X)
        if injections and pi in injections:
            value = injections[pi]
        if fault is not None and fault.pin is None and fault.net == pi:
            value = _apply_stuck(value, fault.stuck_at)
        values[pi] = value
    for name in network.topo_order():
        gate = network.gate(name)
        fanin_values = []
        for index, fanin in enumerate(gate.fanins):
            value = values[fanin]
            if (
                fault is not None
                and fault.pin == Pin(name, index)
                and fault.net == fanin
            ):
                value = _apply_stuck(value, fault.stuck_at)
            fanin_values.append(value)
        value = evaluate_gate(gate.gtype, fanin_values)
        if injections and name in injections:
            value = injections[name]
        if fault is not None and fault.pin is None and fault.net == name:
            value = _apply_stuck(value, fault.stuck_at)
        values[name] = value
    return values


def _apply_stuck(value: Value, stuck: int) -> Value:
    """Force the faulty channel of a value to the stuck level."""
    good = value.good
    if good is None:
        # unassigned good value: the faulty channel is still pinned
        return Value.X if stuck is None else value
    return Value.D if (good == 1 and stuck == 0) else (
        Value.DBAR if (good == 0 and stuck == 1) else from_bit(good)
    )


def _frontier_alive(
    network: Network, values: dict[str, Value], frontier: list[str]
) -> bool:
    """Can any fault effect still reach an output through X paths?"""
    if not frontier:
        return False
    reachable: set[str] = set()
    stack = list(frontier)
    while stack:
        net = stack.pop()
        if net in reachable:
            continue
        reachable.add(net)
        for pin in network.fanout(net):
            sink = pin.gate
            if values[sink].is_fault_effect() or values[sink] is Value.X:
                stack.append(sink)
    po_set = set(network.outputs)
    return any(
        net in po_set
        and (values[net].is_fault_effect() or values[net] is Value.X)
        for net in reachable
    )


def find_test(
    network: Network,
    fault: Fault | None = None,
    injections: dict[str, Value] | None = None,
    max_backtracks: int = MAX_BACKTRACKS,
) -> AtpgResult:
    """Search for a PI assignment that propagates a fault effect to a PO.

    Either a *fault* (stuck-at) or *injections* (forced D/D' values, the
    symmetry queries) must be given.  Returns a test, or
    ``proven_untestable=True`` when the space is exhausted.
    """
    if fault is None and not injections:
        raise ValueError("need a fault or injections")
    support = (
        fault_site_support(network, fault)
        if fault is not None
        else list(network.inputs)
    )
    if injections:
        support = [pi for pi in support if pi not in injections]
    assignment: dict[str, Value] = dict.fromkeys(network.inputs, Value.X)
    backtracks = 0

    def search(depth: int) -> dict[str, int] | None:
        nonlocal backtracks
        values = simulate5(network, assignment, fault, injections)
        if any(
            values[out].is_fault_effect() for out in network.outputs
        ):
            return {
                pi: (assignment[pi].good if assignment[pi].is_assigned()
                     else 0)
                for pi in network.inputs
            }
        effects = [n for n, v in values.items() if v.is_fault_effect()]
        if effects:
            if not _frontier_alive(network, values, effects):
                return None
        elif fault is not None:
            # not activated yet: prune only when the site's good value
            # is already determined equal to the stuck level (five-
            # valued simulation is monotone in the assignment)
            site = values[fault.net]
            if site.is_binary() and site.good == fault.stuck_at:
                return None
        elif injections:
            # injected effects were blocked on every path
            return None
        target = None
        for pi in support:
            if assignment[pi] is Value.X:
                target = pi
                break
        if target is None:
            return None
        for bit in (0, 1):
            assignment[target] = from_bit(bit)
            found = search(depth + 1)
            if found is not None:
                return found
            backtracks += 1
            if backtracks > max_backtracks:
                assignment[target] = Value.X
                raise _BacktrackBudget()
        assignment[target] = Value.X
        return None

    try:
        test = search(0)
    except _BacktrackBudget:
        return AtpgResult(test=None, proven_untestable=False,
                          backtracks=backtracks)
    return AtpgResult(
        test=test, proven_untestable=test is None, backtracks=backtracks,
    )


class _BacktrackBudget(Exception):
    """Raised when the backtrack budget is exhausted."""


def is_testable(network: Network, fault: Fault) -> bool | None:
    """True/False when decided, None when the budget ran out."""
    result = find_test(network, fault=fault)
    if result.test is not None:
        return True
    if result.proven_untestable:
        return False
    return None
