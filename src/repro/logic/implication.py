"""Direct backward implication (Section 2.0 of the paper).

Given a logic value ``v`` assigned at the out-pin of gate ``g``,
implications are inferred backward: if ``v`` equals the output value
obtained when every input sits at its non-controlling value, then all
in-pins of ``g`` are inferred with ``ncv(g)``.  INV/BUF always imply
their single input; XOR-class gates never imply backward.  The process
stops at gates whose output value is not forcing — exactly the
condition that ends a generalized implication supergate.

The engine also powers the Fig. 1 redundancy analysis: when two
implication paths reconverge at a fanout stem, the stem either receives
*conflicting* values (case 1) or the *same* value (case 2); both events
are reported to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..network.gatetype import (
    GateType,
    XOR_TYPES,
    forced_input_value,
    forcing_output_value,
)
from ..network.netlist import Network


@dataclass
class ImplicationResult:
    """Outcome of a backward implication sweep.

    ``values`` maps each reached net to its implied value.  ``conflicts``
    lists nets implied with *both* polarities (reconvergence, Fig. 1a);
    their entry in ``values`` keeps the first value seen.  ``agreements``
    lists multi-fanout nets reached more than once with a consistent
    value (Fig. 1b).  ``frontier`` lists the nets where implication
    stopped (their drivers were not forced) — the supergate leaves.
    """

    values: dict[str, int] = field(default_factory=dict)
    conflicts: list[str] = field(default_factory=list)
    agreements: list[str] = field(default_factory=list)
    frontier: list[str] = field(default_factory=list)


def implies_inputs(gtype: GateType, output_value: int) -> int | None:
    """Value forced on every in-pin when *output_value* sits on the out-pin.

    ``None`` when the gate does not imply backward for this value.
    """
    if gtype is GateType.BUF:
        return output_value
    if gtype is GateType.INV:
        return 1 - output_value
    if gtype in XOR_TYPES:
        return None
    forcing = forcing_output_value(gtype)
    if forcing is None or output_value != forcing:
        return None
    return forced_input_value(gtype)


def backward_imply(
    network: Network,
    net: str,
    value: int,
    cross_fanout: bool = True,
) -> ImplicationResult:
    """Run direct backward implication from ``net = value``.

    With ``cross_fanout=False`` the sweep refuses to continue *through*
    multi-fanout nets (they are recorded on the frontier), matching the
    fanout-free restriction of supergate extraction.  With
    ``cross_fanout=True`` the sweep pushes through stems and reports the
    reconvergence events used for redundancy identification.
    """
    result = ImplicationResult()
    result.values[net] = value
    queue: list[str] = [net]
    seen_multi: set[str] = set()
    while queue:
        current = queue.pop()
        current_value = result.values[current]
        if network.is_input(current):
            result.frontier.append(current)
            continue
        gate = network.gate(current)
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            produced = 1 if gate.gtype is GateType.CONST1 else 0
            if produced != current_value:
                result.conflicts.append(current)
            continue
        forced = implies_inputs(gate.gtype, current_value)
        if forced is None:
            result.frontier.append(current)
            continue
        for fanin in gate.fanins:
            fanin_value = forced
            previous = result.values.get(fanin)
            if previous is not None:
                if previous != fanin_value:
                    if fanin not in result.conflicts:
                        result.conflicts.append(fanin)
                elif (
                    network.fanout_degree(fanin) > 1
                    and fanin not in seen_multi
                ):
                    seen_multi.add(fanin)
                    result.agreements.append(fanin)
                continue
            result.values[fanin] = fanin_value
            if not cross_fanout and network.fanout_degree(fanin) > 1:
                result.frontier.append(fanin)
                continue
            queue.append(fanin)
    return result

