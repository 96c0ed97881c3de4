"""Primitive network transformations.

These are the mechanical edits the rest of the system composes:
inverter insertion/cancellation for inverting swaps (Lemma 7/8),
constant propagation and sweeping for the synthesis substrate, and
redundancy removal (Fig. 1).  All transforms preserve network
functionality except where explicitly documented otherwise.
"""

from __future__ import annotations

from .gatetype import CONST_TYPES, GateType, eval_gate
from .netlist import Network, NetworkError, Pin
from .validate import dangling_gates


def complement_net(
    network: Network, net: str, unstable_pins: frozenset[Pin] = frozenset()
) -> str:
    """Return a net computing the complement of *net*, creating an INV
    if needed.

    Reuse rules: if *net* is driven by an inverter, its input net is
    tapped directly (that net's driver never changes, so this is always
    safe); an existing inverter *of* *net* is shared only when its own
    in-pin is not in *unstable_pins* — pins a concurrent rewiring step
    is about to rebind, which would silently change the shared
    inverter's function.
    """
    driver = network.driver(net)
    if driver is not None and driver.gtype is GateType.INV:
        return driver.fanins[0]
    for sink in network.fanout(net):
        gate = network.gate(sink.gate)
        if gate.gtype is GateType.INV and sink not in unstable_pins:
            return gate.name
    inv_name = network.fresh_name(f"{net}_inv")
    network.add_gate(inv_name, GateType.INV, [net])
    return inv_name


def swap_noninverting(network: Network, pin_a: Pin, pin_b: Pin) -> None:
    """Exchange the drivers of two pins without polarity change."""
    network.swap_fanins(pin_a, pin_b)


def swap_inverting(network: Network, pin_a: Pin, pin_b: Pin) -> None:
    """Exchange the drivers of two pins, complementing both signals.

    Per Definition 3 this connects ``k_i`` through an inverter to
    ``p_j`` and ``k_j`` through an inverter to ``p_i``.  Inverter pairs
    are cancelled where the drivers already are inverters.
    """
    net_a = network.fanin_net(pin_a)
    net_b = network.fanin_net(pin_b)
    unstable = frozenset({pin_a, pin_b})
    target_a = complement_net(network, net_b, unstable_pins=unstable)
    target_b = complement_net(network, net_a, unstable_pins=unstable)
    network.replace_fanin(pin_a, target_a)
    network.replace_fanin(pin_b, target_b)


def propagate_constants(network: Network) -> int:
    """Fold constant fanins through gates; returns number of gates folded.

    A gate with a controlling constant input becomes a constant; a gate
    with a non-controlling constant input drops that input (or becomes a
    buffer/inverter when one input remains).  Iterates to a fixpoint.
    """
    folded = 0
    changed = True
    while changed:
        changed = False
        for name in network.topo_order():
            gate = network.gate(name)
            if gate.gtype in CONST_TYPES:
                continue
            const_values: dict[int, int] = {}
            for index, fanin in enumerate(gate.fanins):
                driver = network.driver(fanin)
                if driver is not None and driver.gtype in CONST_TYPES:
                    const_values[index] = (
                        1 if driver.gtype is GateType.CONST1 else 0
                    )
            if not const_values:
                continue
            folded += 1
            changed = True
            _fold_gate(network, name, const_values)
    return folded


def _fold_gate(network: Network, name: str, const_values: dict[int, int]) -> None:
    """Rewrite gate *name* given constant values on some of its pins."""
    gate = network.gate(name)
    if len(const_values) == gate.arity():
        words = [const_values[i] for i in range(gate.arity())]
        value = eval_gate(gate.gtype, words, mask=1)
        network.set_fanins(name, [])
        network.set_gate_type(
            name, GateType.CONST1 if value else GateType.CONST0
        )
        return
    base_and_or = gate.gtype in (
        GateType.AND, GateType.NAND, GateType.OR, GateType.NOR
    )
    if base_and_or:
        from .gatetype import controlling_value, is_inverted

        cv = controlling_value(gate.gtype)
        if any(value == cv for value in const_values.values()):
            out = (0 if cv == 0 else 1)
            if is_inverted(gate.gtype):
                out = 1 - out
            network.set_fanins(name, [])
            network.set_gate_type(
                name, GateType.CONST1 if out else GateType.CONST0
            )
            return
        # all constants non-controlling: drop them
        keep = [
            net for index, net in enumerate(gate.fanins)
            if index not in const_values
        ]
        inverted = is_inverted(gate.gtype)
        network.set_fanins(name, keep)
        if len(keep) == 1:
            network.set_gate_type(
                name, GateType.INV if inverted else GateType.BUF
            )
        return
    # XOR class: constants toggle or preserve polarity
    parity = sum(const_values.values()) % 2
    keep = [
        net for index, net in enumerate(gate.fanins)
        if index not in const_values
    ]
    from .gatetype import is_inverted

    inverted = is_inverted(gate.gtype) ^ (parity == 1)
    network.set_fanins(name, keep)
    if len(keep) == 1:
        network.set_gate_type(name, GateType.INV if inverted else GateType.BUF)
    else:
        network.set_gate_type(
            name, GateType.XNOR if inverted else GateType.XOR
        )


def collapse_wire_pairs(network: Network) -> int:
    """Cancel INV-INV and BUF chains by retargeting their consumers.

    Returns the number of pins retargeted.  Dangling wire gates are left
    for :func:`sweep` to reclaim.
    """
    retargeted = 0
    for name in network.topo_order():
        gate = network.gate(name)
        if gate.gtype not in (GateType.INV, GateType.BUF):
            continue
        source = gate.fanins[0]
        source_driver = network.driver(source)
        target: str | None = None
        if gate.gtype is GateType.BUF:
            target = source
        elif (
            source_driver is not None
            and source_driver.gtype is GateType.INV
        ):
            target = source_driver.fanins[0]
        if target is None:
            continue
        for pin in list(network.fanout(name)):
            network.replace_fanin(pin, target)
            retargeted += 1
        if network.is_output(name) and not network.is_input(target):
            network.replace_output(name, target)
            retargeted += 1
    return retargeted


def sweep(network: Network) -> int:
    """Remove gates not reachable from any primary output.

    Returns the number of gates removed.
    """
    removed = 0
    while True:
        dead = dangling_gates(network)
        if not dead:
            return removed
        # remove in reverse topological order so outputs are free first
        order = [name for name in network.topo_order() if name in dead]
        for name in reversed(order):
            try:
                network.remove_gate(name)
                removed += 1
            except NetworkError:
                # still referenced by another dead gate removed later
                continue


def cleanup(network: Network) -> dict[str, int]:
    """Run constant propagation, wire collapsing and sweep to fixpoint."""
    totals = {"folded": 0, "retargeted": 0, "swept": 0}
    while True:
        folded = propagate_constants(network)
        retargeted = collapse_wire_pairs(network)
        swept = sweep(network)
        totals["folded"] += folded
        totals["retargeted"] += retargeted
        totals["swept"] += swept
        if not (folded or retargeted or swept):
            return totals
