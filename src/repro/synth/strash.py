"""Structural hashing and light logic cleanup (the ``script.rugged`` stand-in).

SIS's ``script.rugged`` performs algebraic restructuring before
mapping.  A full multi-level optimizer is out of scope for the
reproduction (the rewiring engine's input is *any* mapped netlist);
what matters is that the netlist handed to mapping is deduplicated and
constant-free so gate counts and supergate statistics are meaningful.
This module provides:

* constant propagation and sweeping (via ``repro.network.transform``),
* structural hashing: gates with the same type and fanin multiset are
  merged (commutative functions compare unordered),
* single-fanin simplifications (one-input AND becomes a buffer, etc.).
"""

from __future__ import annotations

from ..network.gatetype import GateType, base_type, is_inverted
from ..network.netlist import Network
from ..network.transform import cleanup


def _signature(network: Network, name: str) -> tuple:
    gate = network.gate(name)
    fanins = tuple(sorted(gate.fanins))
    return (gate.gtype, fanins)


def strash(network: Network) -> int:
    """Merge structurally identical gates; returns gates merged.

    Runs to a fixpoint: merging two gates can make their consumers
    identical in turn.
    """
    merged_total = 0
    while True:
        seen: dict[tuple, str] = {}
        replacements: dict[str, str] = {}
        for name in network.topo_order():
            signature = _signature(network, name)
            keeper = seen.get(signature)
            if keeper is None:
                seen[signature] = name
            else:
                replacements[name] = keeper
        if not replacements:
            return merged_total
        for loser, keeper in replacements.items():
            for pin in list(network.fanout(loser)):
                network.replace_fanin(pin, keeper)
            if network.is_output(loser):
                network.replace_output(loser, keeper)
        from ..network.transform import sweep

        sweep(network)
        merged_total += len(replacements)


def simplify_trivial(network: Network) -> int:
    """Rewrite degenerate gates: one-input AND/OR to BUF, XOR to BUF, etc.

    The builder already folds these at construction time; generators
    that edit networks afterwards can end up with them again.
    Returns the number of gates rewritten.
    """
    rewritten = 0
    for name in list(network.gate_names()):
        gate = network.gate(name)
        if gate.arity() != 1:
            continue
        base = base_type(gate.gtype)
        if base in (GateType.AND, GateType.OR, GateType.XOR):
            new_type = GateType.INV if is_inverted(gate.gtype) else GateType.BUF
            network.set_gate_type(name, new_type)
            rewritten += 1
    return rewritten


def script_rugged(network: Network) -> dict[str, int]:
    """Cleanup pipeline applied before technology mapping.

    Named after the SIS script the paper uses; performs the subset that
    affects the statistics the paper reports (no algebraic division).
    """
    stats = {"simplified": simplify_trivial(network)}
    stats.update(cleanup(network))
    stats["merged"] = strash(network)
    stats.update(
        {f"post_{key}": val for key, val in cleanup(network).items()}
    )
    return stats
