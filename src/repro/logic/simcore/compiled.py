"""Compiled network form: the Network flattened into index arrays.

A :class:`CompiledNetwork` is a one-time flattening of a
:class:`~repro.network.netlist.Network` into topologically ordered
opcode / fanin-index / output-index arrays.  Every net gets a dense
integer index — primary inputs first (in PI order), then gate outputs
in topological order — so the evaluator can hold the whole network
state in one flat list of bigint words and fill it with a single
forward sweep that never touches a dict or a Gate object.

The compiled form is an immutable *snapshot*: it records the network
``version`` it was built from, and :func:`get_compiled` recompiles when
the network has mutated since (every mutation bumps the version, so a
stale hit is impossible).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ...network.gatetype import GateType
from ...network.netlist import Network

#: Base opcodes of the compiled form.  Inversion is a separate flag so
#: NAND compiles to ``(OP_AND, invert=True)`` exactly like the
#: :mod:`repro.network.gatetype` algebra.
OP_AND, OP_OR, OP_XOR, OP_BUF, OP_CONST0, OP_CONST1 = range(6)

_OPCODE: dict[GateType, tuple[int, bool]] = {
    GateType.AND: (OP_AND, False),
    GateType.NAND: (OP_AND, True),
    GateType.OR: (OP_OR, False),
    GateType.NOR: (OP_OR, True),
    GateType.XOR: (OP_XOR, False),
    GateType.XNOR: (OP_XOR, True),
    GateType.BUF: (OP_BUF, False),
    GateType.INV: (OP_BUF, True),
    GateType.CONST0: (OP_CONST0, False),
    GateType.CONST1: (OP_CONST1, False),
}


@dataclass
class CompiledNetwork:
    """Flat, index-based snapshot of a network for bit-parallel sweeps.

    ``num_inputs`` primary inputs occupy net indices ``0 .. P-1``; the
    gate at topological position ``g`` drives net index ``P + g``.
    ``fanin_flat[fanin_offset[g]:fanin_offset[g+1]]`` are gate ``g``'s
    fanin net indices in pin order.
    """

    name: str
    version: int
    inputs: tuple[str, ...]
    gate_names: tuple[str, ...]          # topological order
    opcode: list[int]
    invert: list[bool]
    fanin_offset: list[int]
    fanin_flat: list[int]
    po_index: list[int]
    net_index: dict[str, int]

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_gates(self) -> int:
        return len(self.gate_names)


def compile_network(network: Network) -> CompiledNetwork:
    """Flatten *network* into a fresh :class:`CompiledNetwork`."""
    inputs = tuple(network.inputs)
    order = tuple(network.topo_order())
    net_index: dict[str, int] = {net: i for i, net in enumerate(inputs)}
    base = len(inputs)
    for position, name in enumerate(order):
        net_index[name] = base + position
    opcode: list[int] = []
    invert: list[bool] = []
    fanin_offset: list[int] = [0]
    fanin_flat: list[int] = []
    for name in order:
        gate = network.gate(name)
        op, inv = _OPCODE[gate.gtype]
        opcode.append(op)
        invert.append(inv)
        for fanin in gate.fanins:
            fanin_flat.append(net_index[fanin])
        fanin_offset.append(len(fanin_flat))
    return CompiledNetwork(
        name=network.name,
        version=network.version,
        inputs=inputs,
        gate_names=order,
        opcode=opcode,
        invert=invert,
        fanin_offset=fanin_offset,
        fanin_flat=fanin_flat,
        po_index=[net_index[net] for net in network.outputs],
        net_index=net_index,
    )


_SNAPSHOTS: "weakref.WeakKeyDictionary[Network, CompiledNetwork]" = (
    weakref.WeakKeyDictionary()
)


def get_compiled(network: Network) -> CompiledNetwork:
    """Compiled snapshot of *network*'s current version.

    One snapshot is cached per network, held weakly so a dropped
    network takes its snapshot with it.  A repeat call returns the
    identical object until ``network.version`` moves; the next call
    after any mutation compiles a fresh snapshot.
    """
    compiled = _SNAPSHOTS.get(network)
    if compiled is None or compiled.version != network.version:
        compiled = compile_network(network)
        _SNAPSHOTS[network] = compiled
    return compiled
