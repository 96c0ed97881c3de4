"""BLIF reader.

SIS — the system the paper's prototype was built on — exchanges logic
through the Berkeley Logic Interchange Format.  The reader accepts the
combinational subset (``.model``, ``.inputs``, ``.outputs``, ``.names``
with arbitrary two-level covers, ``.latch`` is skipped with its output
re-declared as a pseudo primary input, matching the paper's treatment
of "sequential circuits ... with all sequential elements removed") and
refuses anything else with an error naming the line.
Arbitrary single-output covers are synthesized into OR-of-AND trees so
any BLIF file becomes a gate network.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .gatetype import GateType
from .netlist import Network, NetworkError


def _tokens(handle: TextIO) -> Iterable[tuple[int, list[str]]]:
    """Yield ``(line number, tokens)`` per logical line; a line folded
    from continuations carries the number of its first physical line."""
    pending = ""
    start = 0
    for number, raw in enumerate(handle, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        if not pending:
            start = number
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        full = pending + line
        pending = ""
        parts = full.split()
        if parts:
            yield start, parts
    if pending.strip():
        yield start, pending.split()


class _NamesBlock:
    def __init__(self, signals: list[str]) -> None:
        self.inputs = signals[:-1]
        self.output = signals[-1]
        self.cubes: list[tuple[str, str]] = []  # (input pattern, output bit)

    def add_cube(self, parts: list[str]) -> str | None:
        """Record one cover row; returns what is wrong with it, if anything."""
        if not self.inputs and len(parts) == 1:
            parts = ["", parts[0]]
        if len(parts) != 2:
            return f"expected an input pattern and an output bit, got {parts}"
        pattern, bit = parts
        width = len(self.inputs)
        if len(pattern) != width:
            return f"cube {pattern!r} has {len(pattern)} literals, not {width}"
        if set(pattern) - set("01-"):
            return f"cube {pattern!r} holds a character other than 0, 1, -"
        if bit not in ("0", "1"):
            return f"output bit {bit!r} is not 0 or 1"
        if self.cubes and bit != self.cubes[0][1]:
            return "cover mixes on-set and off-set rows"
        self.cubes.append((pattern, bit))
        return None


def read_blif(handle: TextIO, name: str | None = None) -> Network:
    """Read a combinational BLIF model from a file object.

    Anything outside the supported subset (another directive, a line
    outside a cover, a malformed cover row) raises :class:`NetworkError`
    naming the line.
    """
    model_name = name or "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    blocks: list[_NamesBlock] = []
    latch_outputs: list[str] = []
    current: _NamesBlock | None = None
    for number, parts in _tokens(handle):
        key = parts[0]
        problem = None
        if key.startswith("."):
            current = None  # every directive ends a cover
        if key == ".model":
            if len(parts) > 1 and name is None:
                model_name = parts[1]
        elif key == ".inputs":
            inputs.extend(parts[1:])
        elif key == ".outputs":
            outputs.extend(parts[1:])
        elif key == ".names":
            if len(parts) < 2:
                problem = ".names declares no signals"
            else:
                current = _NamesBlock(parts[1:])
                blocks.append(current)
        elif key == ".latch":
            # .latch input output [type clock] [init]
            if len(parts) < 3:
                problem = ".latch needs an input and an output"
            else:
                latch_outputs.append(parts[2])
        elif key.startswith("."):
            if key != ".end":
                problem = f"unsupported directive {key}"
        elif current is None:
            problem = f"{' '.join(parts)!r} is outside a .names cover"
        else:
            problem = current.add_cube(parts)
        if problem is not None:
            raise NetworkError(f"line {number}: {problem}")
    network = Network(model_name)
    for pi in inputs:
        network.add_input(pi)
    for latch_out in latch_outputs:
        if latch_out not in network:
            network.add_input(latch_out)
    for block in blocks:
        _synthesize_block(network, block)
    for po in outputs:
        if po not in network:
            raise NetworkError(f"primary output {po!r} is never defined")
        network.add_output(po)
    return network


def _synthesize_block(network: Network, block: _NamesBlock) -> None:
    """Turn a two-level cover into gates driving ``block.output``."""
    out = block.output
    if not block.cubes:
        network.add_gate(out, GateType.CONST0)
        return
    off_set = block.cubes[0][1] == "0"  # the reader refuses mixed covers
    if not block.inputs and not off_set:
        network.add_gate(out, GateType.CONST1)
        return
    product_nets = [
        _synthesize_cube(network, block.inputs, pattern, out)
        for pattern, _ in block.cubes
    ]
    single = len(product_nets) == 1
    if off_set:  # complement of the OR of the cubes
        gtype = GateType.INV if single else GateType.NOR
    else:
        gtype = GateType.BUF if single else GateType.OR
    network.add_gate(out, gtype, product_nets)


def _synthesize_cube(
    network: Network, inputs: list[str], pattern: str, prefix: str
) -> str:
    """Build the AND of the literals selected by *pattern*; return its net."""
    literals: list[str] = []
    for net, char in zip(inputs, pattern):
        if char == "1":
            literals.append(net)
        elif char == "0":
            inv = _inverted_net(network, net)
            literals.append(inv)
    if not literals:
        const = network.fresh_name(f"{prefix}_t1")
        network.add_gate(const, GateType.CONST1)
        return const
    if len(literals) == 1:
        return literals[0]
    cube = network.fresh_name(f"{prefix}_c")
    network.add_gate(cube, GateType.AND, literals)
    return cube


def _inverted_net(network: Network, net: str) -> str:
    for pin in network.fanout(net):
        gate = network.gate(pin.gate)
        if gate.gtype is GateType.INV:
            return gate.name
    inv = network.fresh_name(f"{net}_n")
    network.add_gate(inv, GateType.INV, [net])
    return inv

