"""ISCAS ``.bench`` reader.

The ISCAS'85/'89 benchmark suites the paper evaluates on are
conventionally distributed in the ``.bench`` format::

    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G17 = DFF(G10)

``DFF`` elements are removed per the paper ("sequential circuits are
treated as combinational ones with all sequential elements removed"):
each flip-flop output becomes a pseudo primary input and its data input
a pseudo primary output.
"""

from __future__ import annotations

import re
from typing import TextIO

from .gatetype import GateType
from .netlist import Network, NetworkError

_GATE_TYPES = {
    "AND": GateType.AND,
    "OR": GateType.OR,
    "XOR": GateType.XOR,
    "NAND": GateType.NAND,
    "NOR": GateType.NOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.INV,
    "INV": GateType.INV,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
}

_ASSIGN = re.compile(
    r"^\s*([\w.\[\]$]+)\s*=\s*(\w+)\s*\(([^)]*)\)\s*$"
)
_IO = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([\w.\[\]$]+)\s*\)\s*$")


def read_bench(handle: TextIO, name: str = "bench") -> Network:
    """Read a ``.bench`` netlist, stripping sequential elements."""
    network = Network(name)
    outputs: list[str] = []
    assignments: list[tuple[str, str, list[str]]] = []
    for raw in handle:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO.match(line)
        if io_match:
            kind, net = io_match.groups()
            if kind == "INPUT":
                network.add_input(net)
            else:
                outputs.append(net)
            continue
        assign = _ASSIGN.match(line)
        if not assign:
            raise NetworkError(f"unparseable .bench line: {line!r}")
        target, func, arg_text = assign.groups()
        args = [arg.strip() for arg in arg_text.split(",") if arg.strip()]
        assignments.append((target, func.upper(), args))
    for target, func, args in assignments:
        if func in ("DFF", "DFFSR", "LATCH"):
            # flip-flop: output is a pseudo PI, data input a pseudo PO
            if target not in network:
                network.add_input(target)
            outputs.extend(args[:1])
            continue
        gtype = _GATE_TYPES.get(func)
        if gtype is None:
            raise NetworkError(f"unknown .bench gate function {func!r}")
        if gtype in (GateType.INV, GateType.BUF) and len(args) != 1:
            raise NetworkError(f"{func} takes one argument: {target}")
        network.add_gate(target, gtype, args)
    for net in outputs:
        if net not in network:
            raise NetworkError(f"output {net!r} is never defined")
        network.add_output(net)
    return network

