"""Fluent construction helper for Boolean networks.

Circuit generators (``repro.suite``) and tests build networks through
this class; it hands out fresh names, folds trivial cases (one-input
AND becomes a BUF) and balances wide gates into trees when asked.
"""

from __future__ import annotations

from .gatetype import GateType
from .netlist import Network


class NetworkBuilder:
    """Incrementally build a :class:`Network` with auto-named gates."""

    def __init__(self, name: str = "top") -> None:
        self.network = Network(name)
        self._counter = 0

    # ------------------------------------------------------------------
    def input(self, name: str | None = None) -> str:
        """Add a primary input, auto-named ``i<N>`` when unnamed."""
        if name is None:
            name = self._fresh("i")
        return self.network.add_input(name)

    def inputs(self, count: int, prefix: str = "i") -> list[str]:
        """Add *count* primary inputs named ``<prefix><index>``."""
        return [
            self.network.add_input(f"{prefix}{index}")
            for index in range(count)
        ]

    def output(self, net: str) -> str:
        """Mark *net* as a primary output."""
        return self.network.add_output(net)

    # ------------------------------------------------------------------
    def gate(
        self, gtype: GateType, *fanins: str, name: str | None = None
    ) -> str:
        """Add a gate; trivial arities are folded to BUF/INV."""
        nets = list(fanins)
        if name is None:
            name = self._fresh(gtype.value)
        if gtype in (GateType.AND, GateType.OR) and len(nets) == 1:
            gtype = GateType.BUF
        if gtype in (GateType.NAND, GateType.NOR) and len(nets) == 1:
            gtype = GateType.INV
        if gtype is GateType.XOR and len(nets) == 1:
            gtype = GateType.BUF
        if gtype is GateType.XNOR and len(nets) == 1:
            gtype = GateType.INV
        self.network.add_gate(name, gtype, nets)
        return name

    def and_(self, *fanins: str, name: str | None = None) -> str:
        return self.gate(GateType.AND, *fanins, name=name)

    def or_(self, *fanins: str, name: str | None = None) -> str:
        return self.gate(GateType.OR, *fanins, name=name)

    def xor(self, *fanins: str, name: str | None = None) -> str:
        return self.gate(GateType.XOR, *fanins, name=name)

    def nand(self, *fanins: str, name: str | None = None) -> str:
        return self.gate(GateType.NAND, *fanins, name=name)

    def nor(self, *fanins: str, name: str | None = None) -> str:
        return self.gate(GateType.NOR, *fanins, name=name)

    def xnor(self, *fanins: str, name: str | None = None) -> str:
        return self.gate(GateType.XNOR, *fanins, name=name)

    def inv(self, fanin: str, name: str | None = None) -> str:
        return self.gate(GateType.INV, fanin, name=name)

    def buf(self, fanin: str, name: str | None = None) -> str:
        return self.gate(GateType.BUF, fanin, name=name)

    # ------------------------------------------------------------------
    def tree(
        self,
        gtype: GateType,
        nets: list[str],
        fanin_limit: int = 2,
        name: str | None = None,
        style: str = "balanced",
    ) -> str:
        """Tree of *gtype* gates over *nets*.

        ``style="balanced"`` builds a minimum-depth tree;
        ``style="chain"`` builds a left-deep chain — chains over
        canonically ordered operands maximize shared prefixes, which
        structural hashing then merges into multi-fanout nodes (the way
        multi-level synthesis shares common subexpressions).  The final
        gate carries *name* when given.
        """
        if not nets:
            raise ValueError("tree needs at least one input net")
        if gtype in (GateType.NAND, GateType.NOR, GateType.XNOR):
            inner = {
                GateType.NAND: GateType.AND,
                GateType.NOR: GateType.OR,
                GateType.XNOR: GateType.XOR,
            }[gtype]
            wide = self.tree(inner, nets, fanin_limit, style=style)
            return self.inv(wide, name=name)
        if style == "chain":
            level = list(nets)
            while len(level) > 1:
                left = self.gate(gtype, level[0], level[1])
                level = [left] + level[2:]
            if name is None:
                return level[0]
            return self.buf(level[0], name=name)
        level = list(nets)
        while len(level) > fanin_limit:
            grouped: list[str] = []
            for start in range(0, len(level), fanin_limit):
                chunk = level[start:start + fanin_limit]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                else:
                    grouped.append(self.gate(gtype, *chunk))
            level = grouped
        if len(level) == 1:
            if name is None:
                return level[0]
            return self.buf(level[0], name=name)
        return self.gate(gtype, *level, name=name)

    def mux(self, select: str, when0: str, when1: str,
            name: str | None = None) -> str:
        """2:1 multiplexer: ``select ? when1 : when0``."""
        sel_n = self.inv(select)
        leg0 = self.and_(sel_n, when0)
        leg1 = self.and_(select, when1)
        return self.or_(leg0, leg1, name=name)

    def half_adder(self, a: str, b: str) -> tuple[str, str]:
        """Return (sum, carry)."""
        return self.xor(a, b), self.and_(a, b)

    def full_adder(self, a: str, b: str, carry_in: str) -> tuple[str, str]:
        """Return (sum, carry_out) built from two half adders."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, carry_in)
        return s2, self.or_(c1, c2)

    # ------------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        while True:
            candidate = f"{prefix}{self._counter}"
            self._counter += 1
            if candidate not in self.network:
                return candidate

    def build(self) -> Network:
        """Return the constructed network."""
        return self.network
