"""A compact reduced ordered binary decision diagram (ROBDD) package.

Combinational equivalence of rewired networks on cones too wide for
exhaustive truth tables is decided by this self-contained BDD
manager.  Nodes are hash-consed triples ``(level, low, high)``
referenced by integer ids; 0 and 1 are the terminal ids.  Complement
edges are not used; the structure favours clarity over raw capacity,
which suits the cone sizes the rewiring engine produces.
"""

from __future__ import annotations

from typing import Callable, Container

from ..network.gatetype import GateType, base_type, is_inverted
from ..network.netlist import Network

ZERO = 0
ONE = 1

_TERMINAL_LEVEL = 1 << 30


class BddManager:
    """Hash-consed ROBDD node store with an ITE-based apply."""

    def __init__(self, var_names: list[str] | None = None) -> None:
        # nodes[id] = (level, low, high); ids 0/1 are terminals
        self._nodes: list[tuple[int, int, int]] = [
            (_TERMINAL_LEVEL, 0, 0),
            (_TERMINAL_LEVEL, 1, 1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self.var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        for name in var_names or []:
            self.declare(name)

    # ------------------------------------------------------------------
    # variables and raw nodes
    # ------------------------------------------------------------------
    def declare(self, name: str) -> int:
        """Declare a variable (appended to the order); returns its level."""
        if name in self._var_index:
            return self._var_index[name]
        level = len(self.var_names)
        self.var_names.append(name)
        self._var_index[name] = level
        return level

    def var(self, name: str) -> int:
        """BDD for the positive literal of *name* (declared on demand)."""
        level = self.declare(name)
        return self._mk(level, ZERO, ONE)

    def level_of(self, node: int) -> int:
        """Variable level of *node* (terminals sort last)."""
        return self._nodes[node][0]

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node_id
        return node_id

    # ------------------------------------------------------------------
    # boolean operations (all via ITE)
    # ------------------------------------------------------------------
    def ite(self, cond: int, then_: int, else_: int) -> int:
        """If-then-else: the universal binary-operation kernel."""
        if cond == ONE:
            return then_
        if cond == ZERO:
            return else_
        if then_ == else_:
            return then_
        if then_ == ONE and else_ == ZERO:
            return cond
        key = (cond, then_, else_)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(
            self.level_of(cond), self.level_of(then_), self.level_of(else_)
        )
        c0, c1 = self._split(cond, level)
        t0, t1 = self._split(then_, level)
        e0, e1 = self._split(else_, level)
        low = self.ite(c0, t0, e0)
        high = self.ite(c1, t1, e1)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def _split(self, node: int, level: int) -> tuple[int, int]:
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    def not_(self, node: int) -> int:
        return self.ite(node, ZERO, ONE)

    def and_(self, lhs: int, rhs: int) -> int:
        return self.ite(lhs, rhs, ZERO)

    def or_(self, lhs: int, rhs: int) -> int:
        return self.ite(lhs, ONE, rhs)

    def xor(self, lhs: int, rhs: int) -> int:
        return self.ite(lhs, self.not_(rhs), rhs)

    def apply_many(
        self, op: Callable[[int, int], int], operands: list[int]
    ) -> int:
        """Left fold of a binary operation over *operands*."""
        if not operands:
            raise ValueError("apply_many needs at least one operand")
        acc = operands[0]
        for operand in operands[1:]:
            acc = op(acc, operand)
        return acc


def cone_bdd(
    network: Network, manager: BddManager, root: str, cut: Container[str]
) -> int:
    """BDD of *root*'s cone with cut (and primary-input) nets as variables.

    Variables are declared on demand, so only the cone's inputs and cut
    nets enter the order; on a manager declared in primary-input order,
    an empty *cut* gives the cone's function over the primary inputs.
    """
    funcs: dict[str, int] = {}
    stack = [root]
    while stack:
        net = stack.pop()
        if net in funcs:
            continue
        if net in cut or network.is_input(net):
            funcs[net] = manager.var(net)
            continue
        gate = network.gate(net)
        if gate.gtype is GateType.CONST0:
            funcs[net] = ZERO
            continue
        if gate.gtype is GateType.CONST1:
            funcs[net] = ONE
            continue
        pending = [f for f in gate.fanins if f not in funcs]
        if pending:
            stack.append(net)
            stack.extend(pending)
            continue
        operands = [funcs[f] for f in gate.fanins]
        base = base_type(gate.gtype)
        if base is GateType.AND:
            value = manager.apply_many(manager.and_, operands)
        elif base is GateType.OR:
            value = manager.apply_many(manager.or_, operands)
        elif base is GateType.XOR:
            value = manager.apply_many(manager.xor, operands)
        else:  # BUF base
            value = operands[0]
        if is_inverted(gate.gtype):
            value = manager.not_(value)
        funcs[net] = value
    return funcs[root]
