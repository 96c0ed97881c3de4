"""Rule family D — hash-seed determinism in marked modules.

Modules that declare ``__deterministic__ = True`` promise that their
float accumulations, selections, and tie-breaks never follow
set-iteration order (which is ``PYTHONHASHSEED``-dependent).  This is
exactly the PR-2 bug class: ``placer._anneal`` summed HPWL deltas in
set order, ``TimingEngine.resize_gain`` folded fanin caps in set
order, and ``rapids.moves._bounded_swaps`` truncated a sorted-by-
float-key list whose ties fell back to set order.

What counts as **unordered** (tracked per function, syntactically):

* set literals, set comprehensions, ``set(...)``/``frozenset(...)``;
* set-algebra results (``|``, ``&``, ``-``, ``^``, ``.union()``, ...)
  of anything unordered;
* names assigned from the above inside the same function;
* names/attributes *annotated* ``set[...]`` / ``frozenset[...]`` —
  including ``self.attr`` annotations collected from the enclosing
  class (so long-lived dirty-sets are covered);
* ``list(U)``, ``tuple(U)``, ``enumerate(U)``, ``iter(U)`` and
  ``reversed(U)`` of an unordered ``U``: they keep its set order.

Only ``sorted(...)`` launders an unordered value into a deterministic
one (dict iteration is insertion-ordered in modern Python and is
*not* flagged).

The flagged sinks:

* **D1**: ``sum(U)`` / ``sum(... for x in U)`` — float accumulation
  in set order;
* **D2**: ``for x in U:`` whose body accumulates (``+=`` / ``-=``) —
  same hazard, spelled as a loop;
* **D3**: ``for x in U:`` whose body updates state under an ordering
  comparison (``if score > best: best = ...``) — first-wins selection
  depends on iteration order;
* **D4**: ``min``/``max``/``sorted`` over ``U`` with a ``key=`` whose
  lambda does not fold the element itself into a tie-breaking tuple —
  equal keys fall back to set order (the ``_bounded_swaps`` bug; the
  fix is ``key=lambda p: (score(p), p)``).

Suppression pragma: ``# lint: allow(determinism)``.
"""

from __future__ import annotations

import ast

from .core import Finding, Module

RULE = "determinism"

_SET_METHODS = frozenset({
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
})
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
#: calls whose result iterates in their argument's order
_ORDER_KEEPING = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


def is_marked(module: Module) -> bool:
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__deterministic__"
                for t in node.targets
            ):
                return bool(
                    isinstance(node.value, ast.Constant) and node.value.value
                )
    return False


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    head = text.split("[", 1)[0].strip()
    return head in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")


def _class_set_attrs(classdef: ast.ClassDef) -> set[str]:
    """Attribute names annotated as sets anywhere in the class body."""
    attrs: set[str] = set()
    for node in ast.walk(classdef):
        if isinstance(node, ast.AnnAssign) and _annotation_is_set(
            node.annotation
        ):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


class _FunctionChecker:
    def __init__(
        self,
        module: Module,
        func: ast.FunctionDef,
        set_attrs: set[str],
    ) -> None:
        self.module = module
        self.func = func
        self.set_attrs = set_attrs
        self.unordered_names: set[str] = set()
        self.findings: list[Finding] = []
        for arg, annotation in self._annotated_args():
            if _annotation_is_set(annotation):
                self.unordered_names.add(arg)

    def _annotated_args(self):
        args = self.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            yield arg.arg, arg.annotation

    # ------------------------------------------------------------------
    # unordered-ness
    # ------------------------------------------------------------------
    def is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.set_attrs
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                if func.id in _ORDER_KEEPING:
                    return any(self.is_unordered(arg) for arg in node.args)
                return False
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_METHODS:
                    return self.is_unordered(func.value) or any(
                        self.is_unordered(arg) for arg in node.args
                    )
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, _SET_BINOPS
        ):
            return self.is_unordered(node.left) or self.is_unordered(
                node.right
            )
        if isinstance(node, ast.IfExp):
            return self.is_unordered(node.body) or self.is_unordered(
                node.orelse
            )
        return False

    def _note_assignments(self) -> None:
        """One forward pass binding names assigned from unordered exprs."""
        for node in ast.walk(self.func):
            if isinstance(node, ast.Assign) and node.value is not None:
                if self.is_unordered(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.unordered_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if _annotation_is_set(node.annotation) or (
                    node.value is not None and self.is_unordered(node.value)
                ):
                    if isinstance(node.target, ast.Name):
                        self.unordered_names.add(node.target.id)

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def _arg_is_unordered_iteration(self, node: ast.Call) -> bool:
        if not node.args:
            return False
        first = node.args[0]
        if self.is_unordered(first):
            return True
        if isinstance(first, (ast.GeneratorExp, ast.ListComp)):
            return any(
                self.is_unordered(comp.iter) for comp in first.generators
            )
        return False

    def _flag(self, lineno: int, message: str) -> None:
        if not self.module.allows(RULE, lineno):
            self.findings.append(
                Finding(RULE, self.module.path, lineno, message)
            )

    def _key_has_tiebreak(self, node: ast.Call) -> bool:
        """True when a key= lambda folds the element into the key."""
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            key = keyword.value
            if not isinstance(key, ast.Lambda):
                return False  # named key function: cannot verify -> flag
            if not key.args.args:
                return False
            param = key.args.args[0].arg
            body = key.body
            if isinstance(body, ast.Name) and body.id == param:
                return True  # identity key: total order on elements
            if isinstance(body, ast.Tuple):
                return any(
                    isinstance(elt, ast.Name) and elt.id == param
                    for elt in body.elts
                )
            return False
        return True  # no key: plain value ordering, element-total
    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        self._note_assignments()
        for node in ast.walk(self.func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                name = node.func.id
                if name == "sum" and self._arg_is_unordered_iteration(node):
                    self._flag(
                        node.lineno,
                        "sum() over set iteration: float accumulation "
                        "order depends on PYTHONHASHSEED — sort first",
                    )
                elif name in ("min", "max", "sorted"):
                    if self._arg_is_unordered_iteration(
                        node
                    ) and not self._key_has_tiebreak(node):
                        self._flag(
                            node.lineno,
                            f"{name}() over a set with a key that cannot "
                            "break ties: equal keys fall back to set "
                            "order — add the element itself to the key "
                            "tuple (key=lambda x: (score(x), x))",
                        )
            elif isinstance(node, ast.For):
                if not self.is_unordered(node.iter):
                    continue
                self._check_loop_body(node)
        return self.findings

    def _check_loop_body(self, loop: ast.For) -> None:
        for node in ast.walk(loop):
            if node is loop:
                continue
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                self._flag(
                    node.lineno,
                    "accumulation inside iteration over a set: the "
                    "running value depends on PYTHONHASHSEED — iterate "
                    "sorted(...) instead",
                )
            elif isinstance(node, ast.If) and isinstance(
                node.test, ast.Compare
            ):
                if any(
                    isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE))
                    for op in node.test.ops
                ) and any(
                    isinstance(inner, (ast.Assign, ast.AugAssign))
                    for stmt in node.body
                    for inner in ast.walk(stmt)
                ):
                    self._flag(
                        node.lineno,
                        "first-wins selection inside iteration over a "
                        "set: ties resolve in PYTHONHASHSEED order — "
                        "iterate sorted(...) or make the comparison a "
                        "total order",
                    )


def check(modules: list[Module]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if not is_marked(module):
            continue
        # map each function to the set-annotated attrs of its class
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                findings.extend(
                    _FunctionChecker(module, node, set()).run()
                )
            elif isinstance(node, ast.ClassDef):
                set_attrs = _class_set_attrs(node)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        findings.extend(
                            _FunctionChecker(module, item, set_attrs).run()
                        )
    return findings
