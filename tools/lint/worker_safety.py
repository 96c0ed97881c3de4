"""Rule family W — worker-side module-global safety.

:class:`~repro.parallel.pool.EvalPool` runs worker code in children
forked from the live process, and a child's writes vanish with it.
Any module-level mutable state written by worker-side code therefore
silently differs between the parallel and the serial path
(``rapids.engine.SUPERGATE_STORE`` is the canonical parent-side
example of the pattern this rule fences off).

The rule walks a cross-module call graph from every function marked
``@worker_entry`` (see :mod:`repro.contracts`), resolving:

* plain calls to same-module functions;
* ``self.``/``cls.`` calls to same-class methods;
* imported names (``from ..x import f``; ``f()``), including imports
  inside function bodies;
* ``Class.method(...)`` / ``module.function(...)`` attribute calls
  whose head resolves through the import map.

Within every reachable function, a write to a module-level name of
*that function's own module* is flagged: ``global`` rebinding,
subscript stores (``CACHE[k] = v``), attribute stores, deletes, and
mutating method calls (``.update``, ``.append``, ``.clear``, ...).

Intentional worker-side caches carry ``# lint: allow(worker-global)``
at the write site.
"""

from __future__ import annotations

import ast

from .core import (
    Finding,
    FunctionInfo,
    Project,
    decorator_names,
    local_names,
    module_level_names,
)

RULE = "worker-global"

MARKER = "worker_entry"

_MUTATING_METHODS = frozenset({
    "add",
    "append",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "move_to_end",
    "sort",
    "reverse",
})


def _entry_points(project: Project) -> list[FunctionInfo]:
    return [
        info
        for info in project.functions.values()
        if MARKER in decorator_names(info.node)
    ]


def _resolve_call(
    project: Project, info: FunctionInfo, call: ast.Call
) -> FunctionInfo | None:
    """Best-effort static resolution of a call site to a FunctionInfo."""
    target = call.func
    module = info.module
    if isinstance(target, ast.Name):
        # same-module function first, then imported names
        qualname = f"{module.modname}.{target.id}"
        if qualname in project.functions:
            return project.functions[qualname]
        imported = module.import_map.get(target.id)
        if imported:
            if imported in project.functions:
                return project.functions[imported]
            # a class: treat a call as its constructor
            init = project.classes.get(imported, {}).get("__init__")
            if init is not None:
                return init
    elif isinstance(target, ast.Attribute):
        if (
            isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
            and info.classname is not None
        ):
            class_qual = f"{module.modname}.{info.classname}"
            return project.classes.get(class_qual, {}).get(target.attr)
        qualified = module.qualified(target)
        if qualified:
            if qualified in project.functions:
                return project.functions[qualified]
            init = project.classes.get(qualified, {}).get("__init__")
            if init is not None:
                return init
    return None


def _check_function(info: FunctionInfo, findings: list[Finding]) -> None:
    module = info.module
    func = info.node
    globals_of_module = module_level_names(module)
    locals_of_func = local_names(func)

    def is_module_global(name: str) -> bool:
        return name in globals_of_module and name not in locals_of_func

    def flag(lineno: int, message: str) -> None:
        if not module.allows(RULE, lineno):
            findings.append(Finding(RULE, module.path, lineno, message))

    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    flag(
                        node.lineno,
                        f"worker-reachable {func.name!r} rebinds module "
                        f"global {target.id!r}",
                    )
                elif isinstance(
                    target, (ast.Subscript, ast.Attribute)
                ) and isinstance(target.value, ast.Name):
                    name = target.value.id
                    if is_module_global(name):
                        flag(
                            node.lineno,
                            f"worker-reachable {func.name!r} writes into "
                            f"module global {name!r}",
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                inner = target
                if isinstance(inner, (ast.Subscript, ast.Attribute)):
                    inner = inner.value
                if isinstance(inner, ast.Name) and is_module_global(
                    inner.id
                ):
                    flag(
                        node.lineno,
                        f"worker-reachable {func.name!r} deletes from "
                        f"module global {inner.id!r}",
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            attr = node.func
            if attr.attr in _MUTATING_METHODS and isinstance(
                attr.value, ast.Name
            ):
                name = attr.value.id
                if is_module_global(name):
                    flag(
                        node.lineno,
                        f"worker-reachable {func.name!r} mutates module "
                        f"global {name!r} via .{attr.attr}()",
                    )


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for entry in _entry_points(project):
        visited: set[str] = set()
        stack = [entry]
        while stack:
            info = stack.pop()
            if info.qualname in visited:
                continue
            visited.add(info.qualname)
            _check_function(info, findings)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    callee = _resolve_call(project, info, node)
                    if callee is not None and callee.qualname not in visited:
                        stack.append(callee)
    # two entry points reaching the same bad write would double-report
    unique: dict[tuple, Finding] = {}
    for finding in findings:
        unique[(finding.path, finding.line, finding.message)] = finding
    return sorted(
        unique.values(), key=lambda f: (str(f.path), f.line, f.message)
    )
