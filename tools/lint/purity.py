"""Rule family P — the projection-only pricing contract.

Functions marked ``@projection_only`` (see :mod:`repro.contracts`)
price candidate moves purely from cached analysis state.  This rule
walks a module-local call graph from every marked function — direct
calls to same-module functions, ``self.``/``cls.`` calls to
same-class methods — and flags any reachable call whose target name
is a mutating :class:`~repro.network.netlist.Network` API or the
listener machinery itself (``_touch`` / ``notify_network_event``),
per :data:`repro.contracts.MUTATING_NETWORK_METHODS`.

The walk is deliberately name-based: ``anything.replace_fanin(...)``
is flagged no matter what the receiver is, because the mutator names
are unique to ``Network`` in this codebase and a false negative here
costs a silent engine-corruption bug.  Cross-module calls through
attributes the walk cannot resolve (``engine.swap_gain(...)``) end
the walk — mark the callee in *its* module to extend coverage.

Suppression pragma: ``# lint: allow(purity)``.
"""

from __future__ import annotations

import ast

from .core import Finding, Module, decorator_names, load_contracts

RULE = "purity"

MARKER = "projection_only"


def _mutator_names() -> frozenset[str]:
    return load_contracts().MUTATING_NETWORK_METHODS


def _receiver_is_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id in (
        "self",
        "cls",
    )


def _walk_function(
    module: Module,
    func: ast.FunctionDef,
    classname: str | None,
    module_funcs: dict[str, ast.FunctionDef],
    class_methods: dict[str, dict[str, ast.FunctionDef]],
    chain: list[str],
    visited: set[int],
    findings: list[Finding],
) -> None:
    if id(func) in visited:
        return
    visited.add(id(func))
    mutators = _mutator_names()
    label = ".".join(chain)
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Attribute):
            if target.attr in mutators:
                if not module.allows(RULE, node.lineno):
                    via = f" (reached via {label})" if len(chain) > 1 else ""
                    findings.append(
                        Finding(
                            RULE,
                            module.path,
                            node.lineno,
                            f"projection-only {chain[0]!r} reaches mutating "
                            f"call .{target.attr}(){via}",
                        )
                    )
            elif _receiver_is_self(target) and classname is not None:
                method = class_methods.get(classname, {}).get(target.attr)
                if method is not None:
                    _walk_function(
                        module,
                        method,
                        classname,
                        module_funcs,
                        class_methods,
                        chain + [target.attr],
                        visited,
                        findings,
                    )
        elif isinstance(target, ast.Name):
            callee = module_funcs.get(target.id)
            if callee is not None:
                _walk_function(
                    module,
                    callee,
                    None,
                    module_funcs,
                    class_methods,
                    chain + [target.id],
                    visited,
                    findings,
                )


def check(modules: list[Module]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        module_funcs: dict[str, ast.FunctionDef] = {}
        class_methods: dict[str, dict[str, ast.FunctionDef]] = {}
        marked: list[tuple[ast.FunctionDef, str | None]] = []
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                module_funcs[node.name] = node
                if MARKER in decorator_names(node):
                    marked.append((node, None))
            elif isinstance(node, ast.ClassDef):
                methods = {
                    item.name: item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                class_methods[node.name] = methods
                for item in methods.values():
                    if MARKER in decorator_names(item):
                        marked.append((item, node.name))
        for func, classname in marked:
            _walk_function(
                module,
                func,
                classname,
                module_funcs,
                class_methods,
                [func.name],
                set(),
                findings,
            )
    return findings
