"""Shared infrastructure for the contract linter.

The linter is purely static: target modules are parsed with
:mod:`ast`, never imported.  The two exceptions have no third-party
dependencies: the contract markers :mod:`repro.contracts`, whose
``MUTATING_NETWORK_METHODS`` the purity rule checks against, and the
knob declarations :mod:`repro.config`, which render README's CLI
table.

This module provides:

* :class:`Finding` — one reported violation;
* :class:`Module` — a parsed source file with its dotted module name,
  suppression pragmas, and per-module import map;
* :class:`Project` — the set of modules under analysis plus the
  cross-module symbol index used for call-graph walks;
* pragma handling: a line (or the line above it) carrying
  ``# lint: allow(<rule>)`` suppresses findings of that rule at that
  line.  Waivers are deliberate documentation — every one marks a
  known contract exception.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def _load_standalone(name: str, relative: str):
    """Module *relative* to ``src/repro``, executed from its file path.

    Loading it this way does not trigger ``repro/__init__`` (which
    imports the full package) — the linter must run without the
    package installed or importable, so only stdlib-only modules
    qualify.
    """
    import importlib.util

    cached = sys.modules.get(name)
    if cached is not None:
        return cached
    spec = importlib.util.spec_from_file_location(
        name, SRC / "repro" / relative
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_contracts():
    """The :mod:`repro.contracts` markers, loaded standalone."""
    return _load_standalone("_tools_lint_contracts", "contracts.py")


def load_config():
    """The :mod:`repro.config` knob declarations, loaded standalone."""
    return _load_standalone("_tools_lint_config", "config.py")


@dataclass(frozen=True)
class Finding:
    """One reported contract violation."""

    rule: str
    path: Path
    line: int
    message: str

    def render(self) -> str:
        try:
            shown = self.path.relative_to(REPO)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\(([a-z\-, ]+)\)")


class Module:
    """A parsed target file plus the lookup tables rules need."""

    def __init__(self, path: Path, modname: str, source: str) -> None:
        self.path = path
        self.modname = modname
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        #: line -> set of rule names waived on that line
        self.pragmas: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = PRAGMA_RE.search(line)
            if match:
                self.pragmas[lineno] = {
                    rule.strip() for rule in match.group(1).split(",")
                }
        self.is_package = path.name == "__init__.py"
        self._import_map: dict[str, str] | None = None

    def allows(self, rule: str, line: int) -> bool:
        """True when a pragma on *line* (or the line above) waives *rule*."""
        return rule in self.pragmas.get(line, ()) or rule in self.pragmas.get(
            line - 1, ()
        )

    # ------------------------------------------------------------------
    # import resolution
    # ------------------------------------------------------------------
    def _resolve_relative(self, level: int, module: str | None) -> str:
        parts = self.modname.split(".")
        if not self.is_package:
            parts = parts[:-1]
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        base = ".".join(parts)
        if module:
            base = f"{base}.{module}" if base else module
        return base

    @property
    def import_map(self) -> dict[str, str]:
        """Local name -> fully qualified dotted target.

        Covers ``import a.b [as c]`` and ``from x import y [as z]`` at
        any nesting depth (worker entry points import inside function
        bodies to dodge circular imports); later bindings win, which is
        close enough for lint purposes.
        """
        if self._import_map is not None:
            return self._import_map
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        table[alias.name.split(".")[0]] = alias.name.split(
                            "."
                        )[0]
            elif isinstance(node, ast.ImportFrom):
                base = (
                    self._resolve_relative(node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        self._import_map = table
        return table

    def qualified(self, node: ast.expr) -> str | None:
        """Dotted target of a Name/Attribute chain, through the imports.

        ``nl.Network`` with ``from repro.network import netlist as nl``
        resolves to ``repro.network.netlist.Network``; unresolvable
        expressions return ``None``.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.import_map.get(current.id, None)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str  # "repro.timing.sta.TimingEngine.swap_gain"
    classname: str | None  # enclosing class, if a method


class Project:
    """Every module under analysis, plus cross-module symbol indices."""

    def __init__(self, modules: list[Module]) -> None:
        self.modules = modules
        self.by_name: dict[str, Module] = {m.modname: m for m in modules}
        #: qualified function name -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: qualified class name -> {method name -> FunctionInfo}
        self.classes: dict[str, dict[str, FunctionInfo]] = {}
        for module in modules:
            self._index(module)

    def _index(self, module: Module) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.modname}.{node.name}"
                self.functions[qualname] = FunctionInfo(
                    module, node, qualname, None
                )
            elif isinstance(node, ast.ClassDef):
                class_qual = f"{module.modname}.{node.name}"
                methods: dict[str, FunctionInfo] = {}
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info = FunctionInfo(
                            module,
                            item,
                            f"{class_qual}.{item.name}",
                            node.name,
                        )
                        methods[item.name] = info
                        self.functions[info.qualname] = info
                self.classes[class_qual] = methods

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @staticmethod
    def modname_for(path: Path) -> str:
        """Dotted module name of *path* under src/ (fallback: stem)."""
        path = path.resolve()
        for root, prefix in ((SRC, ""), (REPO, "")):
            try:
                rel = path.relative_to(root)
            except ValueError:
                continue
            parts = list(rel.parts)
            if parts[-1] == "__init__.py":
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][:-3]
            return prefix + ".".join(parts)
        return path.stem

    @classmethod
    def load(cls, paths: list[Path] | None = None) -> "Project":
        """Parse the given files (default: every module in src/repro)."""
        if paths is None:
            paths = sorted((SRC / "repro").rglob("*.py"))
        modules = []
        for path in paths:
            source = path.read_text()
            modules.append(Module(path, cls.modname_for(path), source))
        return cls(modules)


def decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Bare names of a function's decorators (``a.b.c`` -> ``c``)."""
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def module_level_names(module: Module) -> set[str]:
    """Names bound by top-level assignments of *module*."""
    names: set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally inside *func* (params, assignments, loops).

    Names declared ``global`` are excluded — a write to them is a
    module-global write even though it syntactically looks local.
    """
    bound: set[str] = set()
    args = func.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ):
        bound.add(arg.arg)
    globals_declared: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for name_node in ast.walk(target):
                    # ctx filter: in `CACHE[k] = v` the base Name CACHE
                    # is a Load — only Store-context Names are bindings
                    if isinstance(name_node, ast.Name) and isinstance(
                        name_node.ctx, ast.Store
                    ):
                        bound.add(name_node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for name_node in ast.walk(node.optional_vars):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(node, ast.comprehension):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound - globals_declared
