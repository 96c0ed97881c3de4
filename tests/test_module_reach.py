"""Every module under ``src/repro`` is reached by a flow, not only by tests.

The walk is static: it parses files with :mod:`ast` and imports nothing.
It starts from the user-facing entry points (``repro.cli``, and every
``benchmarks/``, ``examples/`` and ``perfbench/`` script) and follows
their imports.  A package ``__init__`` re-exports names without using
them, so reaching a package reaches none of its re-exports: ``from
package import name`` reaches the submodule that binds ``name``.  A
module that only tests or re-exports reach is code no flow runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")


def _module_files() -> dict[str, Path]:
    """Dotted name -> file for every module of the ``repro`` package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _absolute(module: str | None, level: int, importer: str) -> str:
    """Resolve a (possibly relative) ``from`` target against *importer*."""
    if not level:
        return module or ""
    package = importer if _is_package(importer) else importer.rpartition(".")[0]
    for _ in range(level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{module}" if module else package


def _bindings(package: str) -> dict[str, str]:
    """Name -> absolute module it comes from, for a package ``__init__``."""
    tree = ast.parse(MODULES[package].read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    f"{source}.{alias.name}"
                    if f"{source}.{alias.name}" in MODULES else source
                )
    return bound


def _resolve(package: str, name: str) -> set[str]:
    """The modules behind ``package.name``, through nested re-exports."""
    if f"{package}.{name}" in MODULES:
        return {package, f"{package}.{name}"}
    source = _bindings(package).get(name)
    if source is None or source not in MODULES:
        return {package}
    if _is_package(source):
        return {package} | _resolve(source, name)
    return {package, source}


def _parents(name: str) -> set[str]:
    """Every enclosing package of *name* that is a ``repro`` module."""
    parts = name.split(".")
    return {
        ".".join(parts[:end]) for end in range(1, len(parts))
        if ".".join(parts[:end]) in MODULES
    }


def _edges(path: Path, importer: str | None) -> set[str]:
    """The ``repro`` modules one file's imports reach."""
    reached: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    reached |= {alias.name} | _parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            source = (
                _absolute(node.module, node.level, importer)
                if importer else node.module or ""
            )
            if source not in MODULES:
                continue
            reached |= {source} | _parents(source)
            if _is_package(source):
                for alias in node.names:
                    reached |= _resolve(source, alias.name)
    return reached


def reached_modules() -> set[str]:
    """Modules the entry points reach, following every import in them
    (function-level ones included) but no package's re-exports."""
    frontier: set[str] = {"repro.cli"} | _parents("repro.cli")
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).glob("*.py")):
            frontier |= _edges(path, None)
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        if not _is_package(name):
            frontier |= _edges(MODULES[name], name) - reached
    return reached


def test_every_module_is_reached_by_a_flow():
    reached = reached_modules()
    unreached = sorted(
        name for name in MODULES
        if not _is_package(name) and name not in reached
    )
    assert not unreached, (
        "reached only by tests or package re-exports: "
        + ", ".join(name.removeprefix("repro.") for name in unreached)
    )
