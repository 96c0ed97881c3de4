"""Every module and every function under ``src/repro`` is reached by a
flow, not only by tests.

The walks are static: they parse files with :mod:`ast` and import
nothing.  They start from the user-facing entry points (``repro.cli``,
and every ``benchmarks/``, ``examples/`` and ``perfbench/`` script;
the function walk adds ``tools/``) and follow what those use.  A
package ``__init__`` re-exports names without using them, so reaching
a package reaches none of its re-exports: ``from package import name``
reaches the submodule that binds ``name``.  A module or function that
only tests or re-exports reach is code no flow runs.
"""

from __future__ import annotations

import ast
import re
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


# -- function level ---------------------------------------------------------
#
# A module can be reached while some of its functions are not.  The walk
# below is name-based and conservative: a definition is reached when
# reached code mentions its name, so a name shared with a reached
# definition counts as reached.  A method is mentioned by an attribute
# (``obj.name``) or a dotted string such as perfbench's
# ``"TimingEngine.swap_gain"`` patch targets; a module-level function,
# class or constant also by a bare name.  Entry code is every script
# under ``ENTRY_DIRS`` and ``tools/``, plus ``repro.cli``'s ``main`` (the
# ``rapids`` console script).  Module-level statements run on import and
# are reached; package ``__init__`` re-exports and plain imports mention
# a name without using it and are not.  Dunder methods run implicitly
# and are reached with their class.

# Definitions no flow calls that stay on purpose, with the reason.
FUNCTION_ALLOWLIST = {
    "repro.suite.flow.trajectory_fingerprint": (
        "the determinism contract: tests and CI's hash-seed matrix compare "
        "whole-flow runs through it"
    ),
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentions(*nodes: ast.AST) -> set[str]:
    """What the code under *nodes* mentions: ``name`` for a bare name,
    ``.name`` for an attribute, both for each part of a dotted string."""
    names: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(f".{node.attr}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    for part in node.value.split("."):
                        names |= {part, f".{part}"}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # ``import a as b`` uses ``a`` through ``b``
                names.update(
                    alias.name.rpartition(".")[2]
                    for alias in node.names if alias.asname
                )
    return names


def _definitions() -> tuple[
    dict[str, tuple[set[str], list[ast.AST]]], set[str]
]:
    """Qualified name -> (the mentions that reach it, the code it runs)
    for every function, class, method and module constant of
    ``src/repro``, plus what the module-level statements mention on
    import."""
    defs: dict[str, tuple[set[str], list[ast.AST]]] = {}
    on_import: set[str] = set()

    def module_level(name: str) -> set[str]:
        return {name, f".{name}"}

    for module, path in MODULES.items():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                on_import |= _mentions(*node.decorator_list)
                defs[f"{module}.{node.name}"] = (
                    module_level(node.name), [node]
                )
            elif isinstance(node, ast.ClassDef):
                on_import |= _mentions(
                    *node.decorator_list, *node.bases, *node.keywords
                )
                runs: list[ast.AST] = []
                for item in node.body:
                    is_method = isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    if is_method and not _is_dunder(item.name):
                        on_import |= _mentions(*item.decorator_list)
                        defs[f"{module}.{node.name}.{item.name}"] = (
                            {f".{item.name}"}, [item]
                        )
                    else:
                        runs.append(item)
                defs[f"{module}.{node.name}"] = (
                    module_level(node.name), runs
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if names == ["__all__"]:
                    continue
                if len(names) == len(targets) and not any(
                    _is_dunder(name) for name in names
                ):
                    for name in names:
                        defs[f"{module}.{name}"] = (module_level(name), [node])
                    continue
                on_import |= _mentions(node)
            elif not (
                _is_package(module)
                and isinstance(node, (ast.Import, ast.ImportFrom))
            ):
                on_import |= _mentions(node)
    return defs, on_import


def unreached_definitions() -> list[str]:
    defs, mentioned = _definitions()
    mentioned |= {"main"}
    for directory in (*ENTRY_DIRS, "tools"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            mentioned |= _mentions(ast.parse(path.read_text()))
    pending = dict(defs)
    grew = True
    while grew:
        grew = False
        for qualname, (keys, runs) in list(pending.items()):
            if keys & mentioned:
                del pending[qualname]
                mentioned |= _mentions(*runs)
                grew = True
    return sorted(pending)


def test_every_function_is_reached_by_a_flow():
    unreached = [
        name for name in unreached_definitions()
        if name not in FUNCTION_ALLOWLIST
    ]
    assert not unreached, (
        "reached only by tests or package re-exports: "
        + ", ".join(name.removeprefix("repro.") for name in unreached)
    )


def test_the_function_allowlist_holds_only_unreached_definitions():
    """An allowlisted name that gained a flow caller, or was deleted,
    leaves the list."""
    assert set(FUNCTION_ALLOWLIST) <= set(unreached_definitions())


def test_the_walk_reads_names_attributes_dotted_strings_and_aliases():
    tree = ast.parse(
        "import pkg.mod as alias\n"
        "from pkg import helper as other\n"
        "name(obj.attr, 'TimingEngine.swap_gain', 'not a name')\n"
    )
    mentioned = _mentions(tree)
    assert {"mod", "helper", "name", ".attr", "TimingEngine",
            ".swap_gain"} <= mentioned
    # a method is not reached by a bare name, nor anything by prose
    assert not {"attr", "not", ".not", "pkg"} & mentioned
