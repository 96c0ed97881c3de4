"""Shared infrastructure for the contract linter.

The linter is purely static: target modules are parsed with
:mod:`ast`, never imported.  The one exception has no third-party
dependencies: the knob declarations :mod:`repro.config`, which render
README's CLI table.

This module provides:

* :class:`Finding` — one reported violation;
* :class:`Module` — a parsed source file with its suppression pragmas;
* :func:`load_modules` — the modules under analysis;
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
    """A parsed target file plus its suppression pragmas."""

    def __init__(self, path: Path) -> None:
        self.path = path
        source = path.read_text()
        self.tree = ast.parse(source, filename=str(path))
        #: line -> set of rule names waived on that line
        self.pragmas: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = PRAGMA_RE.search(line)
            if match:
                self.pragmas[lineno] = {
                    rule.strip() for rule in match.group(1).split(",")
                }

    def allows(self, rule: str, line: int) -> bool:
        """True when a pragma on *line* (or the line above) waives *rule*."""
        return rule in self.pragmas.get(line, ()) or rule in self.pragmas.get(
            line - 1, ()
        )


def load_modules(paths: list[Path] | None = None) -> list[Module]:
    """Parse the given files (default: every module in src/repro)."""
    if paths is None:
        paths = sorted((SRC / "repro").rglob("*.py"))
    return [Module(path) for path in paths]

