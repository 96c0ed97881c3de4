"""Command-line entry point: ``python -m tools.lint``.

Runs the determinism rule over ``src/repro`` (or explicit paths) plus
the generated-docs drift check, prints every finding as
``path:line: [rule] message``, and exits 1 when anything is found —
the CI ``static-analysis`` job runs exactly this.  A missing path is
a usage error (exit 2).

Modes:

* ``python -m tools.lint`` — lint everything, check docs;
* ``python -m tools.lint --fix-docs`` — rewrite README's generated
  CLI knobs table from the config's knob fields and exit;
* ``python -m tools.lint path.py ...`` — lint specific files only
  (used by the fixture tests; the docs check is skipped).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import determinism, docs_sync
from .core import Finding, load_modules


def run_lint(
    paths: list[Path] | None, include_docs: bool = True
) -> list[Finding]:
    """All findings over *paths* (``None`` = the whole src tree)."""
    findings = determinism.check(load_modules(paths))
    if include_docs:
        findings.extend(docs_sync.check())
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule, f.message))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="AST-enforced contract linter (determinism, "
        "generated docs).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files to lint (default: every module under src/repro)",
    )
    parser.add_argument(
        "--fix-docs",
        action="store_true",
        help="regenerate the CLI knobs table in README.md, then exit",
    )
    args = parser.parse_args(argv)

    if args.fix_docs:
        changed = docs_sync.fix()
        print(
            "tools.lint --fix-docs: "
            + ("generated blocks updated" if changed else "already in sync")
        )
        return 0

    missing = [str(path) for path in args.paths if not path.is_file()]
    if missing:
        parser.error(f"no such file: {', '.join(missing)}")
    findings = run_lint(args.paths or None, include_docs=not args.paths)
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    scope = (
        ", ".join(str(p) for p in args.paths) if args.paths else "src/repro"
    )
    print(
        f"tools.lint: {scope}: {len(findings)} finding"
        + ("" if len(findings) == 1 else "s")
    )
    return 1 if findings else 0
