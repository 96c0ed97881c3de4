"""Command-line entry point: ``python -m tools.lint``.

Runs the two contract rule families over ``src/repro`` (or explicit
paths) plus the generated-docs drift check, prints every finding as
``path:line: [rule] message``, and exits 1 when anything is found —
the CI ``static-analysis`` job runs exactly this.  An unknown rule
name or a missing path is a usage error (exit 2).

Modes:

* ``python -m tools.lint`` — lint everything, check docs;
* ``python -m tools.lint --fix-docs`` — rewrite README's generated
  CLI knobs table from the config's knob fields and exit;
* ``python -m tools.lint path.py ...`` — lint specific files only
  (used by the fixture tests; the docs check is skipped);
* ``--rules purity,determinism,docs`` — restrict the rule families.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import determinism, docs_sync, purity
from .core import Finding, load_modules

#: rule name -> checker(modules) -> findings
RULES = {
    "purity": purity.check,
    "determinism": determinism.check,
}


def run_lint(
    paths: list[Path] | None,
    rules: list[str] | None = None,
    include_docs: bool = True,
) -> list[Finding]:
    """All findings over *paths* (``None`` = the whole src tree)."""
    modules = load_modules(paths)
    findings: list[Finding] = []
    for name, checker in RULES.items():
        if rules is not None and name not in rules:
            continue
        findings.extend(checker(modules))
    if include_docs and (rules is None or "docs" in rules):
        findings.extend(docs_sync.check())
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule, f.message))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="AST-enforced contract linter (purity, "
        "determinism, generated docs).",
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
    parser.add_argument(
        "--no-docs",
        action="store_true",
        help="skip the generated-docs drift check",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule subset "
        f"(default: all of {', '.join(RULES)}, docs)",
    )
    args = parser.parse_args(argv)

    if args.fix_docs:
        changed = docs_sync.fix()
        print(
            "tools.lint --fix-docs: "
            + ("generated blocks updated" if changed else "already in sync")
        )
        return 0

    rules = (
        [rule.strip() for rule in args.rules.split(",")]
        if args.rules
        else None
    )
    unknown = sorted(set(rules or ()) - {*RULES, "docs"})
    if unknown:
        parser.error(
            f"unknown rule {', '.join(unknown)} "
            f"(choose from {', '.join(RULES)}, docs)"
        )
    missing = [str(path) for path in args.paths if not path.is_file()]
    if missing:
        parser.error(f"no such file: {', '.join(missing)}")
    include_docs = not args.no_docs and not args.paths
    findings = run_lint(args.paths or None, rules, include_docs)
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
