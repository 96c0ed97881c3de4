"""Command-line entry point: ``python -m tools.lint``.

Checks that README's generated CLI knobs table matches its
regeneration, prints every finding as ``path:line: [rule] message``,
and exits 1 when anything is found — the CI ``static-analysis`` job
runs exactly this.

Modes:

* ``python -m tools.lint`` — check the generated docs;
* ``python -m tools.lint --fix-docs`` — rewrite README's generated
  CLI knobs table from the config's knob fields and exit.
"""

from __future__ import annotations

import argparse
import sys

from . import docs_sync

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="Check README's generated CLI knobs table.",
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

    findings = docs_sync.check()
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    print(
        f"tools.lint: generated docs: {len(findings)} finding"
        + ("" if len(findings) == 1 else "s")
    )
    return 1 if findings else 0
