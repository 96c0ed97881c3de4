"""AST-enforced contract linter for the repro codebase.

Two rule families (run as ``python -m tools.lint``; see
``docs/architecture.md`` § "Enforced contracts" for how to annotate
new code):

* **purity** — ``@projection_only`` code never reaches a mutating
  ``Network`` call or a listener notification;
* **determinism** — modules marked ``__deterministic__ = True`` never
  feed set-iteration order into float sums, selections, or
  tie-breaks (the PR-2 ``PYTHONHASHSEED`` bug class).

Plus the generated-docs drift check / ``--fix-docs`` regenerator for
README's CLI knobs table.

The fork-safety contract of the region pool's children is not a lint:
no static walk follows the selector closure a child runs, so
``tests/test_partitioned_rewiring.py`` audits module state inside the
forked children themselves.
"""

from .cli import main, run_lint
from .core import Finding

__all__ = ["Finding", "main", "run_lint"]
