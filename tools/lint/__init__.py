"""AST-enforced contract linter for the repro codebase.

One rule family (run as ``python -m tools.lint``; see
``docs/architecture.md`` § "Enforced contracts" for how to annotate
new code):

* **determinism** — modules marked ``__deterministic__ = True`` never
  feed set-iteration order into float sums, selections, or
  tie-breaks (the PR-2 ``PYTHONHASHSEED`` bug class).

Plus the generated-docs drift check / ``--fix-docs`` regenerator for
README's CLI knobs table.

Two contracts are not lints, because no static walk sees the code
they govern at run time.  The projection-only pricing contract is
audited where priced calls run (``tests/test_projection_audit.py``),
and the fork-safety contract of the region pool's children inside the
forked children themselves (``tests/test_partitioned_rewiring.py``).
"""

from .cli import main, run_lint
from .core import Finding

__all__ = ["Finding", "main", "run_lint"]
