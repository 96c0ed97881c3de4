"""AST-enforced contract linter for the repro codebase.

Three rule families (run as ``python -m tools.lint``; see
``docs/architecture.md`` § "Enforced contracts" for how to annotate
new code):

* **purity** — ``@projection_only`` code never reaches a mutating
  ``Network`` call or a listener notification;
* **determinism** — modules marked ``__deterministic__ = True`` never
  feed set-iteration order into float sums, selections, or
  tie-breaks (the PR-2 ``PYTHONHASHSEED`` bug class);
* **worker-global** — code reachable from ``@worker_entry`` functions
  never writes module-level mutable globals without an explicit
  ``# lint: allow(worker-global)`` waiver.

Plus the generated-docs drift check / ``--fix-docs`` regenerator for
README's CLI knobs table.
"""

from .cli import main, run_lint
from .core import Finding

__all__ = ["Finding", "main", "run_lint"]
