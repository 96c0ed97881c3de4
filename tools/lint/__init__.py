"""Generated-docs check for the repro codebase.

``python -m tools.lint`` fails when README's CLI knobs table differs
from a regeneration from the knob declarations in
:mod:`repro.config`; ``python -m tools.lint --fix-docs`` rewrites it.

The contracts are not lints: each is audited where the code it
governs runs (see ``docs/architecture.md`` § "Enforced
contracts").  Projection-only pricing is audited in
``tests/test_projection_audit.py``, hash-seed determinism of every
priced value in ``tests/test_determinism.py``, and the fork safety of
the region pool's children inside the children themselves
(``tests/test_partitioned_rewiring.py``).
"""

from .cli import main

__all__ = ["main"]
