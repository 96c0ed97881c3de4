"""ATPG substrate: D-calculus search and stuck-at faults.

PODEM (:func:`find_test`) proves the redundancies of Fig. 1
untestable.  Redundancy proofs first run the compiled parallel-pattern
fault simulator of :mod:`repro.logic.simcore` as a fast testability
filter, so the search runs only for candidates that may be redundant.
The Lemma-1 symmetry baseline built on the same search is a test
oracle (``tests/atpg_symmetry.py``).
"""

from .faults import Fault, all_faults, fault_site_support
from .podem import AtpgResult, evaluate_gate, find_test, is_testable, simulate5
from .redundancy import prove_branch_redundant

__all__ = [
    "AtpgResult",
    "Fault",
    "all_faults",
    "evaluate_gate",
    "fault_site_support",
    "find_test",
    "is_testable",
    "prove_branch_redundant",
    "simulate5",
]
