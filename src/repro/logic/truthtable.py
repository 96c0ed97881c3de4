"""Truth-table algebra: cofactors and the cofactor symmetry checks.

A function over ``n`` variables is an integer whose bit ``k`` holds the
function value on the input assignment ``k`` (variable ``i`` = bit ``i``
of ``k``).  The symmetry definitions of Section 2.0 are evaluated
directly on cofactors:

* **NES** (non-equivalence symmetry): ``f_{xi x̄j} == f_{x̄i xj}`` — the
  plain exchange of ``xi`` and ``xj`` leaves ``f`` unchanged.
* **ES** (equivalence symmetry): ``f_{xi xj} == f_{x̄i x̄j}`` — the
  exchange of ``xi`` with the *complement* of ``xj`` (and vice versa)
  leaves ``f`` unchanged.

The symmetry verifier (:mod:`repro.symmetry.verify`) decides
supergate-sized swaps with these checks, and the test suite validates
the reachability-based detector against them.
"""

from __future__ import annotations

from .simulate import table_mask, variable_word


def cofactor(table: int, num_vars: int, var: int, phase: int) -> int:
    """Cofactor of *table* with variable *var* fixed to *phase*.

    The result is still expressed over all ``n`` variables (the
    restricted variable becomes irrelevant): positive and negative
    halves are duplicated so cofactors can be compared directly.
    """
    if var >= num_vars:
        raise ValueError(f"variable {var} out of range")
    mask = table_mask(num_vars)
    pattern = variable_word(var, num_vars)
    period = 1 << var
    if phase:
        kept = table & pattern
        spread = kept | (kept >> period)
    else:
        kept = table & ~pattern & mask
        spread = kept | (kept << period)
    return spread & mask


def double_cofactor(
    table: int, num_vars: int,
    var_i: int, phase_i: int, var_j: int, phase_j: int,
) -> int:
    """Cofactor with two variables fixed."""
    once = cofactor(table, num_vars, var_i, phase_i)
    return cofactor(once, num_vars, var_j, phase_j)


def is_nes(table: int, num_vars: int, var_i: int, var_j: int) -> bool:
    """Non-equivalence symmetry: f(xi=1,xj=0) == f(xi=0,xj=1)."""
    lhs = double_cofactor(table, num_vars, var_i, 1, var_j, 0)
    rhs = double_cofactor(table, num_vars, var_i, 0, var_j, 1)
    return lhs == rhs


def is_es(table: int, num_vars: int, var_i: int, var_j: int) -> bool:
    """Equivalence symmetry: f(xi=1,xj=1) == f(xi=0,xj=0)."""
    lhs = double_cofactor(table, num_vars, var_i, 1, var_j, 1)
    rhs = double_cofactor(table, num_vars, var_i, 0, var_j, 0)
    return lhs == rhs

