"""Logic substrate: simulation, truth tables, BDDs, implication.

Bit-parallel evaluation has two tiers: :mod:`repro.logic.simulate` is
the simple per-call reference (walk the network, bigint words), and
:mod:`repro.logic.simcore` is the compiled core (flattened index
arrays swept with the same bigint words) that the hot paths —
equivalence filtering and symmetry verification — run on.
"""

from .simcore import (
    CompiledNetwork,
    SimEngine,
    compile_network,
    get_compiled,
)
from .simulate import (
    cone_truth_table,
    extract_cone,
    random_simulate_outputs,
    random_words,
    simulate,
    simulate_outputs,
    table_mask,
    truth_tables,
    variable_word,
)
from .truthtable import (
    all_symmetric_pairs,
    cofactor,
    complement_variable,
    depends_on,
    double_cofactor,
    es_check_by_swap,
    is_es,
    is_nes,
    nes_check_by_swap,
    swap_variables,
)
from .bdd import BddManager, ONE, ZERO, bdd_es, bdd_nes, cone_bdd
from .implication import (
    ImplicationResult,
    backward_imply,
    forward_value,
    implies_inputs,
)

__all__ = [
    "BddManager",
    "CompiledNetwork",
    "ImplicationResult",
    "ONE",
    "SimEngine",
    "ZERO",
    "compile_network",
    "get_compiled",
    "all_symmetric_pairs",
    "backward_imply",
    "bdd_es",
    "bdd_nes",
    "cofactor",
    "complement_variable",
    "cone_bdd",
    "cone_truth_table",
    "depends_on",
    "double_cofactor",
    "es_check_by_swap",
    "extract_cone",
    "forward_value",
    "implies_inputs",
    "is_es",
    "is_nes",
    "nes_check_by_swap",
    "random_simulate_outputs",
    "random_words",
    "simulate",
    "simulate_outputs",
    "swap_variables",
    "table_mask",
    "truth_tables",
    "variable_word",
]
