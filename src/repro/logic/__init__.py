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
    cofactor,
    double_cofactor,
    is_es,
    is_nes,
)
from .bdd import BddManager, ONE, ZERO, cone_bdd
from .implication import (
    ImplicationResult,
    backward_imply,
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
    "backward_imply",
    "cofactor",
    "cone_bdd",
    "double_cofactor",
    "extract_cone",
    "implies_inputs",
    "is_es",
    "is_nes",
    "random_simulate_outputs",
    "random_words",
    "simulate",
    "simulate_outputs",
    "table_mask",
    "truth_tables",
    "variable_word",
]
