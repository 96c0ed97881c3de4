"""The paper's core contribution: symmetry detection via supergates."""

from .supergate import (
    SgClass,
    SgLeaf,
    Supergate,
    SupergateNetwork,
    extract_supergates,
    grow_supergate,
)
from .swap import (
    PinSwap,
    apply_swap,
    count_swappable_pairs,
    enumerate_swaps,
    swap_kinds,
    swapped_copy,
)
from .cross import (
    CrossSwap,
    apply_cross_swap,
    cross_swap_bindings,
    find_cross_swaps,
)
from .redundancy import (
    Redundancy,
    find_easy_redundancies,
    prove_branch_redundant,
    redundancy_counts,
    remove_redundancy,
    unique_stems,
)
from .verify import cut_pin_function, pin_pair_symmetry

__all__ = [
    "CrossSwap",
    "PinSwap",
    "Redundancy",
    "SgClass",
    "SgLeaf",
    "Supergate",
    "SupergateNetwork",
    "apply_cross_swap",
    "apply_swap",
    "count_swappable_pairs",
    "cross_swap_bindings",
    "cut_pin_function",
    "enumerate_swaps",
    "extract_supergates",
    "find_cross_swaps",
    "find_easy_redundancies",
    "grow_supergate",
    "pin_pair_symmetry",
    "prove_branch_redundant",
    "redundancy_counts",
    "remove_redundancy",
    "swap_kinds",
    "swapped_copy",
    "unique_stems",
]
