"""ATPG-based symmetry detection (Lemma 1, after Pomeranz-Reddy [5]).

Two inputs are NES iff no test sets one to ``D`` and the other to
``D'`` and propagates a fault effect to the output; ES iff no test sets
both to ``D``.  The good/faulty channel pair encodes the two cofactors
being compared, so "a test exists" exactly means "the cofactors
differ".

This is the *baseline* detector the paper improves on: exact but
search-based, versus the linear-time reachability detector of
``repro.symmetry``.  No flow runs it: it lives with the tests, which
cross-validate the two.
"""

from __future__ import annotations

from repro.atpg.podem import MAX_BACKTRACKS, find_test
from repro.logic.simulate import extract_cone
from repro.logic.values import Value
from repro.network.netlist import Network, Pin


def nes_by_atpg(
    network: Network,
    input_a: str,
    input_b: str,
    max_backtracks: int = MAX_BACKTRACKS,
) -> bool | None:
    """NES check on two primary inputs (None = budget exhausted)."""
    result = find_test(
        network,
        injections={input_a: Value.D, input_b: Value.DBAR},
        max_backtracks=max_backtracks,
    )
    if result.test is not None:
        return False
    if result.proven_untestable:
        return True
    return None


def es_by_atpg(
    network: Network,
    input_a: str,
    input_b: str,
    max_backtracks: int = MAX_BACKTRACKS,
) -> bool | None:
    """ES check on two primary inputs (None = budget exhausted)."""
    result = find_test(
        network,
        injections={input_a: Value.D, input_b: Value.D},
        max_backtracks=max_backtracks,
    )
    if result.test is not None:
        return False
    if result.proven_untestable:
        return True
    return None


def pin_symmetry_by_atpg(
    network: Network,
    root: str,
    pin_a: Pin,
    pin_b: Pin,
    max_backtracks: int = MAX_BACKTRACKS,
) -> set[str]:
    """Symmetry kinds of two internal pins w.r.t. *root*, via ATPG.

    Mirrors ``repro.symmetry.verify.pin_pair_symmetry`` but decides by
    test search instead of exhaustive truth tables: the pins are cut,
    fed by fresh inputs, and the cone of *root* becomes the network
    under test.
    """
    trial = network.copy()
    fresh: list[str] = []
    for number, pin in enumerate((pin_a, pin_b)):
        var = trial.fresh_name(f"__atpg{number}")
        trial.add_input(var)
        trial.replace_fanin(pin, var)
        fresh.append(var)
    cone = extract_cone(trial, [root])
    kinds: set[str] = set()
    nes = nes_by_atpg(cone, fresh[0], fresh[1], max_backtracks)
    if nes:
        kinds.add("nes")
    es = es_by_atpg(cone, fresh[0], fresh[1], max_backtracks)
    if es:
        kinds.add("es")
    return kinds
