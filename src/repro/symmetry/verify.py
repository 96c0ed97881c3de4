"""Ground-truth validation of symmetry claims.

The detector of this package never looks at functions — it reasons
purely structurally, by growing supergates (the Definition-1
reachability predicates themselves are a test oracle,
``tests/reachability.py``).  These helpers re-derive the same facts
*functionally*, so tests can assert Theorem 1 / Lemmas 6-8 on
arbitrary networks: a claimed symmetric pin pair must be NES/ES of the
root's function when the two pins are cut and driven by fresh
variables.  That an applied swap leaves every primary output's
function untouched is :func:`repro.verify.equiv.networks_equivalent`.
"""

from __future__ import annotations

from ..network.netlist import Network, Pin
from ..logic.simcore import SimEngine
from ..logic.simulate import extract_cone
from ..logic.truthtable import is_es, is_nes


def cut_pin_function(
    network: Network, root: str, pins: list[Pin]
) -> tuple[int, int, list[str]]:
    """Truth table of *root* with *pins* cut and fed by fresh variables.

    Returns ``(table, num_vars, support)``; the fresh variables occupy
    the *last* positions of the support (in the order of *pins*), so
    callers can index them directly.
    """
    trial = network.copy()
    fresh: list[str] = []
    for number, pin in enumerate(pins):
        var = trial.fresh_name(f"__cut{number}")
        trial.add_input(var)
        trial.replace_fanin(pin, var)
        fresh.append(var)
    cone = extract_cone(trial, [root])
    support = [pi for pi in cone.inputs if pi not in fresh] + fresh
    if len(support) > 20:
        raise ValueError(
            f"cut cone of {root} has {len(support)} inputs; too wide for "
            "exhaustive ground truth"
        )
    tables = SimEngine(cone).truth_tables(support=support, nets=[root])
    return tables[root], len(support), support


def pin_pair_symmetry(
    network: Network, root: str, pin_a: Pin, pin_b: Pin
) -> set[str]:
    """Functional symmetry kinds of two pins w.r.t. the *root* net.

    Returns a subset of ``{"nes", "es"}`` — the ground truth that
    structural swappability (Lemmas 7/8) must be a subset of.
    """
    table, num_vars, _ = cut_pin_function(network, root, [pin_a, pin_b])
    var_a, var_b = num_vars - 2, num_vars - 1
    kinds: set[str] = set()
    if is_nes(table, num_vars, var_a, var_b):
        kinds.add("nes")
    if is_es(table, num_vars, var_a, var_b):
        kinds.add("es")
    return kinds
