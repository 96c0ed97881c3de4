"""Bit-parallel logic simulation.

Simulation words are arbitrary-precision Python integers whose bits are
independent patterns.  The same engine therefore covers:

* single-pattern evaluation (``mask=1``),
* 64-bit parallel random simulation (equivalence filtering),
* *exhaustive* truth-table simulation: for a cone with ``n`` inputs the
  word for input ``i`` is the standard variable pattern of period
  ``2**(i+1)`` over ``2**n`` bits, and every net's word *is* its truth
  table.  This is the ground-truth oracle the symmetry tests are
  checked against.

This module is the *reference* evaluator: a straightforward interpreted
walk over the live network, convenient for one-off queries and as the
oracle property tests compare against.  The hot paths (equivalence
filtering, symmetry verification) run on
:mod:`repro.logic.simcore` instead — the same word algebra over a
compiled index-array form, 1-2 orders of magnitude faster per sweep.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from ..network.netlist import Network


def variable_word(index: int, num_vars: int) -> int:
    """Truth-table word of input *index* among *num_vars* variables.

    Bit ``k`` of the result is bit *index* of ``k``; input 0 is the
    fastest-toggling variable.
    """
    if index >= num_vars:
        raise ValueError(f"variable {index} out of range for {num_vars} vars")
    return _tile(1 << index, 1 << num_vars)


def _tile(period: int, total: int) -> int:
    """Word of length *total* with alternating 0^period 1^period blocks."""
    ones = (1 << period) - 1
    word = 0
    position = period
    while position < total:
        word |= ones << position
        position += 2 * period
    return word


def table_mask(num_vars: int) -> int:
    """All-ones mask of a *num_vars*-input truth table."""
    return (1 << (1 << num_vars)) - 1


def simulate(
    network: Network,
    assignments: Mapping[str, int],
    mask: int = 1,
) -> dict[str, int]:
    """Evaluate every net given input words; returns net -> word.

    *assignments* must define a word for every primary input.  Constant
    gates need no assignment.
    """
    words: dict[str, int] = {}
    for pi in network.inputs:
        try:
            words[pi] = assignments[pi] & mask
        except KeyError:
            raise KeyError(f"no assignment for primary input {pi!r}") from None
    for name in network.topo_order():
        gate = network.gate(name)
        fanin_words = [words[net] for net in gate.fanins]
        words[name] = gate.eval(fanin_words, mask)
    return words


def simulate_outputs(
    network: Network,
    assignments: Mapping[str, int],
    mask: int = 1,
) -> list[int]:
    """Simulate and return only the primary-output words, in PO order."""
    words = simulate(network, assignments, mask)
    return [words[net] for net in network.outputs]


def truth_tables(
    network: Network, support: list[str] | None = None
) -> dict[str, int]:
    """Exhaustive simulation: truth-table word for every net.

    *support* orders the variables (default: the network's primary
    inputs).  Only feasible for small supports (``2**n``-bit words).
    """
    if support is None:
        support = list(network.inputs)
    num_vars = len(support)
    if num_vars > 24:
        raise ValueError(f"support of {num_vars} inputs is too large")
    assignments = {
        net: variable_word(index, num_vars)
        for index, net in enumerate(support)
    }
    return simulate(network, assignments, mask=table_mask(num_vars))


def extract_cone(network: Network, nets: list[str]) -> Network:
    """Copy the transitive fanin cones of *nets* into a fresh network."""
    cone = Network(f"{network.name}_cone")
    needed: set[str] = set()
    stack = list(nets)
    while stack:
        current = stack.pop()
        if current in needed:
            continue
        needed.add(current)
        if not network.is_input(current):
            stack.extend(network.gate(current).fanins)
    for pi in network.inputs:
        if pi in needed:
            cone.add_input(pi)
    for name in network.topo_order():
        if name in needed:
            gate = network.gate(name)
            cone.add_gate(name, gate.gtype, list(gate.fanins), cell=gate.cell)
    for net in nets:
        cone.add_output(net)
    return cone


def random_words(
    nets: Iterable[str], width: int = 64, seed: int = 0
) -> dict[str, int]:
    """Deterministic random simulation words for the given nets."""
    rng = random.Random(seed)
    mask = (1 << width) - 1
    return {net: rng.getrandbits(width) & mask for net in nets}


def random_simulate_outputs(
    network: Network, width: int = 64, seed: int = 0
) -> list[int]:
    """Random-pattern output words (a cheap functional fingerprint)."""
    words = random_words(network.inputs, width=width, seed=seed)
    return simulate_outputs(network, words, mask=(1 << width) - 1)
