"""The evaluator of the compiled simulation core.

A simulation state is one arbitrary-precision Python integer per net
of a :class:`~repro.logic.simcore.compiled.CompiledNetwork` (bit ``k``
= pattern ``k``), indexed like the compiled form: primary inputs first,
then gate outputs in topological order.  :func:`sweep` fills it with
one forward pass of :func:`eval_word` per gate, exactly like the
historical :mod:`repro.logic.simulate` evaluator, so its words are
bit-identical to the interpreted walker's — the property
``tests/test_simcore.py`` checks.  CPython's bigint bitwise ops run
their limb loops in C, so one sweep carries any number of patterns at
the cost of one bytecode dispatch per gate.
"""

from __future__ import annotations

from typing import Mapping

from .compiled import (
    CompiledNetwork,
    OP_AND,
    OP_CONST0,
    OP_CONST1,
    OP_OR,
    OP_XOR,
)


def eval_word(op: int, inv: bool, words: list[int], mask: int) -> int:
    """Evaluate one compiled opcode over bigint words (reference op)."""
    if op == OP_CONST0:
        acc = 0
    elif op == OP_CONST1:
        acc = mask
    elif op == OP_AND:
        acc = mask
        for word in words:
            acc &= word
    elif op == OP_OR:
        acc = 0
        for word in words:
            acc |= word
    elif op == OP_XOR:
        acc = 0
        for word in words:
            acc ^= word
    else:  # OP_BUF
        acc = words[0]
    if inv:
        acc ^= mask
    return acc & mask


def sweep(
    compiled: CompiledNetwork, inputs: Mapping[str, int], mask: int
) -> list[int]:
    """Every net's word under the primary-input words *inputs*.

    *mask* covers the pattern count; input words are clipped to it.
    """
    words = [inputs[pi] & mask for pi in compiled.inputs]
    words.extend([0] * compiled.num_gates)
    base = compiled.num_inputs
    opcode = compiled.opcode
    invert = compiled.invert
    offset = compiled.fanin_offset
    flat = compiled.fanin_flat
    for position in range(compiled.num_gates):
        fanins = flat[offset[position]:offset[position + 1]]
        words[base + position] = eval_word(
            opcode[position],
            invert[position],
            [words[k] for k in fanins],
            mask,
        )
    return words
