"""Gate types of the mapped Boolean network.

The paper (Section 2.0) develops its theory for ``type(g)`` in
{AND, OR, XOR, INV, BUF} and treats NAND, NOR and XNOR as inverted
AND, OR and XOR.  This module captures that algebra: every supported
type is an *base function* (AND / OR / XOR / identity) plus an
optional output inversion, together with the controlling-value
machinery used by direct backward implication.
"""

from __future__ import annotations

import enum


class GateType(enum.Enum):
    """Logic type of a single-output gate."""

    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"
    XNOR = "xnor"
    INV = "inv"
    BUF = "buf"
    CONST0 = "const0"
    CONST1 = "const1"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GateType.{self.name}"


#: Gate types whose base function is XOR; these have no controlling value
#: and form the "xor-reachable" class of Definition 1.
XOR_TYPES = frozenset({GateType.XOR, GateType.XNOR})

#: Pass-through gate types; they neither begin nor end a supergate and
#: only toggle / preserve polarity along a path.
WIRE_TYPES = frozenset({GateType.INV, GateType.BUF})

#: Constant generators; they take no inputs.
CONST_TYPES = frozenset({GateType.CONST0, GateType.CONST1})

#: Types whose output is the complement of their base function.
INVERTED_TYPES = frozenset({GateType.NAND, GateType.NOR, GateType.XNOR, GateType.INV})

_BASE = {
    GateType.AND: GateType.AND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.OR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XOR,
    GateType.XNOR: GateType.XOR,
    GateType.INV: GateType.BUF,
    GateType.BUF: GateType.BUF,
    GateType.CONST0: GateType.CONST0,
    GateType.CONST1: GateType.CONST1,
}

_CONTROLLING = {GateType.AND: 0, GateType.OR: 1}

_COMPLEMENT = {
    GateType.AND: GateType.NAND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.NOR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.INV: GateType.BUF,
    GateType.BUF: GateType.INV,
    GateType.CONST0: GateType.CONST1,
    GateType.CONST1: GateType.CONST0,
}

def base_type(gtype: GateType) -> GateType:
    """Return the base function of *gtype* with inversion stripped.

    ``NAND -> AND``, ``XNOR -> XOR``, ``INV -> BUF`` and so on.
    """
    return _BASE[gtype]


def is_inverted(gtype: GateType) -> bool:
    """True if *gtype* complements its base function (NAND/NOR/XNOR/INV)."""
    return gtype in INVERTED_TYPES


def complement_type(gtype: GateType) -> GateType:
    """Return the type computing the complement function (AND <-> NAND...)."""
    return _COMPLEMENT[gtype]


def controlling_value(gtype: GateType) -> int | None:
    """``cv(g)`` of Section 2.0: the input value that determines the output.

    Returns ``None`` for XOR-class, wire and constant types which have
    no controlling value.
    """
    return _CONTROLLING.get(base_type(gtype))


def noncontrolling_value(gtype: GateType) -> int | None:
    """``ncv(g)``: the opposite of the controlling value (or ``None``)."""
    cv = controlling_value(gtype)
    if cv is None:
        return None
    return 1 - cv


def forcing_output_value(gtype: GateType) -> int | None:
    """Output value of *gtype* that forces every input by backward implication.

    For AND the output 1 implies all inputs 1; for NAND the output 0
    implies all inputs 1; for OR output 0 implies inputs 0; for NOR
    output 1 implies inputs 0.  This is the value ``ncv(g)`` seen at the
    out-pin, adjusted for an inverted type.  ``None`` when no backward
    implication is possible (XOR-class, constants).  INV/BUF force their
    single input for *any* output value, so they are handled separately
    by the implication engine and return ``None`` here.
    """
    ncv = noncontrolling_value(gtype)
    if ncv is None:
        return None
    if is_inverted(gtype):
        return 1 - ncv
    return ncv


def forced_input_value(gtype: GateType) -> int | None:
    """The value every in-pin takes when the forcing output value is applied."""
    return noncontrolling_value(gtype)


def eval_gate(gtype: GateType, inputs: list[int], mask: int = 1) -> int:
    """Evaluate *gtype* over bit-parallel integer words.

    Every element of *inputs* is an arbitrary-precision integer whose
    bits are independent simulation vectors; *mask* selects the active
    bit width (e.g. ``(1 << 64) - 1`` for 64 parallel patterns).  The
    same routine therefore serves single-pattern, 64-bit parallel and
    full-truth-table simulation.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    if not inputs:
        raise ValueError(f"gate of type {gtype} needs at least one input")
    base = base_type(gtype)
    if base is GateType.AND:
        acc = mask
        for word in inputs:
            acc &= word
    elif base is GateType.OR:
        acc = 0
        for word in inputs:
            acc |= word
    elif base is GateType.XOR:
        acc = 0
        for word in inputs:
            acc ^= word
    else:  # BUF / INV
        if len(inputs) != 1:
            raise ValueError(f"{gtype} takes exactly one input")
        acc = inputs[0]
    if is_inverted(gtype):
        acc = ~acc & mask
    return acc & mask


def min_arity(gtype: GateType) -> int:
    """Minimum number of in-pins for a gate of this type."""
    if gtype in CONST_TYPES:
        return 0
    if gtype in WIRE_TYPES:
        return 1
    return 2


def max_arity(gtype: GateType) -> int | None:
    """Maximum number of in-pins (``None`` = unbounded for logic types)."""
    if gtype in CONST_TYPES:
        return 0
    if gtype in WIRE_TYPES:
        return 1
    return None
