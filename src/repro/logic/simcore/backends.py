"""Pluggable evaluation backends for the compiled simulation core.

A backend owns the *representation* of a simulation state — one word of
``num_patterns`` bits per net — and knows how to run a forward sweep
over a :class:`~repro.logic.simcore.compiled.CompiledNetwork`:

* :class:`BigintBackend` keeps one arbitrary-precision Python integer
  per net, exactly like the historical :mod:`repro.logic.simulate`
  evaluator.  It is the reference backend: simple, dependency-free and
  bit-exact by construction.
* :class:`NumpyBackend` packs patterns into a dense ``uint64`` block of
  shape ``(num_nets, num_words)`` and evaluates every gate as a
  vectorized bitwise op across all words at once — multi-word, so a
  single sweep can carry far more than 64 patterns.

Both backends expose the same small surface (make state, load/read
bigint words at the boundary, full sweep), and both produce identical
:func:`read` results for identical inputs — the property
``tests/test_simcore.py`` checks bit-for-bit.

:class:`AdaptiveBackend` (the ``"auto"`` of :func:`make_backend`)
resolves to one of the two per pattern block from a static cost model
over the compiled sweep shape (:func:`sweep_shape`): CPython's bigint
ops pay far less per-op dispatch than a ufunc call with fancy-indexed
gather/scatter, so bigint wins deep narrow control logic where level
groups hold one or two gates, while numpy wins wide shallow circuits
and very wide blocks where dispatch amortizes over the group.  No
runtime probing: the choice is derived from gate/level/group counts
alone, so it is deterministic and costs O(gates) once per compile.

Words crossing the backend boundary are always plain Python integers
(bit ``k`` = pattern ``k``), so callers never see the representation.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

from .compiled import (
    CompiledNetwork,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_OR,
    OP_XOR,
)

import numpy as _np


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


class SimBackend(Protocol):
    """What the engine needs from an evaluation backend."""

    name: str

    def make_state(self, compiled: CompiledNetwork, num_patterns: int): ...

    def load(self, state, index: int, word: int) -> None: ...

    def read(self, state, index: int) -> int: ...

    def full_sweep(self, compiled: CompiledNetwork, state) -> None: ...


class BigintState:
    """One arbitrary-precision integer word per net."""

    __slots__ = ("words", "mask", "num_patterns")

    def __init__(self, num_nets: int, num_patterns: int) -> None:
        self.words: list[int] = [0] * num_nets
        self.num_patterns = num_patterns
        self.mask = (1 << num_patterns) - 1


class BigintBackend:
    """Reference backend: the historical bigint evaluator, index-based."""

    name = "bigint"

    def make_state(self, compiled: CompiledNetwork, num_patterns: int) -> BigintState:
        return BigintState(compiled.num_nets, num_patterns)

    def load(self, state: BigintState, index: int, word: int) -> None:
        state.words[index] = word & state.mask

    def read(self, state: BigintState, index: int) -> int:
        return state.words[index]

    def full_sweep(self, compiled: CompiledNetwork, state: BigintState) -> None:
        words = state.words
        mask = state.mask
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


class NumpyState:
    """Dense ``uint64`` block: one row of packed words per net.

    Bits past ``num_patterns`` in the last word are kept zero (every
    write masks the tail), so row comparisons and :meth:`read` need no
    per-access masking.  Rows beyond ``num_nets`` are scratch slots of
    the level-packed evaluation plan (temporaries of multi-input gates
    decomposed into binary ops).
    """

    __slots__ = ("block", "num_patterns", "num_words", "tail_mask",
                 "int_mask")

    def __init__(self, num_slots: int, num_patterns: int) -> None:
        self.num_patterns = num_patterns
        self.num_words = max(1, -(-num_patterns // 64))
        self.block = _np.zeros((num_slots, self.num_words), dtype=_np.uint64)
        tail_bits = num_patterns - (self.num_words - 1) * 64
        self.tail_mask = _np.uint64((1 << tail_bits) - 1 if tail_bits < 64 else
                                    0xFFFF_FFFF_FFFF_FFFF)
        # cached once: building a multi-kilobit mask per load() call
        # used to dominate pattern loading on wide blocks
        self.int_mask = (1 << num_patterns) - 1


def _binary_decomposition(compiled: CompiledNetwork):
    """Decompose the compiled gates into leveled binary nodes.

    The single source of truth for the level-packed evaluation
    structure: every multi-input gate becomes a balanced tree of binary
    ops whose temporaries live in scratch slots past the real nets, and
    every node carries the (level, op, invert) key the numpy plan
    groups by.  Both the executable plan (:class:`_NumpyPlan`) and the
    static cost model (:func:`sweep_shape`) are derived from this one
    enumeration, so the model can never drift from what the backend
    actually runs.

    Returns ``(nodes, const_rows, num_slots)`` where each node is
    ``(level, op, invert, out_slot, a_slot, b_slot | -1 for copies)``
    and ``const_rows`` is ``[(row, op), ...]`` for constant gates.
    Cached on the snapshot so plan and shape share one O(gates) pass
    per compile, not one each.
    """
    cached = getattr(compiled, "_binary_decomp", None)
    if cached is not None:
        return cached
    base = compiled.num_inputs
    level: list[int] = [0] * compiled.num_nets
    next_slot = compiled.num_nets
    nodes: list[tuple[int, int, bool, int, int, int]] = []
    const_rows: list[tuple[int, int]] = []
    for position in range(compiled.num_gates):
        out = base + position
        op = compiled.opcode[position]
        inv = compiled.invert[position]
        fanins = compiled.fanins_of(position)
        if op in (OP_CONST0, OP_CONST1):
            const_rows.append((out, op))
            continue
        if op == OP_BUF or len(fanins) == 1:
            level[out] = level[fanins[0]] + 1
            nodes.append((level[out], OP_BUF, inv, out, fanins[0], -1))
            continue
        current = list(fanins)
        while len(current) > 2:
            reduced = []
            for k in range(0, len(current) - 1, 2):
                temp = next_slot
                next_slot += 1
                temp_level = max(level[current[k]], level[current[k + 1]]) + 1
                level.append(temp_level)
                nodes.append(
                    (temp_level, op, False, temp, current[k], current[k + 1])
                )
                reduced.append(temp)
            if len(current) % 2:
                reduced.append(current[-1])
            current = reduced
        level[out] = max(level[current[0]], level[current[1]]) + 1
        nodes.append((level[out], op, inv, out, current[0], current[1]))
    result = (nodes, const_rows, next_slot)
    compiled._binary_decomp = result
    return result


class _NumpyPlan:
    """Level-packed evaluation schedule for one compiled snapshot.

    Evaluating gate-by-gate wastes the vectorization on ufunc dispatch:
    each call touches only ``num_words`` elements.  The plan therefore
    takes the shared binary decomposition and groups each level's nodes
    by (op, invert).  One group — *all* same-op gates of one level —
    evaluates as a single gather/ufunc/scatter triple across
    ``len(group) × num_words`` elements, so dispatch cost amortizes
    over gates as well as patterns.
    """

    __slots__ = ("num_slots", "const_rows", "groups")

    def __init__(self, compiled: CompiledNetwork) -> None:
        nodes, const_rows, num_slots = _binary_decomposition(compiled)
        self.num_slots = num_slots
        self.const_rows = const_rows
        buckets: dict[tuple[int, int, bool], list[tuple[int, int, int]]] = {}
        for node_level, op, inv, out, a, b in nodes:
            buckets.setdefault((node_level, op, inv), []).append((out, a, b))
        self.groups = []
        for (_, op, inv), members in sorted(buckets.items()):
            out_idx = _np.array([m[0] for m in members], dtype=_np.intp)
            a_idx = _np.array([m[1] for m in members], dtype=_np.intp)
            b_idx = _np.array([m[2] for m in members], dtype=_np.intp)
            self.groups.append((op, inv, out_idx, a_idx, b_idx))


class NumpyBackend:
    """Vectorized backend: whole pattern blocks, whole levels per op."""

    name = "numpy"

    def _plan(self, compiled: CompiledNetwork) -> _NumpyPlan:
        plan = getattr(compiled, "_numpy_plan", None)
        if plan is None:
            plan = compiled._numpy_plan = _NumpyPlan(compiled)
        return plan

    def make_state(self, compiled: CompiledNetwork, num_patterns: int) -> NumpyState:
        state = NumpyState(self._plan(compiled).num_slots, num_patterns)
        for row, op in self._plan(compiled).const_rows:
            if op == OP_CONST1:
                state.block[row] = _np.uint64(0xFFFF_FFFF_FFFF_FFFF)
                state.block[row, -1] = state.tail_mask
        return state

    def load(self, state: NumpyState, index: int, word: int) -> None:
        raw = (word & state.int_mask).to_bytes(state.num_words * 8, "little")
        state.block[index] = _np.frombuffer(raw, dtype="<u8")

    def read(self, state: NumpyState, index: int) -> int:
        return int.from_bytes(
            state.block[index].astype("<u8", copy=False).tobytes(), "little"
        )

    def full_sweep(self, compiled: CompiledNetwork, state: NumpyState) -> None:
        block = state.block
        for op, inv, out_idx, a_idx, b_idx in self._plan(compiled).groups:
            if op == OP_BUF:
                rows = block[a_idx]
            else:
                func = (
                    _np.bitwise_and if op == OP_AND
                    else _np.bitwise_or if op == OP_OR
                    else _np.bitwise_xor
                )
                rows = func(block[a_idx], block[b_idx])
            if inv:
                _np.invert(rows, out=rows)
                rows[:, -1] &= state.tail_mask
            block[out_idx] = rows


# ----------------------------------------------------------------------
# adaptive backend choice
# ----------------------------------------------------------------------
class SweepShape(NamedTuple):
    """Static shape of one full sweep over a compiled network.

    ``num_nodes`` counts the binary evaluation nodes after multi-input
    gates decompose into balanced trees (what both backends actually
    execute per sweep); ``num_groups`` counts the level-packed
    (level, op, invert) batches the numpy plan would issue — one ufunc
    dispatch each.  The ratio ``num_nodes / num_groups`` is the mean
    vectorization width: deep narrow control logic sits near 1, wide
    shallow XOR networks in the tens to hundreds.
    """

    num_gates: int
    num_nodes: int
    num_groups: int

    @property
    def mean_group_size(self) -> float:
        return self.num_nodes / self.num_groups if self.num_groups else 0.0


def sweep_shape(compiled: CompiledNetwork) -> SweepShape:
    """Shape of *compiled*'s sweep, from the shared binary decomposition.

    Counts the same nodes and (level, op, invert) groups the numpy plan
    executes (:func:`_binary_decomposition` is the single source for
    both) — no numpy needed, no simulation run — and is cached on the
    snapshot, so the adaptive choice costs O(gates) once per compile.
    """
    cached = getattr(compiled, "_sweep_shape", None)
    if cached is not None:
        return cached
    nodes, _const_rows, _num_slots = _binary_decomposition(compiled)
    shape = SweepShape(
        num_gates=compiled.num_gates,
        num_nodes=len(nodes),
        num_groups=len(
            {(lvl, op, inv) for lvl, op, inv, _o, _a, _b in nodes}
        ),
    )
    compiled._sweep_shape = shape
    return shape


#: Cost-model weights in microsecond-equivalent units, calibrated
#: against measured ``set_patterns`` (state + PI loads + full sweep)
#: on CPython 3.11: a bigint node pays ~0.6us of bytecode dispatch
#: and its C limb loop is nearly free per extra word; a numpy level
#: group pays a ufunc dispatch plus fancy-indexed gather/scatter
#: (~4us), pattern loading pays ~0.5us per primary input
#: (``to_bytes``/``frombuffer``) growing with the word count, and a
#: sweep pays a small fixed state-setup cost.  Only the *ordering* of
#: the two totals matters, and it reproduces the measured regimes:
#: bigint wins deep narrow control logic (near-empty level groups,
#: dispatch-dominated) and PI-heavy miniatures; numpy wins wide
#: shallow circuits whose level groups amortize dispatch over tens of
#: gates.
_BIGINT_NODE = 0.6        # per binary node
_BIGINT_NODE_WORD = 0.0015  # per node per 64-bit word (limb loop)
_NUMPY_FIXED = 30.0       # state setup per pattern block
_NUMPY_GROUP = 4.0        # per (level, op, invert) group dispatch
_NUMPY_NODE_WORD = 0.002  # per node per 64-bit word (dense kernel)
_NUMPY_PI = 0.5           # per primary-input load
_NUMPY_PI_WORD = 0.01     # per primary-input load per word


def estimate_sweep_costs(
    compiled: CompiledNetwork, num_patterns: int
) -> tuple[float, float]:
    """(bigint, numpy) modeled cost of one pattern block, same units.

    Covers the whole ``set_patterns`` unit of work — state creation,
    per-PI pattern loads and the full sweep — because that is what
    consumers pay per block; no runtime probing, every term is derived
    from the compiled form's static counts.
    """
    shape = sweep_shape(compiled)
    words = max(1, -(-num_patterns // 64))
    bigint_cost = shape.num_nodes * (
        _BIGINT_NODE + _BIGINT_NODE_WORD * words
    )
    numpy_cost = (
        _NUMPY_FIXED
        + compiled.num_inputs * (_NUMPY_PI + _NUMPY_PI_WORD * words)
        + shape.num_groups * _NUMPY_GROUP
        + shape.num_nodes * _NUMPY_NODE_WORD * words
    )
    return (bigint_cost, numpy_cost)


def choose_backend(compiled: CompiledNetwork, num_patterns: int) -> str:
    """Resolve ``"auto"`` to ``"bigint"`` or ``"numpy"`` for this sweep."""
    bigint_cost, numpy_cost = estimate_sweep_costs(compiled, num_patterns)
    return "bigint" if bigint_cost <= numpy_cost else "numpy"


class AdaptiveState:
    """State wrapper that remembers which concrete backend owns it."""

    __slots__ = ("backend", "inner")

    def __init__(self, backend: SimBackend, inner) -> None:
        self.backend = backend
        self.inner = inner


class AdaptiveBackend:
    """The ``"auto"`` backend: picks bigint or numpy per sweep shape.

    The choice is made at state-creation time from the static cost
    model above — no runtime probing — and travels with the state, so
    one engine can hold, e.g., a bigint state for a 64-pattern filter
    block and a numpy state for a 4096-pattern exhaustive table.
    Results are bit-identical either way (the cross-backend property
    ``tests/test_simcore.py`` checks), so the choice can only move wall
    time.
    """

    name = "auto"

    def __init__(self) -> None:
        self._bigint = BigintBackend()
        self._numpy = NumpyBackend()
        #: backend name picked by the most recent ``make_state``
        self.last_choice: str | None = None

    def resolve(self, compiled: CompiledNetwork, num_patterns: int) -> SimBackend:
        """The concrete backend the cost model picks for this sweep."""
        choice = choose_backend(compiled, num_patterns)
        self.last_choice = choice
        if choice == "numpy":
            return self._numpy
        return self._bigint

    def make_state(
        self, compiled: CompiledNetwork, num_patterns: int
    ) -> AdaptiveState:
        backend = self.resolve(compiled, num_patterns)
        return AdaptiveState(backend, backend.make_state(compiled, num_patterns))

    def load(self, state: AdaptiveState, index: int, word: int) -> None:
        state.backend.load(state.inner, index, word)

    def read(self, state: AdaptiveState, index: int) -> int:
        return state.backend.read(state.inner, index)

    def full_sweep(self, compiled: CompiledNetwork, state: AdaptiveState) -> None:
        state.backend.full_sweep(compiled, state.inner)


def make_backend(name: str = "auto") -> SimBackend:
    """Backend factory.

    ``"auto"`` returns the adaptive backend, which resolves to bigint
    on deep narrow sweeps and numpy on wide shallow ones per pattern
    block.
    """
    if name == "auto":
        return AdaptiveBackend()
    if name == "numpy":
        return NumpyBackend()
    if name == "bigint":
        return BigintBackend()
    raise ValueError(f"unknown simulation backend {name!r}")
