"""The simulation engine: compiled snapshot + pattern state.

:class:`SimEngine` binds one network to the compiled evaluator and
keeps the whole simulation state (one word per net) alive between
calls.  The state belongs to the compiled snapshot it was swept on;
a read after the network has mutated (its ``version`` moved) fetches
the current snapshot from :func:`~.compiled.get_compiled` and
re-sweeps the stored patterns, so results always describe the live
network.

The pattern-loading helpers mirror the historical
:mod:`repro.logic.simulate` API — random words use the same
``random.Random(seed)`` stream and exhaustive tables the same variable
ordering — so engine results are drop-in comparable with (and are
checked against) the reference implementation.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from ...network.netlist import Network
from ..simulate import variable_word
from .backends import sweep
from .compiled import CompiledNetwork, get_compiled

#: :meth:`SimEngine.random_output_words` sweeps ``RANDOM_ROUNDS`` blocks
#: of ``RANDOM_WIDTH`` random patterns (block ``r`` seeded with ``r``).
RANDOM_ROUNDS = 4
RANDOM_WIDTH = 64


def random_pattern_block(inputs: Sequence[str]) -> tuple[dict[str, int], int]:
    """:data:`RANDOM_ROUNDS` concatenated blocks of :data:`RANDOM_WIDTH` patterns.

    Block ``r`` draws from ``random.Random(r)``, the stream of
    ``random_words(inputs, 64, r)``.
    """
    assignments = dict.fromkeys(inputs, 0)
    for block in range(RANDOM_ROUNDS):
        rng = random.Random(block)
        shift = block * RANDOM_WIDTH
        for pi in inputs:
            assignments[pi] |= rng.getrandbits(RANDOM_WIDTH) << shift
    return assignments, RANDOM_WIDTH * RANDOM_ROUNDS


class SimEngine:
    """Bit-parallel simulator bound to a network."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: the snapshot the loaded patterns were swept on
        self._compiled: CompiledNetwork | None = None
        #: one word per net of that snapshot, in its index order
        self._words: list[int] | None = None
        self._assignments: dict[str, int] = {}
        self.num_patterns = 0

    # ------------------------------------------------------------------
    # pattern loading
    # ------------------------------------------------------------------
    def set_patterns(
        self, assignments: Mapping[str, int], num_patterns: int
    ) -> None:
        """Load one word per primary input and run a full sweep."""
        if num_patterns < 1:
            raise ValueError("need at least one pattern")
        compiled = get_compiled(self.network)
        words: dict[str, int] = {}
        for pi in compiled.inputs:
            try:
                words[pi] = assignments[pi]
            except KeyError:
                raise KeyError(
                    f"no assignment for primary input {pi!r}"
                ) from None
        self._assignments = words
        self.num_patterns = num_patterns
        self._words = sweep(compiled, words, (1 << num_patterns) - 1)
        self._compiled = compiled

    def set_exhaustive_patterns(self, support: list[str] | None = None) -> None:
        """Load the full truth-table stimulus over *support* (default PIs).

        Like ``logic.simulate.truth_tables``, the support must cover
        every primary input (:meth:`set_patterns` raises ``KeyError``
        otherwise); non-input support entries are permitted and consume
        a variable position without driving anything.
        """
        if support is None:
            support = list(get_compiled(self.network).inputs)
        num_vars = len(support)
        if num_vars > 24:
            raise ValueError(f"support of {num_vars} inputs is too large")
        assignments = {
            net: variable_word(index, num_vars)
            for index, net in enumerate(support)
        }
        self.set_patterns(assignments, 1 << num_vars)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _current(self) -> tuple[CompiledNetwork, list[int]]:
        """(snapshot, words) of the live network.

        Re-sweeps the stored patterns over a fresh snapshot when the
        network has mutated since they were swept.
        """
        if self._words is None:
            raise RuntimeError("no patterns loaded; call set_patterns first")
        if self._compiled.version != self.network.version:
            self.set_patterns(self._assignments, self.num_patterns)
        return self._compiled, self._words

    def output_words(self) -> list[int]:
        """Primary-output words, in PO order."""
        compiled, words = self._current()
        return [words[i] for i in compiled.po_index]

    def words(self, nets: Iterable[str] | None = None) -> dict[str, int]:
        """Words of the given nets (default: every net), as a dict."""
        compiled, words = self._current()
        if nets is None:
            nets = compiled.net_index
        return {net: words[compiled.net_index[net]] for net in nets}

    # ------------------------------------------------------------------
    # convenience drivers (the consumers' common call shapes)
    # ------------------------------------------------------------------
    def random_output_words(self) -> list[int]:
        """Random-pattern PO words (cheap functional fingerprint).

        Loads :data:`RANDOM_ROUNDS` concatenated 64-pattern blocks;
        block ``r`` reproduces ``random_words(inputs, 64, r)`` exactly,
        so a multi-round filter is one wide sweep of the same patterns.
        """
        assignments, num_patterns = random_pattern_block(
            get_compiled(self.network).inputs
        )
        self.set_patterns(assignments, num_patterns)
        return self.output_words()

    def truth_tables(
        self, support: list[str] | None = None,
        nets: Iterable[str] | None = None,
    ) -> dict[str, int]:
        """Exhaustive truth-table words, like ``logic.simulate.truth_tables``."""
        self.set_exhaustive_patterns(support)
        return self.words(nets)
