"""Parallel-pattern stuck-at fault simulation on the compiled core.

Classic single-fault propagation, vectorized across patterns: the
fault-free circuit is swept once for the whole pattern block (the
dense part), then every fault is propagated *sparsely* — only the nets
whose words actually differ from the good machine are recomputed,
walking the compiled fanout adjacency in topological order and
stopping as soon as the difference dies out.

The main entry points:

* :class:`FaultSimulator` — sweep one pattern block, then ask which
  of its patterns detect a fault (:meth:`~FaultSimulator.detecting_patterns`);
* :func:`random_pattern_block` — a random block, the same stream as
  ``SimEngine``.

Redundancy proofs use this as a fast testability filter: a fault one
random block detects is testable, so the PODEM search runs only for
candidates that might be redundant — see
:func:`repro.atpg.redundancy.prove_branch_redundant`.
"""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING, Mapping, Sequence

from ...network.netlist import Network
from .backends import eval_word, sweep
from .compiled import CompiledNetwork, get_compiled

if TYPE_CHECKING:  # pragma: no cover - the Fault type lives in repro.atpg;
    # imported only for annotations to keep the logic layer atpg-free
    from ...atpg.faults import Fault


def random_pattern_block(
    inputs: Sequence[str], width: int = 64, seed: int = 0, rounds: int = 1
) -> tuple[dict[str, int], int]:
    """Concatenated random blocks, same stream as ``SimEngine``."""
    assignments = dict.fromkeys(inputs, 0)
    for block in range(rounds):
        rng = random.Random(seed + block)
        shift = block * width
        for pi in inputs:
            assignments[pi] |= rng.getrandbits(width) << shift
    return assignments, width * rounds


class FaultSimulator:
    """Reusable fault simulator bound to one network snapshot.

    Builds the good-machine state once per pattern block;
    :meth:`detecting_patterns` can then be asked about many faults
    against the same block.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._compiled: CompiledNetwork | None = None
        #: the fault-free machine's word per net
        self._good: list[int] | None = None
        self.mask = 0

    def load_patterns(
        self, assignments: Mapping[str, int], num_patterns: int
    ) -> None:
        """Sweep the fault-free machine over one pattern block."""
        compiled = get_compiled(self.network)
        self.mask = (1 << num_patterns) - 1
        self._good = sweep(compiled, assignments, self.mask)
        self._compiled = compiled

    def detecting_patterns(self, fault: "Fault") -> int:
        """Word of patterns that detect *fault* (bit k = pattern k).

        Sparse single-fault propagation: ``diff`` carries the faulty
        word only for nets that differ from the good machine; gates are
        re-evaluated in topological order and propagation stops when
        ``diff`` stops growing.
        """
        good = self._good
        if good is None:
            raise RuntimeError("no patterns loaded; call load_patterns first")
        compiled = self._compiled
        base = compiled.num_inputs
        site = compiled.net_index.get(fault.net)
        if site is None:
            return 0
        faulty_word = self.mask if fault.stuck_at else 0
        diff: dict[int, int] = {}
        heap: list[int] = []

        def push_consumers(index: int) -> None:
            for consumer in compiled.fanout[index]:
                heapq.heappush(heap, consumer)

        branch_position: int | None = None
        if fault.pin is not None:
            # branch fault: only the faulted pin's gate sees the stuck
            # value; every other consumer keeps the healthy stem
            gate_index = compiled.net_index.get(fault.pin.gate)
            if gate_index is None or gate_index < base:
                return 0
            branch_position = gate_index - base
            heapq.heappush(heap, branch_position)
        else:
            if faulty_word == good[site]:
                return 0  # never excited
            diff[site] = faulty_word
            push_consumers(site)

        done: set[int] = set()
        while heap:
            position = heapq.heappop(heap)
            if position in done:
                continue
            done.add(position)
            out_index = base + position
            words = []
            for offset, fanin in enumerate(compiled.fanins_of(position)):
                if position == branch_position and offset == fault.pin.index:
                    words.append(faulty_word)
                else:
                    words.append(diff.get(fanin, good[fanin]))
            value = eval_word(
                compiled.opcode[position],
                compiled.invert[position],
                words,
                self.mask,
            )
            if value != good[out_index]:
                diff[out_index] = value
                push_consumers(out_index)
            else:
                diff.pop(out_index, None)
        detected = 0
        for po in compiled.po_index:
            if po in diff:
                detected |= diff[po] ^ good[po]
        return detected
