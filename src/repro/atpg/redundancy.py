"""Redundancy proofs via test generation.

A stuck-at fault with no test is untestable, and the corresponding wire
or gate is redundant.  This is the classical (RAMBO-style) machinery
the paper's "easy" detection shortcuts: Fig. 1 events found during
supergate extraction can be confirmed here, and the test suite checks
that every injected redundancy of ``repro.suite.redundant`` is indeed
untestable.

Testability (the *negative* answer) is cheap: a parallel-pattern fault
simulation of one random block (``repro.logic.simcore.faultsim``)
proves most testable faults detected without ever entering the PODEM
search, so the backtracking engine only runs for the candidates that
might actually be redundant.
"""

from __future__ import annotations

from ..logic.simcore import FaultSimulator, random_pattern_block
from ..network.netlist import Network, Pin
from .faults import Fault
from .podem import find_test


def _randomly_detected(network: Network, fault: Fault) -> bool:
    """Two 64-pattern random blocks: do they already detect the fault?"""
    if not network.inputs:
        return False
    assignments, num_patterns = random_pattern_block(
        network.inputs, rounds=2
    )
    simulator = FaultSimulator(network)
    simulator.load_patterns(assignments, num_patterns)
    return bool(simulator.detecting_patterns(fault))


def prove_branch_redundant(
    network: Network,
    pin: Pin,
    stuck_at: int,
) -> bool | None:
    """Is the branch feeding *pin* stuck-at-*stuck_at* untestable?

    ``True`` = proven redundant, ``False`` = a test exists, ``None`` =
    :data:`~repro.atpg.podem.MAX_BACKTRACKS` exhausted.
    """
    net = network.fanin_net(pin)
    fault = Fault(net=net, stuck_at=stuck_at, pin=pin)
    if _randomly_detected(network, fault):
        return False
    result = find_test(network, fault=fault)
    if result.test is not None:
        return False
    if result.proven_untestable:
        return True
    return None

