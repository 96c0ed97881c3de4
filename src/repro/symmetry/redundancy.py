"""Easy redundancy identification during supergate extraction (Fig. 1).

When direct backward implication from a supergate root is allowed to
push *through* fanout stems, reconvergent paths can reach the same stem
twice:

* **case 1 — conflict** (Fig. 1a): the stem is implied both 0 and 1.
  Then the root can never take its forcing value, i.e. the root is
  constant at the opposite value, and the stuck-at fault at the stem is
  untestable through this cone.
* **case 2 — agreement** (Fig. 1b): the stem is implied the same value
  ``v`` along two branches.  Then one of the stem's fanout branches is
  stuck-at-``v`` untestable through this cone and the branch wire is
  redundant.

``find_easy_redundancies`` only *counts and locates* these events (what
Table 1's last column reports).  ``remove_redundancy`` additionally
applies the rewrite, guarded by an exact functional-equivalence check,
since an event proves untestability only relative to the observing
cone; Table 1 does not require removal, so the guard favours safety
over yield.

One proof serves both the guard and the paper's justification: a
branch stuck-at-``v`` is untestable exactly when tying its pin to the
constant ``v`` leaves every primary-output function unchanged, which
``prove_branch_redundant`` decides with ``networks_equivalent``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.gatetype import GateType
from ..network.netlist import Network, Pin
from ..logic.implication import backward_imply, implies_inputs
from ..verify.equiv import networks_equivalent
from .supergate import SgClass, SupergateNetwork, extract_supergates


@dataclass(frozen=True)
class Redundancy:
    """One Fig. 1 event: *stem* reached redundantly from *root*."""

    root: str
    stem: str
    kind: str  # "conflict" (case 1) or "agreement" (case 2)
    implied_value: int | None  # stem value for agreements


def find_easy_redundancies(
    network: Network, sgn: SupergateNetwork | None = None
) -> list[Redundancy]:
    """Scan every and-or supergate root for Fig. 1 redundancy events.

    Each (root, stem) pair is reported at most once; a stem can appear
    under several roots (each sighting is a separate untestability
    proof, and the paper's per-circuit counts tally sightings during
    one extraction pass).
    """
    if sgn is None:
        sgn = extract_supergates(network)
    events: list[Redundancy] = []
    for sg in sgn.supergates.values():
        if sg.sg_class not in (SgClass.ANDOR, SgClass.WIRE):
            continue
        if sg.root_value is None:
            continue
        result = backward_imply(
            network, sg.root, sg.root_value, cross_fanout=True
        )
        for stem in result.conflicts:
            events.append(
                Redundancy(
                    root=sg.root, stem=stem, kind="conflict",
                    implied_value=None,
                )
            )
        for stem in result.agreements:
            events.append(
                Redundancy(
                    root=sg.root, stem=stem, kind="agreement",
                    implied_value=result.values.get(stem),
                )
            )
    return events


def unique_stems(events: list[Redundancy]) -> set[str]:
    """Distinct stem nets flagged redundant."""
    return {event.stem for event in events}


def remove_redundancy(network: Network, event: Redundancy) -> bool:
    """Try to apply the rewrite implied by a Fig. 1 event.

    * conflict: the root is constant at the complement of its forcing
      value — replace the root gate with that constant;
    * agreement: disconnect one reconvergent branch of the stem by
      tying the corresponding pin to the implied constant value.

    The rewrite is kept only if the network's primary-output functions
    are exactly preserved (``networks_equivalent``); returns ``True``
    when a rewrite was committed.  The equivalence guard makes removal
    sound even when the event's untestability only holds relative to
    part of the fanout.
    """
    if event.kind == "agreement":
        trials = (
            _tied(network, pin, event.implied_value)
            for pin in _agreement_pins(network, event)
        )
    else:
        sg_value = _root_forcing_value(network, event.root)
        if sg_value is None:
            return False
        trial = network.copy()
        trial.set_fanins(event.root, [])
        trial.set_gate_type(
            event.root, GateType.CONST0 if sg_value == 1 else GateType.CONST1
        )
        trials = [trial]
    for trial in trials:
        if networks_equivalent(network, trial):
            network.adopt(trial)
            return True
    return False


def prove_branch_redundant(network: Network, pin: Pin, stuck_at: int) -> bool:
    """Is the branch feeding *pin* stuck-at-*stuck_at* untestable?

    A test for the fault is a pattern on which the tied copy differs
    from *network* at some primary output, so the fault is untestable
    (the branch redundant) exactly when the two are equivalent.
    """
    return networks_equivalent(network, _tied(network, pin, stuck_at))


def _tied(network: Network, pin: Pin, value: int) -> Network:
    """Copy of *network* with *pin* driven by a fresh constant *value*."""
    trial = network.copy()
    const_name = trial.fresh_name(f"{network.fanin_net(pin)}_tie")
    trial.add_gate(
        const_name, GateType.CONST1 if value else GateType.CONST0, []
    )
    trial.replace_fanin(pin, const_name)
    return trial


def _root_forcing_value(network: Network, root: str) -> int | None:
    """Forcing output value of the supergate rooted at *root*."""
    from .supergate import grow_supergate

    sg = grow_supergate(network, root)
    return sg.root_value


def _agreement_pins(network: Network, event: Redundancy) -> list[Pin]:
    """Stem fanout pins that lie on the reconvergent implication paths.

    A pin qualifies when its gate's output was part of the implication
    (re-running the sweep recovers the forced values) and forced the
    stem to the recorded value.
    """
    sg_value = _root_forcing_value(network, event.root)
    if sg_value is None:
        return []
    result = backward_imply(network, event.root, sg_value, cross_fanout=True)
    pins: list[Pin] = []
    for pin in network.fanout(event.stem):
        gate = network.gate(pin.gate)
        out_value = result.values.get(pin.gate)
        if out_value is None:
            continue
        if implies_inputs(gate.gtype, out_value) == event.implied_value:
            pins.append(pin)
    return pins


def redundancy_counts(events: list[Redundancy]) -> dict[str, int]:
    """Tally events by kind plus distinct stems (Table 1 column 14)."""
    conflicts = sum(1 for event in events if event.kind == "conflict")
    agreements = len(events) - conflicts
    return {
        "events": len(events),
        "conflicts": conflicts,
        "agreements": agreements,
        "stems": len(unique_stems(events)),
    }
