"""Run checkpoint/resume: crash-durable optimization state on disk.

A killed process used to lose the whole optimization trajectory; this
module makes long runs restartable without changing what they compute.
:class:`CheckpointManager` owns one checkpoint file and a SIGTERM
handler; the flow's loops call :meth:`CheckpointManager.boundary` at
deterministic points (an optimization round, a batched-polish round,
the run's end) with a builder producing the resume payload.  When the
save budget allows (:data:`SAVE_BUDGET`), and always when a SIGTERM
arrived since the last boundary, the payload is written atomically
(temp file, fsync, ``os.replace``), and after an interrupt save
:class:`RunInterrupted` unwinds the run so the caller can exit with
:data:`CHECKPOINT_EXIT_CODE`.

Every payload has one shape whatever its stage: the live
:class:`~repro.network.netlist.Network` and
:class:`~repro.place.placement.Placement` under ``"network"`` and
``"placement"``, the running timing engine's ``period`` under
``"period"`` (``None`` where no engine runs or none is pinned) and the
stage's own entries (a loop's state object, the finished reports) —
see :func:`stage_payload`.  The manager pickles them whole, and
pickle round-trips floats and dict order exactly.  No timing analysis
is saved: incremental STA equals a fresh analysis bit for bit, so an
engine built on the saved netlist with the saved period prices,
commits and logs exactly what the uninterrupted run's engine would
have.  Resume replays no moves: ``run_rapids(resume=True)`` grafts the
saved netlist into the live objects once (:func:`graft_state`), builds
its engine on them and re-enters the loop with its saved state,
producing a final fingerprint identical to an uninterrupted run
(``tests/test_checkpoint.py`` locks this).  Every payload records
:data:`PAYLOAD_FORMAT`; a file written in another format, or one that
does not unpickle, is refused with :class:`CheckpointFormatError`.
Every payload also records the flow knobs that shape the trajectory; a
resume under different values is refused with
:class:`CheckpointMismatchError`, naming the knob.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from time import perf_counter

from .network.netlist import Network
from .place.placement import Placement
from .timing.sta import TimingEngine

#: Exit status of a run stopped at a checkpoint (BSD ``EX_TEMPFAIL``:
#: a temporary condition — rerun with ``--resume`` to continue).
CHECKPOINT_EXIT_CODE = 75

#: Layout of the saved payload: the stage's pickled live objects, its
#: loop state and the engine's ``period`` (CHANGES.md keeps the history).
PAYLOAD_FORMAT = 9

#: Share of the run an unforced save may cost: a boundary that is not
#: forced saves only once the time since the last save ended reaches
#: that save's measured cost divided by this.
SAVE_BUDGET = 0.02

#: Environment variable carrying a JSON fault plan that SIGTERMs the
#: run at chosen boundaries, e.g. ``{"checkpoint_round": {"1":
#: {"action": "sigterm"}}}`` (boundaries count from 1).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class RunInterrupted(RuntimeError):
    """A SIGTERM arrived and the state was checkpointed; stop cleanly."""

    def __init__(self, path: str, stage: str) -> None:
        super().__init__(
            f"run interrupted; state checkpointed to {path} "
            f"(stage {stage!r}) — rerun with --resume to continue"
        )
        self.path = path
        self.stage = stage


class CheckpointFormatError(RuntimeError):
    """The checkpoint file does not hold a payload this version reads."""

    def __init__(self, path: str, problem: str) -> None:
        super().__init__(
            f"checkpoint {path} {problem}; rerun without --resume to "
            f"start fresh"
        )
        self.path = path


#: Stands for a knob one side of a resume does not record.
_ABSENT = object()


def _setting(knob: str, value) -> str:
    return f"no {knob} knob" if value is _ABSENT else f"{knob}={value!r}"


class CheckpointMismatchError(RuntimeError):
    """The checkpoint was written by a run with different flow knobs."""

    def __init__(self, path: str, knob: str, saved, given) -> None:
        super().__init__(
            f"checkpoint {path} was written with {_setting(knob, saved)}, "
            f"this run has {_setting(knob, given)}; rerun with the same "
            f"knobs, or without --resume to start fresh"
        )
        self.path = path
        self.knob = knob


def checkpoint_fault(index: int) -> str | None:
    """The planned action at checkpoint boundary *index*, if any.

    ``sigterm`` raises the real signal (the manager's handler — or the
    default one, killing the process — receives it) and returns the
    action name so callers can make the interrupt flag deterministic
    regardless of delivery timing.  Without a plan, or with one that
    does not parse, nothing happens.
    """
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    try:
        action = json.loads(text)["checkpoint_round"][str(index)]["action"]
    except (ValueError, TypeError, KeyError):
        return None
    if action == "sigterm":
        signal.raise_signal(signal.SIGTERM)
    return action


class CheckpointManager:
    """One run's checkpoint file, save cadence, and SIGTERM handling.

    The cadence comes from the manager's own clock: the first boundary
    saves, and a later unforced one saves once the time since the last
    save ended is at least that save's cost over :data:`SAVE_BUDGET`,
    so unforced saves cost about that share of the run.  The
    SIGTERM handler only sets a flag; the actual save happens at the
    next boundary, where the state is consistent by construction.
    ``context`` entries (set by the orchestrator) ride along in every
    boundary payload.  ``knobs`` (also set by the orchestrator: the
    arguments that shape the trajectory) are written into every saved
    payload, and :meth:`load` refuses a payload whose recorded knobs
    differ, so a resume always continues the same run.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.context: dict = {}
        self.knobs: dict = {}
        self.boundaries = 0
        self.saves = 0
        self.interrupted = False
        #: cumulative seconds spent serializing + writing checkpoints
        self.save_seconds = 0.0
        # perf_counter at the end of the last save and that save's cost
        self._saved_at: float | None = None
        self._save_cost = 0.0
        self._previous_handler = None
        self._installed = False

    # ------------------------------------------------------------------
    # signal lifecycle
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Route SIGTERM to the interrupt flag (main thread only)."""
        if self._installed:
            return
        try:
            self._previous_handler = signal.signal(
                signal.SIGTERM, self._on_sigterm
            )
            self._installed = True
        except ValueError:  # pragma: no cover - non-main thread
            self._previous_handler = None

    def uninstall(self) -> None:
        """Restore the previous SIGTERM disposition (idempotent)."""
        if not self._installed:
            return
        self._installed = False
        try:
            signal.signal(
                signal.SIGTERM,
                self._previous_handler
                if self._previous_handler is not None
                else signal.SIG_DFL,
            )
        except ValueError:  # pragma: no cover - non-main thread
            pass

    def _on_sigterm(self, signum, frame) -> None:
        self.interrupted = True

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def load(self) -> dict | None:
        """The saved payload, or ``None`` when the file is missing.

        Saves are atomic, so an unreadable file is not a crashed run of
        ours: it raises :class:`CheckpointFormatError`, as does a
        payload of another format (instead of failing later on a
        missing key).  Raises :class:`CheckpointMismatchError` for a
        payload whose recorded knobs differ from ``knobs``, including a
        knob only one side records; a payload without the record is a
        :class:`CheckpointFormatError`.
        """
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:  # whatever unpickling garbage raises
            raise CheckpointFormatError(
                self.path, f"is unreadable ({type(exc).__name__}: {exc})"
            ) from exc
        if not isinstance(payload, dict):
            raise CheckpointFormatError(
                self.path, f"holds a {type(payload).__name__}, not a payload"
            )
        found = payload.pop("format", None)
        if found != PAYLOAD_FORMAT:
            raise CheckpointFormatError(
                self.path, f"has payload format {found!r}, this version "
                f"reads {PAYLOAD_FORMAT}"
            )
        saved = payload.pop("knobs", None)
        if saved is None:
            raise CheckpointFormatError(self.path, "records no flow knobs")
        for knob in dict.fromkeys([*self.knobs, *saved]):
            recorded = saved.get(knob, _ABSENT)
            given = self.knobs.get(knob, _ABSENT)
            if recorded != given:
                raise CheckpointMismatchError(
                    self.path, knob, recorded, given
                )
        return payload

    def save(self, payload: dict) -> None:
        """Atomically replace the checkpoint file with *payload*.

        Write-to-temp + fsync + ``os.replace`` means a crash mid-save
        leaves the previous checkpoint intact — the file on disk is
        always a complete, loadable payload.  A save that raises (an
        unpicklable payload, a full disk) removes its temp file and
        re-raises.
        """
        started = perf_counter()
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(
                    {**payload, "format": PAYLOAD_FORMAT, "knobs": self.knobs},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._saved_at = perf_counter()
        self._save_cost = self._saved_at - started
        self.saves += 1
        self.save_seconds += self._save_cost

    def _due(self) -> bool:
        """Whether the save budget allows an unforced save now."""
        return self._saved_at is None or (
            perf_counter() - self._saved_at
            >= self._save_cost / SAVE_BUDGET
        )

    def boundary(self, stage: str, builder, force: bool = False) -> None:
        """One deterministic save point inside a flow loop.

        *builder* is called only when a save is due (the save budget,
        *force*, or a pending interrupt) and returns the resume payload for
        *stage*; ``stage`` and the manager ``context`` are merged in.
        After an interrupt-triggered save, raises :class:`RunInterrupted`
        to unwind the run.  Fault plans key the ``checkpoint_round``
        injection point on the boundary counter.
        """
        self.boundaries += 1
        action = checkpoint_fault(self.boundaries)
        if action == "sigterm":
            # raise_signal delivery lands at an interpreter checkpoint;
            # set the flag directly so the injected interrupt is
            # deterministic regardless of delivery timing
            self.interrupted = True
        if force or self.interrupted or self._due():
            payload = dict(builder())
            payload["stage"] = stage
            payload.update(self.context)
            self.save(payload)
        if self.interrupted:
            raise RunInterrupted(self.path, stage)


def stage_payload(network: Network, placement: Placement,
                  engine: TimingEngine | None = None, **entries) -> dict:
    """A boundary payload: the live netlist under the keys every stage
    shares, *engine*'s timing period (``None`` without an engine) and
    the stage's own *entries*."""
    return {
        "network": network,
        "placement": placement,
        "period": None if engine is None else engine.period,
        **entries,
    }


def graft_state(saved: Network, saved_placement: Placement,
                network: Network, placement: Placement) -> None:
    """Adopt a saved network and placement into the live objects.

    The flow's other components (site factories, supergate caches,
    result reporting) hold references to the caller's *network* and
    *placement*, so resume must restore content *into* them rather
    than swap objects.  No listener is notified — the run grafts
    before any listener subscribes (engines and caches are built after
    resume) — and :meth:`Network.adopt` drops the derived indexes.
    """
    network.name = saved.name
    network.adopt(saved, announce=False)
    network.version = saved.version
    placement.die_width = saved_placement.die_width
    placement.die_height = saved_placement.die_height
    placement.locations = dict(saved_placement.locations)
    placement.input_pads = dict(saved_placement.input_pads)
    placement.output_pads = dict(saved_placement.output_pads)

