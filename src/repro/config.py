"""Every run knob, declared once, as a field whose metadata carries
its help text, CLI flag, valid values and whether it shapes the
trajectory.  ``run_rapids`` takes :class:`RapidsConfig`'s fields as
keywords, :class:`FlowConfig` shares the :class:`RunKnobs` with it,
and the ``table1``/``bench`` flags, README's "CLI knobs" table and a
checkpoint's knob record all derive from the fields.  A config
validates itself when built: a bad value raises :class:`ValueError`
naming the field.  Stdlib only, so ``tools/lint`` can load it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

#: The optimizer modes of Section 6, in Table-1 column order.
MODES = ("gsg", "gs", "gsg_gs")


def knob(default, help, *, flag=False, negatable=False, metavar=None,
         choices=None, minimum=None, trajectory=False):
    """A config field.  *flag* is ``True`` for ``--<name>`` or an
    option string; a *negatable* boolean flag also gets ``--no-``."""
    return field(default=default, metadata={
        "help": help, "flag": flag, "negatable": negatable,
        "metavar": metavar, "choices": choices, "minimum": minimum,
        "trajectory": trajectory,
    })


@dataclass(frozen=True, kw_only=True)
class RunKnobs:
    """Knobs one optimizer run and the whole flow share."""

    max_rounds: int = knob(
        12, "optimizer rounds per mode", minimum=0, trajectory=True)
    batch_limit: int = knob(
        64, "moves one optimizer batch commits at most", minimum=1,
        trajectory=True)
    check_equivalence: bool = knob(
        False, "check that every optimized netlist is functionally "
        "equivalent to its input", flag="--verify")
    workers: int = knob(
        1, "processes selecting partitioned-polish regions; used with "
        "--partition, the trajectory is bit-identical for every N",
        flag=True, metavar="N", minimum=1)
    wl_passes: int = knob(
        0, "Section-5 wirelength-rewiring passes after timing "
        "optimization: symmetric signals are exchanged to shorten "
        "estimated wires, placement untouched; 0 skips the polish",
        flag=True, metavar="N", minimum=0, trajectory=True)
    wl_timing_aware: bool = knob(
        True, "gate every wirelength swap on its projected slack "
        "neighborhood staying inside the guard band; off restores the "
        "HPWL-only objective", flag=True, negatable=True, trajectory=True)
    wl_slack_margin: float = knob(
        0.0, "guard band in ns of the timing-aware gate: 0.0 never "
        "degrades the re-timed delay, negative values trade bounded "
        "delay for wire, positive ones keep a safety band",
        flag=True, metavar="NS", trajectory=True)
    partition: bool = knob(
        False, "run the polish region-bounded: FM-carve the placed "
        "netlist into regions with frozen boundary nets, select per "
        "region (concurrently with --workers) and commit serially; the "
        "1e5+ gate path", flag=True, negatable=True, trajectory=True)
    partition_max_gates: int = knob(
        2500, "region size cap of the carve; a cap of at least the "
        "netlist size reproduces the unpartitioned trajectory exactly",
        flag=True, metavar="N", minimum=1, trajectory=True)
    checkpoint: str | None = knob(
        None, "save resume state to PATH (per mode: PATH.MODE) at flow "
        "boundaries as often as a small fixed share of the run's time "
        "allows, at each stage's end and on SIGTERM; an interrupted run "
        "exits with status 75 after a clean save", flag=True,
        metavar="PATH")
    resume: bool = knob(
        False, "reload the checkpoint and continue an interrupted run "
        "from its saved state, bit-identically to an uninterrupted run "
        "(needs --checkpoint; a missing checkpoint just runs fresh, an "
        "unreadable one is refused)", flag=True)

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            choices, minimum = (spec.metadata["choices"],
                                spec.metadata["minimum"])
            values = value if isinstance(value, (tuple, list)) else (value,)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{spec.name}={value!r}: must be finite")
            if choices and any(entry not in choices for entry in values):
                raise ValueError(
                    f"{spec.name}={value!r}: pick from {', '.join(choices)}"
                )
            if minimum is not None and value is not None and value < minimum:
                raise ValueError(f"{spec.name}={value!r}: must be >= {minimum}")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True: needs a checkpoint to resume from")


@dataclass(frozen=True, kw_only=True)
class RapidsConfig(RunKnobs):
    """The knobs of one :func:`~repro.rapids.engine.run_rapids` call."""

    mode: str = knob(
        "gsg_gs", "optimizer: gsg rewires symmetric pins, gs sizes "
        "gates, gsg_gs does both", choices=MODES, trajectory=True)
    collect_log: bool = knob(
        False, "record every committed move in the optimize result")

    def trajectory_knobs(self) -> dict:
        """The knobs a checkpoint records: those shaping the trajectory."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self) if spec.metadata["trajectory"]
        }


@dataclass(frozen=True, kw_only=True)
class FlowConfig(RunKnobs):
    """Knobs of the Section-6 experimental flow."""

    scale: float | None = knob(
        None, "benchmark size multiplier; unset reads REPRO_SCALE, "
        "else 0.35", flag=True, metavar="X")
    place_seed: int = knob(0, "seed of the placer and the redundancies")
    modes: tuple[str, ...] = knob(
        MODES, "optimizer modes run, each on a copy of the placed design",
        choices=MODES)
    anneal_moves: int | None = knob(
        None, "annealing moves of the placer; unset is 40 per gate, at "
        "most 120,000", minimum=0)
    presize: bool = knob(
        True, "timing-driven sizing on a proxy placement first")
    #: The flow polishes by default: the timing-aware gate is delay-safe.
    wl_passes: int = field(
        default=1, metadata=RunKnobs.__dataclass_fields__["wl_passes"].metadata
    )
    #: Inert: perfbench/flows.py reads them.
    wl_class_swaps: ClassVar[bool] = False
    sim_backend: ClassVar[str] = "auto"
    wl_batched: ClassVar[bool] = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scale is not None and not self.scale > 0:
            raise ValueError(f"scale={self.scale!r}: must be > 0")

    def effective_scale(self) -> float:
        from .suite.registry import configured_scale

        return self.scale if self.scale is not None else configured_scale()

    def for_mode(self, mode: str) -> dict:
        """``run_rapids`` keywords of *mode*'s run; checkpoints per mode."""
        knobs = {spec.name: getattr(self, spec.name)
                 for spec in fields(RunKnobs)}
        knobs["mode"] = mode
        if self.checkpoint is not None:
            knobs["checkpoint"] = f"{self.checkpoint}.{mode}"
        return knobs


def option_string(spec) -> str | None:
    """A field's CLI flag, or ``None`` for a field without one."""
    flag = spec.metadata["flag"]
    return "--" + spec.name.replace("_", "-") if flag is True else flag or None


def shown_default(spec) -> str:
    """A field's default as the CLI help and README table print it."""
    if isinstance(spec.default, bool):
        return "on" if spec.default else "off"
    return "unset" if spec.default is None else str(spec.default)
