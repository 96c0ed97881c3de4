"""Benchmark registry: the paper's 19 circuits with Table 1 reference data.

Each entry names a generator (``repro.suite.circuits``) with parameters
calibrated so the *mapped* gate count approximates the paper's at
``scale=1.0``.  The default scale for tests and benchmarks is read from
the ``REPRO_SCALE`` environment variable (0.35 when unset) so the whole
suite runs in minutes under pure Python; ``REPRO_SCALE=1.0`` reproduces
paper-sized circuits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from ..network.netlist import Network
from . import circuits

DEFAULT_SCALE = 0.35


def configured_scale() -> float:
    """Scale factor from ``REPRO_SCALE``: unset or empty is 0.35, and a
    value below 0.05 runs at 0.05.  Anything but a finite positive
    number raises :class:`ValueError` naming the variable."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"REPRO_SCALE={raw!r}: must be a positive number")
    return max(0.05, value)


@dataclass(frozen=True)
class PaperRow:
    """Table 1 of the paper, one circuit (reference for comparisons)."""

    gates: int
    init_ns: float
    gsg_percent: float
    gs_percent: float
    gsg_gs_percent: float
    gsg_cpu: float
    gs_cpu: float
    gsg_gs_cpu: float
    gs_area_percent: float
    gsg_gs_area_percent: float
    coverage_percent: float
    max_supergate_inputs: int
    redundancies: int


@dataclass(frozen=True)
class BenchmarkSpec:
    """A registered benchmark: generator plus the paper's reference row."""

    name: str
    family: str
    build: Callable[[float], Network]
    paper: PaperRow


def _int(base: float, scale: float, minimum: int = 2) -> int:
    return max(minimum, round(base * scale))


def _sqrt_int(base: float, scale: float, minimum: int = 2) -> int:
    return max(minimum, round(base * math.sqrt(scale)))


_SPECS: list[BenchmarkSpec] = [
    BenchmarkSpec(
        "alu2", "alu",
        lambda s: circuits.alu(bits=_int(16, s), name="alu2"),
        PaperRow(516, 7.6, 6.9, 2.7, 9.7, 3.5, 1.6, 6.8,
                 -2.7, -2.1, 23.4, 9, 7),
    ),
    BenchmarkSpec(
        "alu4", "alu",
        lambda s: circuits.alu(bits=_int(31, s), name="alu4"),
        PaperRow(1004, 10.2, 6.8, 8.0, 11.1, 14.2, 4.5, 22.5,
                 -3.1, -3.0, 27.5, 12, 14),
    ),
    BenchmarkSpec(
        "c432", "priority",
        lambda s: circuits.interrupt_controller(
            channels=_sqrt_int(13, s, 3), buses=3, name="c432",
        ),
        PaperRow(291, 8.6, 4.5, 1.4, 6.8, 2.0, 0.3, 2.9,
                 -1.1, -3.1, 49.5, 9, 6),
    ),
    BenchmarkSpec(
        "c499", "ecc",
        lambda s: circuits.sec_circuit(
            data_bits=_int(96, s, 8), syndrome_bits=24, name="c499",
        ),
        PaperRow(625, 6.1, 2.8, 4.9, 10.6, 1.7, 2.0, 5.1,
                 -0.9, 1.2, 20.8, 3, 2),
    ),
    BenchmarkSpec(
        "c1355", "ecc",
        lambda s: circuits.sec_circuit(
            data_bits=_int(42, s, 8), syndrome_bits=12, expanded=True,
            name="c1355",
        ),
        PaperRow(625, 6.0, 2.3, 7.3, 10.3, 1.4, 1.8, 6.8,
                 -0.3, 0.9, 20.8, 3, 2),
    ),
    BenchmarkSpec(
        "c1908", "ecc",
        lambda s: circuits.sec_circuit(
            data_bits=_int(88, s, 8), syndrome_bits=32, name="c1908",
        ),
        PaperRow(730, 9.7, 1.5, 7.1, 7.4, 2.9, 2.2, 11.4,
                 -3.2, -3.4, 32.6, 8, 5),
    ),
    BenchmarkSpec(
        "c2670", "interface",
        lambda s: circuits.bus_interface(
            width=_int(16, s, 4), control_gates=_int(800, s), seed=26,
            name="c2670",
        ),
        PaperRow(911, 7.0, 2.6, 2.8, 8.8, 2.6, 1.9, 4.5,
                 -4.5, -4.5, 21.5, 20, 23),
    ),
    BenchmarkSpec(
        "c3540", "interface",
        lambda s: circuits.bus_interface(
            width=_int(28, s, 4), control_gates=_int(1380, s), seed=35,
            name="c3540",
        ),
        PaperRow(1809, 11.7, 2.9, 4.2, 7.2, 13.5, 11.2, 29.8,
                 -2.4, -2.4, 25.4, 10, 33),
    ),
    BenchmarkSpec(
        "c5315", "interface",
        lambda s: circuits.bus_interface(
            width=_int(34, s, 4), control_gates=_int(1850, s), seed=53,
            name="c5315",
        ),
        PaperRow(2379, 9.8, 2.8, 5.1, 6.5, 5.6, 13.5, 16.3,
                 -2.6, -3.4, 25.7, 9, 103),
    ),
    BenchmarkSpec(
        "c6288", "multiplier",
        lambda s: circuits.multiplier(bits=_sqrt_int(16, s, 4),
                                      name="c6288"),
        PaperRow(5000, 34.4, 1.4, 5.9, 7.6, 16.5, 71.0, 103.2,
                 -5.3, -5.8, 28.7, 3, 52),
    ),
    BenchmarkSpec(
        "c7552", "interface",
        lambda s: circuits.bus_interface(
            width=_int(36, s, 4), control_gates=_int(1900, s), seed=75,
            name="c7552",
        ),
        PaperRow(2565, 9.3, 1.8, 5.1, 7.5, 5.5, 8.5, 13.9,
                 -2.8, -2.7, 18.3, 7, 26),
    ),
    BenchmarkSpec(
        "i10", "control",
        lambda s: circuits.random_control(
            num_inputs=_int(200, s, 16), num_gates=_int(20500, s),
            num_outputs=_int(200, s, 8), seed=10, xor_fraction=0.05,
            max_depth=55, name="i10",
        ),
        PaperRow(3397, 15.3, 0.1, 7.4, 11.0, 11.3, 17.2, 44.4,
                 -0.7, -1.3, 24.6, 11, 40),
    ),
    BenchmarkSpec(
        "x3", "pla",
        lambda s: circuits.pla_control(
            num_inputs=_int(60, s, 8), num_terms=_int(125, s, 8),
            num_outputs=_int(60, s, 4), term_width=5, seed=3, name="x3",
        ),
        PaperRow(1010, 4.8, 5.8, 9.5, 14.2, 2.4, 3.2, 8.6,
                 -2.2, -3.4, 27.1, 10, 46),
    ),
    BenchmarkSpec(
        "i8", "pla",
        lambda s: circuits.pla_control(
            num_inputs=_int(66, s, 8), num_terms=_int(153, s, 8),
            num_outputs=_int(50, s, 4), term_width=6, seed=8, name="i8",
        ),
        PaperRow(1229, 4.8, 3.9, 4.5, 8.0, 10.2, 5.6, 14.6,
                 -2.4, -2.8, 30.5, 7, 229),
    ),
    BenchmarkSpec(
        "k2", "pla",
        lambda s: circuits.pla_control(
            num_inputs=_int(44, s, 12), num_terms=_int(122, s, 8),
            num_outputs=_int(44, s, 4), term_width=14, seed=2, name="k2",
        ),
        PaperRow(1484, 6.7, 8.0, 3.0, 10.1, 91.2, 3.2, 59.9,
                 -0.6, -0.7, 43.6, 43, 16),
    ),
    BenchmarkSpec(
        "s5378", "sequential",
        lambda s: circuits.random_control(
            num_inputs=_int(214, s, 16), num_gates=_int(5200, s),
            num_outputs=_int(228, s, 8), seed=54, max_depth=24, name="s5378",
        ),
        PaperRow(1811, 5.9, 2.0, 4.8, 7.6, 5.1, 3.7, 13.6,
                 -2.9, -2.7, 24.4, 9, 112),
    ),
    BenchmarkSpec(
        "s13207", "sequential",
        lambda s: circuits.random_control(
            num_inputs=_int(700, s, 16), num_gates=_int(3500, s),
            num_outputs=_int(790, s, 8), seed=13, max_depth=38, name="s13207",
        ),
        PaperRow(2900, 9.7, 2.3, 6.2, 10.2, 35.8, 8.0, 76.2,
                 -2.1, -1.9, 27.7, 24, 90),
    ),
    BenchmarkSpec(
        "s15850", "sequential",
        lambda s: circuits.random_control(
            num_inputs=_int(611, s, 16), num_gates=_int(8200, s),
            num_outputs=_int(684, s, 8), seed=15, max_depth=46, name="s15850",
        ),
        PaperRow(4640, 12.4, 0.1, 7.2, 8.2, 54.1, 18.4, 135.2,
                 -2.4, -1.8, 25.8, 20, 366),
    ),
    BenchmarkSpec(
        "s38417", "sequential",
        lambda s: circuits.random_control(
            num_inputs=_int(1664, s, 16), num_gates=_int(16000, s),
            num_outputs=_int(1742, s, 8), seed=38, max_depth=52, name="s38417",
        ),
        PaperRow(10090, 14.7, 0.7, 4.8, 7.7, 81.6, 35.4, 140.6,
                 0.0, -0.4, 25.8, 21, 1474),
    ),
]

def _synthetic_row(gates: int) -> PaperRow:
    """Placeholder reference row: synthetic workloads have no Table 1
    entry, only a target gate count at ``scale=1.0``."""
    return PaperRow(gates, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                    0.0, 0.0, 0.0, 0, 0)


#: Scale-out workloads for the partitioned flow (ROADMAP item 2):
#: tile-composed control logic sized 1e5-1e6 gates at ``scale=1.0``.
#: Both tile count and tile size grow with sqrt(scale), so the total
#: gate count is linear in scale while the block structure the FM
#: carve exploits is preserved at every size.  Kept out of
#: :func:`benchmark_names` — Table 1 runs and the quick set never
#: build them; ``rapids bench tiled100k --partition`` or the scaling
#: benchmarks opt in explicitly.
_SYNTH_SPECS: list[BenchmarkSpec] = [
    BenchmarkSpec(
        "tiled100k", "synthetic",
        lambda s: circuits.tiled_control(
            tiles=_sqrt_int(16, s), gates_per_tile=_sqrt_int(6250, s, 25),
            inputs_per_tile=_sqrt_int(40, s, 8),
            outputs_per_tile=_sqrt_int(12, s, 4),
            seed=100, name="tiled100k",
        ),
        _synthetic_row(100_000),
    ),
    BenchmarkSpec(
        "tiled1m", "synthetic",
        lambda s: circuits.tiled_control(
            tiles=_sqrt_int(32, s), gates_per_tile=_sqrt_int(31250, s, 25),
            inputs_per_tile=_sqrt_int(56, s, 8),
            outputs_per_tile=_sqrt_int(16, s, 4),
            seed=1000, name="tiled1m",
        ),
        _synthetic_row(1_000_000),
    ),
]

REGISTRY: dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in _SPECS + _SYNTH_SPECS
}

#: The paper's reported averages (bottom row of Table 1).
PAPER_AVERAGES = {
    "gsg_percent": 3.1,
    "gs_percent": 5.4,
    "gsg_gs_percent": 9.0,
    "gs_area_percent": -2.2,
    "gsg_gs_area_percent": -2.3,
    "coverage_percent": 27.6,
}


def benchmark_names() -> list[str]:
    """The paper's benchmark names, in Table 1 order."""
    return [spec.name for spec in _SPECS]


def synthetic_names() -> list[str]:
    """Scale-out synthetic workloads (not part of the Table 1 run)."""
    return [spec.name for spec in _SYNTH_SPECS]


class UnknownBenchmarkError(KeyError):
    """Raised for a benchmark name the registry does not know.

    A ``KeyError`` subclass (the registry's historical contract) whose
    message names the close matches and the full inventory instead of
    just echoing the bad key.
    """

    def __init__(self, name: str) -> None:
        import difflib

        known = benchmark_names() + synthetic_names()
        close = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
        hint = f"; did you mean {close}?" if close else ""
        super().__init__(
            f"unknown benchmark {name!r}{hint} registered: {known}"
        )


def resolve_benchmark(name: str) -> BenchmarkSpec:
    """The registered spec for *name*, validated up front.

    Every lookup path (``build_benchmark``, the flow, the CLI) goes
    through here, so a typo fails immediately with the inventory and
    a close-match suggestion instead of surfacing later as a bare
    ``KeyError``.
    """
    spec = REGISTRY.get(name)
    if spec is None:
        raise UnknownBenchmarkError(name)
    return spec


def build_benchmark(name: str, scale: float | None = None) -> Network:
    """Generate a benchmark's generic (pre-mapping) network."""
    spec = resolve_benchmark(name)
    return spec.build(scale if scale is not None else configured_scale())
