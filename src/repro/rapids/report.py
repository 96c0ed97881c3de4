"""Reporting helpers: Table 1 rows and the large-fanout audit."""

from __future__ import annotations

from dataclasses import dataclass

from ..network.netlist import Network
from .engine import RapidsResult


@dataclass
class Table1Row:
    """One benchmark's results across the three modes (Table 1 columns)."""

    circuit: str
    gates: int
    initial_delay_ns: float
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

    HEADER = (
        f"{'ckt':<10}{'gates':>7}{'init':>7}{'gsg%':>7}{'GS%':>7}"
        f"{'g+GS%':>7}{'gsgT':>7}{'GST':>7}{'g+GST':>8}"
        f"{'GSar%':>7}{'g+GSar%':>8}{'cov%':>7}{'L':>5}{'red':>6}"
    )

    def format(self) -> str:
        """Fixed-width row matching the paper's column layout."""
        return (
            f"{self.circuit:<10}{self.gates:>7d}{self.initial_delay_ns:>7.2f}"
            f"{self.gsg_percent:>7.1f}{self.gs_percent:>7.1f}"
            f"{self.gsg_gs_percent:>7.1f}"
            f"{self.gsg_cpu:>7.1f}{self.gs_cpu:>7.1f}{self.gsg_gs_cpu:>8.1f}"
            f"{self.gs_area_percent:>7.1f}{self.gsg_gs_area_percent:>8.1f}"
            f"{self.coverage_percent:>7.1f}{self.max_supergate_inputs:>5d}"
            f"{self.redundancies:>6d}"
        )


def build_row(
    circuit: str,
    gates: int,
    initial_delay: float,
    results: dict[str, RapidsResult],
) -> Table1Row:
    """Assemble a Table 1 row from the three mode results."""
    gsg = results["gsg"]
    gs = results["gs"]
    combo = results["gsg_gs"]
    return Table1Row(
        circuit=circuit,
        gates=gates,
        initial_delay_ns=initial_delay,
        gsg_percent=gsg.improvement_percent,
        gs_percent=gs.improvement_percent,
        gsg_gs_percent=combo.improvement_percent,
        gsg_cpu=gsg.runtime_seconds,
        gs_cpu=gs.runtime_seconds,
        gsg_gs_cpu=combo.runtime_seconds,
        gs_area_percent=gs.area_delta_percent,
        gsg_gs_area_percent=combo.area_delta_percent,
        coverage_percent=combo.coverage_percent,
        max_supergate_inputs=combo.max_supergate_inputs,
        redundancies=combo.redundancies,
    )


def averages(rows: list[Table1Row]) -> dict[str, float]:
    """Suite averages (the paper's bottom line: 3.1 / 5.4 / 9.0 ...)."""
    if not rows:
        return {}
    count = len(rows)
    return {
        "gsg_percent": sum(r.gsg_percent for r in rows) / count,
        "gs_percent": sum(r.gs_percent for r in rows) / count,
        "gsg_gs_percent": sum(r.gsg_gs_percent for r in rows) / count,
        "gs_area_percent": sum(r.gs_area_percent for r in rows) / count,
        "gsg_gs_area_percent": sum(
            r.gsg_gs_area_percent for r in rows
        ) / count,
        "coverage_percent": sum(r.coverage_percent for r in rows) / count,
    }


def fanout_profile(network: Network) -> dict[str, float]:
    """Large-fanout audit (the paper's closing observation in Section 6).

    Reports the maximum fanout and the count of nets with more than 16
    and more than 100 sinks — the paper remarks the SIS mapper "often
    generates very large fanout nets (more than 100 sinks)" on which
    gsg+GS struggles.
    """
    degrees = [
        network.fanout_degree(net)
        for net in network.nets()
    ]
    return {
        "max_fanout": float(max(degrees, default=0)),
        "nets_over_16": float(sum(1 for d in degrees if d > 16)),
        "nets_over_100": float(sum(1 for d in degrees if d > 100)),
    }

