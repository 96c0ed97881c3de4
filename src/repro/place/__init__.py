"""Placement substrate: FM partitioning, placer, wirelength metrics."""

from .congestion import CongestionStats, congestion_map, congestion_stats
from .fm import FmResult, bipartition
from .hpwl import WirelengthEngine
from .placement import (
    Placement,
    die_for,
    manhattan,
    net_hpwl,
    net_terminals,
    perturbation,
    total_hpwl,
)
from .placer import place

__all__ = [
    "CongestionStats",
    "FmResult",
    "Placement",
    "WirelengthEngine",
    "bipartition",
    "congestion_map",
    "congestion_stats",
    "die_for",
    "manhattan",
    "net_hpwl",
    "net_terminals",
    "perturbation",
    "place",
    "total_hpwl",
]
