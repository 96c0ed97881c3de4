"""Placement substrate: FM partitioning, placer, wirelength metrics."""

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
    "FmResult",
    "Placement",
    "WirelengthEngine",
    "bipartition",
    "die_for",
    "manhattan",
    "net_hpwl",
    "net_terminals",
    "perturbation",
    "place",
    "total_hpwl",
]
