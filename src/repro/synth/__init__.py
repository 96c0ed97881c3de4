"""Synthesis substrate: cleanup, decomposition, technology mapping."""

from .strash import script_rugged, simplify_trivial, strash
from .mapper import (
    bind_cells,
    decompose,
    map_network,
    network_area,
)

__all__ = [
    "bind_cells",
    "decompose",
    "map_network",
    "network_area",
    "script_rugged",
    "simplify_trivial",
    "strash",
]
