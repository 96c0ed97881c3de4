"""Coudert-style gate sizing: generic two-phase optimizer + resize moves."""

from .coudert import (
    Move,
    OptimizeResult,
    Site,
    optimize,
)
from .moves import ResizeMove, resize_sites

__all__ = [
    "Move",
    "OptimizeResult",
    "ResizeMove",
    "Site",
    "optimize",
    "resize_sites",
]
