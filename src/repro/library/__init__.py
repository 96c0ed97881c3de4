"""Standard-cell library substrate (the paper's 0.35 um library)."""

from .cells import (
    Cell,
    Library,
    ROW_HEIGHT_UM,
    UNIT_WIRE_CAP_PER_UM,
    UNIT_WIRE_RES_PER_UM,
    default_library,
)

__all__ = [
    "Cell",
    "Library",
    "ROW_HEIGHT_UM",
    "UNIT_WIRE_CAP_PER_UM",
    "UNIT_WIRE_RES_PER_UM",
    "default_library",
]
