"""RAPIDS post-placement optimizer (the paper's prototype tool)."""

from .engine import MODES, RapidsResult, run_rapids
from .moves import SwapMove, bind_new_inverters, swap_sites
from .wirelength import WirelengthResult, reduce_wirelength
from .report import Table1Row, averages, build_row, fanout_profile

__all__ = [
    "MODES",
    "RapidsResult",
    "SwapMove",
    "Table1Row",
    "averages",
    "bind_new_inverters",
    "build_row",
    "fanout_profile",
    "run_rapids",
    "swap_sites",
    "reduce_wirelength",
    "WirelengthResult",
]
