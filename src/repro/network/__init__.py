"""Boolean network substrate: gates, nets, I/O and primitive transforms."""

from .gatetype import (
    CONST_TYPES,
    GateType,
    WIRE_TYPES,
    XOR_TYPES,
    base_type,
    complement_type,
    controlling_value,
    eval_gate,
    forced_input_value,
    forcing_output_value,
    is_inverted,
    noncontrolling_value,
)
from .netlist import Gate, Network, NetworkError, Pin
from .builder import NetworkBuilder
from .validate import check_network, dangling_gates, network_problems
from .transform import (
    cleanup,
    collapse_wire_pairs,
    complement_net,
    propagate_constants,
    swap_inverting,
    swap_noninverting,
    sweep,
)
from .blif import read_blif
from .bench_io import read_bench

__all__ = [
    "CONST_TYPES",
    "GateType",
    "WIRE_TYPES",
    "XOR_TYPES",
    "Gate",
    "Network",
    "NetworkBuilder",
    "NetworkError",
    "Pin",
    "base_type",
    "check_network",
    "cleanup",
    "collapse_wire_pairs",
    "complement_net",
    "complement_type",
    "controlling_value",
    "dangling_gates",
    "eval_gate",
    "forced_input_value",
    "forcing_output_value",
    "is_inverted",
    "network_problems",
    "noncontrolling_value",
    "propagate_constants",
    "read_bench",
    "read_blif",
    "swap_inverting",
    "swap_noninverting",
    "sweep",
]
