"""RAPIDS reproduction: fast post-placement rewiring via functional symmetries.

Reimplementation of Chang, Cheng, Suaris and Marek-Sadowska, *Fast
Post-placement Rewiring Using Easily Detectable Functional Symmetries*
(DAC 2000), together with every substrate the paper depends on: Boolean
networks, logic simulation and BDDs, a standard-cell library, a
synthesis/mapping pipeline, a min-cut placer, star-model/Elmore timing
analysis, Coudert-style gate sizing, and the benchmark suite flow that
regenerates Table 1.

Quick start::

    from repro import NetworkBuilder, extract_supergates, enumerate_swaps

    b = NetworkBuilder()
    a, c, x = b.inputs(3)
    f = b.and_(b.nor(a, c), x, name="f")
    b.output(f)
    network = b.build()
    sgn = extract_supergates(network)
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(sg):
            print(swap.root, swap.pin_a, swap.pin_b, swap.inverting)
"""

from .network import (
    Gate,
    GateType,
    Network,
    NetworkBuilder,
    NetworkError,
    Pin,
    check_network,
)
from .library.cells import Cell, Library, default_library
from .symmetry import (
    PinSwap,
    SgClass,
    Supergate,
    SupergateNetwork,
    apply_cross_swap,
    apply_swap,
    enumerate_swaps,
    extract_supergates,
    find_cross_swaps,
    find_easy_redundancies,
)
from .place import Placement, place, total_hpwl
from .timing import TimingEngine
from .synth import map_network, script_rugged
from .rapids import RapidsResult, run_rapids
from .sizing import OptimizeResult, optimize
from .suite import FlowConfig, benchmark_names, build_benchmark, run_benchmark
from .verify import networks_equivalent

__version__ = "1.0.0"

__all__ = [
    "Cell",
    "FlowConfig",
    "Gate",
    "GateType",
    "Library",
    "Network",
    "NetworkBuilder",
    "NetworkError",
    "OptimizeResult",
    "Pin",
    "PinSwap",
    "Placement",
    "RapidsResult",
    "SgClass",
    "Supergate",
    "SupergateNetwork",
    "TimingEngine",
    "__version__",
    "apply_cross_swap",
    "apply_swap",
    "benchmark_names",
    "build_benchmark",
    "check_network",
    "default_library",
    "enumerate_swaps",
    "extract_supergates",
    "find_cross_swaps",
    "find_easy_redundancies",
    "map_network",
    "networks_equivalent",
    "optimize",
    "place",
    "run_benchmark",
    "run_rapids",
    "script_rugged",
    "total_hpwl",
]
