"""Importable test helpers (network generators and oracles shared by
the suite).

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...`` — which breaks the moment any *other*
conftest (``benchmarks/conftest.py``) lands earlier on ``sys.path``:
pytest inserts every rootdir-relative conftest directory, and the
first ``conftest`` module wins.  Helpers therefore live in a plain
module with an unambiguous name; ``conftest.py`` keeps only fixtures.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random

import repro
from repro.network.builder import NetworkBuilder
from repro.network.gatetype import GateType
from repro.network.netlist import Network
from repro.place.placement import Placement, bbox_hpwl, net_terminals

ALL_LOGIC_TYPES = [
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.INV,
    GateType.BUF,
]


def random_network(
    seed: int,
    num_inputs: int = 5,
    num_gates: int = 14,
    num_outputs: int = 2,
    max_arity: int = 3,
    types: list[GateType] | None = None,
    reuse: float = 0.5,
) -> Network:
    """Deterministic random logic network for property tests.

    Mixes recent-net and global sampling so the result has both depth
    and reconvergent fanout.
    """
    rng = random.Random(seed)
    builder = NetworkBuilder(f"rand{seed}")
    nets = builder.inputs(num_inputs)
    choices = types or ALL_LOGIC_TYPES
    for _ in range(num_gates):
        gtype = rng.choice(choices)
        if gtype in (GateType.INV, GateType.BUF):
            arity = 1
        else:
            arity = rng.randint(2, max_arity)
        pool = nets if rng.random() < reuse else nets[-12:]
        fanins: list[str] = []
        while len(fanins) < min(arity, len(set(pool))):
            candidate = rng.choice(pool)
            if candidate not in fanins:
                fanins.append(candidate)
        nets.append(builder.gate(gtype, *fanins))
    internal = nets[num_inputs:]
    for net in rng.sample(internal, min(num_outputs, len(internal))):
        builder.output(net)
    return builder.build()


def fig2_network() -> Network:
    """The paper's Fig. 2 circuit: f = AND(NOR(h, k), x)."""
    builder = NetworkBuilder("fig2")
    h, k, x = builder.inputs(3, prefix="p")
    inner = builder.nor(h, k, name="inner")
    builder.output(builder.and_(inner, x, name="f"))
    return builder.build()


def fig3_network() -> Network:
    """The paper's Fig. 3 flavour: f = OR(AND(a,b,c), AND(d,e,g))."""
    builder = NetworkBuilder("fig3")
    a, b, c, d, e, g = builder.inputs(6)
    sg1 = builder.and_(a, b, c, name="sg1")
    sg2 = builder.and_(d, e, g, name="sg2")
    builder.output(builder.or_(sg1, sg2, name="f"))
    return builder.build()


def _exchanged(
    terminals: list[tuple[float, float]],
    removed: tuple[float, float],
    added: tuple[float, float],
) -> list[tuple[float, float]]:
    edited = list(terminals)
    edited.remove(removed)
    edited.append(added)
    return edited


def swap_hpwl_delta(network: Network, placement: Placement, swap) -> float:
    """Interpreted wirelength change (negative = shorter) of a swap.

    The oracle :class:`repro.place.hpwl.WirelengthEngine` is checked
    against: the two nets' terminal multisets are edited
    arithmetically and re-boxed, so pricing never mutates the network.
    """
    net_a = network.fanin_net(swap.pin_a)
    net_b = network.fanin_net(swap.pin_b)
    if net_a == net_b:
        return 0.0
    loc_a = placement.locations[swap.pin_a.gate]
    loc_b = placement.locations[swap.pin_b.gate]
    terms_a = net_terminals(network, placement, net_a)
    terms_b = net_terminals(network, placement, net_b)
    before = bbox_hpwl(terms_a) + bbox_hpwl(terms_b)
    after = bbox_hpwl(_exchanged(terms_a, loc_a, loc_b)) + bbox_hpwl(
        _exchanged(terms_b, loc_b, loc_a)
    )
    return after - before


def fanin_cone(network: Network, net: str) -> set[str]:
    """Transitive fanin gates of *net*, including *net*, excluding PIs."""
    cone: set[str] = set()
    stack = [net]
    while stack:
        current = stack.pop()
        if current in cone or network.is_input(current):
            continue
        cone.add(current)
        stack.extend(network.gate(current).fanins)
    return cone


def fanout_cone(network: Network, net: str) -> set[str]:
    """Transitive fanout gates of *net*, excluding *net* itself."""
    cone: set[str] = set()
    stack = [pin.gate for pin in network.fanout(net)]
    while stack:
        current = stack.pop()
        if current in cone:
            continue
        cone.add(current)
        stack.extend(pin.gate for pin in network.fanout(current))
    return cone


def projection_only_surfaces() -> list[tuple[object, str, str]]:
    """``(owner, attribute, label)`` of every ``@projection_only``
    callable of the ``repro`` package, counted only in the module that
    defines it: the pricing surfaces both run-time audits wrap."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        leaf = module.__name__.rsplit(".", 1)[-1]
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if getattr(value, "__projection_only__", False):
                found.append((module, name, f"{leaf}.{name}"))
            elif inspect.isclass(value):
                found.extend(
                    (value, attr, f"{value.__name__}.{attr}")
                    for attr, member in vars(value).items()
                    if getattr(member, "__projection_only__", False)
                )
    return found


class ChangeSpy:
    """Records every ``Change`` the network hands its listeners."""

    def __init__(self, network):
        self.changes = []
        network.subscribe(self)

    def notify_network_event(self, change):
        self.changes.append(change)


def partition_signature(sgn) -> dict:
    """Everything a supergate partition promises, per root: class, root
    value, covered gates and the sorted leaves (pin, net, implied
    value, depth) — equal signatures mean equal partitions."""
    return {
        root: (
            sg.sg_class,
            sg.root_value,
            frozenset(sg.covered),
            tuple(sorted(
                (leaf.pin, leaf.net, leaf.imp_value, leaf.depth)
                for leaf in sg.leaves
            )),
        )
        for root, sg in sgn.supergates.items()
    }


# ----------------------------------------------------------------------
# truth-table symmetry by exchange: the oracle for is_nes / is_es
# ----------------------------------------------------------------------
def swap_variables(table: int, num_vars: int, var_i: int, var_j: int) -> int:
    """Truth table of f with variables *var_i* and *var_j* exchanged."""
    result = 0
    for minterm in range(1 << num_vars):
        swapped = minterm
        if (minterm >> var_i) & 1 != (minterm >> var_j) & 1:
            swapped ^= (1 << var_i) | (1 << var_j)
        if (table >> swapped) & 1:
            result |= 1 << minterm
    return result


def complement_variable(table: int, num_vars: int, var: int) -> int:
    """Truth table of f with variable *var* complemented."""
    result = 0
    for minterm in range(1 << num_vars):
        if (table >> (minterm ^ (1 << var))) & 1:
            result |= 1 << minterm
    return result


def nes_check_by_swap(
    table: int, num_vars: int, var_i: int, var_j: int
) -> bool:
    """NES by its definition: exchanging xi and xj leaves f unchanged."""
    return swap_variables(table, num_vars, var_i, var_j) == table


def es_check_by_swap(
    table: int, num_vars: int, var_i: int, var_j: int
) -> bool:
    """ES by its definition: exchanging xi with the complement of xj
    (and vice versa) leaves f unchanged."""
    swapped = swap_variables(table, num_vars, var_i, var_j)
    swapped = complement_variable(swapped, num_vars, var_i)
    swapped = complement_variable(swapped, num_vars, var_j)
    return swapped == table


# ----------------------------------------------------------------------
# netlist writers: the round-trip oracles for read_blif / read_bench
# ----------------------------------------------------------------------
_BLIF_COVERS = {
    GateType.AND: lambda n: [("1" * n, "1")],
    GateType.NAND: lambda n: [("1" * n, "0")],
    GateType.OR: lambda n: [
        ("-" * i + "1" + "-" * (n - i - 1), "1") for i in range(n)
    ],
    GateType.NOR: lambda n: [("0" * n, "1")],
    GateType.XOR: lambda n: _parity_cover(n, odd=True),
    GateType.XNOR: lambda n: _parity_cover(n, odd=False),
    GateType.INV: lambda n: [("0", "1")],
    GateType.BUF: lambda n: [("1", "1")],
    GateType.CONST1: lambda n: [("", "1")],
    GateType.CONST0: lambda n: [],
}


def _parity_cover(arity: int, odd: bool) -> list[tuple[str, str]]:
    rows = []
    for value in range(1 << arity):
        bits = format(value, f"0{arity}b")
        if (bits.count("1") % 2 == 1) == odd:
            rows.append((bits, "1"))
    return rows


def blif_text(network: Network) -> str:
    """The network as combinational BLIF, one ``.names`` cover per gate."""
    lines = [f".model {network.name}"]
    if network.inputs:
        lines.append(".inputs " + " ".join(network.inputs))
    if network.outputs:
        lines.append(".outputs " + " ".join(network.outputs))
    for name in network.topo_order():
        gate = network.gate(name)
        lines.append(".names " + " ".join([*gate.fanins, name]))
        for pattern, bit in _BLIF_COVERS[gate.gtype](gate.arity()):
            lines.append(f"{pattern} {bit}".strip())
    lines.append(".end")
    return "\n".join(lines) + "\n"


_BENCH_FUNCTIONS = {
    GateType.AND: "AND", GateType.OR: "OR", GateType.XOR: "XOR",
    GateType.NAND: "NAND", GateType.NOR: "NOR", GateType.XNOR: "XNOR",
    GateType.INV: "NOT", GateType.BUF: "BUFF",
}


def bench_text(network: Network) -> str:
    """The network in ``.bench`` syntax.  ``.bench`` has no constants,
    so a constant is written as ``x AND NOT x`` / ``x OR NOT x`` over
    the first primary input."""
    lines = [f"# {network.name}"]
    lines += [f"INPUT({net})" for net in network.inputs]
    lines += [f"OUTPUT({net})" for net in network.outputs]
    helper = None
    for name in network.topo_order():
        gate = network.gate(name)
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            pi = network.inputs[0]
            if helper is None:
                helper = f"{name}_helper_inv"
                lines.append(f"{helper} = NOT({pi})")
            func = "AND" if gate.gtype is GateType.CONST0 else "OR"
            lines.append(f"{name} = {func}({pi}, {helper})")
        else:
            func = _BENCH_FUNCTIONS[gate.gtype]
            lines.append(f"{name} = {func}({', '.join(gate.fanins)})")
    return "\n".join(lines) + "\n"
