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

import random

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
