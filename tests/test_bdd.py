"""ROBDD package: canonicity, operations, network construction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.bdd import BddManager, ONE, ZERO, cone_bdd
from repro.logic.simulate import extract_cone, table_mask, truth_tables

from helpers import random_network


def output_bdds(net):
    """Every output's BDD over the primary inputs, declared in PI order."""
    manager = BddManager(list(net.inputs))
    return manager, {
        out: cone_bdd(net, manager, out, ()) for out in net.outputs
    }


def bdd_from_table(manager: BddManager, table: int, names: list[str]) -> int:
    """Shannon-expand a truth table into a BDD (test helper)."""
    num_vars = len(names)

    def build(prefix: int, depth: int) -> int:
        if depth == num_vars:
            return ONE if (table >> prefix) & 1 else ZERO
        low = build(prefix, depth + 1)
        high = build(prefix | (1 << depth), depth + 1)
        return manager.ite(manager.var(names[depth]), high, low)

    return build(0, 0)


def test_terminals_and_literals():
    manager = BddManager(["a"])
    a = manager.var("a")
    na = manager.not_(a)
    assert na not in (a, ZERO, ONE)
    assert manager.not_(na) == a
    assert manager.and_(a, na) == ZERO
    assert manager.or_(a, na) == ONE
    assert manager.xor(a, a) == ZERO


def test_canonicity_same_function_same_node():
    manager = BddManager(["a", "b", "c"])
    a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
    lhs = manager.or_(manager.and_(a, b), manager.and_(a, c))
    rhs = manager.and_(a, manager.or_(b, c))
    assert lhs == rhs


@given(
    st.integers(min_value=0, max_value=table_mask(3)),
    st.integers(min_value=0, max_value=table_mask(3)),
)
@settings(max_examples=100)
def test_operations_match_table_algebra(table_f, table_g):
    names = ["a", "b", "c"]
    manager = BddManager(names)
    f = bdd_from_table(manager, table_f, names)
    g = bdd_from_table(manager, table_g, names)
    mask = table_mask(3)
    assert manager.and_(f, g) == bdd_from_table(
        manager, table_f & table_g, names
    )
    assert manager.or_(f, g) == bdd_from_table(
        manager, table_f | table_g, names
    )
    assert manager.xor(f, g) == bdd_from_table(
        manager, table_f ^ table_g, names
    )
    assert manager.not_(f) == bdd_from_table(
        manager, ~table_f & mask, names
    )


def test_network_bdds_agree_with_truth_tables():
    for seed in range(10):
        net = random_network(seed, num_gates=15)
        manager, funcs = output_bdds(net)
        tables = truth_tables(net)
        for out in net.outputs:
            rebuilt = bdd_from_table(
                manager, tables[out], list(net.inputs)
            )
            assert funcs[out] == rebuilt, seed


def test_cone_scoped_construction():
    net = random_network(2, num_gates=20, num_outputs=2)
    out = net.outputs[0]
    manager = BddManager()
    cone_bdd(net, manager, out, ())
    # only the cone's primary inputs become variables
    assert set(manager.var_names) == set(extract_cone(net, [out]).inputs)
    # cut nets are variables: nothing behind them enters the order
    fanins = set(net.gate(out).fanins)
    cut = BddManager()
    cone_bdd(net, cut, out, fanins)
    assert set(cut.var_names) == fanins
