"""The supergate store hands out the plain extraction partition.

`PersistentSupergateStore.get_or_extract` once grew its partitions with
shape-colored (template-deduplicated) extraction; it now runs plain
:func:`~repro.symmetry.supergate.extract_supergates`.  Every partition
the store returns — the cold miss and a warm hit re-bound to a copy —
must equal a fresh plain extraction field for field, in insertion
order, so rewiring trajectories cannot depend on which path produced
the partition.
"""

from __future__ import annotations

import pytest

from repro.rapids.engine import PersistentSupergateStore
from repro.symmetry.supergate import extract_supergates

from helpers import random_network

SEEDS = [0, 1, 2, 3, 4, 7, 11, 19]


def _network(seed):
    return random_network(
        seed, num_inputs=6, num_gates=30, num_outputs=3, reuse=0.7
    )


def _assert_same_partition(plain, other):
    assert list(plain.supergates) == list(other.supergates)
    assert plain.owner == other.owner
    for root, sg in plain.supergates.items():
        twin = other.supergates[root]
        assert sg.sg_class == twin.sg_class, root
        assert sg.root_value == twin.root_value, root
        assert sg.covered == twin.covered, root
        assert sg.leaves == twin.leaves, root
        assert list(sg.pin_values.items()) == list(
            twin.pin_values.items()
        ), root
        assert sg.parent_pin == twin.parent_pin, root


@pytest.mark.parametrize("seed", SEEDS)
def test_colored_extraction_equals_plain_extraction(seed):
    net = _network(seed)
    plain = extract_supergates(net)
    assert plain.nontrivial(), f"seed {seed}: no nontrivial supergate"
    store = PersistentSupergateStore()
    cold = store.get_or_extract(net)
    assert (store.misses, store.hits) == (1, 0)
    _assert_same_partition(plain, cold)
    clone = net.copy()
    warm = store.get_or_extract(clone)
    assert (store.misses, store.hits) == (1, 1)
    assert warm.network is clone
    _assert_same_partition(plain, warm)
