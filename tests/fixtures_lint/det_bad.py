"""The exact PR-2 PYTHONHASHSEED bug patterns, pre-fix.

Three historical sites, reproduced shape-for-shape so the determinism
rule is regression-locked against the bug class it was built for:

* ``anneal_cost`` — ``placer._anneal``: HPWL float accumulation in
  set-iteration order;
* ``resize_gain`` — ``TimingEngine.resize_gain``: cap sum over an
  unsorted fanin set;
* ``bounded_swaps`` — ``rapids.wirelength._bounded_swaps``: min()
  selection whose key cannot break ties, falling back to set order.

``listed_sum`` shows that ``list(...)`` keeps set order: only
``sorted(...)`` launders it.
"""

__deterministic__ = True


def anneal_cost(affected_nets: set, net_hpwl):
    delta = 0.0
    for net in affected_nets:  # hash order feeds the float sum
        delta += net_hpwl(net)
    return delta


def resize_gain(gate, cap):
    total = 0.0
    for fanin in set(gate.fanins):  # dedup, then hash-order sum
        total += cap[fanin]
    return total


def listed_sum(weights: set):
    total = 0.0
    for weight in list(weights):  # a list copy keeps hash order
        total += weight
    return total


def bounded_swaps(candidates: frozenset, pin_slack):
    # equal slacks tie-break in hash order
    return min(candidates, key=lambda pin: pin_slack(pin))


def first_improving(moves: set, gain):
    best = None
    for move in moves:  # first-wins selection in hash order
        if gain(move) > 0:
            best = move
            break
    return best
