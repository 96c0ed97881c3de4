"""The flow must not depend on PYTHONHASHSEED, checked where priced
values are computed.

Hash randomization changes the iteration order of sets, and of dicts
filled from them, between processes.  A float sum or a tie-break that
follows such an order makes the trajectory differ per process (each
valid, none reproducible).  The audit below runs this file as a child
process twice at once, under ``PYTHONHASHSEED`` 0 and 31337.  The child
wraps every ``@projection_only`` callable (the discovery walk it shares
with ``tests/test_projection_audit.py``) and records, in call order, each
call's label and a digest of its canonically rendered return value:
floats by ``repr``, sets sorted, dicts and sequences in their own
order.  It runs four flows and a hand-built network, and prints every
flow's ``trajectory_fingerprint``.  The two records must be equal; a
mismatch fails naming the first divergent call as ``label #k``, the
k-th call of that surface.

Hash order reaches a priced value long before it moves a fingerprint,
so the per-call record catches set orders that a whole-flow digest
misses.  New code stays under the audit when one of the child's flows
reaches it on the way to a priced value: a pricing surface that no
flow calls fails the audit, and a new kind of move needs a flow here
that prices it.

Run ``python tests/test_determinism.py`` with ``src`` on
``PYTHONPATH`` to print one process's record.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest

from repro.config import FlowConfig
from repro.library.cells import default_library
from repro.network.builder import NetworkBuilder
from repro.place.placer import place
from repro.sizing.coudert import optimize
from repro.sizing.moves import resize_sites
from repro.suite.flow import trajectory_fingerprint
from repro.timing.sta import TimingEngine

from helpers import projection_only_surfaces

SEEDS = ("0", "31337")

#: ``(benchmark, knobs)`` of the child's flows.  The two alu2 flows
#: price every surface of the timing-aware polish, whole and
#: partitioned; c499 and c1908 have supergates wider than 13 leaves,
#: whose swap lists ``rapids.moves._bounded_swaps`` cuts to the most
#: critical pins.
AUDITED_FLOWS = (
    ("alu2", dict(scale=0.2, modes=("gsg_gs",), wl_timing_aware=True)),
    ("alu2", dict(
        scale=0.2, modes=("gs",), wl_timing_aware=True,
        partition=True, partition_max_gates=60,
    )),
    ("c499", dict(
        scale=0.1, modes=("gsg",), max_rounds=3, presize=False, wl_passes=0,
    )),
    ("c1908", dict(
        scale=0.1, modes=("gsg",), max_rounds=3, presize=False, wl_passes=0,
    )),
)


def canonical(value) -> str:
    """A rendering of *value* that no hash seed can change, except
    through an order the value itself carries."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(map(canonical, value))) + "}"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{canonical(key)}:{canonical(item)}"
            for key, item in value.items()
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(map(canonical, value)) + ")"
    if is_dataclass(value):
        return type(value).__name__ + canonical(
            tuple(getattr(value, spec.name) for spec in fields(value))
        )
    return repr(value)


def _record_priced_calls() -> list[str]:
    """Wrap every pricing surface; returns the growing call record."""
    record: list[str] = []

    def recorded(label, func):
        @functools.wraps(func)
        def audited(*args, **kwargs):
            result = func(*args, **kwargs)
            digest = hashlib.blake2b(
                canonical(result).encode(), digest_size=8
            ).hexdigest()
            record.append(f"{label} {digest}")
            return result

        return audited

    for owner, attr, label in projection_only_surfaces():
        setattr(owner, attr, recorded(label, getattr(owner, attr)))
    return record


def _resize_beside_outputs() -> None:
    """Gate sizing of a NAND4 whose four fanins are primary outputs.

    ``TimingEngine.resize_gain`` sums the projected arrival changes of a
    resized gate's primary-output fanins in fanin order.  Two terms sum
    alike in either order, so only three or more such fanins let an
    unsorted fanin set reach the sum's rounding; the flows above have
    none.  The drive strengths are unequal so that the terms differ.
    """
    library = default_library()
    builder = NetworkBuilder("po_fanins")
    a, b, c, d, e = builder.inputs(5)
    fanins = [
        builder.nand(a, b, name="x1"),
        builder.nor(b, c, name="x2"),
        builder.xor(c, d, name="x3"),
        builder.inv(e, name="x4"),
    ]
    for net in fanins:
        builder.output(net)
    builder.output(builder.nand(*fanins, name="g"))
    network = builder.build()
    cells = ("NAND2_X8", "NOR2_X1", "XOR2_X1", "INV_X1", "NAND4_X2")
    for name, cell in zip((*fanins, "g"), cells):
        network.set_cell(name, cell)
    placement = place(network, library, seed=1)
    optimize(
        network, placement, library,
        site_factory=lambda net, _engine: resize_sites(net, library),
        engine=TimingEngine(network, placement, library),
        mode="gs",
    )


def _plant_level_only_sink_order() -> None:
    """Order ``_sink_gates`` by level alone: ties keep set order."""
    real = TimingEngine._sink_gates

    def level_only(self, *args):
        levels = self._levels
        return sorted(
            set(real(self, *args)), key=lambda name: levels.get(name, 0)
        )

    TimingEngine._sink_gates = level_only


def _child(plant: bool) -> None:
    """Print the priced-call record, then each flow's fingerprint."""
    if plant:
        _plant_level_only_sink_order()
    record = _record_priced_calls()
    fingerprints = [
        f"fingerprint {name} "
        + trajectory_fingerprint(name, FlowConfig(**knobs))
        for name, knobs in (AUDITED_FLOWS[:1] if plant else AUDITED_FLOWS)
    ]
    if not plant:
        _resize_beside_outputs()
    print("\n".join(record + fingerprints))


def _run_children(*args: str) -> dict[str, list[str]]:
    """The child's output lines under each of :data:`SEEDS`, run at once."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    children = {}
    for seed in SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.abspath(src)
        children[seed] = subprocess.Popen(
            [sys.executable, __file__, *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
    lines = {}
    for seed, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        lines[seed] = out.splitlines()
    return lines


def _first_divergence(lines: dict[str, list[str]]) -> str | None:
    """``label #k`` of the first line that differs between the seeds'
    outputs, or ``None``."""
    left, right = (lines[seed] for seed in SEEDS)
    seen: Counter[str] = Counter()
    for one, other in zip(left, right):
        label = one.split()[0]
        seen[label] += 1
        if one != other:
            if label != other.split()[0]:
                return f"{label} #{seen[label]} (or {other.split()[0]})"
            return f"{label} #{seen[label]}"
    if len(left) != len(right):
        return f"record length {len(left)} != {len(right)}"
    return None


def test_priced_calls_independent_of_hash_seed():
    lines = _run_children()
    divergence = _first_divergence(lines)
    assert divergence is None, (
        f"priced values depend on PYTHONHASHSEED: first divergent call "
        f"{divergence} under seeds {' and '.join(SEEDS)}"
    )
    called = {line.split()[0] for line in lines[SEEDS[0]]}
    surfaces = {label for _, _, label in projection_only_surfaces()}
    assert surfaces <= called, sorted(surfaces - called)


def test_planted_hash_order_is_named():
    """A level-only ``_sink_gates`` order leaves equal-level sinks in
    set order; the audit names the timing surface that priced it."""
    divergence = _first_divergence(_run_children("--plant"))
    assert divergence is not None
    assert divergence.startswith("TimingEngine."), divergence


# Golden flow trajectories.  Pricing caches must reproduce the
# uncached estimator float for float, so any change to what the
# optimizer or the wirelength polish prices, selects or commits moves
# one of these digests.
GOLDEN_TRAJECTORIES = [
    (
        "alu2",
        dict(scale=0.08, max_rounds=2, anneal_moves=1500),
        "fed43756d3c68dc10dd4a68d4aba9079",
    ),
    ("s5378", dict(scale=0.08), "6c0ab8b47d62219eb7a407040a36529d"),
]


@pytest.mark.parametrize(
    "name,knobs,expected",
    GOLDEN_TRAJECTORIES,
    ids=[name for name, _, _ in GOLDEN_TRAJECTORIES],
)
def test_golden_trajectory_fingerprint(name, knobs, expected):
    assert trajectory_fingerprint(name, FlowConfig(**knobs)) == expected


if __name__ == "__main__":
    _child(plant="--plant" in sys.argv[1:])
