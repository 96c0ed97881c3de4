"""The flow must not depend on PYTHONHASHSEED (ROADMAP item).

Hash randomization perturbs set/dict iteration order between
processes; any float accumulation or tie-break that follows such an
order makes the generate/place/optimize trajectory differ per process
(all trajectories individually valid — just not reproducible).  CI
used to pin ``PYTHONHASHSEED=0`` to paper over this; the sorted
iterations in ``placer._anneal``, ``TimingEngine.resize_gain`` and
``rapids.moves._bounded_swaps`` removed the dependence, and this test
locks it in by running the full flow in two subprocesses with
*different* hash seeds and comparing whole-trajectory fingerprints.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.suite.flow import FlowConfig, trajectory_fingerprint

_FINGERPRINT_SCRIPT = """
from repro.suite.flow import FlowConfig, trajectory_fingerprint

config = FlowConfig(scale=0.08, max_rounds=2, anneal_moves=1500)
print(trajectory_fingerprint("alu2", config))
"""


def _run_flow(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return result.stdout.strip()


def test_flow_fingerprint_independent_of_hash_seed():
    fingerprints = {seed: _run_flow(seed) for seed in ("1", "4242", "random")}
    assert len(set(fingerprints.values())) == 1, (
        "flow trajectory depends on PYTHONHASHSEED: "
        + ", ".join(f"{s}->{f}" for s, f in fingerprints.items())
    )


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
