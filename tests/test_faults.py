"""The checkpoint-boundary fault hook: plans, parsing, the real signal.

:func:`repro.checkpoint.checkpoint_fault` reads a JSON plan from the
``REPRO_FAULT_PLAN`` environment variable and SIGTERMs the run at the
boundaries it names.  These tests pin the plan format, the no-plan and
malformed-plan fast paths, and the genuinely raised signal;
``tests/test_checkpoint.py`` drives the hook end to end.
"""

from __future__ import annotations

import json
import signal

from repro.checkpoint import FAULT_PLAN_ENV, checkpoint_fault


def test_plan_round_trips_through_the_environment(monkeypatch):
    # integer boundary keys become strings in JSON; the hook still
    # finds them, and only at the planned boundary
    plan = {"checkpoint_round": {2: {"action": "noop"}}}
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan))
    assert checkpoint_fault(2) == "noop"
    assert checkpoint_fault(1) is None
    assert checkpoint_fault(3) is None


def test_hooks_are_noops_without_a_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert checkpoint_fault(1) is None
    monkeypatch.setenv(FAULT_PLAN_ENV, "")
    assert checkpoint_fault(1) is None


def test_malformed_plan_payload_is_ignored(monkeypatch):
    for text in ("{not json", "[1, 2]", '{"checkpoint_round": 5}'):
        monkeypatch.setenv(FAULT_PLAN_ENV, text)
        assert checkpoint_fault(1) is None


def test_checkpoint_fault_raises_a_real_sigterm(monkeypatch):
    received = []
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: received.append(signum)
    )
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(
        {"checkpoint_round": {7: {"action": "sigterm"}}}
    ))
    try:
        assert checkpoint_fault(6) is None
        assert checkpoint_fault(7) == "sigterm"
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert received == [signal.SIGTERM]
