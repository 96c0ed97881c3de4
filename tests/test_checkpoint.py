"""Checkpoint/resume: crash-durable runs with bit-identical results.

The contract of :mod:`repro.checkpoint`: a run interrupted by SIGTERM
saves its cursor at the next deterministic boundary and exits cleanly;
rerunning with ``resume`` grafts the saved state back and finishes
with a trajectory — and final fingerprint — bit-identical to a run
that was never interrupted.  Tested bottom-up: the manager's save /
cadence / signal machinery, the pickled state's exact round-trips, the
optimizer and whole-``run_rapids`` resume equivalence at every
boundary, and a real SIGTERMed CLI process resumed to the same flow
fingerprint.
"""

from __future__ import annotations

import copyreg
import json
import os
import pickle
import signal
import subprocess
import sys

import pytest
from helpers import random_network

from repro import checkpoint
from repro.checkpoint import (
    CHECKPOINT_EXIT_CODE,
    FAULT_PLAN_ENV,
    SAVE_BUDGET,
    CheckpointFormatError,
    CheckpointManager,
    CheckpointMismatchError,
    RunInterrupted,
    graft_state,
    stage_payload,
)
from repro.library.cells import default_library
from repro.network.netlist import Gate, Network
from repro.place.placement import Placement
from repro.place.placer import place
from repro.rapids.engine import _site_factory, run_rapids
from repro.sizing.coudert import optimize
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)


def _placed_design(seed: int, num_gates: int = 50):
    library = default_library()
    network = random_network(
        seed, num_inputs=8, num_gates=num_gates, num_outputs=4
    )
    map_network(network, library)
    placement = place(network, library, seed=seed, anneal_moves=1500)
    return network, placement, library


def _sigterm_at(monkeypatch, boundary: int) -> None:
    """Plan a SIGTERM at checkpoint *boundary* (counted from 1)."""
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(
        {"checkpoint_round": {boundary: {"action": "sigterm"}}}
    ))


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def _result_fingerprint(network, result) -> tuple:
    opt = result.optimize
    wl = result.wirelength
    return (
        tuple(
            (g.name, g.gtype.value, tuple(g.fanins), g.cell)
            for g in sorted(network.gates(), key=lambda g: g.name)
        ),
        opt.moves_applied, opt.rounds, opt.final_delay, opt.final_area,
        None if wl is None else (
            wl.swaps_applied, wl.cross_swaps_applied, wl.final_hpwl,
            getattr(wl, "rounds", None), wl.passes, wl.candidates_scored,
        ),
    )


# ----------------------------------------------------------------------
# the manager: persistence, cadence, signals
# ----------------------------------------------------------------------
def test_save_is_atomic_and_load_refuses_garbage(tmp_path):
    path = tmp_path / "run.ckpt"
    manager = CheckpointManager(str(path))
    assert manager.load() is None           # missing file: fresh run
    manager.save({"stage": "x", "value": 7})
    assert manager.load() == {"stage": "x", "value": 7}
    assert manager.saves == 1
    assert manager.save_seconds > 0.0
    assert not list(tmp_path.glob("*.tmp.*"))   # temp replaced, not left
    # saves are atomic, so an unreadable file is no crash of ours:
    # resuming it must fail by name, never quietly start over
    for garbage in (
        b"\x80garbage",                     # not a pickle
        b"cos\nno_such_name\n.",            # names a missing object
        pickle.dumps(["a", "list"]),         # not a payload
    ):
        path.write_bytes(garbage)
        with pytest.raises(CheckpointFormatError) as excinfo:
            manager.load()
        assert str(path) in str(excinfo.value)


def test_a_failed_save_leaves_no_temp_file_and_the_old_checkpoint(tmp_path):
    import threading

    path = tmp_path / "run.ckpt"
    manager = CheckpointManager(str(path))
    manager.save({"stage": "x", "value": 7})
    with pytest.raises(TypeError):      # a lock does not pickle
        manager.save({"stage": "y", "lock": threading.Lock()})
    assert not list(tmp_path.glob("*.tmp.*"))
    assert manager.load() == {"stage": "x", "value": 7}
    assert manager.saves == 1


class _Clock:
    """A fake ``perf_counter`` as :mod:`repro.checkpoint` sees it: each
    read returns ``now`` and then advances it by ``tick``, so a save
    (two reads) costs exactly one tick."""

    def __init__(self, monkeypatch, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick
        monkeypatch.setattr(checkpoint, "perf_counter", self)

    def __call__(self) -> float:
        now = self.now
        self.now += self.tick
        return now


def test_boundary_cadence_context_and_stage(tmp_path, monkeypatch):
    clock = _Clock(monkeypatch)
    manager = CheckpointManager(str(tmp_path / "run.ckpt"))
    manager.context = {"benchmark": "alu2"}
    built = []

    def builder():
        built.append(True)
        return {"round": len(built)}

    manager.boundary("optimize", builder)
    assert len(built) == 1                  # first boundary: no cost known
    saved_at = clock.now - clock.tick       # the save's second read
    wait = clock.tick / SAVE_BUDGET         # its cost over the budget
    payload = manager.load()
    assert payload["stage"] == "optimize"
    assert payload["benchmark"] == "alu2"
    clock.now = saved_at + wait / 2
    manager.boundary("optimize", builder)
    assert len(built) == 1                  # too soon: builder not called
    clock.now = saved_at + wait
    manager.boundary("optimize", builder)
    assert len(built) == 2                  # the budget has elapsed
    manager.boundary("wl", builder, force=True)
    assert len(built) == 3                  # force overrides the budget
    assert manager.load()["stage"] == "wl"
    assert manager.boundaries == 4 and manager.saves == 3


def test_sigterm_defers_to_the_next_boundary_then_unwinds(
    tmp_path, monkeypatch
):
    clock = _Clock(monkeypatch)
    manager = CheckpointManager(str(tmp_path / "run.ckpt"))
    manager.boundary("optimize", lambda: {"round": 1})
    clock.tick = 0.0                        # held still: no save is due
    manager.boundary("optimize", lambda: {"round": 2})
    assert manager.load()["round"] == 1
    previous = signal.getsignal(signal.SIGTERM)
    manager.install()
    try:
        os.kill(os.getpid(), signal.SIGTERM)
        assert manager.interrupted          # flag only — no save yet
        assert manager.load()["round"] == 1
        with pytest.raises(RunInterrupted) as excinfo:
            manager.boundary("optimize", lambda: {"round": 3})
        assert excinfo.value.stage == "optimize"
        assert manager.load()["round"] == 3  # saved despite the budget
    finally:
        manager.uninstall()
    assert signal.getsignal(signal.SIGTERM) is previous


def test_injected_sigterm_fault_interrupts_deterministically(
    tmp_path, monkeypatch
):
    manager = CheckpointManager(str(tmp_path / "run.ckpt"))
    manager.install()
    _sigterm_at(monkeypatch, 2)
    try:
        manager.boundary("optimize", lambda: {"round": 1})
        with pytest.raises(RunInterrupted):
            manager.boundary("optimize", lambda: {"round": 2})
    finally:
        manager.uninstall()
    assert manager.load()["round"] == 2


def test_checkpoint_of_another_format_is_refused_by_name(tmp_path):
    # the SoA column layout that preceded pickled payloads carried no
    # format field; resuming it must say what to do, not hit KeyError
    path = tmp_path / "old.ckpt"
    with open(path, "wb") as handle:
        pickle.dump({
            "stage": "optimize",
            "engine_state": {"kind": "soa", "arrays": {}, "header": {}},
        }, handle)
    network, placement, library = _placed_design(3, num_gates=20)
    with pytest.raises(CheckpointFormatError) as excinfo:
        run_rapids(
            network, placement, library, mode="gs",
            checkpoint=str(path), resume=True,
        )
    assert str(path) in str(excinfo.value)
    assert "rerun without --resume" in str(excinfo.value)


@pytest.mark.parametrize("payload, knobs", [
    # 2 named the mid-polish stage "wl_partition"
    pytest.param(
        {"format": 2, "stage": "wl_partition"}, {"wl_passes": 1},
        id="format-2-old-polish-stage",
    ),
    # 3 pickled the engine's slacks, levels and critical delay
    pytest.param(
        {"format": 3, "stage": "optimize"}, {},
        id="format-3-pickled-slacks",
    ),
    # 4 kept the optimizer's netlist inside its engine state
    pytest.param(
        {"format": 4, "stage": "wl", "run_state": None}, {"wl_passes": 1},
        id="format-4-netlist-in-engine-state",
    ),
    # 5 pickled the engine's star models
    pytest.param(
        {"format": 5, "stage": "optimize"}, {},
        id="format-5-pickled-star-models",
    ),
    # 6 saved the PO pad capacitance in the engine state
    pytest.param(
        {"format": 6, "stage": "optimize"}, {},
        id="format-6-pad-cap-in-engine-state",
    ),
    # 7 pickled the engine's propagated arrival and required pairs
    pytest.param(
        {"format": 7, "stage": "optimize", "engine_state": None}, {},
        id="format-7-engine-state",
    ),
    # 8 pickled gates with a per-instance __dict__
    pytest.param(
        {"format": 8, "stage": "optimize", "period": None}, {},
        id="format-8-dict-state-gates",
    ),
])
def test_checkpoint_of_an_old_format_is_refused(tmp_path, payload, knobs):
    # resuming an old layout under today's reader must fail by name,
    # not run fresh or hit a missing key
    path = tmp_path / "old.ckpt"
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    network, placement, library = _placed_design(3, num_gates=20)
    with pytest.raises(
        CheckpointFormatError, match=f"payload format {payload['format']}"
    ):
        run_rapids(
            network, placement, library, mode="gs",
            checkpoint=str(path), resume=True, **knobs,
        )


class _DictStateGate:
    """Pickles byte for byte as a format-8 ``Gate``, whose instances
    carried a ``__dict__``: the class by reference plus that dict."""

    def __init__(self, gate: Gate) -> None:
        self.state = {
            "name": gate.name, "gtype": gate.gtype,
            "fanins": list(gate.fanins), "cell": gate.cell,
        }

    @property
    def __class__(self):  # the pickler checks the reduced object's class
        return Gate

    def __reduce_ex__(self, protocol):
        return copyreg.__newobj__, (Gate,), self.state


def test_checkpoint_with_dict_state_gates_is_refused_as_unreadable(tmp_path):
    # slotted gates cannot take a format-8 payload's dict state: the
    # refusal names the file instead of escaping as an AttributeError
    network, placement, _ = _placed_design(3, num_gates=20)
    network._gates = {
        name: _DictStateGate(gate) for name, gate in network._gates.items()
    }
    path = tmp_path / "format8.ckpt"
    with open(path, "wb") as handle:
        pickle.dump({
            **stage_payload(network, placement), "stage": "optimize",
            "format": 8, "knobs": {},
        }, handle)
    with pytest.raises(CheckpointFormatError, match="is unreadable") as excinfo:
        CheckpointManager(str(path)).load()
    assert str(path) in str(excinfo.value)


# ----------------------------------------------------------------------
# pickled state: exact round-trips
# ----------------------------------------------------------------------
def test_graft_state_restores_content_into_live_objects():
    network, placement, library = _placed_design(7, num_gates=30)
    saved, saved_pl = _round_trip((network, placement))
    target, target_pl = _placed_design(8, num_gates=25)[:2]
    graft_state(saved, saved_pl, target, target_pl)
    assert list(target._gates) == list(network._gates)
    assert {
        n: (g.gtype, tuple(g.fanins), g.cell)
        for n, g in target._gates.items()
    } == {
        n: (g.gtype, tuple(g.fanins), g.cell)
        for n, g in network._gates.items()
    }
    assert target.inputs == network.inputs
    assert target.outputs == network.outputs
    assert target_pl.locations == placement.locations
    assert target.topo_order() == network.topo_order()


def test_resumed_engine_reports_the_live_required_times():
    # a checkpoint saves no analysis: a fresh engine on the pickled
    # netlist with the saved period derives the same required pairs,
    # levels, slacks and critical delay, pinned period or not
    network, placement, library = _placed_design(11, num_gates=40)
    for period in (None, 4.0):
        engine = TimingEngine(network, placement, library, period=period)
        engine.analyze()
        saved = _round_trip(stage_payload(network, placement, engine))
        replica = TimingEngine(
            saved["network"], saved["placement"], library,
            period=saved["period"],
        )
        replica.refresh()
        assert replica._req0 == engine._req0
        assert replica._levels == engine._levels
        assert replica.slack == engine.slack
        assert replica.max_delay == engine.max_delay


# ----------------------------------------------------------------------
# optimizer resume: bit-identical trajectories
# ----------------------------------------------------------------------
def test_optimize_interrupted_and_resumed_matches_uninterrupted(
    tmp_path, monkeypatch
):
    network, placement, library = _placed_design(13, num_gates=60)
    factory = _site_factory("gs", library, None)
    plain_net, plain_pl = network.copy(), placement.copy()
    plain = optimize(
        plain_net, plain_pl, library, factory,
        TimingEngine(plain_net, plain_pl, library), collect_log=True,
    )
    assert plain.moves_applied > 0

    manager = CheckpointManager(str(tmp_path / "run.ckpt"))
    manager.install()
    int_net, int_pl = network.copy(), placement.copy()
    _sigterm_at(monkeypatch, 1)
    try:
        with pytest.raises(RunInterrupted):
            optimize(
                int_net, int_pl, library, factory,
                TimingEngine(int_net, int_pl, library),
                collect_log=True, checkpoint=manager,
            )
    finally:
        manager.uninstall()
        monkeypatch.delenv(FAULT_PLAN_ENV)
    payload = manager.load()
    assert payload["stage"] == "optimize"

    res_net, res_pl = network.copy(), placement.copy()
    graft_state(payload["network"], payload["placement"], res_net, res_pl)
    resumed = optimize(
        res_net, res_pl, library, factory,
        TimingEngine(res_net, res_pl, library, period=payload["period"]),
        collect_log=True, resume_data=payload,
    )
    assert resumed.move_log == plain.move_log
    assert resumed.final_delay == plain.final_delay
    assert resumed.final_area == plain.final_area
    assert resumed.rounds == plain.rounds
    assert {
        g.name: (g.cell, tuple(g.fanins)) for g in res_net.gates()
    } == {
        g.name: (g.cell, tuple(g.fanins)) for g in plain_net.gates()
    }


# ----------------------------------------------------------------------
# whole-run resume: every boundary, identical fingerprint
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["gs", "gsg_gs"])
@pytest.mark.parametrize("partition", [True, False])
def test_run_rapids_resumes_identically_from_every_boundary(
    tmp_path, monkeypatch, partition, mode
):
    """A resume re-analyzes the saved netlist, so this also checks that
    a fresh analysis equals incremental STA after every committed
    move, inserted inverters (``gsg_gs``) included."""
    network, placement, library = _placed_design(24, num_gates=80)
    path = str(tmp_path / "run.ckpt")
    kwargs = dict(
        mode=mode, max_rounds=3, wl_passes=2,
        partition=partition, partition_max_gates=30,
    )
    plain_net = network.copy()
    plain = run_rapids(plain_net, placement.copy(), library, **kwargs)
    reference = _result_fingerprint(plain_net, plain)
    stages = []
    index = 1
    while index <= 20:
        if os.path.exists(path):
            os.unlink(path)
        int_net = network.copy()
        _sigterm_at(monkeypatch, index)
        try:
            run_rapids(
                int_net, placement.copy(), library,
                checkpoint=path, **kwargs,
            )
            break       # past the last boundary: run completed
        except RunInterrupted as interrupt:
            stages.append(interrupt.stage)
        finally:
            monkeypatch.delenv(FAULT_PLAN_ENV)
        # one payload shape: every stage saves the live netlist under
        # the same keys
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert isinstance(payload["network"], Network), stages[-1]
        assert isinstance(payload["placement"], Placement), stages[-1]
        res_net = network.copy()
        resumed = run_rapids(
            res_net, placement.copy(), library,
            checkpoint=path, resume=True, **kwargs,
        )
        assert _result_fingerprint(res_net, resumed) == reference, (
            f"resume from boundary {index} ({stages[-1]}) diverged"
        )
        index += 1
    # both polish shapes reach a boundary at every applied round
    assert {"optimize", "wl", "wl_round", "done"} <= set(stages)
    # resuming an already-finished checkpoint replays nothing and
    # returns the recorded result
    done_net = network.copy()
    done = run_rapids(
        done_net, placement.copy(), library,
        checkpoint=path, resume=True, **kwargs,
    )
    assert _result_fingerprint(done_net, done) == reference


def test_resume_mid_polish_keeps_the_pinned_period(tmp_path, monkeypatch):
    """A ``wl_round`` payload records the period the slack gate pinned
    to the pre-polish delay.  A negative margin lets the polish spend
    delay, so a resume that pinned the current delay instead would
    admit other swaps and diverge."""
    network, placement, library = _placed_design(21, num_gates=80)
    path = str(tmp_path / "run.ckpt")
    kwargs = dict(mode="gs", max_rounds=3, wl_passes=2, wl_slack_margin=-0.3)
    plain_net = network.copy()
    plain = run_rapids(plain_net, placement.copy(), library, **kwargs)
    reference = _result_fingerprint(plain_net, plain)
    resumed = 0
    for index in range(1, 21):
        _sigterm_at(monkeypatch, index)
        try:
            run_rapids(
                network.copy(), placement.copy(), library,
                checkpoint=path, **kwargs,
            )
            break
        except RunInterrupted as interrupt:
            stage = interrupt.stage
        finally:
            monkeypatch.delenv(FAULT_PLAN_ENV)
        if stage != "wl_round":
            continue
        with open(path, "rb") as handle:
            assert pickle.load(handle)["period"] is not None
        res_net = network.copy()
        result = run_rapids(
            res_net, placement.copy(), library,
            checkpoint=path, resume=True, **kwargs,
        )
        assert _result_fingerprint(res_net, result) == reference, index
        resumed += 1
    assert resumed >= 2


def _count_builds(monkeypatch) -> dict:
    """Count timing engines built, full analyses and supergate caches
    built from now on (the counts live in the returned dict)."""
    from repro.rapids.engine import SupergateCache

    counts = dict.fromkeys(("engines", "analyses", "caches"), 0)
    for owner, attr, key in (
        (TimingEngine, "__init__", "engines"),
        (TimingEngine, "analyze", "analyses"),
        (SupergateCache, "__init__", "caches"),
    ):
        def counted(*args, _original=getattr(owner, attr), _key=key,
                    **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    return counts


@pytest.mark.parametrize("mode", ["gsg_gs", "gs"])
@pytest.mark.parametrize("timing_aware", [True, False])
@pytest.mark.parametrize("partition", [True, False])
def test_run_rapids_builds_one_engine_and_one_cache(
    monkeypatch, mode, timing_aware, partition
):
    """The optimizer and the polish share the run's engine and cache:
    one engine, one full analysis and one cache per fresh run."""
    network, placement, library = _placed_design(9, num_gates=120)
    counts = _count_builds(monkeypatch)
    result = run_rapids(
        network, placement, library, mode=mode, max_rounds=3,
        wl_passes=2, wl_timing_aware=timing_aware, partition=partition,
        partition_max_gates=60,
    )
    # the polish committed, so the netlist was re-timed after it
    assert result.wirelength.swaps_applied > 0
    assert counts == {"engines": 1, "analyses": 1, "caches": 1}


@pytest.mark.parametrize("timing_aware", [True, False])
def test_run_rapids_resume_builds_one_engine(
    tmp_path, monkeypatch, timing_aware
):
    """A resume from any boundary with work left builds the run's one
    engine and one cache; a finished checkpoint builds neither."""
    network, placement, library = _placed_design(9, num_gates=120)
    path = str(tmp_path / "run.ckpt")
    kwargs = dict(
        mode="gsg_gs", max_rounds=3, wl_passes=2,
        wl_timing_aware=timing_aware,
    )
    stages = []
    for index in range(1, 21):
        if os.path.exists(path):
            os.unlink(path)
        _sigterm_at(monkeypatch, index)
        try:
            run_rapids(
                network.copy(), placement.copy(), library,
                checkpoint=path, **kwargs,
            )
            break
        except RunInterrupted as interrupt:
            stages.append(interrupt.stage)
        finally:
            monkeypatch.delenv(FAULT_PLAN_ENV)
        with monkeypatch.context() as patch:
            counts = _count_builds(patch)
            run_rapids(
                network.copy(), placement.copy(), library,
                checkpoint=path, resume=True, **kwargs,
            )
        built = 0 if stages[-1] == "done" else 1
        assert counts["engines"] == counts["caches"] == built, stages[-1]
        assert counts["analyses"] <= built, stages[-1]
    assert {"optimize", "wl", "wl_round", "done"} <= set(stages)


def test_sigterm_during_the_unpartitioned_polish_unwinds_and_resumes(
    tmp_path, monkeypatch
):
    """A SIGTERM that lands inside the default (one-region) polish is
    saved at the next polish round and unwinds; it is not swallowed."""
    from repro.rapids import partition

    network, placement, library = _placed_design(17, num_gates=80)
    path = str(tmp_path / "run.ckpt")
    kwargs = dict(mode="gs", max_rounds=3, wl_passes=2)
    plain_net = network.copy()
    plain = run_rapids(plain_net, placement.copy(), library, **kwargs)
    assert plain.wirelength.swaps_applied > 0
    select = partition._select_batch

    def select_then_sigterm(*args):
        os.kill(os.getpid(), signal.SIGTERM)
        return select(*args)

    monkeypatch.setattr(partition, "_select_batch", select_then_sigterm)
    with pytest.raises(RunInterrupted) as excinfo:
        run_rapids(
            network.copy(), placement.copy(), library,
            checkpoint=path, **kwargs,
        )
    assert excinfo.value.stage == "wl_round"
    monkeypatch.setattr(partition, "_select_batch", select)
    res_net = network.copy()
    resumed = run_rapids(
        res_net, placement.copy(), library,
        checkpoint=path, resume=True, **kwargs,
    )
    assert _result_fingerprint(res_net, resumed) == \
        _result_fingerprint(plain_net, plain)


@pytest.mark.parametrize("knobs, recorded", [
    ({}, {
        "mode": "gsg_gs", "max_rounds": 12, "batch_limit": 64,
        "wl_passes": 0,
        "wl_timing_aware": True, "wl_slack_margin": 0.0,
        "partition": False, "partition_max_gates": 2500,
    }),
    ({
        "mode": "gs", "max_rounds": 2, "batch_limit": 8,
        "wl_passes": 2,
        "wl_timing_aware": False, "wl_slack_margin": -0.25,
        "partition": True, "partition_max_gates": 30,
        "check_equivalence": True, "workers": 2,
        "collect_log": True,
    }, {
        "mode": "gs", "max_rounds": 2, "batch_limit": 8,
        "wl_passes": 2,
        "wl_timing_aware": False, "wl_slack_margin": -0.25,
        "partition": True, "partition_max_gates": 30,
    }),
])
def test_checkpoint_records_exactly_the_trajectory_knobs(
    tmp_path, knobs, recorded
):
    network, placement, library = _placed_design(3, num_gates=20)
    path = tmp_path / "run.ckpt"
    run_rapids(network, placement, library, checkpoint=str(path), **knobs)
    with open(path, "rb") as handle:
        assert pickle.load(handle)["knobs"] == recorded


def test_resume_under_different_knobs_is_refused_by_name(
    tmp_path, monkeypatch
):
    network, placement, library = _placed_design(17, num_gates=80)
    path = str(tmp_path / "run.ckpt")
    _sigterm_at(monkeypatch, 1)
    with pytest.raises(RunInterrupted):
        run_rapids(
            network.copy(), placement.copy(), library, mode="gs",
            max_rounds=3, wl_passes=2, checkpoint=path,
        )
    monkeypatch.delenv(FAULT_PLAN_ENV)
    with pytest.raises(CheckpointMismatchError, match="wl_passes=2"):
        run_rapids(
            network.copy(), placement.copy(), library, mode="gs",
            max_rounds=3, wl_passes=1, checkpoint=path, resume=True,
        )
    # a knob the checkpoint records but this run does not have (here a
    # removed polish option) is refused by name too
    extra = str(tmp_path / "extra.ckpt")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["knobs"] = {**payload["knobs"], "wl_min_gain": 0.5}
    with open(extra, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(CheckpointMismatchError, match="wl_min_gain=0.5"):
        run_rapids(
            network.copy(), placement.copy(), library, mode="gs",
            max_rounds=3, wl_passes=2, checkpoint=extra, resume=True,
        )
    # and so is a record missing one of this run's knobs
    del payload["knobs"]["wl_min_gain"], payload["knobs"]["wl_passes"]
    with open(extra, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(CheckpointMismatchError, match="no wl_passes knob"):
        run_rapids(
            network.copy(), placement.copy(), library, mode="gs",
            max_rounds=3, wl_passes=2, checkpoint=extra, resume=True,
        )
    # a payload without the record cannot show its knobs: refused too
    del payload["knobs"]
    with open(extra, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(CheckpointFormatError, match="records no flow knobs"):
        run_rapids(
            network.copy(), placement.copy(), library, mode="gs",
            max_rounds=3, wl_passes=2, checkpoint=extra, resume=True,
        )
    # workers does not shape the trajectory: resuming with more is fine
    run_rapids(
        network.copy(), placement.copy(), library, mode="gs",
        max_rounds=3, wl_passes=2, workers=2, checkpoint=path,
        resume=True,
    )


def test_missing_checkpoint_with_resume_just_runs_fresh(tmp_path):
    network, placement, library = _placed_design(19, num_gates=40)
    plain_net = network.copy()
    plain = run_rapids(plain_net, placement.copy(), library, mode="gs")
    res_net = network.copy()
    resumed = run_rapids(
        res_net, placement.copy(), library, mode="gs",
        checkpoint=str(tmp_path / "never-written.ckpt"), resume=True,
    )
    assert _result_fingerprint(res_net, resumed) == \
        _result_fingerprint(plain_net, plain)


# ----------------------------------------------------------------------
# the real thing: a SIGTERMed CLI process, resumed
# ----------------------------------------------------------------------
_FINGERPRINT_SCRIPT = """
import sys
from repro.suite.flow import FlowConfig, trajectory_fingerprint

config = FlowConfig(scale=0.05, checkpoint={checkpoint!r}, resume={resume})
print(trajectory_fingerprint("alu2", config))
"""


def _run(argv, env):
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=300,
    )


def test_sigtermed_cli_run_resumes_to_identical_fingerprint(tmp_path):
    """End to end: ``rapids bench --checkpoint`` receives a (plan-
    injected, genuinely delivered) SIGTERM, exits with the documented
    status after a clean save, and a ``--resume`` rerun reproduces the
    uninterrupted flow fingerprint."""
    path = str(tmp_path / "cli.ckpt")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(FAULT_PLAN_ENV, None)

    plain = _run(
        [sys.executable, "-c",
         _FINGERPRINT_SCRIPT.format(checkpoint=None, resume=False)],
        env,
    )
    assert plain.returncode == 0, plain.stderr

    interrupted_env = dict(env)
    interrupted_env[FAULT_PLAN_ENV] = json.dumps(
        {"checkpoint_round": {1: {"action": "sigterm"}}}
    )
    interrupted = _run(
        [sys.executable, "-m", "repro.cli", "bench", "alu2",
         "--scale", "0.05", "--checkpoint", path],
        interrupted_env,
    )
    assert interrupted.returncode == CHECKPOINT_EXIT_CODE, (
        interrupted.returncode, interrupted.stderr
    )
    assert "--resume" in interrupted.stderr
    saved = [f for f in os.listdir(tmp_path) if f.startswith("cli.ckpt")]
    assert saved, "interrupt did not leave a checkpoint file"

    resumed = _run(
        [sys.executable, "-c",
         _FINGERPRINT_SCRIPT.format(checkpoint=path, resume=True)],
        env,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip() == plain.stdout.strip(), (
        "resumed flow fingerprint diverged from the uninterrupted run"
    )
