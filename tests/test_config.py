"""The knob declarations and everything derived from them.

:mod:`repro.config` declares each run knob once.  These tests lock what
derives from it: validation when a config is built, the generated
``table1``/``bench`` flags, and the knobs ``run_rapids`` accepts.  The
recorded checkpoint knobs are locked in ``tests/test_checkpoint.py``,
README's generated table in ``tests/test_lint.py``.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

import pytest
from helpers import random_network

from repro.cli import build_parser
from repro.config import MODES, FlowConfig, RapidsConfig, RunKnobs
from repro.library.cells import default_library
from repro.place.placement import grid_placement
from repro.rapids import engine
from repro.rapids.engine import run_rapids
from repro.synth.mapper import map_network


# ----------------------------------------------------------------------
# validation: a bad knob fails when the config is built, by name
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config, knobs", [
    (RapidsConfig, {"mode": "frobnicate"}),
    (FlowConfig, {"modes": ("gsg", "frobnicate")}),
    (FlowConfig, {"max_rounds": -1, "check_equivalence": True}),
    (FlowConfig, {"batch_limit": 0}),
    (RapidsConfig, {"partition_max_gates": 0}),
    (FlowConfig, {"partition_max_gates": 0, "partition": True}),
    (RapidsConfig, {"wl_passes": -1}),
    (FlowConfig, {"wl_passes": -1}),
    (RapidsConfig, {"max_rounds": -1}),
    (RapidsConfig, {"batch_limit": 0}),
    (FlowConfig, {"workers": 0}),
    (FlowConfig, {"resume": True}),
    (FlowConfig, {"anneal_moves": -1}),
    # a NaN margin never equals itself, so its checkpoint could never
    # resume; NaN or infinite floats are refused, and so is a scale <= 0
    (RapidsConfig, {"wl_slack_margin": float("nan")}),
    (FlowConfig, {"wl_slack_margin": float("inf")}),
    (FlowConfig, {"wl_slack_margin": -float("inf")}),
    (FlowConfig, {"scale": float("nan")}),
    (FlowConfig, {"scale": float("inf")}),
    (FlowConfig, {"scale": 0.0}),
    (FlowConfig, {"scale": -1.0}),
])
def test_a_bad_knob_is_refused_by_name(config, knobs):
    name = next(iter(knobs))
    with pytest.raises(ValueError, match=f"^{name}="):
        config(**knobs)


def test_run_rapids_refuses_a_bad_knob_before_any_work(monkeypatch):
    library = default_library()
    network = random_network(3, num_inputs=6, num_gates=20, num_outputs=3)
    map_network(network, library)
    placement = grid_placement(network)

    def no_work(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(engine, "optimize", no_work)
    version = network.version
    with pytest.raises(ValueError, match="^partition_max_gates="):
        run_rapids(
            network, placement, library, wl_passes=1, partition=True,
            partition_max_gates=0,
        )
    with pytest.raises(TypeError, match="wl_min_gain"):
        run_rapids(network, placement, library, wl_min_gain=0.5)
    assert network.version == version


def test_configs_are_frozen_and_share_the_run_knobs():
    shared = {spec.name for spec in fields(RunKnobs)}
    assert shared <= {spec.name for spec in fields(RapidsConfig)}
    assert shared <= {spec.name for spec in fields(FlowConfig)}
    # the flow polishes by default; a bare run_rapids call does not
    assert FlowConfig().wl_passes == 1
    assert RapidsConfig().wl_passes == 0
    assert FlowConfig().modes == MODES
    with pytest.raises(AttributeError):
        FlowConfig().wl_passes = 2


def test_for_mode_forwards_every_shared_knob():
    config = FlowConfig(wl_passes=3, partition=True, checkpoint="run.ckpt")
    knobs = config.for_mode("gs")
    assert set(knobs) == {spec.name for spec in fields(RunKnobs)} | {"mode"}
    assert knobs["checkpoint"] == "run.ckpt.gs"
    assert RapidsConfig(**knobs).wl_passes == 3


# ----------------------------------------------------------------------
# the generated CLI: the same flags as the hand-written parsers had
# ----------------------------------------------------------------------
#: Option strings -> (dest, default, choices) of the flow knob flags.
FLOW_FLAGS = {
    ("--scale",): ("scale", None, None),
    ("--verify",): ("check_equivalence", False, None),
    ("--workers",): ("workers", 1, None),
    ("--wl-passes",): ("wl_passes", 1, None),
    ("--wl-timing-aware", "--no-wl-timing-aware"):
        ("wl_timing_aware", True, None),
    ("--wl-slack-margin",): ("wl_slack_margin", 0.0, None),
    ("--partition", "--no-partition"): ("partition", False, None),
    ("--partition-max-gates",): ("partition_max_gates", 2500, None),
    ("--checkpoint",): ("checkpoint", None, None),
    ("--resume",): ("resume", False, None),
}


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices[name]


@pytest.mark.parametrize("command", ["table1", "bench"])
def test_generated_flags_match_the_hand_written_ones(command):
    flags = {
        tuple(action.option_strings): (
            action.dest, action.default,
            None if action.choices is None else list(action.choices),
        )
        for action in _subparser(command)._actions
        if action.option_strings and action.dest != "help"
    }
    assert flags == FLOW_FLAGS


def test_parsed_flags_build_the_flow_config():
    from repro.cli import _flow_config

    args = build_parser().parse_args([
        "bench", "alu2", "--verify", "--scale", "0.2", "--wl-passes", "2",
        "--no-wl-timing-aware", "--partition",
    ])
    assert _flow_config(args) == FlowConfig(
        check_equivalence=True, scale=0.2, wl_passes=2,
        wl_timing_aware=False, partition=True,
    )
    assert _flow_config(build_parser().parse_args(["table1"])) == \
        FlowConfig()


def test_cli_refuses_a_bad_knob_as_a_usage_error(capsys, monkeypatch):
    from repro.cli import main

    for argv, named in [
        (["--partition-max-gates", "0"], "partition_max_gates=0"),
        (["--wl-slack-margin", "nan"], "wl_slack_margin=nan"),
        (["--wl-slack-margin", "inf"], "wl_slack_margin=inf"),
        (["--scale", "nan"], "scale=nan"),
        (["--scale", "0"], "scale=0.0"),
        (["--scale", "-1"], "scale=-1.0"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "alu2", *argv])
        assert excinfo.value.code == 2, argv
        assert named in capsys.readouterr().err, argv
    # a bad REPRO_SCALE is refused before any work, named, too
    monkeypatch.setenv("REPRO_SCALE", "abc")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "alu2"])
    assert excinfo.value.code == 2
    assert "REPRO_SCALE='abc'" in capsys.readouterr().err
