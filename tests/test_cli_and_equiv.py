"""Command-line interface and the equivalence checker itself."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.network.builder import NetworkBuilder
from repro.verify.equiv import networks_equivalent

from helpers import bench_text, blif_text, random_network


# ----------------------------------------------------------------------
# equivalence checking
# ----------------------------------------------------------------------
def test_identical_networks_equivalent():
    net = random_network(31)
    assert networks_equivalent(net, net.copy())


def test_single_gate_difference_detected():
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    builder.output(builder.and_(a, b, name="f"))
    net = builder.build()
    other = net.copy()
    from repro.network.gatetype import GateType

    other.set_gate_type("f", GateType.OR)
    assert not networks_equivalent(net, other)
    # an inverted output differs on every pattern
    other.set_gate_type("f", GateType.NAND)
    assert not networks_equivalent(net, other)


def test_interface_mismatch_is_inequivalent():
    net = random_network(32)
    other = net.copy()
    other.add_input("extra")
    assert not networks_equivalent(net, other)


def test_wide_networks_use_bdd_path():
    net = random_network(33, num_inputs=18, num_gates=30)
    assert networks_equivalent(net, net.copy(), exhaustive_limit=4)


def _buffered_and(direct: bool):
    """AND of two inputs, with or without an intermediate buffer net."""
    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    if direct:
        builder.output(builder.and_(a, b, name="f"))
    else:
        mid = builder.and_(a, b, name="mid")
        builder.output(builder.buf(mid, name="f"))
    return builder.build()


def test_bdd_path_handles_nets_deleted_from_after():
    # redundancy removal deletes whole nets: the clean-cone sweep must
    # treat a net missing from *after* as dirty, not crash on lookup
    before = _buffered_and(direct=False)
    after = _buffered_and(direct=True)
    assert "mid" not in after
    assert networks_equivalent(before, after, exhaustive_limit=0)
    assert networks_equivalent(after, before, exhaustive_limit=0)
    from repro.network.gatetype import GateType

    broken = _buffered_and(direct=True)
    broken.set_gate_type("f", GateType.OR)
    assert not networks_equivalent(before, broken, exhaustive_limit=0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "alu2" in out and "s38417" in out


def test_cli_unknown_benchmark_exits_cleanly(capsys):
    assert main(["bench", "alu3"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark 'alu3'" in err
    assert "alu2" in err


def test_cli_bench_small(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.12")
    assert main(["bench", "c432", "--scale", "0.12"]) == 0
    out = capsys.readouterr().out
    assert "initial delay" in out
    assert "gsg_gs" in out


_NO_NUMPY_SCRIPT = """
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from repro.cli import main

codes = [
    main(["bench", "alu2", "--scale", "0.2", "--verify"]),
    main(["bench", "alu2", "--scale", "0.2", "--verify", "--partition",
          "--partition-max-gates", "40"]),
]
print("exit codes", codes)
"""


def test_runtime_needs_no_numpy():
    """The whole flow, verified and partitioned, runs on the standard
    library alone."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "exit codes [0, 0]", (
        result.stdout
    )
    assert result.stdout.count("equivalent=True") == 6


@pytest.mark.parametrize("command", ["bench", "table1"])
def test_cli_refuted_verify_exits_1(capsys, monkeypatch, command):
    import repro.rapids.engine as rapids_engine

    monkeypatch.setattr(
        rapids_engine, "networks_equivalent", lambda before, after: False
    )
    assert main([command, "alu2", "--scale", "0.2", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"rapids: alu2: {mode} netlist is not equivalent to its input"
        for mode in ("gsg", "gs", "gsg_gs")
    ]
    # the report still comes out in full first
    assert ("ave." if command == "table1" else "equivalent=False") in (
        captured.out
    )


@pytest.mark.parametrize("command", ["bench", "table1"])
def test_cli_verified_run_exits_0(capsys, command):
    assert main([command, "alu2", "--scale", "0.2", "--verify"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "bench":
        assert captured.out.count("equivalent=True") == 3


def test_cli_symmetries_on_blif(tmp_path, capsys):
    net = random_network(34, num_gates=12)
    path = tmp_path / "toy.blif"
    path.write_text(blif_text(net))
    assert main(["symmetries", str(path)]) == 0
    out = capsys.readouterr().out
    assert "supergates" in out


def test_cli_symmetries_on_bench(tmp_path, capsys):
    net = random_network(35, num_gates=12)
    path = tmp_path / "toy.bench"
    path.write_text(bench_text(net))
    assert main(["symmetries", str(path)]) == 0
    assert "swap" in capsys.readouterr().out.replace("swappable", "swap")


@pytest.mark.parametrize("name, text, problem", [
    # a Verilog file used to parse as an empty BLIF and exit 0
    ("t.v", "module t (a, y); input a; output y; assign y = a; endmodule\n",
     "not a .blif or .bench netlist"),
    ("missing.blif", None, "No such file or directory"),
    ("undefined.blif",
     ".model m\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end\n",
     "references unknown net 'q'"),
    ("no_outputs.blif", ".model m\n.inputs a\n.end\n",
     "netlist has no primary outputs"),
    ("binary.blif", b"\xff\xfe\x00", "can't decode byte 0xff"),
    # both used to parse: the stray line was skipped, and .gate left
    # its output undefined
    ("stray.blif",
     ".model m\n.inputs a b\n.outputs y\nthis is not blif\n"
     ".names a b y\n11 1\n.end\n",
     "line 4: 'this is not blif' is outside a .names cover"),
    ("mapped.blif",
     ".model m\n.inputs a b\n.outputs y\n.gate AND2 A=a B=b Y=y\n.end\n",
     "line 4: unsupported directive .gate"),
], ids=["verilog", "missing", "undefined-net", "no-outputs", "binary",
        "stray-line", "gate"])
def test_cli_symmetries_refuses_bad_input(tmp_path, capsys, name, text,
                                          problem):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main(["symmetries", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rapids: {path}: ")
    assert problem in captured.err
