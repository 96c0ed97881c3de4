"""The generated-docs check (``python -m tools.lint``): README's knob
table matches its regeneration, drift is reported and fixable, and the
CLI's exit codes say so.  Also a spot check of the ``Change`` contract
that no audit covers.
"""

from __future__ import annotations

import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest


REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO))

from tools.lint import docs_sync  # noqa: E402
from tools.lint.cli import main as lint_main  # noqa: E402


# ------------------------------------------------- the repo lints clean


def test_repo_lints_clean():
    """`python -m tools.lint` exits 0 — the acceptance gate itself."""
    result = subprocess.run(
        [sys.executable, "-m", "tools.lint"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr + result.stdout
    assert "0 findings" in result.stdout


def test_cli_exits_nonzero_on_findings(capsys, monkeypatch):
    """A drifted generated block fails the run and is printed."""
    monkeypatch.setitem(docs_sync.BLOCKS, "cli-knobs", lambda: "| drifted |")
    rc = lint_main([])
    assert rc == 1
    captured = capsys.readouterr()
    assert "[docs]" in captured.err
    assert "1 finding" in captured.out


def test_cli_missing_path_exits_2(capsys):
    """A path argument is refused (the check takes none), not a clean
    run."""
    with pytest.raises(SystemExit) as exit_info:
        lint_main(["no_such_file.py"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "no_such_file.py" in captured.err
    assert "findings" not in captured.out


# --------------------------------------------------------- docs in sync


def test_generated_docs_match_registry():
    """README's knob table byte-identical to regeneration."""
    assert docs_sync.check() == []


def test_docs_drift_detected(tmp_path):
    """A knob row missing from README's table is drift, and fixable."""
    original = (REPO / "README.md").read_text()
    row = next(
        line for line in original.splitlines()
        if line.startswith("| `--workers N` |")
    )
    target = tmp_path / "README.md"
    target.write_text(original.replace(row + "\n", "", 1))
    findings = docs_sync.check(target)
    assert len(findings) == 1
    assert "drifted" in findings[0].message
    # and --fix-docs repairs exactly that
    assert docs_sync.fix(target) is True
    assert target.read_text() == original


def test_readme_knob_table_drift_detected(tmp_path):
    """README's CLI table is generated from the config's knob fields."""
    target = tmp_path / "README.md"
    target.write_text(
        (REPO / "README.md").read_text().replace(
            "| `--workers N` | 1 |", "| `--workers N` | 4 |", 1
        )
    )
    findings = docs_sync.check(target)
    assert len(findings) == 1
    assert "drifted" in findings[0].message
    assert docs_sync.fix(target) is True
    assert target.read_text() == (REPO / "README.md").read_text()


def test_missing_markers_is_an_error(tmp_path):
    target = tmp_path / "README.md"
    target.write_text("# no markers here\n")
    findings = docs_sync.check(target)
    assert len(findings) == 1
    assert "missing generated-block markers" in findings[0].message


# ------------------------------------------- repo contract spot checks


def test_every_listener_reads_every_change_field():
    """A new ``Change`` field cannot be dropped silently by a listener.

    Each of the three incremental engines must read (or, for a field
    it needs nothing from, name) every field in its
    ``notify_network_event``; the record itself refuses unknown fields.
    """
    from repro.network.netlist import Change
    from repro.place.hpwl import WirelengthEngine
    from repro.rapids.engine import SupergateCache
    from repro.timing.sta import TimingEngine

    for listener in (TimingEngine, SupergateCache, WirelengthEngine):
        source = inspect.getsource(listener.notify_network_event)
        unread = [
            field for field in Change._fields
            if not re.search(rf"\bchange\.{field}\b", source)
        ]
        assert not unread, (listener.__name__, unread)
    with pytest.raises(TypeError):
        Change(bogus=1)
