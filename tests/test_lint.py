"""The contract linter: each rule catches its seeded fixture
violations, blesses the fixed idioms, honors pragmas — and the repo
itself lints clean (the CI static-analysis gate, asserted here too so
a plain pytest run catches contract breaks without the CI job).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path


REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures_lint"

sys.path.insert(0, str(REPO))

from tools.lint import docs_sync, run_lint  # noqa: E402
from tools.lint.cli import main as lint_main  # noqa: E402


def lint(*names: str, rules: list[str] | None = None):
    return run_lint(
        [FIXTURES / name for name in names], rules, include_docs=False
    )


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


def lines_of(findings, rule: str) -> set[int]:
    return {f.line for f in findings if f.rule == rule}


# ---------------------------------------------------------------- events


class TestEventsRule:
    def test_bad_fixture_caught(self):
        findings = lint("events_bad.py")
        assert rules_of(findings) == {"events"}
        messages = "\n".join(f.message for f in findings)
        # unregistered kind at the emission site
        assert "unregistered event kind 'add_widget'" in messages
        # schema mismatch: missing + smuggled operands
        assert "missing operands ['fanins']" in messages
        assert "unregistered operands ['extra']" in messages
        # bare strings flagged at both emission and dispatch sites
        assert "bare string event kind" in messages
        # partial listener: no catch-all, kinds silently dropped
        assert "no catch-all branch" in messages
        assert "neither handles nor explicitly ignores" in messages
        # operand misuse inside a kind-guarded branch
        assert "data['old'] is not an operand" in messages

    def test_clean_fixture_passes(self):
        assert lint("events_clean.py") == []

    def test_listener_coverage_counts_every_other_kind(self):
        findings = lint("events_bad.py")
        uncovered = {
            f.message.rsplit("'", 2)[-2]
            for f in findings
            if "neither handles" in f.message
        }
        # 12 registered - replace_fanin - swap_fanins (mentioned) -
        # unknown (catch-all's job, reported separately) = 9
        assert len(uncovered) == 9
        assert "replace_fanin" not in uncovered
        assert "unknown" not in uncovered


# ---------------------------------------------------------------- purity


class TestPurityRule:
    def test_bad_fixture_caught(self):
        findings = lint("purity_bad.py")
        assert rules_of(findings) == {"purity"}
        messages = "\n".join(f.message for f in findings)
        assert "'direct_mutation' reaches mutating call .set_cell()" in messages
        # transitive reach through the module-local call graph
        assert "'transitive_mutation' reaches mutating call" in messages
        assert "reached via" in messages
        # emission is impurity too
        assert "'gains' reaches mutating call ._touch()" in messages

    def test_clean_fixture_passes(self):
        assert lint("purity_clean.py") == []


# ----------------------------------------------------------- determinism


class TestDeterminismRule:
    """Regression net for the PR-2 PYTHONHASHSEED bug class."""

    def test_pr2_patterns_caught(self):
        findings = lint("det_bad.py")
        assert rules_of(findings) == {"determinism"}
        messages = [f.message for f in findings]
        # placer._anneal + resize_gain shapes: float sums in set order
        assert (
            sum("accumulation inside iteration over a set" in m for m in messages)
            == 2
        )
        # _bounded_swaps shape: min() whose key cannot break ties
        assert any("cannot break ties" in m for m in messages)
        # first-wins selection in hash order
        assert any("first-wins selection" in m for m in messages)

    def test_fixed_idioms_pass(self):
        # sorted() iteration, element-in-key-tuple, bare min, pragma
        assert lint("det_clean.py") == []

    def test_unmarked_module_is_out_of_scope(self):
        # same bad code without __deterministic__ = True: no findings
        bad = (FIXTURES / "det_bad.py").read_text()
        unmarked = bad.replace("__deterministic__ = True", "")
        scratch = FIXTURES.parent / "det_scratch_unmarked.py"
        scratch.write_text(unmarked)
        try:
            findings = run_lint([scratch], None, include_docs=False)
            assert findings == []
        finally:
            scratch.unlink()


# --------------------------------------------------------- worker-global


class TestWorkerGlobalRule:
    def test_bad_fixture_caught(self):
        findings = lint("worker_bad.py")
        assert rules_of(findings) == {"worker-global"}
        messages = "\n".join(f.message for f in findings)
        # direct write in the entry, plus both transitive classes
        assert "writes into module global 'RESULT_CACHE'" in messages
        assert "rebinds module global 'COUNTER'" in messages
        assert "mutates module global 'SEEN' via .add()" in messages

    def test_clean_fixture_passes(self):
        # locals/params are fine; the waiver pragma silences BASELINES
        assert lint("worker_clean.py") == []


# ------------------------------------------------------------ rule scope


def test_rules_flag_restricts_families():
    findings = lint("det_bad.py", "worker_bad.py", rules=["determinism"])
    assert findings and rules_of(findings) == {"determinism"}


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


def test_cli_exits_nonzero_on_findings(capsys):
    rc = lint_main([str(FIXTURES / "worker_bad.py")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "[worker-global]" in captured.err


# --------------------------------------------------------- docs in sync


def test_generated_docs_match_registry():
    """docs/architecture.md tables byte-identical to regeneration."""
    assert docs_sync.check() == []


def test_docs_drift_detected(tmp_path):
    target = tmp_path / "architecture.md"
    target.write_text(
        (REPO / "docs" / "architecture.md")
        .read_text()
        .replace("| `replace_fanin` |", "| `replace_pin` |", 1)
    )
    findings = docs_sync.check(target)
    assert len(findings) == 1
    assert "drifted" in findings[0].message
    # and --fix-docs repairs exactly that
    assert docs_sync.fix(target) is True
    assert docs_sync.check(target) == []


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
    target = tmp_path / "architecture.md"
    target.write_text("# no markers here\n")
    findings = docs_sync.check(target)
    assert len(findings) == 1
    assert "missing generated-block markers" in findings[0].message


# ------------------------------------------- repo contract spot checks


def test_repo_projection_only_surfaces_are_marked():
    """The pricing surfaces named by the contract carry the marker."""
    from repro.place.hpwl import WirelengthEngine
    from repro.rapids.moves import SwapMove
    from repro.sizing.moves import ResizeMove
    from repro.timing.sta import TimingEngine

    for fn in (
        SwapMove.gains,
        ResizeMove.gains,
        TimingEngine.swap_gain,
        TimingEngine.resize_gain,
        TimingEngine.project_swap_slacks,
        WirelengthEngine.score_swaps,
        WirelengthEngine.rebind_delta,
    ):
        assert getattr(fn, "__projection_only__", False), fn.__qualname__


def test_repo_worker_entry_is_marked():
    from repro.parallel.regions import _select_shard

    assert getattr(_select_shard, "__worker_entry__", False)


def test_event_constants_keep_historical_wire_values():
    """Fingerprint safety: constants are the exact historical strings."""
    from repro.network import events

    assert events.ADD_GATE == "add_gate"
    assert events.REPLACE_FANIN == "replace_fanin"
    assert events.SWAP_FANINS == "swap_fanins"
    assert events.RESTORE == "restore"
    assert events.UNKNOWN == "unknown"
    assert len(events.REGISTRY) == 12
