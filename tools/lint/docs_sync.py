"""Generated documentation block: knob declarations -> markdown.

``README.md`` carries the CLI knobs table, generated from the flagged
fields of :class:`repro.config.FlowConfig` between HTML comment
markers:

.. code-block:: markdown

   <!-- BEGIN GENERATED: cli-knobs -->
   ...one table row per flagged knob...
   <!-- END GENERATED: cli-knobs -->

``python -m tools.lint --fix-docs`` rewrites every generated block in
place; the default lint run fails when the committed text differs
byte-for-byte from the regeneration — doc/code agreement is
mechanical, not social.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def load_config():
    """The :mod:`repro.config` knob declarations, executed from their
    file path.

    Loading it this way does not trigger ``repro/__init__`` (which
    imports the full package): the check must run without the package
    installed or importable, and ``repro.config`` is stdlib-only.
    """
    import importlib.util

    name = "_tools_lint_config"
    cached = sys.modules.get(name)
    if cached is not None:
        return cached
    spec = importlib.util.spec_from_file_location(
        name, REPO / "src" / "repro" / "config.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Finding:
    """One reported drift."""

    rule: str
    path: Path
    line: int
    message: str

    def render(self) -> str:
        try:
            shown = self.path.relative_to(REPO)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


RULE = "docs"

README = REPO / "README.md"

_BEGIN = "<!-- BEGIN GENERATED: {name} -->"
_END = "<!-- END GENERATED: {name} -->"


def render_cli_knobs() -> str:
    """The ``table1``/``bench`` flags, one row per flagged config field."""
    config = load_config()
    lines = [
        "| knob | default | effect |",
        "|---|---|---|",
    ]
    for spec in fields(config.FlowConfig):
        option = config.option_string(spec)
        if option is None:
            continue
        meta = spec.metadata
        if meta["negatable"]:
            knob = f"`{option}` / `--no-{option[2:]}`"
        elif meta["choices"] is not None:
            knob = f"`{option} {{{','.join(meta['choices'])}}}`"
        elif meta["metavar"] is not None:
            knob = f"`{option} {meta['metavar']}`"
        else:
            knob = f"`{option}`"
        lines.append(
            f"| {knob} | {config.shown_default(spec)} | {meta['help']} |"
        )
    return "\n".join(lines)


#: Every generated block: marker name -> renderer.
BLOCKS = {"cli-knobs": render_cli_knobs}


def _block_re(name: str) -> re.Pattern[str]:
    return re.compile(
        re.escape(_BEGIN.format(name=name))
        + r"\n.*?"
        + re.escape(_END.format(name=name)),
        re.S,
    )


def regenerate(text: str) -> str:
    """Text with each generated block replaced by a fresh rendering."""
    for name, renderer in BLOCKS.items():
        pattern = _block_re(name)
        if not pattern.search(text):
            raise ValueError(
                f"missing generated-block markers for {name!r} "
                f"({_BEGIN.format(name=name)})"
            )
        replacement = (
            f"{_BEGIN.format(name=name)}\n{renderer()}\n"
            f"{_END.format(name=name)}"
        )
        text = pattern.sub(lambda _m: replacement, text)
    return text


def fix(path: Path = README) -> bool:
    """Rewrite the generated blocks of *path* in place.

    Returns True when the file changed.
    """
    original = path.read_text()
    updated = regenerate(original)
    if updated == original:
        return False
    path.write_text(updated)
    return True


def check(path: Path = README) -> list[Finding]:
    """Findings where committed blocks differ from regeneration."""
    try:
        original = path.read_text()
    except OSError as exc:
        return [Finding(RULE, path, 1, f"cannot read: {exc}")]
    try:
        updated = regenerate(original)
    except ValueError as exc:
        return [Finding(RULE, path, 1, str(exc))]
    if updated == original:
        return []
    first_diff = next(
        (
            index
            for index, (a, b) in enumerate(
                zip(
                    original.splitlines(),
                    updated.splitlines(),
                ),
                start=1,
            )
            if a != b
        ),
        min(
            len(original.splitlines()), len(updated.splitlines())
        ) + 1,
    )
    return [
        Finding(
            RULE,
            path,
            first_diff,
            "generated blocks drifted from their declarations"
            " — run `python -m tools.lint --fix-docs`",
        )
    ]
