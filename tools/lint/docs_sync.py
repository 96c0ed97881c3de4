"""Generated documentation blocks: declarations -> markdown.

Two documents carry blocks generated between HTML comment markers:

* ``docs/architecture.md``: the event-kind tables, from
  :mod:`repro.network.events`;
* ``README.md``: the CLI knobs table, from the flagged fields of
  :class:`repro.config.FlowConfig`.

.. code-block:: markdown

   <!-- BEGIN GENERATED: event-kinds -->
   ...one table row per registered kind...
   <!-- END GENERATED: event-kinds -->

``python -m tools.lint --fix-docs`` rewrites every generated block in
place; the default lint run fails when the committed text differs
byte-for-byte from the regeneration — doc/code agreement is
mechanical, not social.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from .core import REPO, Finding, load_config, load_events_registry

RULE = "docs"

ARCHITECTURE = REPO / "docs" / "architecture.md"
README = REPO / "README.md"

_BEGIN = "<!-- BEGIN GENERATED: {name} -->"
_END = "<!-- END GENERATED: {name} -->"


def _registry():
    return load_events_registry()


def render_event_table() -> str:
    """The kind/operand/meaning table, one row per registered kind."""
    events = _registry()
    lines = [
        "| kind | operands | structural | meaning |",
        "|---|---|---|---|",
    ]
    for kind in events.REGISTRY.values():
        operands = ", ".join(f"`{op}`" for op in kind.operands) or "—"
        structural = "yes" if kind.structural else "no"
        lines.append(
            f"| `{kind.name}` | {operands} | {structural} | {kind.meaning} |"
        )
    return "\n".join(lines)


def render_emitters_table() -> str:
    """Which API emits which kind (mutator methods + the two escapes)."""
    events = _registry()
    special = {
        events.RESTORE: "`sizing/coudert.py` best-snapshot rollback",
        events.UNKNOWN: "bare `Network._touch()` after an out-of-band mutation",
    }
    lines = [
        "| emitter | kind |",
        "|---|---|",
    ]
    for kind in events.REGISTRY.values():
        emitter = special.get(
            kind.name, f"`Network.{kind.name}()`"
        )
        lines.append(f"| {emitter} | `{kind.name}` |")
    return "\n".join(lines)


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


#: Every generated block, per document: marker name -> renderer.
BLOCKS = {
    ARCHITECTURE.name: {
        "event-kinds": render_event_table,
        "event-emitters": render_emitters_table,
    },
    README.name: {"cli-knobs": render_cli_knobs},
}


def _block_re(name: str) -> re.Pattern[str]:
    return re.compile(
        re.escape(_BEGIN.format(name=name))
        + r"\n.*?"
        + re.escape(_END.format(name=name)),
        re.S,
    )


def regenerate(text: str, blocks: dict) -> str:
    """Text with each of *blocks* replaced by a fresh rendering."""
    for name, renderer in blocks.items():
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


def _targets(path: Path | None) -> list[Path]:
    return [ARCHITECTURE, README] if path is None else [path]


def fix(path: Path | None = None) -> bool:
    """Rewrite generated blocks in place (default: every document).

    Returns True when a file changed.
    """
    changed = False
    for target in _targets(path):
        original = target.read_text()
        updated = regenerate(original, BLOCKS[target.name])
        if updated != original:
            target.write_text(updated)
            changed = True
    return changed


def check(path: Path | None = None) -> list[Finding]:
    """Findings where committed blocks differ from regeneration."""
    findings: list[Finding] = []
    for target in _targets(path):
        findings.extend(_check_one(target))
    return findings


def _check_one(path: Path) -> list[Finding]:
    try:
        original = path.read_text()
    except OSError as exc:
        return [Finding(RULE, path, 1, f"cannot read: {exc}")]
    try:
        updated = regenerate(original, BLOCKS[path.name])
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
