#!/usr/bin/env python3
"""Markdown link checker for the repository docs (CI: docs-check).

Walks the given markdown files (default: README.md, docs/, ROADMAP.md,
CHANGES.md, PAPER.md, PAPERS.md, SNIPPETS.md, ISSUE.md), extracts
every inline link and verifies:

* relative file links resolve to an existing file or directory
  (relative to the linking file);
* fragment links (``path#anchor`` or ``#anchor``) point at a heading
  that exists in the target file, using GitHub's slug rules
  (lowercase, punctuation stripped, spaces to dashes);
* ``http(s)``/``mailto`` links are accepted without network access
  (CI must stay hermetic).

In ``README.md`` and ``docs/`` every backticked dotted ``repro.…``
name must still resolve: its longest prefix naming a module under
``src/`` is parsed with :mod:`ast` (nothing is imported) and each
remaining part must be bound at that module's top level, or inside
the class the previous part named.  The changelog, roadmap and issue
name deleted code on purpose and are not checked.

Exit status is the number of broken links and names, so the CI job
fails loudly and lists every offender.  No third-party dependencies.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DEFAULT_TARGETS = [
    "README.md",
    "docs",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
    "ISSUE.md",
]

#: Inline markdown links: [text](target) — images share the syntax.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Fenced code blocks are stripped before link extraction.
FENCE_RE = re.compile(r"^(```|~~~)", re.MULTILINE)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)
#: Backticked dotted names in the package, e.g. `repro.timing.sta`.
NAME_RE = re.compile(r"`(repro(?:\.\w+)+)`")
#: Top-level targets whose ``repro.…`` names must resolve.
NAME_TARGETS = ("README.md", "docs")
SRC = REPO / "src"


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading."""
    text = re.sub(r"[`*_~]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def strip_fences(text: str) -> str:
    """Remove fenced code blocks (links inside them are examples)."""
    out: list[str] = []
    fenced = False
    for line in text.splitlines():
        if FENCE_RE.match(line):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def anchors_of(path: Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for match in HEADING_RE.finditer(strip_fences(path.read_text())):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def collect_files(targets: list[str]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        path = REPO / target
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            files.append(path)
    return files


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    text = strip_fences(path.read_text())
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        if base:
            resolved = (path.parent / base).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO)}: broken link "
                              f"-> {target} (no such file)")
                continue
        else:
            resolved = path
        if fragment:
            if resolved.suffix != ".md" or not resolved.is_file():
                continue  # anchors into non-markdown: nothing to check
            if fragment not in anchors_of(resolved):
                errors.append(f"{path.relative_to(REPO)}: broken anchor "
                              f"-> {target} (no heading "
                              f"'#{fragment}' in "
                              f"{resolved.relative_to(REPO)})")
    return errors


def _module_source(parts: list[str]) -> Path | None:
    base = SRC.joinpath(*parts)
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _binding(body: list[ast.stmt], name: str) -> ast.stmt | None:
    """The statement of *body* that binds *name* at its level, if any."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = [
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if name in bound:
            return node
    return None


def resolve_name(dotted: str) -> str | None:
    """Why *dotted* does not resolve under ``src/``, or ``None``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        source = _module_source(parts[:cut])
        if source is not None:
            break
    else:
        return "no such module"
    body = ast.parse(source.read_text()).body
    for name in parts[cut:]:
        node = _binding(body, name)
        if node is None:
            return f"{name!r} not defined in {source.relative_to(REPO)}"
        body = node.body if isinstance(node, ast.ClassDef) else []
    return None


def check_names(path: Path) -> list[str]:
    errors: list[str] = []
    for match in NAME_RE.finditer(strip_fences(path.read_text())):
        reason = resolve_name(match.group(1))
        if reason is not None:
            errors.append(f"{path.relative_to(REPO)}: dangling name "
                          f"-> {match.group(1)} ({reason})")
    return errors


def main(argv: list[str]) -> int:
    files = collect_files(argv[1:] or DEFAULT_TARGETS)
    if not files:
        print("check_docs: no markdown files found", file=sys.stderr)
        return 1
    errors: list[str] = []
    links = 0
    for path in files:
        links += len(LINK_RE.findall(strip_fences(path.read_text())))
        errors.extend(check_file(path))
        if path.relative_to(REPO).parts[0] in NAME_TARGETS:
            errors.extend(check_names(path))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"check_docs: {len(files)} files, {links} links, "
          f"{len(errors)} broken")
    return len(errors)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
