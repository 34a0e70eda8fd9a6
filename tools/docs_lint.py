#!/usr/bin/env python3
"""Docs lint: intra-repo links resolve, the span table names real emitters.

Scans the repo's markdown files (``docs/``, top-level ``*.md``) for inline
links and images, and checks that relative targets point at files that
exist.  External schemes (http/https/mailto) and pure ``#anchor`` links are
skipped; a ``path#anchor`` target is checked for the file part only.

It also checks the ``| span | emitted by |`` table of
``docs/observability.md``: every span name in a row must appear as a
quoted string literal in each source file that row names, so the table
cannot keep pointing at a file a span has moved out of.

Exit status 0 when clean, 1 with one line per problem otherwise —
suitable both for CI and for the tier-1 test that wraps it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links/images: [text](target) — code spans are stripped first.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_CODE_SPAN_RE = re.compile(r"`[^`]*`")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def markdown_files(root: Path) -> list[Path]:
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return files


def broken_links(root: Path) -> list[str]:
    problems = []
    for path in markdown_files(root):
        text = path.read_text(encoding="utf-8")
        in_fence = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in _LINK_RE.finditer(_CODE_SPAN_RE.sub("", line)):
                target = match.group(1)
                if target.startswith(_EXTERNAL) or target.startswith("#"):
                    continue
                file_part = target.split("#", 1)[0]
                if not file_part:
                    continue
                resolved = (path.parent / file_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: broken link -> {target}"
                    )
    return problems


#: The doc holding the span -> emitting-file table.
SPAN_TABLE_DOC = Path("docs") / "observability.md"
_SPAN_TABLE_HEADER = re.compile(r"^\|\s*span\s*\|\s*emitted by\s*\|")
_TICKED = re.compile(r"`([^`]+)`")


def stale_span_rows(root: Path) -> list[str]:
    """Rows of the span table whose spans are not literals in the named file."""
    path = root / SPAN_TABLE_DOC
    if not path.is_file():
        return []
    problems = []
    in_table = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if _SPAN_TABLE_HEADER.match(line):
            in_table = True
            continue
        if not in_table or not line.startswith("|"):
            in_table = False
            continue
        cells = line.strip().strip("|").split("|")
        spans = _TICKED.findall(cells[0])
        if not spans:
            continue  # the header's separator row
        where = f"{path.relative_to(root)}:{lineno}"
        named = _TICKED.findall(cells[1]) if len(cells) > 1 else []
        files = [name for name in named if name.endswith(".py")]
        if not files:
            problems.append(f"{where}: span row names no source file")
        for name in files:
            if not (root / name).is_file():
                problems.append(f"{where}: span table names a missing file -> {name}")
                continue
            text = (root / name).read_text(encoding="utf-8")
            for span in spans:
                if f'"{span}"' not in text and f"'{span}'" not in text:
                    problems.append(f"{where}: span {span!r} is not a string literal in {name}")
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    problems = broken_links(root) + stale_span_rows(root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} docs problem(s)")
        return 1
    count = len(markdown_files(root))
    print(
        f"docs-lint: {count} markdown files, all intra-repo links resolve, "
        "span table matches its sources"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
