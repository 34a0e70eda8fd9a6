"""Tier-1 guards for the documentation set.

Two checks ride in the normal test run (CI additionally runs them as
dedicated steps):

* the front-end module docstrings' doctests stay true — ``repro.db.sql``
  and ``repro.qdb.qql`` each carry a doctest-style example stating their
  shared/divergent grammar;
* every intra-repo markdown link in ``docs/`` (and the top-level ``*.md``)
  resolves, and every span in the observability doc's "emitted by" table
  is a string literal in the file its row names, via the same checker CI
  runs (``tools/docs_lint.py``).
"""

import doctest
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_docs_lint():
    spec = importlib.util.spec_from_file_location(
        "docs_lint", REPO_ROOT / "tools" / "docs_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sql_module_doctest():
    import repro.db.sql as sql

    results = doctest.testmod(sql, verbose=False)
    assert results.attempted > 0, "repro.db.sql lost its module doctest"
    assert results.failed == 0


def test_qql_module_doctest():
    import repro.qdb.qql as qql

    results = doctest.testmod(qql, verbose=False)
    assert results.attempted > 0, "repro.qdb.qql lost its module doctest"
    assert results.failed == 0


def test_workload_doc_exists():
    assert (REPO_ROOT / "docs" / "workload.md").is_file()


def test_intra_repo_markdown_links_resolve():
    docs_lint = _load_docs_lint()
    problems = docs_lint.broken_links(REPO_ROOT)
    assert problems == [], "\n".join(problems)


def test_docs_lint_detects_breakage(tmp_path):
    docs_lint = _load_docs_lint()
    (tmp_path / "index.md").write_text("see [missing](nope.md) and [ok](#anchor)\n")
    problems = docs_lint.broken_links(tmp_path)
    assert len(problems) == 1 and "nope.md" in problems[0]


def test_span_table_names_the_emitting_files():
    docs_lint = _load_docs_lint()
    problems = docs_lint.stale_span_rows(REPO_ROOT)
    assert problems == [], "\n".join(problems)


def test_docs_lint_detects_stale_span_table(tmp_path):
    docs_lint = _load_docs_lint()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text('with span("a.span"):\n    pass\n')
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        "| span | emitted by |\n"
        "| --- | --- |\n"
        "| `a.span` | `src/mod.py` |\n"
        "| `a.span`, `moved.span` | `src/mod.py` |\n"
        "| `b.span` | `src/gone.py` |\n"
        "| `c.span` | nowhere |\n"
    )
    problems = docs_lint.stale_span_rows(tmp_path)
    assert len(problems) == 3, problems
    assert ":4:" in problems[0] and "'moved.span'" in problems[0]
    assert ":5:" in problems[1] and "src/gone.py" in problems[1]
    assert ":6:" in problems[2] and "no source file" in problems[2]
    assert docs_lint.main(["docs_lint", str(tmp_path)]) == 1


if __name__ == "__main__":  # pragma: no cover - debugging aid
    sys.exit(0)
