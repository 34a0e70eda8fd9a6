"""Differential check of ``repro.db.sql.execute`` against stdlib ``sqlite3``.

Small random catalogs and SELECTs (self-joins, one to three predicates,
several predicates on one alias pair, inequalities, literal filters) must
return the same multiset of rows as SQLite does on the same data.
"""

import sqlite3
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.catalog import Catalog
from repro.db.relation import Relation
from repro.db.sql import execute

#: Two tables sharing a column name, so qualified references matter.
SCHEMA = {"r": ("a", "b"), "s": ("b", "c")}
OPS = ("=", "=", "=", "!=", "<", "<=", ">", ">=")  # equi-joins weighted up
ALIASES = ("x", "y", "z")

values = st.integers(min_value=0, max_value=3)
tables = st.lists(st.tuples(values, values), max_size=6)


def _run_both(rows: dict, sql: str):
    catalog = Catalog()
    conn = sqlite3.connect(":memory:")
    for name, columns in SCHEMA.items():
        catalog.add_relation(Relation(name, list(columns), rows[name]))
        conn.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        conn.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows[name])
    ours = Counter(tuple(row) for row in execute(sql, catalog).rows)
    theirs = Counter(conn.execute(sql).fetchall())
    conn.close()
    return ours, theirs


@st.composite
def queries(draw):
    aliases = ALIASES[: draw(st.integers(min_value=2, max_value=3))]
    table_of = {alias: draw(st.sampled_from(sorted(SCHEMA))) for alias in aliases}
    columns = [(alias, col) for alias in aliases for col in SCHEMA[table_of[alias]]]
    predicates = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        left = draw(st.sampled_from(columns))
        op = draw(st.sampled_from(OPS))
        if draw(st.booleans()):
            other = [c for c in columns if c[0] != left[0]]
            right = ".".join(draw(st.sampled_from(other)))
        else:
            right = str(draw(values))
        predicates.append(f"{'.'.join(left)} {op} {right}")
    projection = ", ".join(".".join(c) for c in columns)
    sources = ", ".join(f"{table_of[alias]} {alias}" for alias in aliases)
    return f"SELECT {projection} FROM {sources} WHERE {' AND '.join(predicates)}"


@settings(max_examples=200, deadline=None)
@given(r=tables, s=tables, sql=queries())
def test_matches_sqlite(r, s, sql):
    ours, theirs = _run_both({"r": r, "s": s}, sql)
    assert ours == theirs, sql


R_ROWS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
S_ROWS = [(1, 1), (2, 2), (2, 3), (3, 1), (3, 3)]


def test_two_equi_predicates_on_one_alias_pair():
    sql = "SELECT x.a, x.b, y.b, y.c FROM r x, s y WHERE x.a = y.b AND x.b = y.c"
    ours, theirs = _run_both({"r": R_ROWS, "s": S_ROWS}, sql)
    assert sum(theirs.values()) == 4
    assert ours == theirs


def test_self_join_on_both_columns():
    sql = "SELECT x.a, x.b, y.a, y.b FROM r x, r y WHERE x.a = y.a AND x.b = y.b"
    ours, theirs = _run_both({"r": R_ROWS, "s": S_ROWS}, sql)
    assert sum(theirs.values()) == 5
    assert ours == theirs


def test_alias_without_predicates_is_a_cross_product():
    """A disconnected alias joins by cross product, never on a same-named
    column of another alias."""
    sql = "SELECT x.a, x.b, y.a, y.b, z.a, z.b FROM r x, r y, r z WHERE y.a = z.b"
    ours, theirs = _run_both({"r": [(0, 0), (0, 1)], "s": []}, sql)
    assert sum(theirs.values()) == 4
    assert ours == theirs
