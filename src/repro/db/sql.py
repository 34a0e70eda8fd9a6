"""A small SQL dialect: scripts of SELECTs and DML over a :class:`Catalog`.

Grammar (case-insensitive keywords)::

    script  := statement (';' statement)* [';']
    statement := select | insert | update | delete
    select  := SELECT cols FROM tables [WHERE cond (AND cond)*]
    cols    := '*' | proj (',' proj)*
    proj    := colref | name '.' '*'
    tables  := table (',' table)*
    table   := name [[AS] alias]
    insert  := INSERT INTO name ['(' name (',' name)* ')']
               VALUES row (',' row)*
    row     := '(' literal (',' literal)* ')'
    update  := UPDATE name SET name '=' literal (',' name '=' literal)*
               [WHERE cond (AND cond)*]
    delete  := DELETE FROM name [WHERE cond (AND cond)*]
    cond    := colref op (colref | literal)
    op      := '=' | '!=' | '<' | '<=' | '>' | '>='
    colref  := [name '.'] column
    literal := integer | float | 'single-quoted string'

The parser produces one statement object per input statement —
:class:`ParsedQuery` for SELECTs, :class:`InsertStatement` /
:class:`UpdateStatement` / :class:`DeleteStatement` for DML;
:func:`execute` runs a SELECT against a
:class:`~repro.db.catalog.Catalog` with registered relations, using the
cost-based optimizer to pick the join order.  :func:`parse_script` is the
front door of the SQL workload compiler (:mod:`repro.workload`), which
plans scripts into Table I problem instances; :func:`subexpression_keys`
supplies the canonical scan/join keys its MQO sharing detection matches
across statements.

**Relation to QQL** (:mod:`repro.qdb.qql`): the two front ends share the
``SELECT * FROM t [WHERE ...]``, ``INSERT INTO t VALUES (...)``,
``DELETE FROM t WHERE ...`` and ``UPDATE t SET ... WHERE ...`` statement
shapes (and the same six comparison operators).  They diverge past that:
this dialect adds projections, multi-table FROM clauses with aliases
(hence self-joins), join predicates, and multi-statement scripts, while
QQL restricts predicates to the single ``key`` register but adds
``CREATE TABLE ... QUBITS n`` and the quantum set-operation / JOIN
productions (``INTERSECT`` / ``UNION`` / ``EXCEPT`` / ``JOIN``) that run
Grover-style kernels.

Doctest::

    >>> from repro.db.sql import parse_script
    >>> stmts = parse_script(
    ...     "SELECT * FROM users u, orders o WHERE u.uid = o.uid;"
    ...     "UPDATE users SET city = 'delft' WHERE uid = 3")
    >>> [s.kind for s in stmts]
    ['select', 'update']
    >>> stmts[0].tables
    ['u', 'o']
    >>> stmts[0].aliases
    {'u': 'users', 'o': 'orders'}
    >>> sorted(stmts[1].write_tables)
    ['users']
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.db.catalog import Catalog
from repro.db.cost import CostModel
from repro.db.dp import dp_optimal_bushy
from repro.db.query import JoinGraph
from repro.db.relation import Relation
from repro.exceptions import ParseError, ReproError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<string>'[^']*')|(?P<number>\d+\.\d+|\d+)|(?P<op><=|>=|!=|=|<|>)"
    r"|(?P<punct>[,.*();])|(?P<word>[A-Za-z_][A-Za-z_0-9]*))"
)

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Words that can never be a table alias (they end or continue a clause).
_RESERVED = {
    "SELECT", "FROM", "WHERE", "AND", "AS", "SET", "VALUES", "INTO",
    "INSERT", "UPDATE", "DELETE",
}


@dataclass(frozen=True)
class ColumnRef:
    """A possibly table-qualified column reference (``column`` may be ``*``)."""

    table: "str | None"
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Condition:
    """One comparison in the WHERE clause."""

    left: ColumnRef
    op: str
    right: "ColumnRef | int | float | str"

    @property
    def is_join(self) -> bool:
        return isinstance(self.right, ColumnRef)


@dataclass
class ParsedQuery:
    """Outcome of parsing a SELECT statement.

    ``tables`` lists the FROM-clause names *as referenced elsewhere in the
    query* — the alias when one was given, the table name otherwise; the
    ``aliases`` map recovers the base table behind each entry (identity
    for unaliased tables).  Aliasing is what makes self-joins expressible:
    ``FROM users u1, users u2`` yields two distinct join-graph nodes over
    one base table.
    """

    tables: list[str]
    projections: "list[ColumnRef] | None"  # None means SELECT *
    conditions: list[Condition] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)
    text: str = ""

    kind = "select"
    is_dml = False

    def base_table(self, name: str) -> str:
        """The catalog table behind a FROM-clause entry (alias-aware)."""
        return self.aliases.get(name, name)

    @property
    def join_conditions(self) -> list[Condition]:
        return [c for c in self.conditions if c.is_join]

    @property
    def filter_conditions(self) -> list[Condition]:
        return [c for c in self.conditions if not c.is_join]


@dataclass
class InsertStatement:
    """``INSERT INTO t [(cols)] VALUES (..), (..)``; one write per row."""

    table: str
    columns: "list[str] | None"
    rows: list[tuple]
    text: str = ""

    kind = "insert"
    is_dml = True

    @property
    def read_tables(self) -> set[str]:
        return set()

    @property
    def write_tables(self) -> set[str]:
        return {self.table}


@dataclass
class UpdateStatement:
    """``UPDATE t SET c = v [, ...] [WHERE ...]``; reads then writes ``t``."""

    table: str
    assignments: "list[tuple[str, int | float | str]]"
    conditions: list[Condition] = field(default_factory=list)
    text: str = ""

    kind = "update"
    is_dml = True

    @property
    def read_tables(self) -> set[str]:
        return {self.table} if self.conditions else set()

    @property
    def write_tables(self) -> set[str]:
        return {self.table}


@dataclass
class DeleteStatement:
    """``DELETE FROM t [WHERE ...]``; reads (when filtered) then writes ``t``."""

    table: str
    conditions: list[Condition] = field(default_factory=list)
    text: str = ""

    kind = "delete"
    is_dml = True

    @property
    def read_tables(self) -> set[str]:
        return {self.table} if self.conditions else set()

    @property
    def write_tables(self) -> set[str]:
        return {self.table}


#: Any statement :func:`parse_statement` can produce.
Statement = "ParsedQuery | InsertStatement | UpdateStatement | DeleteStatement"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as ``(kind, value, position)`` triples."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:]
            stripped = rest.lstrip()
            if stripped:
                at = pos + (len(rest) - len(stripped))
                raise ParseError(f"unexpected character {text[at]!r} at position {at}")
            break
        pos = match.end()
        for kind in ("string", "number", "op", "punct", "word"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
    return tokens


class _Parser:
    """Recursive-descent parser over one statement's token stream.

    Every error names the offending token *and* its position in the
    statement text, so a caller staring at a 6-statement script sees
    exactly which character to fix.
    """

    def __init__(self, tokens: list[tuple[str, str, int]], text: str = ""):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def error(self, message: str, token: "tuple[str, str, int] | None" = None) -> ParseError:
        if token is None:
            where = f"at end of statement {self.text!r}"
        else:
            _, value, pos = token
            snippet = self.text[max(0, pos - 12) : pos + len(value) + 12]
            where = f"got {value!r} at position {pos} (near {snippet!r})"
        return ParseError(f"{message}: {where}")

    def peek(self) -> "tuple[str, str, int] | None":
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str = "a token") -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {expect}, found end of statement")
        self.pos += 1
        return tok

    def at_punct(self, punct: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "punct" and tok[1] == punct

    def take_punct(self, punct: str) -> bool:
        if self.at_punct(punct):
            self.next()
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        tok = self.peek()
        if not self.at_punct(punct):
            raise self.error(f"expected {punct!r}", tok)
        self.next()

    def expect_word(self, word: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "word" or tok[1].upper() != word:
            raise self.error(f"expected {word}", tok)
        self.next()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "word" and tok[1].upper() == word

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "word" or tok[1].upper() in _RESERVED:
            raise self.error(f"expected {what}", tok)
        self.next()
        return tok[1]

    def parse_colref(self, star_ok: bool = False) -> ColumnRef:
        name = self.expect_name("a column name")
        if self.at_punct("."):
            self.next()
            if star_ok and self.at_punct("*"):
                self.next()
                return ColumnRef(name, "*")
            column = self.expect_name("a column name after '.'")
            return ColumnRef(name, column)
        return ColumnRef(None, name)

    def parse_literal(self):
        tok = self.peek()
        if tok is None:
            raise self.error("expected a literal value")
        kind, value, _ = tok
        if kind == "number":
            self.next()
            return float(value) if "." in value else int(value)
        if kind == "string":
            self.next()
            return value[1:-1]
        raise self.error("expected a literal value", tok)

    def parse_value(self):
        tok = self.peek()
        if tok is not None and tok[0] in ("number", "string"):
            return self.parse_literal()
        return self.parse_colref()

    def parse_conditions(self) -> list[Condition]:
        conditions: list[Condition] = []
        while True:
            left = self.parse_colref()
            tok = self.next("a comparison operator")
            if tok[0] != "op":
                raise self.error("expected a comparison operator", tok)
            right = self.parse_value()
            conditions.append(Condition(left, tok[1], right))
            if self.at_word("AND"):
                self.next()
                continue
            break
        return conditions

    def expect_done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error("trailing input", tok)


# ---------------------------------------------------------------------------
# Statement parsing
# ---------------------------------------------------------------------------


def _parse_select(parser: _Parser, text: str) -> ParsedQuery:
    parser.expect_word("SELECT")
    projections: "list[ColumnRef] | None"
    if parser.at_punct("*"):
        parser.next()
        projections = None
    else:
        projections = [parser.parse_colref(star_ok=True)]
        while parser.take_punct(","):
            projections.append(parser.parse_colref(star_ok=True))
    parser.expect_word("FROM")
    tables: list[str] = []
    aliases: dict[str, str] = {}
    while True:
        name = parser.expect_name("a table name")
        alias = name
        if parser.at_word("AS"):
            parser.next()
            alias = parser.expect_name("an alias after AS")
        else:
            tok = parser.peek()
            if tok is not None and tok[0] == "word" and tok[1].upper() not in _RESERVED:
                parser.next()
                alias = tok[1]
        if alias in aliases:
            raise parser.error(
                f"duplicate table name or alias {alias!r} (alias self-joins as "
                f"'{name} {alias}2')"
            )
        tables.append(alias)
        aliases[alias] = name
        if not parser.take_punct(","):
            break
    conditions: list[Condition] = []
    if parser.at_word("WHERE"):
        parser.next()
        conditions = parser.parse_conditions()
    parser.expect_done()
    return ParsedQuery(
        tables=tables,
        projections=projections,
        conditions=conditions,
        aliases=aliases,
        text=text,
    )


def _parse_insert(parser: _Parser, text: str) -> InsertStatement:
    parser.expect_word("INSERT")
    parser.expect_word("INTO")
    table = parser.expect_name("a table name")
    columns: "list[str] | None" = None
    if parser.at_punct("("):
        parser.next()
        columns = [parser.expect_name("a column name")]
        while parser.take_punct(","):
            columns.append(parser.expect_name("a column name"))
        parser.expect_punct(")")
    parser.expect_word("VALUES")
    rows: list[tuple] = []
    while True:
        parser.expect_punct("(")
        row = [parser.parse_literal()]
        while parser.take_punct(","):
            row.append(parser.parse_literal())
        parser.expect_punct(")")
        if columns is not None and len(row) != len(columns):
            raise parser.error(
                f"VALUES row has {len(row)} values for {len(columns)} columns"
            )
        rows.append(tuple(row))
        if not parser.take_punct(","):
            break
    parser.expect_done()
    return InsertStatement(table=table, columns=columns, rows=rows, text=text)


def _parse_update(parser: _Parser, text: str) -> UpdateStatement:
    parser.expect_word("UPDATE")
    table = parser.expect_name("a table name")
    parser.expect_word("SET")
    assignments = []
    while True:
        column = parser.expect_name("a column name")
        tok = parser.next("'='")
        if tok[0] != "op" or tok[1] != "=":
            raise parser.error("expected '=' in SET clause", tok)
        assignments.append((column, parser.parse_literal()))
        if not parser.take_punct(","):
            break
    conditions: list[Condition] = []
    if parser.at_word("WHERE"):
        parser.next()
        conditions = parser.parse_conditions()
    parser.expect_done()
    return UpdateStatement(table=table, assignments=assignments, conditions=conditions, text=text)


def _parse_delete(parser: _Parser, text: str) -> DeleteStatement:
    parser.expect_word("DELETE")
    parser.expect_word("FROM")
    table = parser.expect_name("a table name")
    conditions: list[Condition] = []
    if parser.at_word("WHERE"):
        parser.next()
        conditions = parser.parse_conditions()
    parser.expect_done()
    return DeleteStatement(table=table, conditions=conditions, text=text)


_STATEMENT_PARSERS = {
    "SELECT": _parse_select,
    "INSERT": _parse_insert,
    "UPDATE": _parse_update,
    "DELETE": _parse_delete,
}


def parse_statement(text: str):
    """Parse one statement (SELECT, INSERT, UPDATE, or DELETE)."""
    stripped = text.strip().rstrip(";").strip()
    tokens = _tokenize(stripped)
    parser = _Parser(tokens, stripped)
    tok = parser.peek()
    if tok is None:
        raise ParseError("empty statement")
    handler = _STATEMENT_PARSERS.get(tok[1].upper()) if tok[0] == "word" else None
    if handler is None:
        raise parser.error("expected SELECT, INSERT, UPDATE or DELETE", tok)
    return handler(parser, stripped)


def parse_sql(text: str) -> ParsedQuery:
    """Parse a single SELECT statement into a :class:`ParsedQuery`."""
    statement = parse_statement(text)
    if not isinstance(statement, ParsedQuery):
        raise ParseError(
            f"expected a SELECT statement, got {statement.kind.upper()} "
            f"(use parse_statement / parse_script for DML)"
        )
    return statement


def split_script(text: str) -> list[str]:
    """Split a script on ``;`` outside single-quoted strings."""
    pieces: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in text:
        if ch == "'":
            in_string = not in_string
        if ch == ";" and not in_string:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    pieces.append("".join(current))
    return [p.strip() for p in pieces if p.strip()]


def parse_script(text: str) -> list:
    """Parse a multi-statement script; errors name the failing statement."""
    statements = []
    for number, piece in enumerate(split_script(text)):
        try:
            statements.append(parse_statement(piece))
        except ParseError as exc:
            raise ParseError(f"statement {number + 1}: {exc}") from None
    return statements


# ---------------------------------------------------------------------------
# Subexpression canonicalisation (MQO sharing detection)
# ---------------------------------------------------------------------------


def _canonical_filter(query: ParsedQuery, cond: Condition, table: str):
    """Alias-independent form of a filter, or None if it names another table."""
    if cond.left.table is not None and cond.left.table != table:
        return None
    return (query.base_table(table), cond.left.column, cond.op, cond.right)


def scan_key(query: ParsedQuery, table: str) -> tuple:
    """Canonical key of one filtered base-table scan.

    Alias-independent: ``users u`` filtered on ``u.city = 'delft'`` in one
    query and plain ``users WHERE city = 'delft'`` in another produce the
    same key, which is exactly the sharing the MQO instance rewards.
    Unqualified filters are attributed to a table only when the reference
    is unambiguous *syntactically* (single-table query or explicit
    qualifier).
    """
    filters = []
    for cond in query.filter_conditions:
        if cond.left.table == table or (cond.left.table is None and len(query.tables) == 1):
            canon = _canonical_filter(query, cond, table)
            if canon is not None:
                filters.append(canon)
    return ("scan", query.base_table(table), tuple(sorted(map(repr, filters))))


def join_subset_key(query: ParsedQuery, tables: Iterable[str]) -> tuple:
    """Canonical key of the intermediate joining the given FROM entries."""
    subset = set(tables)
    scans = sorted(repr(scan_key(query, t)) for t in subset)
    joins = []
    for cond in query.join_conditions:
        lt, rt = cond.left.table, cond.right.table  # type: ignore[union-attr]
        if lt in subset and rt in subset:
            left = (query.base_table(lt), cond.left.column)
            right = (query.base_table(rt), cond.right.column)
            joins.append(repr((min(left, right), cond.op, max(left, right))))
    return ("join", tuple(scans), tuple(sorted(joins)))


def subexpression_fingerprint(key: tuple) -> str:
    """Short stable hex fingerprint of a canonical subexpression key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]


def subexpression_keys(query: ParsedQuery) -> "frozenset[tuple]":
    """Every canonical subexpression a query materialises regardless of plan:
    its filtered scans, each joined pair, and the full join result."""
    keys = {scan_key(query, t) for t in query.tables}
    tables = set(query.tables)
    for cond in query.join_conditions:
        lt, rt = cond.left.table, cond.right.table  # type: ignore[union-attr]
        if lt in tables and rt in tables and lt != rt:
            keys.add(join_subset_key(query, (lt, rt)))
    if len(query.tables) > 2:
        keys.add(join_subset_key(query, query.tables))
    return frozenset(keys)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _resolve_column(ref: ColumnRef, relations: dict[str, Relation]) -> tuple[str, str]:
    """Return ``(table, column)`` for a reference, inferring the table."""
    if ref.table is not None:
        if ref.table not in relations:
            raise ReproError(f"unknown table {ref.table!r} in column reference")
        relations[ref.table].column_index(ref.column)  # validates
        return ref.table, ref.column
    owners = [t for t, rel in relations.items() if ref.column in rel.columns]
    if not owners:
        raise ReproError(f"column {ref.column!r} not found in any table")
    if len(owners) > 1:
        raise ReproError(f"ambiguous column {ref.column!r} (in {owners})")
    return owners[0], ref.column


def _qualified_index(relation: Relation, table: str, column: str) -> int:
    """Index of ``table.column`` in a (possibly joined) relation.

    A bare column name is only ``table``'s own when the relation is that
    table's scan; in any other relation it belongs to some other table.
    """
    qualified = f"{table}.{column}"
    if qualified in relation.columns:
        return relation.columns.index(qualified)
    if relation.name == table and column in relation.columns:
        return relation.columns.index(column)
    raise ReproError(f"column {qualified} missing from intermediate result")


def execute(query: "ParsedQuery | str", catalog: Catalog) -> Relation:
    """Run a parsed query against concrete relations in ``catalog``.

    Filters are pushed down; the join order is chosen by the bushy DP
    optimizer over estimated selectivities.  Aliased tables (including
    self-joins) each get their own scan of the base relation.
    """
    if isinstance(query, str):
        query = parse_sql(query)
    relations: dict[str, Relation] = {}
    for alias in query.tables:
        base = query.base_table(alias)
        rel = catalog.relation(base)
        if alias != base:
            rel = Relation(alias, rel.columns, rel.rows)
        relations[alias] = rel

    # Push down filters.
    filtered: dict[str, Relation] = {}
    for table, rel in relations.items():
        preds = []
        for cond in query.filter_conditions:
            t, c = _resolve_column(cond.left, relations)
            if t == table:
                idx = rel.column_index(c)
                comparator = _COMPARATORS[cond.op]
                preds.append((idx, comparator, cond.right))
        if preds:
            rel = rel.select(
                lambda row, preds=preds: all(cmp(row[i], v) for i, cmp, v in preds),
                name=table,
            )
            rel.name = table
        filtered[table] = rel

    if len(query.tables) == 1:
        result = filtered[query.tables[0]]
    else:
        result = _join_all(query, filtered, catalog)

    # Every column-to-column predicate applies as a post-join filter.  The
    # join step consumes at most one equi-predicate per joined pair, so the
    # rest (a second predicate on one alias pair, non-equi and same-table
    # comparisons) must be checked here; re-checking a consumed one is a
    # no-op.
    for cond in query.join_conditions:
        lt, lc = _resolve_column(cond.left, relations)
        rt, rc = _resolve_column(cond.right, relations)
        li = _qualified_index(result, lt, lc)
        ri = _qualified_index(result, rt, rc)
        comparator = _COMPARATORS[cond.op]
        result = result.select(
            lambda row, li=li, ri=ri, comparator=comparator: comparator(row[li], row[ri]),
            name=result.name,
        )

    if query.projections is not None:
        out_cols = []
        for ref in query.projections:
            if ref.column == "*":
                if ref.table not in relations:
                    raise ReproError(f"unknown table {ref.table!r} in qualified *")
                for c in relations[ref.table].columns:
                    idx = _qualified_index(result, ref.table, c)
                    out_cols.append(result.columns[idx])
                continue
            t, c = _resolve_column(ref, relations)
            idx = _qualified_index(result, t, c)
            out_cols.append(result.columns[idx])
        result = result.project(out_cols)
    return result


def _join_all(query: ParsedQuery, filtered: dict[str, Relation], catalog: Catalog) -> Relation:
    """Join all tables along the equi-join conditions, DP-ordered."""
    join_specs: dict[tuple[str, str], tuple[str, str]] = {}
    jg = JoinGraph()
    for table, rel in filtered.items():
        jg.add_relation(table, max(rel.cardinality, 1))
    for cond in query.join_conditions:
        if cond.op != "=":
            continue
        lt, lc = _resolve_column(cond.left, filtered)
        rt, rc = _resolve_column(cond.right, filtered)
        if lt == rt:
            continue
        sel = catalog.equijoin_selectivity(
            query.base_table(lt), lc, query.base_table(rt), rc
        )
        jg.add_join(lt, rt, sel)
        key = (min(lt, rt), max(lt, rt))
        join_specs[key] = (lc, rc) if lt < rt else (rc, lc)

    tree, _ = dp_optimal_bushy(jg, CostModel(jg)) if jg.is_connected() else (None, 0.0)
    if tree is None:
        # Disconnected: fall back to joining in FROM order with cross products.
        order = list(query.tables)
        result = filtered[order[0]]
        for t in order[1:]:
            result = _pairwise_join(result, filtered[t], t, join_specs)
        return result
    return _execute_tree(tree, filtered, join_specs)


def _execute_tree(tree, filtered: dict[str, Relation], join_specs) -> Relation:
    if tree.is_leaf:
        return filtered[tree.relation]
    left = _execute_tree(tree.left, filtered, join_specs)
    right = _execute_tree(tree.right, filtered, join_specs)
    # Find a join spec connecting the two sides.
    for lrel in sorted(tree.left.relations()):
        for rrel in sorted(tree.right.relations()):
            key = (min(lrel, rrel), max(lrel, rrel))
            if key in join_specs:
                lc, rc = join_specs[key]
                if lrel > rrel:
                    lc, rc = rc, lc
                li = _qualified_index(left, lrel, lc)
                ri = _qualified_index(right, rrel, rc)
                return left.nested_loop_join(right, lambda a, b, li=li, ri=ri: a[li] == b[ri])
    return left.cross(right)


def _pairwise_join(result: Relation, rel: Relation, table: str, join_specs) -> Relation:
    for (t1, t2), (c1, c2) in join_specs.items():
        if table == t1:
            other, other_col, my_col = t2, c2, c1
        elif table == t2:
            other, other_col, my_col = t1, c1, c2
        else:
            continue
        try:
            li = _qualified_index(result, other, other_col)
            ri = _qualified_index(rel, table, my_col)
        except ReproError:
            continue
        return result.nested_loop_join(rel, lambda a, b, li=li, ri=ri: a[li] == b[ri])
    return result.cross(rel)
