"""Seeded input generators: HTTP problem specs and SQL scripts + catalogs.

Every generator is a pure function of its seed (``random.Random``), so the
same ``--seed`` yields byte-identical inputs on every machine.  The program
sees only what these functions return.
"""

from __future__ import annotations

import random

from common import stratified_draw, zipf_keys

#: (weight, spec template) of the unique-traffic mix: MQO at 12-24 QUBO
#: variables (queries x 3 plans) and left-deep join ordering at 9-25
#: variables (relations squared).
UNIQUE_MIX = (
    (30, {"kind": "mqo", "num_queries": 4, "plans_per_query": 3}),
    (10, {"kind": "mqo", "num_queries": 5, "plans_per_query": 3}),
    (8, {"kind": "mqo", "num_queries": 6, "plans_per_query": 3}),
    (20, {"kind": "mqo", "num_queries": 8, "plans_per_query": 3}),
    (18, {"kind": "joinorder", "topology": "chain", "num_relations": 3}),
    (8, {"kind": "joinorder", "topology": "star", "num_relations": 4}),
    (4, {"kind": "joinorder", "topology": "chain", "num_relations": 4}),
    (2, {"kind": "joinorder", "topology": "cycle", "num_relations": 5}),
)

#: The hot-traffic mix: the small end of the unique mix.
HOT_MIX = (
    (60, {"kind": "mqo", "num_queries": 4, "plans_per_query": 3}),
    (20, {"kind": "joinorder", "topology": "chain", "num_relations": 3}),
    (20, {"kind": "joinorder", "topology": "star", "num_relations": 4}),
)

_SEED_SPACE = 2**31 - 1


def _spec(template: dict, instance_seed: int) -> dict:
    spec = dict(template)
    if spec["kind"] == "mqo":
        spec["sharing_density"] = 0.4
    else:
        spec["encoding"] = "leftdeep"
    spec["instance_seed"] = instance_seed
    return spec


def _specs(seed, mix, instance_seeds) -> "list[dict]":
    """One spec per instance seed, templates in the mix's exact proportions."""
    draw = stratified_draw(seed, [w for w, _ in mix], len(instance_seeds))
    return [_spec(mix[t][1], s) for t, s in zip(draw, instance_seeds)]


def unique_requests(seed: int, count: int) -> "list[dict]":
    """``count`` requests whose ``(spec, seed)`` pairs are all distinct.

    Every request gets its own ``instance_seed``, so no two requests name
    the same instance and the service's cache and dedup never fire.
    """
    rng = random.Random(f"unique:{seed}")
    specs = _specs(f"unique-mix:{seed}", UNIQUE_MIX, rng.sample(range(_SEED_SPACE), count))
    return [{"problem": spec, "seed": rng.randrange(_SEED_SPACE)} for spec in specs]


def hot_requests(
    seed: int, count: int, hot_size: int, exponent: float, fresh_share: float
) -> "tuple[list[dict], list[tuple[str, int]]]":
    """Zipf-skewed requests over a hot set of ``hot_size`` keys plus fresh keys.

    Returns the requests and the drawn keys (``("hot", rank)`` or
    ``("fresh", k)``).  Hot and fresh keys use disjoint instance seeds.
    """
    rng = random.Random(f"hot:{seed}")
    instance_seeds = rng.sample(range(_SEED_SPACE), hot_size + count)
    hot = [
        {"problem": spec, "seed": rng.randrange(_SEED_SPACE)}
        for spec in _specs(f"hot-mix:{seed}", HOT_MIX, instance_seeds[:hot_size])
    ]
    fresh = [
        {"problem": spec, "seed": rng.randrange(_SEED_SPACE)}
        for spec in _specs(f"fresh-mix:{seed}", HOT_MIX, instance_seeds[hot_size:])
    ]
    keys = zipf_keys(seed, count, hot_size, exponent, fresh_share)
    return [hot[i] if kind == "hot" else fresh[i] for kind, i in keys], keys


def warmup_request(seed: int) -> dict:
    """One request outside every workload's key space (instance seed 2**31-1)."""
    return {"problem": _spec(HOT_MIX[0][1], _SEED_SPACE),
            "seed": random.Random(f"warmup:{seed}").randrange(_SEED_SPACE)}


# -- SQL scripts ---------------------------------------------------------------

#: Tables of the generated catalog and the columns every table carries.
NUM_TABLES = 8
COLUMNS = ("id", "k0", "k1", "v")
JOIN_COLUMNS = ("id", "k0", "k1")

#: Statement mix per script: multi-table SELECTs (2-5 tables each), one
#: single-table SELECT, and DML.  A script compiles to four instances: one
#: join ordering per multi-table SELECT, one MQO over the three SELECTs and
#: one transaction schedule over the DML.
SELECTS_PER_SCRIPT = 2
SCAN_SELECTS_PER_SCRIPT = 1
DML_PER_SCRIPT = 3
TABLES_PER_SELECT = ((2, 35), (3, 35), (4, 20), (5, 10))
#: Chance that a joined pair gets a second equi-join predicate.  Scripts do
#: not avoid this shape (two predicates on one alias pair), which the
#: planner is known to mis-estimate.
SECOND_PREDICATE_P = 0.15
SELF_JOIN_P = 0.1
FILTER_P = 0.35


def catalog_stats(seed: int) -> "dict[str, dict]":
    """``{table: {"cardinality": n, "distinct": {column: d}}}``."""
    rng = random.Random(f"catalog:{seed}")
    tables = {}
    for t in range(NUM_TABLES):
        card = int(10 ** rng.uniform(2.0, 6.0))
        distinct = {"id": card}
        for column in ("k0", "k1"):
            distinct[column] = max(1, int(card * rng.uniform(0.05, 1.0)))
        distinct["v"] = rng.randint(5, 200)
        tables[f"t{t}"] = {"cardinality": card, "distinct": distinct}
    return tables


def build_catalog(stats: "dict[str, dict]"):
    from repro.db.catalog import Catalog

    catalog = Catalog()
    for name, row in stats.items():
        catalog.add_table(name, row["cardinality"], dict(row["distinct"]))
    return catalog


def _filter(rng: random.Random, column: str) -> str:
    return f"{column} {rng.choice(('=', '<', '>='))} {rng.randint(1, 100)}"


def _select(rng: random.Random) -> str:
    n = rng.choices([n for n, _ in TABLES_PER_SELECT], weights=[w for _, w in TABLES_PER_SELECT])[0]
    tables = rng.sample(range(NUM_TABLES), n)
    if n >= 3 and rng.random() < SELF_JOIN_P:
        tables[-1] = tables[0]  # a self-join through a second alias
    aliases = [f"a{i}" for i in range(n)]
    conds = []
    for j in range(1, n):
        i = rng.randrange(j)
        conds.append(f"{aliases[i]}.{rng.choice(JOIN_COLUMNS)} = "
                     f"{aliases[j]}.{rng.choice(JOIN_COLUMNS)}")
        if rng.random() < SECOND_PREDICATE_P:
            conds.append(f"{aliases[i]}.{rng.choice(JOIN_COLUMNS)} = "
                         f"{aliases[j]}.{rng.choice(JOIN_COLUMNS)}")
    for alias in aliases:
        if rng.random() < FILTER_P:
            conds.append(_filter(rng, f"{alias}.v"))
    froms = ", ".join(f"t{t} {a}" for t, a in zip(tables, aliases))
    cols = "*" if rng.random() < 0.5 else f"{aliases[0]}.id, {aliases[-1]}.v"
    return f"SELECT {cols} FROM {froms} WHERE {' AND '.join(conds)}"


def _scan(rng: random.Random) -> str:
    return f"SELECT * FROM t{rng.randrange(NUM_TABLES)} WHERE {_filter(rng, 'v')}"


def _dml(rng: random.Random) -> str:
    table = f"t{rng.randrange(NUM_TABLES)}"
    kind = rng.choice(("insert", "update", "delete"))
    if kind == "insert":
        values = ", ".join(str(rng.randint(1, 10**6)) for _ in COLUMNS)
        return f"INSERT INTO {table} VALUES ({values})"
    if kind == "update":
        return f"UPDATE {table} SET v = {rng.randint(1, 100)} WHERE id = {rng.randint(1, 10**6)}"
    return f"DELETE FROM {table} WHERE v > {rng.randint(50, 100)}"


def sql_script(seed: int, index: int) -> str:
    """The ``index``-th script of the seed's stream (independent of the rest)."""
    rng = random.Random(f"sql:{seed}:{index}")
    statements = [_select(rng) for _ in range(SELECTS_PER_SCRIPT)]
    statements += [_scan(rng) for _ in range(SCAN_SELECTS_PER_SCRIPT)]
    statements += [_dml(rng) for _ in range(DML_PER_SCRIPT)]
    rng.shuffle(statements)
    return ";\n".join(statements)
