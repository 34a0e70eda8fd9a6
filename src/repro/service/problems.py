"""Wire-format problem specs -> :class:`~repro.api.problem.Problem` adapters.

A service request cannot ship a live python object, so ``POST /v1/solve``
carries a small JSON spec and this module rebuilds the problem behind it.
Three kinds cover the service's traffic:

* ``{"kind": "mqo", "num_queries": 4, "plans_per_query": 3,
  "sharing_density": 0.4, "instance_seed": 7}`` — a generated multiple-
  query-optimization instance.  ``instance_seed`` pins the generator RNG,
  so the same spec names the same instance on every node: specs are
  *content-addressable*, which is what lets the engine's fingerprint cache
  collapse identical requests.
* ``{"kind": "joinorder", "topology": "chain"|"star"|"cycle",
  "num_relations": 5, "instance_seed": 7, "encoding": "leftdeep"|"bushy"}``
  — a generated join-ordering instance.
* ``{"kind": "qubo", "linear": {"x0": -1.0}, "quadratic":
  [["x0", "x1", 2.0]], "offset": 0.0}`` — a raw QUBO, for callers that
  formulate themselves.
* ``{"kind": "workload", "script": "SELECT ...; UPDATE ...",
  "catalog": {"tables": {"users": {"cardinality": 1000,
  "distinct": {"uid": 1000}}}}, "instance": 0, "bushy": false}`` — one
  instance of a compiled SQL workload (``docs/workload.md``): the script
  is compiled with :func:`repro.workload.compile_workload` against the
  inline statistics-only catalog and the ``instance``-th Table I problem
  is returned.  A spec is content-addressable — same script + catalog +
  index names the same instance everywhere — so coalescing and the
  fingerprint cache work exactly as for generated instances.

Specs are validated with explicit bounds (a public endpoint must not let
one request formulate an exponential instance), and every error is a
:class:`~repro.exceptions.ReproError` the HTTP layer maps to 400.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.problem import Problem
from repro.exceptions import ReproError
from repro.qubo.model import QuboModel

#: Instance-size ceilings: large enough for every benchmark shape the repo
#: generates, small enough that formulation stays interactive.
MAX_QUERIES = 32
MAX_PLANS = 32
MAX_RELATIONS = 12
MAX_QUBO_VARIABLES = 1024
MAX_SCRIPT_LENGTH = 8192
MAX_SCRIPT_STATEMENTS = 24
MAX_CATALOG_TABLES = 64
MAX_TABLE_CARDINALITY = 10**9


class RawQuboProblem(Problem):
    """A caller-formulated QUBO behind the uniform Problem contract.

    Solutions are ``{label: bit}`` assignments; the exact objective *is*
    the QUBO energy (there is no hidden domain cost to re-evaluate), so
    ``energy`` and ``objective`` agree on this adapter.
    """

    name = "qubo"

    def __init__(self, model: QuboModel):
        self.model = model

    def build_qubo(self) -> QuboModel:
        return self.model

    def decode(self, bits) -> dict:
        return self.to_qubo().decode(bits)

    def evaluate(self, solution: Mapping) -> float:
        return self.to_qubo().energy(solution)


def _require_int(spec: Mapping, key: str, lo: int, hi: int, default=None) -> int:
    value = spec.get(key, default)
    if value is None:
        raise ReproError(f"problem spec is missing required field {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"problem spec field {key!r} must be an integer")
    if not lo <= value <= hi:
        raise ReproError(f"problem spec field {key!r} must be in [{lo}, {hi}], got {value}")
    return value


def _mqo_from_spec(spec: Mapping) -> Problem:
    from repro.api.adapters import MQOAdapter
    from repro.mqo.generator import generate_mqo_problem

    density = spec.get("sharing_density", 0.3)
    if not isinstance(density, (int, float)) or not 0.0 <= float(density) <= 1.0:
        raise ReproError("sharing_density must be a number in [0, 1]")
    return MQOAdapter(
        generate_mqo_problem(
            _require_int(spec, "num_queries", 1, MAX_QUERIES),
            _require_int(spec, "plans_per_query", 1, MAX_PLANS),
            sharing_density=float(density),
            rng=_require_int(spec, "instance_seed", 0, 2**31 - 1, default=0),
        )
    )


def _joinorder_from_spec(spec: Mapping) -> Problem:
    from repro.api.adapters import BushyJoinAdapter, LeftDeepJoinAdapter
    from repro.db.generator import chain_query, cycle_query, star_query

    topologies = {"chain": chain_query, "star": star_query, "cycle": cycle_query}
    topology = spec.get("topology", "chain")
    if not isinstance(topology, str) or topology not in topologies:
        raise ReproError(f"joinorder topology must be one of {sorted(topologies)}")
    graph = topologies[topology](
        _require_int(spec, "num_relations", 2 if topology != "cycle" else 3, MAX_RELATIONS),
        rng=_require_int(spec, "instance_seed", 0, 2**31 - 1, default=0),
    )
    encoding = spec.get("encoding", "leftdeep")
    if encoding == "leftdeep":
        return LeftDeepJoinAdapter(graph)
    if encoding == "bushy":
        return BushyJoinAdapter(graph)
    raise ReproError("joinorder encoding must be 'leftdeep' or 'bushy'")


def _qubo_from_spec(spec: Mapping) -> Problem:
    linear = spec.get("linear", {})
    quadratic = spec.get("quadratic", [])
    if not isinstance(linear, Mapping):
        raise ReproError("qubo 'linear' must map variable label -> coefficient")
    if not isinstance(quadratic, (list, tuple)):
        raise ReproError("qubo 'quadratic' must be a list of [u, v, coefficient] triples")
    if not linear and not quadratic:
        raise ReproError("a qubo spec needs at least one linear or quadratic term")
    try:
        terms = [(str(label), float(coeff)) for label, coeff in linear.items()]
        pairs = [(str(u), str(v), float(coeff)) for u, v, coeff in quadratic]
        offset = float(spec.get("offset", 0.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ReproError(f"malformed qubo term: {exc}") from exc
    # Count distinct labels before building, so an oversized spec is
    # refused without allocating its model.
    labels = dict.fromkeys(
        [label for label, _ in terms] + [label for u, v, _ in pairs for label in (u, v)]
    )
    if len(labels) > MAX_QUBO_VARIABLES:
        raise ReproError(
            f"qubo spec has {len(labels)} variables (limit {MAX_QUBO_VARIABLES})"
        )
    model = QuboModel()
    for label in labels:
        model.variable(label)
    for label, coeff in terms:
        model.add_linear(label, coeff)
    for u, v, coeff in pairs:
        model.add_quadratic(u, v, coeff)
    model.add_offset(offset)
    return RawQuboProblem(model)


def _catalog_from_spec(spec: Mapping):
    from repro.db.catalog import Catalog

    tables = spec.get("tables")
    if not isinstance(tables, Mapping) or not tables:
        raise ReproError("workload 'catalog' must carry a non-empty 'tables' object")
    if len(tables) > MAX_CATALOG_TABLES:
        raise ReproError(
            f"workload catalog has {len(tables)} tables (limit {MAX_CATALOG_TABLES})"
        )
    catalog = Catalog()
    for name, stats in tables.items():
        if not isinstance(stats, Mapping):
            raise ReproError(f"catalog table {name!r} must be an object")
        cardinality = _require_int(stats, "cardinality", 1, MAX_TABLE_CARDINALITY)
        distinct = stats.get("distinct", {})
        if not isinstance(distinct, Mapping):
            raise ReproError(f"catalog table {name!r} 'distinct' must map column -> count")
        distinct_values = {}
        for column, count in distinct.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ReproError(
                    f"distinct count for {name}.{column} must be a positive integer"
                )
            distinct_values[str(column)] = count
        catalog.add_table(str(name), cardinality, distinct_values)
    return catalog


def _workload_from_spec(spec: Mapping) -> Problem:
    from repro.db.sql import parse_script
    from repro.exceptions import ParseError
    from repro.workload import compile_workload

    script = spec.get("script")
    if not isinstance(script, str) or not script.strip():
        raise ReproError("workload spec needs a non-empty 'script' string")
    if len(script) > MAX_SCRIPT_LENGTH:
        raise ReproError(
            f"workload script is {len(script)} chars (limit {MAX_SCRIPT_LENGTH})"
        )
    catalog_spec = spec.get("catalog")
    if not isinstance(catalog_spec, Mapping):
        raise ReproError("workload spec needs a 'catalog' object with table statistics")
    bushy = spec.get("bushy", False)
    if not isinstance(bushy, bool):
        raise ReproError("workload 'bushy' must be a boolean")
    try:
        statements = parse_script(script)
    except ParseError as exc:
        raise ReproError(f"workload script failed to parse: {exc}") from exc
    if len(statements) > MAX_SCRIPT_STATEMENTS:
        raise ReproError(
            f"workload script has {len(statements)} statements "
            f"(limit {MAX_SCRIPT_STATEMENTS})"
        )
    for statement in statements:
        if statement.kind == "select" and len(statement.tables) > MAX_RELATIONS:
            raise ReproError(
                f"a SELECT joins {len(statement.tables)} tables (limit {MAX_RELATIONS})"
            )
    plan = compile_workload(statements, _catalog_from_spec(catalog_spec), bushy=bushy)
    index = _require_int(spec, "instance", 0, len(plan.instances) - 1, default=0)
    return plan.instances[index].problem


_KINDS = {
    "mqo": _mqo_from_spec,
    "joinorder": _joinorder_from_spec,
    "qubo": _qubo_from_spec,
    "workload": _workload_from_spec,
}


def problem_from_spec(spec: Any) -> Problem:
    """Rebuild the :class:`Problem` a JSON problem spec names.

    Raises :class:`~repro.exceptions.ReproError` (HTTP 400 at the edge)
    for an unknown kind, a missing/ill-typed field, or an instance beyond
    the size ceilings.
    """
    if not isinstance(spec, Mapping):
        raise ReproError("problem spec must be a JSON object with a 'kind' field")
    kind = spec.get("kind")
    builder = _KINDS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ReproError(f"unknown problem kind {kind!r} (known: {sorted(_KINDS)})")
    return builder(spec)


def list_kinds() -> list[str]:
    """Spec kinds the service accepts (diagnostics / docs)."""
    return sorted(_KINDS)
