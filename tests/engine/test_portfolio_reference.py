"""Portfolios run as one-item plans, checked against a frozen contender loop.

``reference_portfolio`` is a verbatim copy of the contender loop portfolios
ran before each contender was compiled as a one-item plan: one backend
instance per contender, child RNGs from ``spawn(ensure_rng(seed), n)``, and
``solve_one`` serially.  The plan path must pick the same winner with the
same objective, solution and energy, and report the same per-contender
``(method, objective, status)`` breakdown, for by-name, direct
(``classical``) and instance contenders, per-backend options, and a
scheduler-routed race.
"""

import math

import pytest

import repro
from repro.api import MQOAdapter
from repro.api.backends import (
    AnnealerBackend,
    Backend,
    SimulatedAnnealingBackend,
    get_backend,
)
from repro.api.problem import qubo_signature
from repro.engine import AdaptiveScheduler, signature_key
from repro.engine.runner import solve_one
from repro.mqo import generate_mqo_problem
from repro.utils.rngtools import ensure_rng, spawn

SEEDS = (7, 35, 63)
FAST = {"sa": {"num_reads": 4, "num_sweeps": 40},
        "tabu": {"num_restarts": 2, "max_iterations": 60},
        "annealer": {"num_reads": 4, "num_sweeps": 40}}


def reference_portfolio(problem, backends, seed, refine=True, top_k=8, backend_opts=None):
    """The pre-plan contender loop (serial, no deadline), frozen."""
    opts_map = dict(backend_opts or {})
    contenders = []
    for b in backends:
        if isinstance(b, Backend):
            contenders.append((b.name, b))
        else:
            contenders.append((b, get_backend(b, **opts_map.get(b, {}))))
    rngs = spawn(ensure_rng(seed), len(contenders))
    results = [
        solve_one(problem, backend, rng, refine, top_k)
        for (_, backend), rng in zip(contenders, rngs)
    ]
    entries = [(r.method, r.objective, "completed") for r in results]
    return min(results, key=lambda r: r.objective), entries


def _problem(rng=3):
    return MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=rng))


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_matches(result, reference):
    best, entries = reference
    assert result.method == best.method
    assert result.objective == best.objective
    assert result.solution == best.solution
    assert _same_float(result.energy, best.energy)
    breakdown = [(e["method"], e["objective"], e["status"]) for e in result.info["portfolio"]]
    assert breakdown == entries
    # Contenders are engine plans now: the winner carries its engine block.
    assert result.info["engine"]["shard"] == 0
    assert result.info["engine"]["cache_hit"] is False


@pytest.mark.parametrize("seed", SEEDS)
def test_by_name_contenders(seed):
    backends = ["sa", "tabu", "sa"]
    opts = {b: FAST[b] for b in ("sa", "tabu")}
    problem = _problem()
    reference = reference_portfolio(problem, backends, seed, backend_opts=opts)
    result = repro.solve_portfolio(problem, backends, seed=seed, backend_opts=opts)
    _assert_matches(result, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_contenders(seed):
    backends = ["classical", "tabu"]
    opts = {"tabu": FAST["tabu"]}
    problem = _problem()
    reference = reference_portfolio(problem, backends, seed, backend_opts=opts)
    result = repro.solve_portfolio(problem, backends, seed=seed, backend_opts=opts)
    _assert_matches(result, reference)
    classical = result.info["portfolio"][0]
    assert classical["method"] == "classical" and classical["status"] == "completed"


@pytest.mark.parametrize("seed", SEEDS)
def test_instance_contenders(seed):
    def contenders():
        # Fresh instances per side: the annealer memoises embeddings.
        return [SimulatedAnnealingBackend(**FAST["sa"]),
                AnnealerBackend(**FAST["annealer"]), "tabu"]

    opts = {"tabu": FAST["tabu"]}
    problem = _problem()
    reference = reference_portfolio(problem, contenders(), seed, backend_opts=opts)
    result = repro.solve_portfolio(problem, contenders(), seed=seed, backend_opts=opts)
    _assert_matches(result, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_per_backend_opts(seed):
    backends = ["sa", "annealer"]
    opts = {"sa": {"num_reads": 2, "num_sweeps": 25, "quench": False},
            "annealer": FAST["annealer"]}
    problem = _problem(rng=5)
    reference = reference_portfolio(problem, backends, seed, refine=False, top_k=3,
                                    backend_opts=opts)
    result = repro.solve_portfolio(problem, backends, seed=seed, refine=False, top_k=3,
                                   backend_opts=opts)
    _assert_matches(result, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_scheduler_routed_race(seed):
    backends = ["sa", "tabu", "bruteforce"]
    opts = {"sa": FAST["sa"], "tabu": FAST["tabu"]}
    problem = _problem()
    signature = signature_key(qubo_signature(problem.to_qubo()))

    def warmed():
        scheduler = AdaptiveScheduler(epsilon=0.5, seed=seed, race_top_k=2)
        for name, objective, wall in (("sa", 3.0, 0.02), ("tabu", 2.0, 0.05),
                                      ("bruteforce", 2.0, 0.5)):
            scheduler.scoreboard.observe(name, signature, objective, wall)
        return scheduler

    routing = warmed().choose_race(signature, backends)
    reference = reference_portfolio(problem, routing["raced"], seed, backend_opts=opts)
    result = repro.solve_portfolio(problem, backends, seed=seed, backend_opts=opts,
                                   scheduler=warmed(), store=False)
    _assert_matches(result, reference)
    assert result.info["portfolio_meta"]["scheduler"] == routing
    assert result.info["portfolio_meta"]["contenders"] == 2
