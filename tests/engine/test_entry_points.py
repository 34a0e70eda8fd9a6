"""One engine path: every entry point compiles once and executes one wave.

``solve``, fixed-backend and scheduled ``solve_many`` and a service wave
all run through ``solve_batch`` -> ``compile_plan`` -> ``execute_plans``.
The three are wrapped by attribute, where their callers look them up (the
same seams the layer-timing harness wraps), and each entry point must call
each of them exactly once.  A portfolio compiles one plan per contender
and, without a deadline, executes them as one wave.  Whatever the entry
point, the solve kernel ``solve_one`` is reached only from the shard
worker ``_run_shard_items``.
"""

import asyncio
import sys
from collections import Counter

import pytest

import repro
import repro.api.facade as facade
import repro.engine.runner as runner
from repro.api import MQOAdapter
from repro.mqo import generate_mqo_problem
from repro.service import ServiceConfig, SolverService

FAST = {"sa": {"num_reads": 2, "num_sweeps": 20}, "tabu": {"num_restarts": 1}}
SPEC = {"kind": "mqo", "num_queries": 3, "plans_per_query": 2,
        "sharing_density": 0.4, "instance_seed": 3}
ONCE = {"solve_batch": 1, "compile_plan": 1, "execute_plans": 1}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for owner, attr in ((facade, "solve_batch"), (runner, "compile_plan"),
                        (runner, "execute_plans")):
        original = getattr(owner, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return counts


@pytest.fixture
def kernel_callers(monkeypatch):
    """Names of the functions that called ``runner.solve_one``."""
    callers = Counter()
    original = runner.solve_one

    def traced(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "solve_one", traced)
    return callers


def _batch():
    return [MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=r))
            for r in (1, 2, 1)]


def _serve_one_wave(backends):
    async def scenario():
        service = SolverService(ServiceConfig(
            backends=backends, backend_opts={b: FAST[b] for b in backends},
            window_s=30.0, max_wave=3, executor="serial",
        ))
        await service.start()
        jobs = [service.submit(SPEC, seed=seed) for seed in (1, 2, 3)]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service, jobs

    service, jobs = asyncio.run(scenario())
    assert service._m["waves"].value() == 1
    assert all(job.status == "done" for job in jobs)
    return jobs


def test_solve(calls, kernel_callers):
    repro.solve(_batch()[0], backend="sa", seed=4, **FAST["sa"])
    assert calls == ONCE
    assert kernel_callers == {"_run_shard_items": 1}


def test_fixed_backend_solve_many(calls, kernel_callers):
    repro.solve_many(_batch(), backend="sa", seed=4, **FAST["sa"])
    assert calls == ONCE
    assert kernel_callers == {"_run_shard_items": 3}


def test_scheduled_solve_many(calls, kernel_callers):
    scheduler = repro.AdaptiveScheduler(epsilon=0.0, seed=0)
    results = repro.solve_many(_batch(), backend=("sa", "tabu"), scheduler=scheduler,
                               seed=4, **FAST)
    assert {r.engine["scheduler"]["backend"] for r in results} <= {"sa", "tabu"}
    assert calls == ONCE
    assert kernel_callers == {"_run_shard_items": 3}


@pytest.mark.parametrize("backends", [("sa",), ("sa", "tabu")])
def test_service_wave(calls, kernel_callers, backends):
    jobs = _serve_one_wave(backends)
    assert calls == ONCE
    assert kernel_callers == {"_run_shard_items": 3}
    # Every wave routes through the scheduler, one-backend fleets included.
    for job in jobs:
        assert job.result.engine["scheduler"]["candidates"] == list(backends)


def test_deadline_free_portfolio(calls, kernel_callers):
    contenders = ["sa", "tabu", "sa"]
    result = repro.solve_portfolio(_batch()[0], contenders, seed=4, backend_opts=FAST)
    assert calls == {"compile_plan": len(contenders), "execute_plans": 1}
    assert kernel_callers == {"_run_shard_items": len(contenders)}
    assert result.engine["executor"] == "serial"


def test_deadline_portfolio(calls, kernel_callers):
    contenders = ["sa", "tabu"]
    result = repro.solve_portfolio(_batch()[0], contenders, seed=4, backend_opts=FAST,
                                   deadline_s=30.0)
    # One plan per contender, each executed on its own racing thread.
    assert calls == {"compile_plan": len(contenders), "execute_plans": len(contenders)}
    assert kernel_callers == {"_run_shard_items": len(contenders)}
    assert result.info["portfolio_meta"]["completed"] == len(contenders)
