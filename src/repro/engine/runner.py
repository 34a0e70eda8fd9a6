"""Plan execution: the solve kernel, shard workers, caching, and racing.

This module owns the code that actually runs a compiled
:class:`~repro.engine.plan.ExecutionPlan`:

* :func:`solve_one` — the Problem -> QUBO -> Backend -> SolveResult kernel
  (moved here from the facade so every executor shares one definition);
* :func:`execute_plans` — cache lookup (memory, then the call's durable
  store), shard dispatch through a pluggable executor, cache fill, and
  per-result engine metadata;
* :func:`solve_batch` — compile, optionally route each shard through an
  :class:`~repro.engine.scheduler.AdaptiveScheduler`, and execute: the one
  batch entry point behind ``solve``, ``solve_many`` and the service;
* :func:`run_portfolio` — several backends on one instance, optionally
  raced under a wall-clock deadline or narrowed by a scheduler;
* :func:`record_telemetry` — the one sink recording every result, live
  and durably.

Cache semantics are **shard-atomic**: a shard's items are served from the
cache only when *every* item hits.  Item *k* of a shard is solved on
backend state built by items ``0..k-1`` (embedding searched with the
leader's RNG, warm-start angles from the leader's optimisation), so
skipping a cached prefix would hand later misses a fresh instance and
silently change their samples.  All-or-nothing keeps hits exactly
byte-equivalent to a re-run — and since per-item child seeds are fixed at
plan time, a hit never perturbs the RNG stream of neighbouring items.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.cache import ResultCache, resolve_cache
from repro.engine.executors import get_executor
from repro.engine.plan import (
    ExecutionPlan,
    _assign_cache_keys,
    compile_plan,
    signature_key,
)
from repro.engine.scheduler import _candidate_names
from repro.exceptions import ReproError
from repro.obs import trace as obs
from repro.utils.rngtools import SEED_RANGE, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime imports are lazy
    from repro.api.backends import Backend
    from repro.api.problem import Problem
    from repro.api.result import SolveResult
    from repro.engine.scheduler import AdaptiveScheduler
    from repro.engine.store import EngineStore


def solve_one(problem: Problem, backend: Backend, rng, refine: bool, top_k: int) -> SolveResult:
    """Solve one problem on one backend instance (the pipeline kernel).

    Direct-solve backends (``classical``) bypass QUBO *sampling* but still
    report ``num_variables`` from the problem's cached formulation, so
    result rows stay comparable across backends; their ``energy`` is NaN by
    convention (see :class:`~repro.api.result.SolveResult`).  Sampling
    backends decode/refine their ``top_k`` lowest-energy samples and keep
    the best.

    Every result carries ``info["timings"]`` — ``formulate_time`` (the
    ``to_qubo`` call; near zero when the adapter's cached formulation is
    reused, e.g. after plan compile already formulated) and ``solve_time``
    (backend sampling / direct solve).  Decode/refine/evaluate is the
    remainder of ``wall_time``.
    """
    from repro.api.result import SolveResult

    start = time.perf_counter()
    model = problem.to_qubo()
    formulate_s = time.perf_counter() - start
    solve_t0 = time.perf_counter()
    if backend.solves_problem_directly:
        best_solution = backend.solve_problem(problem, rng=rng)
        solve_s = time.perf_counter() - solve_t0
        if refine:
            best_solution = problem.refine(best_solution)
        best_objective = problem.evaluate(best_solution)
        energy, info = math.nan, {"solver": backend.name}
    else:
        samples = backend.run(model, rng=rng)
        solve_s = time.perf_counter() - solve_t0
        best_solution = None
        best_objective = math.inf
        for sample in samples.truncate(max(top_k, 1)):
            solution = problem.decode(sample.bits)
            if refine:
                solution = problem.refine(solution)
            objective = problem.evaluate(solution)
            if objective < best_objective:
                best_objective = objective
                best_solution = solution
        energy, info = samples.best.energy, dict(samples.info)
    info["timings"] = {"formulate_time": formulate_s, "solve_time": solve_s}
    return SolveResult(
        problem=problem.name,
        method=backend.name,
        solution=best_solution,
        objective=best_objective,
        energy=energy,
        wall_time=time.perf_counter() - start,
        num_variables=model.num_variables,
        info=info,
    )


# -- shard execution --------------------------------------------------------


def _shard_payload(plan: ExecutionPlan, shard_items, executor_name: str) -> dict:
    signatures = plan.meta.get("shard_signatures") or []
    shard = shard_items[0].shard
    return {
        "shard": shard,
        "shard_size": len(shard_items),
        "signature": signatures[shard] if shard < len(signatures) else None,
        "indices": [i.index for i in shard_items],
        "problems": [i.problem for i in shard_items],
        "seeds": [i.seed for i in shard_items],
        "fingerprints": [i.fingerprint for i in shard_items],
        "labels": [i.label for i in shard_items],
        "backend_name": plan.backend_name,
        "backend_opts": plan.backend_opts,
        "backend_instance": plan.backend_instance,
        "refine": plan.refine,
        "top_k": plan.top_k,
        "executor": executor_name,
        # Picklable trace context: thread workers don't inherit contextvars
        # and process workers share nothing, so parentage rides the payload.
        "trace": obs.current_context(),
    }


def _stamp_engine_info(result, payload: dict, pos: int) -> None:
    """Attach ``info["engine"]`` including the wall-time split.

    ``formulate_time``/``solve_time`` come from the kernel's
    ``info["timings"]``; ``cache_time`` (the shard's cache-probe seconds)
    is stamped by :func:`execute_plans` once the dispatch returns — workers
    never see the cache.
    """
    timings = result.info.get("timings") or {}
    engine = {
        "shard": payload["shard"],
        "shard_pos": pos,
        "shard_size": payload["shard_size"],
        "signature": payload.get("signature"),
        "executor": payload["executor"],
        "seed": payload["seeds"][pos],
        "fingerprint": payload["fingerprints"][pos][:16],
        "cache_hit": False,
        "formulate_time": timings.get("formulate_time", 0.0),
        "solve_time": timings.get("solve_time", 0.0),
        "cache_time": 0.0,
    }
    if payload["labels"][pos] is not None:
        engine["label"] = payload["labels"][pos]
    result.info["engine"] = engine


def _run_shard_items(payload: dict) -> dict:
    """The shard worker: resolve the backend, run the items in shard order.

    Items run in shard order on one instance, so signature-keyed backend
    caches (embeddings, warm-start angles) amortise across the shard.  A
    by-name backend gets a fresh instance here; a caller-supplied instance
    is shared.  Module-level, so the process executor can pickle it.

    Returns ``{"items": [(index, result), ...], "spans": [...]}`` — spans
    collected worker-side when the payload carries a trace context, so the
    dispatching side can re-emit them regardless of executor.
    """
    from repro.api.backends import get_backend

    backend = payload["backend_instance"]
    if payload["backend_name"] is not None:
        backend = get_backend(payload["backend_name"], **payload["backend_opts"])
    tracer = obs.collector_for(payload.get("trace"))
    shard_span = None
    if tracer is not None:
        shard_span = tracer.begin(
            "engine.shard",
            parent=payload.get("trace"),
            shard=payload["shard"],
            shard_size=payload["shard_size"],
            signature=payload.get("signature"),
            backend=backend.name,
            executor=payload["executor"],
        )
    out = []
    for pos, (index, problem, seed, fp) in enumerate(
        zip(payload["indices"], payload["problems"], payload["seeds"], payload["fingerprints"])
    ):
        if tracer is not None:
            solve_span = tracer.begin(
                "engine.solve", parent=shard_span, shard=payload["shard"],
                index=index, seed=seed, fingerprint=fp[:16],
            )
        result = solve_one(
            problem, backend, np.random.default_rng(seed), payload["refine"], payload["top_k"]
        )
        if tracer is not None:
            # The span ids are the result's join key into the trace.
            tracer.end(solve_span)
            result.info["trace"] = {
                "trace_id": solve_span["trace_id"], "span_id": solve_span["span_id"],
            }
        _stamp_engine_info(result, payload, pos)
        out.append((index, result))
    if tracer is not None:
        tracer.end(shard_span)
    return {"items": out, "spans": tracer.drain() if tracer is not None else []}


def execute_plans(
    plans: "list[ExecutionPlan]",
    executor: str = "serial",
    cache: "ResultCache | bool | None" = None,
    store: "EngineStore | None" = None,
) -> "list[list[SolveResult]]":
    """Run several compiled plans as **one** dispatch wave; results per plan.

    All plans' uncached shards are handed to the executor together, so a
    scheduler-routed batch split across several backends parallelises
    exactly as widely as a single-backend batch would — per-plan sequential
    execution would serialise the backends and forfeit the wall-clock the
    executor was chosen for.  Seeds and shard membership are fixed per plan
    at compile time, so interleaving shards of different plans cannot
    perturb any result.

    Cache hits are taken shard-atomically (see module docstring); every
    result's ``info["engine"]`` records shard, position, structure
    signature, executor, seed, truncated fingerprint, and whether it was
    served from cache.  ``store`` (the call's
    :class:`~repro.engine.store.EngineStore`) is the durable tier behind
    ``cache``: consulted on a memory miss and written through on every
    fill.  It is reached only through a cache; :func:`solve_batch`
    supplies a per-call one when a store is given and caching is off.
    """
    runner = get_executor(executor)
    shared_cache = resolve_cache(cache)  # one cache (and stats) per wave
    with obs.span("engine.execute", executor=runner.name, plans=len(plans)) as exec_span:
        prepared = []
        flat_payloads: list = []
        payload_owner: list[int] = []
        payload_probe_s: list[float] = []
        for plan in plans:
            # Instance-backed plans carry opaque state; never cache them.
            cache = shared_cache if plan.cacheable else None
            results: list = [None] * len(plan.items)
            for shard_items in plan.shards():
                if not shard_items:
                    continue
                cached = None
                tiers: list = []
                probe_s = 0.0
                if cache is not None:
                    with obs.span(
                        "cache.lookup",
                        shard=shard_items[0].shard,
                        items=len(shard_items),
                    ) as cache_span:
                        probe_t0 = time.perf_counter()
                        looked = [cache.lookup(i.cache_key, store) for i in shard_items]
                        probe_s = time.perf_counter() - probe_t0
                        cached = [value for value, _ in looked]
                        tiers = [tier for _, tier in looked]
                        hit = all(value is not None for value in cached)
                        if not hit:
                            cached = None
                        # A hit reports the slowest tier it touched.
                        tier = "store" if "store" in tiers else "memory"
                        cache_span.set(hit=hit, tier=tier if hit else None)
                if cached is not None:
                    payload = _shard_payload(plan, shard_items, runner.name)
                    for pos, (item, result) in enumerate(zip(shard_items, cached)):
                        _stamp_engine_info(result, payload, pos)
                        result.info["engine"].update(
                            cache_hit=True, cache_tier=tiers[pos], cache_time=probe_s
                        )
                        if cache_span.span_id is not None:
                            result.info["trace"] = {
                                "trace_id": cache_span.trace_id,
                                "span_id": cache_span.span_id,
                            }
                        results[item.index] = result
                else:
                    flat_payloads.append(_shard_payload(plan, shard_items, runner.name))
                    payload_owner.append(len(prepared))
                    payload_probe_s.append(probe_s)
            prepared.append((plan, results, cache))

        for owner, probe_s, shard_out in zip(
            payload_owner, payload_probe_s, runner.run(_run_shard_items, flat_payloads)
        ):
            obs.ingest(shard_out["spans"])
            results = prepared[owner][1]
            for index, result in shard_out["items"]:
                result.info["engine"]["cache_time"] = probe_s
                results[index] = result

        for plan, results, cache in prepared:
            if cache is not None:
                for item in plan.items:
                    result = results[item.index]
                    if not result.info.get("engine", {}).get("cache_hit"):
                        cache.put(
                            item.cache_key, result,
                            signature=plan.shard_signature(item.shard), store=store,
                        )
        exec_span.set(shards_dispatched=len(flat_payloads))
    return [results for _, results, _ in prepared]


def execute_plan(
    plan: ExecutionPlan,
    executor: str = "serial",
    cache: "ResultCache | bool | None" = None,
    store: "EngineStore | None" = None,
) -> list[SolveResult]:
    """Run one compiled plan; see :func:`execute_plans` for the semantics."""
    return execute_plans([plan], executor=executor, cache=cache, store=store)[0]


def solve_batch(
    problems,
    backend: "str | Backend | Sequence[str]" = "sa",
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = 8,
    executor: str = "serial",
    cache: "ResultCache | bool | None" = None,
    max_shard_size: "int | None" = None,
    backend_opts: "dict | None" = None,
    store=None,
    seeds=None,
    labels=None,
    scheduler: "AdaptiveScheduler | None" = None,
) -> list[SolveResult]:
    """Compile, route and execute a batch: the one engine path.

    ``repro.solve`` (a one-item batch), ``repro.solve_many`` and every
    service wave run here; the batch is compiled once and its shards run
    as one :func:`execute_plans` wave.

    With a durable ``store`` (a path, an
    :class:`~repro.engine.store.EngineStore`, or ``None`` + ``REPRO_STORE``),
    results flow through the store's shared cache tier (behind the call's
    ``cache``, or a fresh per-call :class:`ResultCache` when caching is
    off: a durable store is an explicit request for result reuse) and the
    batch's telemetry is recorded into the durable scoreboard at the batch
    boundary — so even unscheduled batches feed the routing knowledge a
    later :class:`~repro.engine.scheduler.AdaptiveScheduler` hydrates.

    With a ``scheduler``, ``backend`` may be a sequence of registry names
    and ``backend_opts`` is portfolio-style (per-backend factory options
    keyed by name).  Every shard is routed up front via
    :meth:`~repro.engine.scheduler.AdaptiveScheduler.choose` and each
    chosen backend's shards run as a sub-plan of the same wave; item seeds
    are the compiled ones regardless of routing, so two runs with equal
    scheduler state solve every item identically on any executor.  When
    every shard routes to the first candidate, the compiled plan runs
    unchanged.  Results carry ``info["engine"]["scheduler"]``, the routed
    structures are prefetched from the store's shared tier, and the batch
    is observed on the scheduler's scoreboard and flushed to its store at
    the batch boundary — or kept out of the durable log with an explicit
    ``store=False``.

    ``seeds`` passes explicit per-item child seeds to the planner (see
    :func:`~repro.engine.plan.compile_plan`); ``seed`` is ignored when set.
    ``labels`` tags items for telemetry (``info["engine"]["label"]``)
    without affecting sharding, seeding, or cache keys.
    """
    from repro.engine.store import resolve_store

    durable = store is not False
    store = resolve_store(store)
    scoreboard = None
    if scheduler is None:
        if isinstance(backend, (list, tuple)):
            raise ReproError(
                "a sequence of candidate backends requires scheduler=; pass an "
                "AdaptiveScheduler or select one backend"
            )
    else:
        scoreboard = scheduler.scoreboard
        if store is not None:
            scoreboard.bind_store(store)
        names = _candidate_names(list(backend) if isinstance(backend, (list, tuple)) else [backend])
        opts_map = _opts_map(backend_opts, names)
        backend, backend_opts = names[0], opts_map.get(names[0])
    with obs.span("engine.plan_compile") as plan_span:
        plan = compile_plan(
            problems,
            backend,
            seed=seed,
            refine=refine,
            top_k=top_k,
            backend_opts=backend_opts,
            max_shard_size=max_shard_size,
            seeds=seeds,
            labels=labels,
        )
        plan_span.set(items=len(plan.items), shards=plan.num_shards)
    cache = resolve_cache(cache)
    if cache is None and store is not None:
        cache = ResultCache()
    runs = [(plan, None)]
    if scheduler is not None:
        runs = _route(plan, scheduler, names, opts_map, cache, store)
    waves = execute_plans(
        [run for run, _ in runs], executor=executor, cache=cache, store=store
    )
    results: list = [None] * len(plan.items)
    for (_, placements), run_results in zip(runs, waves):
        for local, result in enumerate(run_results):
            index, stamp = placements[local] if placements else (local, {})
            result.info["engine"].update(stamp)
            results[index] = result
    record_telemetry(results, store, durable, scoreboard)
    return results


def _route(plan: ExecutionPlan, scheduler, names: list, opts_map: dict, cache, store):
    """The routing step: pick a backend per shard, split the plan by backend.

    Returns ``[(plan, placements)]`` in candidate order, where
    ``placements[local]`` is a sub-plan item's batch index and the
    ``info["engine"]`` stamp restoring its batch shard and routing record.
    The shards' structures are prefetched from ``store``'s shared tier into
    ``cache``'s memory LRU before dispatch, so results a sibling process
    already stored are served from memory.
    """
    signatures = plan.meta["shard_signatures"]
    decisions = []
    for shard_id, signature in enumerate(signatures):
        with obs.span("scheduler.route", shard=shard_id, signature=signature) as route_span:
            decision = scheduler.choose(signature, names)
            route_span.set(backend=decision.backend, mode=decision.mode)
        decisions.append(decision)
    if cache is not None and store is not None:
        for signature in dict.fromkeys(signatures):
            cache.prefetch(signature, store)

    runs = []
    for name in names:
        shard_ids = [i for i, d in enumerate(decisions) if d.backend == name]
        if not shard_ids:
            continue
        if len(shard_ids) == plan.num_shards and name == names[0]:
            run, local_to_global = plan, [(i.index, i.shard) for i in plan.items]
        else:
            run, local_to_global = _subplan(plan, shard_ids, name, opts_map.get(name, {}))
        runs.append((run, [
            (index, {"shard": shard, "scheduler": {
                "backend": name, "mode": decisions[shard].mode, "candidates": list(names),
            }})
            for index, shard in local_to_global
        ]))
    return runs


def _subplan(plan: ExecutionPlan, shard_ids: Sequence[int], backend_name: str,
             backend_opts: dict) -> "tuple[ExecutionPlan, list[tuple[int, int]]]":
    """One backend's slice of a routed plan, renumbered to be self-contained.

    Items keep their compiled seeds and fingerprints; indices and shard ids
    are renumbered locally (``execute_plan`` addresses results by them) and
    the returned mapping restores each local index to its
    ``(batch index, global shard id)``.
    """
    shards = plan.shards()
    signatures = plan.meta["shard_signatures"]
    items = []
    local_to_global: list[tuple[int, int]] = []
    for local_shard, shard_id in enumerate(shard_ids):
        for item in shards[shard_id]:
            items.append(replace(item, index=len(items), shard=local_shard))
            local_to_global.append((item.index, shard_id))
    subplan = ExecutionPlan(
        items=items,
        num_shards=len(shard_ids),
        backend_name=backend_name,
        backend_opts=dict(backend_opts),
        backend_instance=None,
        refine=plan.refine,
        top_k=plan.top_k,
        meta={
            "batch_size": len(items),
            "shard_sizes": [len(shards[s]) for s in shard_ids],
            "max_shard_size": plan.meta.get("max_shard_size"),
            "shard_signatures": [signatures[s] for s in shard_ids],
        },
    )
    _assign_cache_keys(subplan)
    return subplan, local_to_global


def _opts_map(backend_opts: "dict | None", names) -> dict:
    """Per-backend factory options, checked against the named candidates."""
    opts_map = dict(backend_opts or {})
    unknown = set(opts_map) - set(names)
    if unknown:
        raise ReproError(
            f"backend_opts for {sorted(unknown)} match no candidate backend; "
            "there is no named backend of that name in the call"
        )
    return opts_map


def record_telemetry(results, store, durable: bool = True, scoreboard=None,
                     portfolio: "str | None" = None) -> None:
    """Record every result exactly once, live and durably (the one sink).

    With a ``scoreboard`` (a scheduled call) the results are recorded on it
    and its pending observations are flushed to its bound store — or
    discarded when ``durable`` is false (an explicit ``store=False``).
    Without one they go straight into ``store``'s durable scoreboard.
    Both destinations take the same ``record_results(results, portfolio)``
    call: ``portfolio`` is the structure signature of a portfolio winner,
    whose ``info["portfolio"]`` contenders are recorded instead.
    """
    from repro.engine.store import record_best_effort

    if scoreboard is not None:
        scoreboard.record_results(results, portfolio)
        if durable:
            record_best_effort(scoreboard.flush, "scoreboard flush")
        else:
            scoreboard.discard_pending()
    elif store is not None:
        record_best_effort(
            lambda: store.scoreboard.record_results(results, portfolio), "telemetry record"
        )


# -- portfolio racing -------------------------------------------------------


def run_portfolio(
    problem: Problem,
    backends,
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = 8,
    backend_opts: "dict | None" = None,
    deadline_s: "float | None" = None,
    store=None,
    scheduler: "AdaptiveScheduler | None" = None,
) -> SolveResult:
    """Race several backends on one instance; return the best finisher.

    Each contender is a one-item plan (:func:`compile_plan`) whose seed is
    drawn from ``seed`` in contender order, so it runs like every other
    solve and its result carries ``info["engine"]``.  Without a deadline
    the plans run as one serial, uncached :func:`execute_plans` wave, so a
    deadline-free portfolio is reproducible as a whole.  With
    ``deadline_s`` set, each plan runs on its own thread of a pool and
    only those that finish inside the deadline compete
    (stragglers are abandoned, not interrupted — their entry is marked
    ``"deadline_exceeded"``); at least one contender is always awaited so
    the call never returns empty-handed.  Which contenders beat a wall-
    clock deadline is inherently machine-dependent, so deadline racing
    trades determinism for latency — leave ``deadline_s=None`` when exact
    reproducibility matters.

    With a ``scheduler`` only the contenders
    :meth:`~repro.engine.scheduler.AdaptiveScheduler.choose_race` picks
    race (route-then-race-top-k), and the winner's
    ``info["portfolio_meta"]["scheduler"]`` records the ranking, the raced
    subset and the exploration flag.  Every contender's outcome is
    recorded through :func:`record_telemetry`.
    """
    from repro.api.problem import qubo_signature
    from repro.engine.store import resolve_store

    durable = store is not False
    store = resolve_store(store)
    backends = list(backends)
    if not backends:
        raise ReproError("portfolio needs at least one backend")
    opts_map = _opts_map(backend_opts, [b for b in backends if isinstance(b, str)])
    signature = signature_key(qubo_signature(problem.to_qubo()))
    scoreboard = routing = None
    if scheduler is not None:
        scoreboard = scheduler.scoreboard
        if store is not None:
            scoreboard.bind_store(store)
        routing = scheduler.choose_race(signature, backends)
        backends = routing["raced"]

    seeds = ensure_rng(seed).integers(0, SEED_RANGE, size=len(backends))
    plans = [
        compile_plan([problem], b, seeds=[s], refine=refine, top_k=top_k,
                     backend_opts=opts_map.get(b) if isinstance(b, str) else None)
        for b, s in zip(backends, seeds)
    ]
    names = [plan.backend_name or plan.backend_instance.name for plan in plans]

    def entry(method, objective=math.nan, wall_time=math.nan, status="completed") -> dict:
        return {"method": method, "objective": objective, "wall_time": wall_time,
                "status": status}

    if deadline_s is None:
        completed = [results[0] for results in execute_plans(plans)]
        entries = [entry(r.method, r.objective, r.wall_time) for r in completed]
    else:
        pool = ThreadPoolExecutor(max_workers=len(plans), thread_name_prefix="portfolio")
        futures = {pool.submit(execute_plan, plan): i for i, plan in enumerate(plans)}
        done, pending = wait(futures, timeout=deadline_s)
        if not done:
            done, pending = wait(futures, return_when=FIRST_COMPLETED)
        # Abandon stragglers: cancel queued work, never block on running threads.
        pool.shutdown(wait=False, cancel_futures=True)
        entries = [None] * len(plans)
        completed = []
        errors = []
        for future in done:
            idx = futures[future]
            exc = future.exception()
            if exc is not None:
                errors.append(exc)
                entries[idx] = entry(names[idx], status="error")
                continue
            r = future.result()[0]
            completed.append(r)
            entries[idx] = entry(r.method, r.objective, r.wall_time)
        for future in pending:
            entries[futures[future]] = entry(names[futures[future]], status="deadline_exceeded")
        if not completed:
            raise errors[0] if errors else ReproError("portfolio produced no results")

    best = min(completed, key=lambda r: r.objective)
    best.info["portfolio"] = entries
    best.info["portfolio_meta"] = {
        "deadline_s": deadline_s,
        "contenders": len(plans),
        "completed": len(completed),
        "raced": deadline_s is not None,
    }
    if routing is not None:
        best.info["portfolio_meta"]["scheduler"] = routing
    record_telemetry([best], store, durable, scoreboard, portfolio=signature)
    return best
