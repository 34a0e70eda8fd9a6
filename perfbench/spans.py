"""Layer timing for the traced run: wrap the layers' public entry points.

The program is not modified.  :func:`layer_wrappers` lists, for each layer
the benchmark attributes time to, the attribute a caller looks the entry
point up through (a module global or a class attribute), and
:class:`SpanLog` replaces each with a wrapper that records a span —
``name``, ``start``, ``end`` (``perf_counter``) and the enclosing span —
then restores the originals on :meth:`SpanLog.uninstall`.

The enclosing span rides a :mod:`contextvars` variable, which asyncio tasks
and ``asyncio.to_thread`` carry across hops.  The engine's ``threads``
executor maps shards onto a plain ``ThreadPoolExecutor``, which does not,
so :class:`SpanLog` also swaps the name that executor module uses for a
subclass that runs each task in a copy of the submitting context.  The
work each task does is unchanged.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import median, self_times

#: Layer of each span name (the per-layer self-time metrics key on these).
LAYER_OF = {
    "problem_from_spec": "service.problems",
    "SolverService.submit": "service.app",
    "AdmissionPolicy.decide": "service.admission",
    "solve_batch": "engine.runner",
    "compile_plan": "engine.plan",
    "execute_plans": "engine.runner",
    "ResultCache.lookup": "engine.cache",
    "ResultCache.put": "engine.cache",
    "Backend.run": "sampler",
    "Problem.to_qubo": "formulate",
    "parse_script": "db.sql",
    "compile_workload": "workload.planner",
    "SharedCacheTier.get": "engine.store",
    "SharedCacheTier.put": "engine.store",
    "ScoreboardStore.record": "engine.store",
    "ScoreboardStore.record_results": "engine.store",
    "ScoreboardStore.load": "engine.store",
}

#: Layers in report order.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

_current: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def layer_wrappers() -> "list[tuple[object, str, str]]":
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Each owner is where the caller resolves the name at call time, so the
    wrapper is seen by exactly the calls the layer serves.
    """
    import repro.api.backends as backends
    import repro.api.facade as facade
    import repro.engine.runner as runner
    import repro.service.app as app
    import repro.workload.planner as planner
    import repro.workload.runner as workload_runner
    from repro.api.problem import Problem
    from repro.engine.cache import ResultCache
    from repro.engine.store import ScoreboardStore, SharedCacheTier
    from repro.service.admission import AdmissionPolicy

    targets = [
        (app, "problem_from_spec", "problem_from_spec"),
        (app.SolverService, "submit", "SolverService.submit"),
        (AdmissionPolicy, "decide", "AdmissionPolicy.decide"),
        (facade, "solve_batch", "solve_batch"),
        (runner, "compile_plan", "compile_plan"),
        (runner, "execute_plans", "execute_plans"),
        (ResultCache, "lookup", "ResultCache.lookup"),
        (ResultCache, "put", "ResultCache.put"),
        (Problem, "to_qubo", "Problem.to_qubo"),
        (workload_runner, "compile_workload", "compile_workload"),
        (planner, "parse_script", "parse_script"),
        (SharedCacheTier, "get", "SharedCacheTier.get"),
        (SharedCacheTier, "put", "SharedCacheTier.put"),
        (ScoreboardStore, "record", "ScoreboardStore.record"),
        (ScoreboardStore, "record_results", "ScoreboardStore.record_results"),
        (ScoreboardStore, "load", "ScoreboardStore.load"),
    ]
    pending = list(backends.Backend.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__ == backends.__name__ and "run" in vars(cls):
            targets.append((cls, "run", "Backend.run"))
    return targets


class SpanLog:
    """In-memory span sink plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: "list[dict]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._saved: "list[tuple[object, str, object]]" = []

    def _wrap(self, fn, name: str):
        log = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_id = next(log._ids)
            token = _current.set(span_id)
            parent = token.old_value if token.old_value is not contextvars.Token.MISSING else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                with log._lock:
                    log.spans.append(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )

        return timed

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span wrappers already installed")
        import repro.engine.executors as executors

        for owner, attr, name in layer_wrappers():
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self._saved.append((executors, "ThreadPoolExecutor", executors.ThreadPoolExecutor))
        executors.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_time_by_name(spans) -> "dict[str, float]":
    """Total self time per span name (seconds) over ``spans``."""
    own = self_times(spans)
    totals = dict.fromkeys(LAYER_OF, 0.0)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    return totals


def layer_self_times(spans) -> "dict[str, float]":
    """Total self time per layer (seconds) over ``spans``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, total in self_time_by_name(spans).items():
        totals[LAYER_OF[name]] += total
    return totals


def engine_metrics(spans, results, latencies) -> dict:
    """The per-layer metrics every workload shares, from one traced phase.

    ``results`` are ``(wall_time, info)`` pairs of every result the traced
    ops returned; ``latencies`` are those ops' latencies.  Shares divide a
    layer's total time by the summed op latency.
    """
    durations: "dict[str, list[float]]" = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])
    own = self_time_by_name(spans)
    total_latency = sum(latencies) or 1.0
    ops = max(1, len(latencies))
    solved = [(wall, info) for wall, info in results
              if not info.get("engine", {}).get("cache_hit")]
    decode = [wall - info["timings"]["formulate_time"] - info["timings"]["solve_time"]
              for wall, info in solved]
    sampler = durations.get("Backend.run", [])
    values = {
        "cache.hit_ratio": (len(results) - len(solved)) / max(1, len(results)),
        "cache.probe_p50_s": median(
            [info.get("engine", {}).get("cache_time", 0.0) for _, info in results]),
        "plan.compile_share": sum(durations.get("compile_plan", [])) / total_latency,
        "engine.overhead_share": max(0.0, own["execute_plans"] - sum(decode)) / total_latency,
        "sampler.time_p50_s": median(sampler),
        "sampler.share": sum(sampler) / total_latency,
        "sampler.calls_per_op": len(sampler) / ops,
        "formulate.time_p50_s": median(
            [info["timings"]["formulate_time"] for _, info in solved]),
        "decode.time_p50_s": median(decode),
        "sql.parse_p50_s": median(durations.get("parse_script", [])),
        "workload.compile_p50_s": median(durations.get("compile_workload", [])),
    }
    layers = layer_self_times(spans)
    values["store.time_share"] = layers["engine.store"] / total_latency
    for layer, total in layers.items():
        values[f"self.{layer}_s_per_op"] = total / ops
    return values
