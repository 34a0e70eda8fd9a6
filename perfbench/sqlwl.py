"""The SQL workload: one caller running generated scripts back to back.

Set-up (timed several times; the median is reported) makes a fresh durable
:class:`~repro.engine.store.EngineStore` inside the checkout, builds the
seeded catalog and runs one warm-up script into the store.  The warm-up
script and its catalog are the same for every seed, so set-up time does not
depend on which script a seed happens to draw.  The closed loop then calls
``repro.run_workload(script, catalog, backend="tabu", seed=i, store=...)``
on the seed's script stream until ``--seconds`` have passed, running one
:func:`common.probe` before each script (the program is idle then) so the
times can be put on the reference host's scale.  Answers are
checked and exact optima computed after the loop.

The traced variant alternates untraced and traced scripts (layer spans on
and the program's own tracer active) and reports the per-layer metrics of
the traced ones plus the p50 latency difference.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import common
import gen
import oracle
import spans as spanlib

#: Set-up is timed this many times per run; the median is reported.
SETUPS = 3
#: Host-speed probes run before each script (see ``common.host_scales``).
PROBES_PER_SCRIPT = 2
#: Seed and script index of the warm-up script (outside every run's stream).
WARMUP_SEED = 0
WARMUP_INDEX = 10**6
#: Per-layer metrics of the HTTP tier, which this workload does not cross
#: (reported as 0).
SERVICE_ONLY = (
    "loadgen.lag_p90_s", "http.submit_rtt_p50_s", "service.submit_p50_s",
    "service.wave_p50_s", "service.dedup_ratio", "coalesce.queue_wait_p50_s",
    "coalesce.queue_wait_p90_s", "coalesce.wave_size_mean",
)


class _Loop:
    def __init__(self, workdir: Path, seed: int):
        from repro.engine.store import EngineStore

        self.seed = seed
        self.setups = []
        self.setup_probes = []
        warm_script = gen.sql_script(WARMUP_SEED, WARMUP_INDEX)
        warm_stats = gen.catalog_stats(WARMUP_SEED)
        for i in range(SETUPS):
            self.setup_probes += common.probe_block()
            started = time.perf_counter()
            store = EngineStore(workdir / f"sql-{i}.db")
            catalog = gen.build_catalog(gen.catalog_stats(seed))
            self._run(warm_script, gen.build_catalog(warm_stats), store, WARMUP_INDEX)
            self.setups.append((started, time.perf_counter() - started))
        self.store, self.catalog = store, catalog

    def _run(self, script: str, catalog, store, index: int):
        from repro import run_workload

        return run_workload(script, catalog, backend="tabu", seed=index, store=store)

    def run(self, seconds: float, log: "spanlib.SpanLog | None" = None) -> dict:
        """Closed loop; with ``log``, every odd script runs traced."""
        from repro import obs

        ops = []
        probes = []
        t0 = time.perf_counter()
        index = 0
        while time.perf_counter() - t0 < seconds:
            for _ in range(PROBES_PER_SCRIPT):
                probes.append((time.perf_counter(), common.probe()))
            script = gen.sql_script(self.seed, index)
            traced = log is not None and index % 2 == 1
            if traced:
                log.install()
            try:
                started = time.perf_counter()
                with obs.activate(obs.SpanCollector()) if traced else contextlib.nullcontext():
                    report = self._run(script, self.catalog, self.store, index)
                latency = time.perf_counter() - started
            finally:
                if traced:
                    log.uninstall()
            ops.append({"index": index, "at": started, "latency": latency,
                        "report": report, "traced": traced})
            index += 1
        return {"ops": ops, "probes": probes, "wall_s": time.perf_counter() - t0}


def _assess(ops, limit_s: float) -> "list[str]":
    """Judge every instance answer of every script; returns the failures."""
    failures = []
    for op in ops:
        op["ok"], op["gaps"] = True, []
        for inst, result in zip(op["report"].plan.instances, op["report"].results):
            why, gap = oracle.judge(inst.problem, result.solution, result.objective)
            if why is not None:
                failures.append(f"script {op['index']} {inst.label}: {why}")
                op["ok"] = False
            elif gap is not None:
                op["gaps"].append(gap)
        op["in_slo"] = op["ok"] and op["latency"] <= limit_s
    return failures


def _replay(loop: _Loop, ops, workdir: Path) -> "list[str]":
    """Re-run the first script on a fresh store; objectives must repeat."""
    from repro.engine.store import EngineStore

    if not ops:
        return []
    op = ops[0]
    store = EngineStore(workdir / "sql-replay.db")
    again = loop._run(gen.sql_script(loop.seed, op["index"]), loop.catalog, store, op["index"])
    first = [r.objective for r in op["report"].results]
    second = [r.objective for r in again.results]
    if first != second:
        op["ok"] = op["in_slo"] = False
        return [f"script {op['index']} replayed to {second}, first run gave {first}"]
    return []


def end_to_end(spec: dict, workdir: Path, seed: int, seconds: float) -> dict:
    loop = _Loop(workdir, seed)
    run = loop.run(seconds)
    ops = run["ops"]
    rss = common.read_vmhwm_mb()
    failures = _assess(ops, spec["latency_limit_s"]) + _replay(loop, ops, workdir)
    ok = [op for op in ops if op["ok"]]
    latencies = [op["latency"] for op in ok]
    statements = sum(len(op["report"].plan.statements) for op in ops)
    instances = sum(len(op["report"].plan.instances) for op in ops)
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "failures": failures,
        "latencies": latencies,
        "op_times": [op["at"] for op in ok],
        "probes": run["probes"],
        "setups": loop.setups,
        "setup_probes": loop.setup_probes,
        "wall_s": run["wall_s"],
        "slo_ok": sum(1 for op in ops if op["in_slo"]),
        "gaps": [g for op in ok for g in op["gaps"]],
        "peak_rss_mb": rss,
        "details": {
            "ops_ok": len(ok),
            "p90_samples_beyond": common.samples_beyond(len(latencies), 0.9),
            "setup_runs_s": [d for _, d in loop.setups],
            "statements_per_script": statements / max(1, len(ops)),
            "instances_per_script": instances / max(1, len(ops)),
        },
    }


def traced(spec: dict, workdir: Path, seed: int, seconds: float) -> dict:
    loop = _Loop(workdir, seed)
    log = spanlib.SpanLog()
    ops = loop.run(seconds, log=log)["ops"]
    failures = _assess(ops, spec["latency_limit_s"])
    traced_ops = [op for op in ops if op["traced"] and op["ok"]]
    plain_ops = [op for op in ops if not op["traced"] and op["ok"]]
    latencies = [op["latency"] for op in traced_ops]
    values = dict.fromkeys(SERVICE_ONLY, 0.0)
    values.update(spanlib.engine_metrics(
        log.spans,
        [(r.wall_time, r.info) for op in traced_ops for r in op["report"].results],
        latencies,
    ))
    values["obs.trace_overhead_p50_s"] = (
        common.median(latencies) - common.median([op["latency"] for op in plain_ops]))
    values["opt_gap"] = common.mean([g for op in ops if op["ok"] for g in op["gaps"]])
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "failures": failures,
        "values": values,
        "details": {"traced_ops": len(traced_ops), "plain_ops": len(plain_ops),
                    "spans": len(log.spans)},
    }
