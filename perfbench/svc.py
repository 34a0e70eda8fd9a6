"""The HTTP workloads: ``python -m repro.service`` under an open loop.

One run boots the service as a subprocess (default config, tracing off, no
durable store) several times to time set-up and keeps the last boot.  It
sends untimed warm-up requests one at a time (one request outside every key
space; for ``svc_hot`` also each hot key once, so the cache holds the hot
set before timing starts), then drives the seeded open loop.  After the
schedule it waits for every job, reads the jobs back, scrapes ``/metrics``
and the server's peak RSS, stops the server, and only then checks answers
and computes exact optima.  :func:`common.probe` runs in a block before
each boot and from the idle senders during the loop; those times put the
workload's ``host_normalised`` metrics on the reference host's scale.

The traced variant (``--trace 1``) runs the same inputs for half the time
against a plain server and for half against ``traced_service.py`` (program
tracing on, layer spans recorded), and reports the per-layer metrics of
the traced half plus the p50 latency difference between the halves.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import common
import gen
import loadgen
import oracle
import spans as spanlib

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 60.0
#: Set-up is timed this many times per run; the median is reported.
SETUPS = 3
#: Answers replayed through a direct ``repro.solve`` per run.
REPLAYS = 3
#: While the loop runs, a sender with at least ``PROBE_SLACK_S`` to wait
#: runs a host-speed probe every ``PROBE_EVERY_S``.
PROBE_EVERY_S = 0.1
PROBE_SLACK_S = 0.02
_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")


class Server:
    """A ``repro.service`` subprocess bound to an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, tag: str, traced: bool = False):
        self.spans_path = workdir / f"{tag}.spans.json"
        env = dict(os.environ)
        env.pop("REPRO_STORE", None)
        env.update(
            PYTHONPATH=str(root / "src"),
            REPRO_SERVICE_TRACE="1" if traced else "0",
            REPRO_SERVICE_STORE="",
        )
        if traced:
            cmd = [sys.executable, str(root / "perfbench" / "traced_service.py"),
                   str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro.service"]
        self.log_path = workdir / f"{tag}.log"
        self._log = open(self.log_path, "wb")
        # Probes just before the boot put its time on the reference scale.
        self.probes = common.probe_block()
        started = self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + ["--port", "0", "--log-level", "warning"],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._await_port(started)
            self._await_ready(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self, started: float) -> int:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not start; log:\n{self.log_path.read_text()[-2000:]}")

    def _await_ready(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            try:
                status, _ = loadgen.request(HOST, self.port, "GET", "/readyz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("service never reported ready")

    def peak_rss_mb(self) -> float:
        return common.read_vmhwm_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait; kill only if it hangs.  Idempotent."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode

    def spans(self) -> "list[dict]":
        with open(self.spans_path, encoding="utf-8") as fh:
            return json.load(fh)


def _metric_value(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)}(?:{{[^}}]*}})? ([0-9.eE+-]+)$", text, re.M)
    return float(match.group(1)) if match else 0.0


def _inputs(name: str, spec: dict, seed: int, seconds: float):
    """``(offsets, requests, keys, warm-up requests)`` of one run."""
    offsets = common.open_loop_schedule(seed, spec["rate_per_s"], seconds,
                                        spec.get("burst", 1), spec.get("burst_gap_s", 0.0))
    warm = [gen.warmup_request(seed)]
    if name == "svc_unique":
        return offsets, gen.unique_requests(seed, len(offsets)), None, warm
    requests, keys = gen.hot_requests(
        seed, len(offsets), spec["hot_size"], spec["zipf_exponent"], spec["fresh_share"]
    )
    hot = {rank: request for (kind, rank), request in zip(keys, requests) if kind == "hot"}
    return offsets, requests, keys, warm + [hot[rank] for rank in sorted(hot)]


class _Prober:
    """The open loop's ``idle``: probes while a sender waits for a due time.

    A sender with more than ``PROBE_SLACK_S`` to wait runs a probe, pauses
    up to ``PROBE_EVERY_S`` and repeats, then sleeps out the rest, so
    probing adds no thread and delays no send.  The probe's CPU clock does
    not charge it for waiting on a core the server holds.
    """

    def __init__(self, probes: list):
        self.probes = probes

    def __call__(self, due: float) -> None:
        while due - time.perf_counter() > PROBE_SLACK_S:
            self.probes.append((time.perf_counter(), common.probe()))
            time.sleep(max(0.0, min(PROBE_EVERY_S, due - time.perf_counter() - PROBE_SLACK_S)))
        loadgen.sleep_until(due)


def _drive(server: Server, offsets, requests, warm) -> dict:
    """Warm up, run the open loop, collect jobs/metrics/RSS, stop the server."""
    for request in warm:
        status, body = loadgen.request(
            HOST, server.port, "POST", "/v1/solve", dict(request, wait=True)
        )
        if status != 200 or body.get("status") != "done":
            raise RuntimeError(f"warm-up request failed: {status} {body}")
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # server's span times compare with it: spans before this are warm-up.
    loop_start = time.perf_counter()
    probes: "list[tuple[float, float]]" = []
    t0_wall, t0_mono, records = loadgen.open_loop(HOST, server.port, offsets, requests,
                                                  idle=_Prober(probes))
    ids = [r["job_id"] for r in records if r["job_id"] is not None]
    jobs = loadgen.wait_for_jobs(HOST, server.port, ids, timeout_s=120.0)
    _, metrics_text = loadgen.request(HOST, server.port, "GET", "/metrics")
    rss = server.peak_rss_mb()
    code = server.stop()
    return {"t0": t0_wall, "loop_t0": t0_mono, "loop_start": loop_start, "records": records,
            "jobs": jobs, "metrics": metrics_text, "rss": rss, "exit_code": code, "probes": probes}


def _serve(root: Path, workdir: Path, tag: str, inputs, traced: bool = False):
    """Boot one server, drive it, and make sure it is stopped either way."""
    offsets, requests, _, warm = inputs
    server = Server(root, workdir, tag, traced=traced)
    try:
        return server, _drive(server, offsets, requests, warm)
    finally:
        server.stop()


class _Problems:
    """Problems rebuilt from their specs, and verdicts on answers (memoised:
    hot keys repeat the same answer many times)."""

    def __init__(self):
        from repro.service.problems import problem_from_spec

        self._build = problem_from_spec
        self._problems: dict = {}
        self._verdicts: dict = {}

    def get(self, spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._problems:
            self._problems[key] = self._build(spec)
        return self._problems[key]

    def judge(self, spec: dict, result: dict) -> "tuple[str | None, float | None]":
        key = json.dumps([spec, result["solution"], result["objective"]], sort_keys=True)
        if key not in self._verdicts:
            self._verdicts[key] = oracle.judge(
                self.get(spec), result["solution"], result["objective"])
        return self._verdicts[key]


def _assess(run: dict, requests, limit_s: float, problems: _Problems) -> dict:
    """Per-op outcome: latency from the due time, correctness, gap."""
    ops = []
    failures = []
    if run["exit_code"] != 0:
        failures.append(f"service exited with code {run['exit_code']}")
    for index, record in enumerate(run["records"]):
        op = {"record": record, "request": requests[index], "ok": False}
        ops.append(op)
        if record["status"] != 202:
            failures.append(f"op {index}: submit returned {record['status']}")
            continue
        job = run["jobs"].get(record["job_id"], {})
        op["job"] = job
        if job.get("status") != "done" or not job.get("result"):
            failures.append(f"op {index}: job {job.get('status')} {job.get('error')}")
            continue
        why, gap = problems.judge(requests[index]["problem"], job["result"])
        if why is not None:
            failures.append(f"op {index}: {why}")
            continue
        op.update(ok=True, gap=gap,
                  latency=job["finished_at"] - (run["t0"] + record["due"]))
    for op in ops:
        op["in_slo"] = op["ok"] and op["latency"] <= limit_s
    return {"ops": ops, "failures": failures}


def _replay(ops, seed: int, problems: _Problems, count: int = REPLAYS) -> "list[str]":
    """Re-solve a seeded sample of served answers directly; report mismatches.

    Answers short of the optimum are sampled first: on small instances most
    seeds reach the optimum, so only those answers show which seed was used.
    The served result must also name the request's seed as the one it ran.
    """
    from repro import solve

    rng = random.Random(f"replay:{seed}")
    solved = [op for op in ops if op["ok"] and not _hit(op)]
    sample = []
    for group in ([op for op in solved if op["gap"]], [op for op in solved if not op["gap"]]):
        sample += rng.sample(group, min(count - len(sample), len(group)))
    mismatches = []
    for op in sample:
        request = op["request"]
        direct = solve(problems.get(request["problem"]), backend="sa",
                       seed=request["seed"], refine=True, top_k=8).to_json_dict()
        served = op["job"]["result"]
        if served["info"].get("engine", {}).get("seed") != request["seed"] or any(
            direct[key] != served[key] for key in ("solution", "objective", "energy")
        ):
            op["ok"] = op["in_slo"] = False
            mismatches.append(
                f"job {op['job']['job_id']}: served {served['objective']!r} "
                f"(engine seed {served['info'].get('engine', {}).get('seed')!r}) but a direct "
                f"solve with seed {request['seed']} gives {direct['objective']!r}"
            )
    return mismatches


def _latencies(ops) -> "list[float]":
    return [op["latency"] for op in ops if op["ok"]]


def _hit(op) -> bool:
    return bool(op["job"]["result"]["info"].get("engine", {}).get("cache_hit"))


def end_to_end(name: str, spec: dict, root: Path, workdir: Path, seed: int,
               seconds: float) -> dict:
    inputs = _inputs(name, spec, seed, seconds)
    boots = []
    for i in range(SETUPS - 1):
        boot = Server(root, workdir, f"{name}-boot{i}")
        boots.append(boot)
        boot.stop()
    server, run = _serve(root, workdir, f"{name}-run", inputs)
    boots.append(server)
    setups = [boot.setup_s for boot in boots]

    problems = _Problems()
    _, requests, keys, _ = inputs
    assessed = _assess(run, requests, spec["latency_limit_s"], problems)
    ops = assessed["ops"]
    failures = assessed["failures"] + _replay(ops, seed, problems)
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"]) + (run["exit_code"] != 0)
    latencies = _latencies(ops)
    op_times = [run["loop_t0"] + op["record"]["due"] for op in ops if op["ok"]]
    last_finish = max((op["job"]["finished_at"] for op in ops if op["ok"]), default=run["t0"])
    details = {
        "ops_ok": attempted - failed,
        "p90_samples_beyond": common.samples_beyond(len(latencies), 0.9),
        "setup_runs_s": setups,
        "hit_share": sum(1 for op in ops if op["ok"] and _hit(op)) / attempted,
        "fresh_share": (sum(1 for k in keys if k[0] == "fresh") / len(keys)) if keys else 1.0,
        "lag_p90_s": common.percentile([r["lag"] for r in run["records"]], 0.9),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "op_times": op_times,
        "probes": run["probes"] + [p for boot in boots for p in boot.probes],
        "setups": [(boot.started, boot.setup_s) for boot in boots],
        "setup_probes": [p for boot in boots for p in boot.probes],
        "wall_s": last_finish - run["t0"],
        "slo_ok": sum(1 for op in ops if op["in_slo"]),
        "gaps": [op["gap"] for op in ops if op["ok"] and op["gap"] is not None],
        "peak_rss_mb": run["rss"],
        "details": details,
    }


def traced(name: str, spec: dict, root: Path, workdir: Path, seed: int,
           seconds: float) -> dict:
    inputs = _inputs(name, spec, seed, seconds / 2.0)
    requests = inputs[1]
    problems = _Problems()
    phases = {}
    for tag, is_traced in (("plain", False), ("traced", True)):
        server, run = _serve(root, workdir, f"{name}-{tag}", inputs, traced=is_traced)
        assessed = _assess(run, requests, spec["latency_limit_s"], problems)
        phases[tag] = (server, run, assessed["ops"], assessed["failures"])
    server, run, ops, failures = phases["traced"]
    plain_ops, plain_failures = phases["plain"][2], phases["plain"][3]
    failures = plain_failures + failures + _replay(ops, seed, problems)
    ok = [op for op in ops if op["ok"]]
    jobs = [op["job"] for op in ok]
    spans = [span for span in server.spans() if span["start"] >= run["loop_start"]]

    waves: "dict[int, int]" = {}
    for job in jobs:
        waves[job["wave"]] = waves.get(job["wave"], 0) + 1
    queue_waits = [j["started_at"] - j["submitted_at"] for j in jobs]
    requests_total = _metric_value(run["metrics"], "repro_service_requests_total")
    deduped = _metric_value(run["metrics"], "repro_service_deduped_requests_total")
    traced_p50 = common.median(_latencies(ops))
    values = {
        "loadgen.lag_p90_s": common.percentile([r["lag"] for r in run["records"]], 0.9),
        "http.submit_rtt_p50_s": common.median([r["rtt"] for r in run["records"]]),
        "service.submit_p50_s": common.median(
            [s["end"] - s["start"] for s in spans if s["name"] == "SolverService.submit"]),
        "service.wave_p50_s": common.median([j["finished_at"] - j["started_at"] for j in jobs]),
        "service.dedup_ratio": deduped / requests_total if requests_total else 0.0,
        "coalesce.queue_wait_p50_s": common.median(queue_waits),
        "coalesce.queue_wait_p90_s": common.percentile(queue_waits, 0.9) if jobs else 0.0,
        "coalesce.wave_size_mean": sum(waves.values()) / len(waves) if waves else 0.0,
        "obs.trace_overhead_p50_s": traced_p50 - common.median(_latencies(plain_ops)),
        "opt_gap": common.mean([op["gap"] for op in ok if op["gap"] is not None]),
    }
    values.update(spanlib.engine_metrics(
        spans, [(j["result"]["wall_time"], j["result"]["info"]) for j in jobs],
        _latencies(ops),
    ))
    return {
        "attempted": len(ops) + len(plain_ops),
        "failed": sum(1 for op in ops + plain_ops if not op["ok"])
        + sum(run["exit_code"] != 0 for _, run, _, _ in phases.values()),
        "failures": failures,
        "values": values,
        "details": {
            "phase_ops": len(ops),
            "spans": len(spans),
            "p50_traced_s": traced_p50,
            "hit_share": sum(1 for op in ok if _hit(op)) / len(ops),
        },
    }
