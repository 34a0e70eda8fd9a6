"""Pure helpers shared by the benchmark: percentiles, schedules, key draws,
span self time, metric names and host facts.

Nothing here imports the program under test, so the helpers stay testable
without a checkout of ``src/`` (see ``test_perfbench_helpers.py``).
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import random
import re
import statistics
import time

#: Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def valid_metric_name(name: str) -> bool:
    return isinstance(name, str) and METRIC_NAME.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q`` point."""
    return n - max(1, math.ceil(q * n)) if n else 0


def tail_supported(n: int, q: float, min_tail: int = MIN_TAIL) -> bool:
    """Whether a sample of ``n`` supports the ``q`` percentile (>= min_tail beyond)."""
    return samples_beyond(n, q) >= min_tail


def median(values, default: float = 0.0) -> float:
    return float(statistics.median(values)) if values else default


def mean(values, default: float = 0.0) -> float:
    return sum(values) / len(values) if values else default


def quartiles(values) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else math.nan
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (inf for a zero median)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def open_loop_schedule(seed: int, rate: float, seconds: float, burst: int = 1,
                       burst_gap_s: float = 0.0) -> "list[float]":
    """Send offsets (seconds from the start) of a constant-rate open loop.

    Exactly ``round(rate * seconds / burst)`` bursts of ``burst`` sends,
    ``burst / rate`` apart after a seeded phase in ``[0, burst / rate)``;
    the sends of a burst are ``burst_gap_s`` apart.  A constant rate keeps
    queueing a function of the service times and the request order (both
    seeded) rather than of how clustered one seed's arrival draw happened
    to be, and a fixed count keeps ``attempted`` identical across seeds.
    """
    bursts = max(1, round(rate * seconds / burst))
    slot = seconds / bursts
    phase = random.Random(seed).random()
    return [(i + phase) * slot + j * burst_gap_s for i in range(bursts) for j in range(burst)]


def stratified_draw(seed, weights, count: int) -> "list[int]":
    """``count`` category indices in exact proportion to ``weights``, shuffled.

    Counts are apportioned by largest remainder, so every seed sends the
    same mix and only the order and instances differ between seeds.
    """
    total = float(sum(weights))
    quotas = [w * count / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    draw = [i for i, c in enumerate(counts) for _ in range(c)]
    random.Random(seed).shuffle(draw)
    return draw


def zipf_weights(size: int, exponent: float) -> "list[float]":
    """Cumulative Zipf weights ``sum_{k<=r} 1/k**exponent`` for ranks 1..size."""
    total = 0.0
    cumulative = []
    for rank in range(1, size + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return cumulative


def zipf_keys(
    seed: int, count: int, hot_size: int, exponent: float, fresh_share: float
) -> "list[tuple[str, int]]":
    """Seeded key draw: ``round(fresh_share * count)`` draws are ``("fresh", k)``
    — a key seen nowhere else — at seeded positions, numbered in draw order
    from 0; the rest are ``("hot", rank)``, Zipf-skewed over ``hot_size``
    ranks.  A fixed fresh count keeps the number of real solves, and so the
    latency tail they cause, the same on every seed."""
    rng = random.Random(seed)
    cumulative = zipf_weights(hot_size, exponent)
    fresh_at = set(rng.sample(range(count), round(fresh_share * count)))
    keys = []
    fresh = 0
    for index in range(count):
        if index in fresh_at:
            keys.append(("fresh", fresh))
            fresh += 1
        else:
            point = rng.random() * cumulative[-1]
            rank = min(bisect.bisect_right(cumulative, point), hot_size - 1)
            keys.append(("hot", rank))
    return keys


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans) -> "dict[int, float]":
    """Per span id, its duration minus the part its child spans cover.

    ``spans`` are mappings with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children running in parallel (a thread pool
    under one parent) are merged as a union of intervals, so overlapping
    children are not subtracted twice and self time never goes negative.
    """
    children: "dict[int, list]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


#: What one :func:`probe` takes on the reference host (the 2 vCPU x86_64
#: host the workloads were sized on, at its usual speed).  Host-normalised
#: times are scaled by ``REFERENCE_PROBE_S / mean probe time``, with the
#: probes timed around each op (see :func:`host_scales`).
REFERENCE_PROBE_S = 2.0e-3
#: Probes within this many seconds of an op set that op's scale.
PROBE_WINDOW_S = 3.0

_PROBE_QUBO: list = []


def _probe_qubo():
    """The probe's fixed input, built once per process: a symmetric dense
    48-variable QUBO (18 KB, so the probe's data stays in the core's own
    caches whatever the program leaves in the shared ones)."""
    if not _PROBE_QUBO:
        import numpy

        rng = random.Random(1234)
        n = 48
        q = numpy.array([[rng.uniform(-1.0, 1.0) if j >= i else 0.0 for j in range(n)]
                         for i in range(n)])
        _PROBE_QUBO.append(q + q.T)
    return _PROBE_QUBO[0]


def probe() -> float:
    """CPU seconds one fixed slice of reference work takes on this host now.

    The slice is shaped like the program's hot loops without calling the
    program: single-flip local search on a small dense QUBO (small numpy
    operations driven from Python, as in the samplers) and dict and string
    work.  Its time tracks how fast this host runs such code at the moment.
    The collector is paused while it runs, so the program's heap does not
    change it.  It is timed by the calling thread's CPU clock: a slice that
    waits for a core the program holds (or for the GIL) is not charged for
    the wait, while a host that runs this guest's cores slower or stalls
    them (which the guest cannot see) is charged in full.
    """
    import numpy

    q = _probe_qubo()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        x = numpy.zeros(q.shape[0])
        for step in range(220):
            deltas = (1.0 - 2.0 * x) * (q @ x + 0.5 * numpy.diag(q))
            i = int(numpy.argmin(deltas + (step % 5)))
            x[i] = 1.0 - x[i]
            str({k: k * i for k in range(8)})
        elapsed = time.thread_time() - started
    finally:
        if enabled:
            gc.enable()
    return elapsed


def probe_block(count: int = 10) -> "list[tuple[float, float]]":
    """``count`` back-to-back :func:`probe` runs as ``(perf_counter, seconds)``."""
    return [(time.perf_counter(), probe()) for _ in range(count)]


def host_scale(probes) -> float:
    """``REFERENCE_PROBE_S`` over the mean time of ``(time, seconds)`` probes."""
    if not probes:
        raise ValueError("no probe times")
    return REFERENCE_PROBE_S / mean([d for _, d in probes])


def host_scales(op_times, probes, window_s: float = PROBE_WINDOW_S) -> "list[float]":
    """Per op, the factor that puts its time on the reference host's scale.

    ``op_times`` are when the ops ran and ``probes`` are ``(time, seconds)``
    pairs of :func:`probe` runs, on one clock.  An op's factor is
    ``REFERENCE_PROBE_S`` over the mean probe time within ``window_s`` of
    it, or over the mean of all probes when none is that close, so a slow
    minute in the middle of a run scales only the ops it slowed.  The mean,
    not the median: a busy host mostly stalls a probe for a few ms now and
    then rather than slowing every probe a little, so probe times are
    bimodal and their median jumps between the modes, while the mean grows
    with the share of time lost, as the program's own times do.
    """
    overall = host_scale(probes)
    probes = sorted(probes)
    times = [t for t, _ in probes]
    scales = []
    for t in op_times:
        lo = bisect.bisect_left(times, t - window_s)
        near = probes[lo:bisect.bisect_right(times, t + window_s)]
        scales.append(host_scale(near) if near else overall)
    return scales


def read_vmhwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def host_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - the program needs numpy anyway
        facts["numpy"] = None
    return facts
