"""Telemetry-driven adaptive shard scheduling.

The engine's executors answer *how* shards run; this module answers *where*.
A :class:`BackendScoreboard` keeps online per-``(backend, QUBO-structure)``
statistics — observed objective quality, wall latency, cache-hit rate — fed
by the ``info["engine"]`` and ``info["portfolio"]`` telemetry every engine
result already carries.  An :class:`AdaptiveScheduler` turns those stats
into routing decisions:

* :meth:`AdaptiveScheduler.choose` — the router behind
  ``solve_batch(..., scheduler=...)``: each shard of a batch is routed to
  the backend with the best expected quality-under-deadline for its
  structure, epsilon-greedy so colder backends keep getting sampled;
* :meth:`AdaptiveScheduler.choose_race` — the router behind
  ``run_portfolio(..., scheduler=...)``: instead of racing *every*
  backend, the scoreboard ranks them and only the top-k race.

Routing happens **before** dispatch and the scoreboard updates **after**
the whole batch returns, so a scheduled batch stays deterministic for a
fixed ``(scheduler seed, scoreboard history)`` across serial / threads /
processes executors — exactly the engine's existing contract.
Mid-batch adaptation would tie routing to completion order and silently
break it, which is why the batch boundary is the observation boundary.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime imports are lazy
    from repro.api.result import SolveResult

#: EWMA smoothing of scoreboard statistics, live and durable.
DEFAULT_ALPHA = 0.25


def expected_service_time(
    snapshot: "dict[str, dict]",
    backends: "Sequence[str] | None" = None,
    default: float = 0.25,
) -> float:
    """Expected wall seconds for one real solve, from a capacity snapshot.

    The admission-control read of :meth:`BackendScoreboard.
    capacity_snapshot`: averages the finite EWMA ``latency`` rows of the
    named ``backends`` (every backend in the snapshot when ``None``),
    falling back to ``default`` while the scoreboard is cold or the named
    backends have never completed a real solve.  This is the signal a
    ``Retry-After`` or a queue-drain estimate needs — cache hits never
    update EWMA latency, so the figure stays an honest per-solve cost.
    """
    names = snapshot.keys() if backends is None else backends
    latencies = []
    for name in names:
        row = snapshot.get(name)
        if row is None:
            continue
        latency = row.get("latency")
        if isinstance(latency, (int, float)) and math.isfinite(latency) and latency >= 0:
            latencies.append(float(latency))
    if not latencies:
        return float(default)
    return sum(latencies) / len(latencies)


@dataclass
class BackendStats:
    """Online statistics for one ``(backend, structure)`` pair.

    ``quality`` and ``latency`` are exponential moving averages so the
    scoreboard tracks drift (a congested hardware queue, a warmed cache)
    instead of averaging over stale history.  Latency is only updated by
    real solves — a cache hit keeps the *original* wall time and would
    otherwise double-count it.
    """

    count: int = 0
    quality: float = math.nan    #: EWMA of observed domain objectives (lower = better)
    latency: float = math.nan    #: EWMA of wall seconds per real (uncached) solve
    best_objective: float = math.inf
    cache_hits: int = 0
    timeouts: int = 0
    errors: int = 0

    def observe(self, objective: float, wall_time: float, alpha: float,
                cache_hit: bool = False) -> None:
        self.count += 1
        if cache_hit:
            self.cache_hits += 1
        if not math.isnan(objective):
            self.quality = objective if math.isnan(self.quality) else (
                (1.0 - alpha) * self.quality + alpha * objective
            )
            self.best_objective = min(self.best_objective, objective)
        if not cache_hit and not math.isnan(wall_time):
            self.latency = wall_time if math.isnan(self.latency) else (
                (1.0 - alpha) * self.latency + alpha * wall_time
            )

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "quality": self.quality,
            "latency": self.latency,
            "best_objective": self.best_objective,
            "cache_hit_rate": self.cache_hit_rate,
            "timeouts": self.timeouts,
            "errors": self.errors,
        }


def observations(results: "Iterable[SolveResult | None]",
                 portfolio: "str | None" = None) -> list[tuple]:
    """Translate engine results into scoreboard observation ops.

    The one translation, shared by the live :class:`BackendScoreboard` and
    the durable :class:`~repro.engine.store.ScoreboardStore`.  Op tuples:

    * ``("observe", backend, signature, objective, wall_time, cache_hit)``
    * ``("timeout", backend, signature, deadline_s)``
    * ``("error",   backend, signature)``

    A plain result observes its ``info["engine"]`` signature and cache
    flag.  With ``portfolio`` (the winner's structure signature) every
    contender of each result's ``info["portfolio"]`` breakdown is
    translated instead: completed contenders observe quality + latency;
    ``deadline_exceeded`` counts a timeout with a latency observation at
    the deadline itself (the pessimism floor deadline routing needs);
    ``error`` counts an error and nothing else, which leaves the backend
    "seen" but ranked behind everyone that ever produced a result.
    ``None`` results are skipped.
    """
    ops: list[tuple] = []
    for result in results:
        if result is None:
            continue
        if portfolio is None:
            engine = result.info.get("engine", {})
            ops.append(("observe", result.method, engine.get("signature"), result.objective,
                        result.wall_time, bool(engine.get("cache_hit", False))))
            continue
        deadline = (result.info.get("portfolio_meta") or {}).get("deadline_s")
        for entry in result.info.get("portfolio") or ():
            status = None if entry is None else entry.get("status")
            if status == "completed":
                ops.append(("observe", entry["method"], portfolio, entry["objective"],
                            entry["wall_time"], False))
            elif status == "deadline_exceeded":
                ops.append(("timeout", entry["method"], portfolio, deadline))
            elif status == "error":
                ops.append(("error", entry["method"], portfolio))
    return ops


def apply_observations(ops: "Sequence[tuple]",
                       stats_for: "Callable[[str, str | None], BackendStats]",
                       alpha: float) -> None:
    """Apply observation ops with the scoreboard's one update rule.

    Each op updates the exact ``(backend, signature)`` pair and the
    backend-global aggregate (signature ``None``) that ``stats_for``
    returns.  ``observe`` runs :meth:`BackendStats.observe`; ``timeout``
    counts a timeout and, when it carries a deadline, observes that
    deadline as latency; ``error`` counts an error.  An unknown kind
    anywhere in ``ops`` raises before any statistic is touched.
    """
    for op in ops:
        if op[0] not in ("observe", "timeout", "error"):
            raise ReproError(f"unknown scoreboard observation kind: {op[0]!r}")
    for op in ops:
        kind, backend, signature = op[0], op[1], op[2]
        for target in {signature, None}:
            stats = stats_for(backend, target)
            if kind == "observe":
                stats.observe(op[3], op[4], alpha, cache_hit=op[5])
            elif kind == "error":
                stats.errors += 1
            else:
                stats.timeouts += 1
                if op[3] is not None:
                    stats.observe(math.nan, op[3], alpha)


class BackendScoreboard:
    """Per-``(backend, structure-signature)`` stats from engine telemetry.

    Keys are backend registry names crossed with the 16-hex structure keys
    the planner stamps into ``info["engine"]["signature"]`` (see
    :func:`~repro.engine.plan.signature_key`).  Every observation also
    updates a backend-global aggregate (signature ``None``) so routing has
    a fallback for structures the exact pair has never seen.

    With a durable store bound (``store=`` or :meth:`bind_store`), the
    scoreboard hydrates its statistics from the store on binding and keeps
    the raw observations it makes afterwards; :meth:`flush` replays them
    into the store — the same EWMA arithmetic in the same order, so for a
    single writer the stored statistics are byte-identical to the live
    ones and a freshly hydrated scoreboard routes exactly like the
    instance that produced it.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA, store=None):
        if not 0.0 < alpha <= 1.0:
            raise ReproError("scoreboard alpha must be in (0, 1]")
        self.alpha = alpha
        self._stats: "dict[tuple[str, str | None], BackendStats]" = {}
        self._lock = threading.Lock()
        self._store = None
        self._pending: list[tuple] = []
        if store is not None:
            self.bind_store(store)

    # -- durability ------------------------------------------------------------

    @property
    def store(self):
        """The bound :class:`~repro.engine.store.EngineStore`, if any."""
        return self._store

    def bind_store(self, store) -> None:
        """Bind a durable store, hydrating stats the scoreboard lacks.

        Hydration never overwrites a pair already observed in memory (live
        statistics are fresher than the checkpoint they were hydrated
        from).  Re-binding the same store is a no-op; binding a different
        one is an error — the pending observations would be replayed into
        a store that never saw the baseline they extend.
        """
        from repro.engine.store import resolve_store

        resolved = resolve_store(store)
        if resolved is None:
            return
        with self._lock:
            if self._store is not None:
                # Two handles on one file are the same store; keep the bound
                # handle (its pending observations extend its baseline).
                if self._store.path.resolve() == resolved.path.resolve():
                    return
                raise ReproError("scoreboard is already bound to a different EngineStore")
            self._store = resolved
            for key, stats in resolved.scoreboard.load().items():
                self._stats.setdefault(key, stats)

    def flush(self) -> int:
        """Replay observations made since the last flush into the store.

        Returns the number of observations written (0 when no store is
        bound or nothing is pending).  Called at batch boundaries by
        :func:`~repro.engine.runner.record_telemetry`; a crash before a flush loses at most
        that batch's delta, never the store's integrity.  A *failed* write
        (disk full, lock timeout) re-queues the drained observations, so a
        later flush retries them instead of losing the delta.
        """
        with self._lock:
            store, pending = self._store, self._pending
            self._pending = []
        if store is None or not pending:
            return 0
        try:
            with obs.span("store.checkpoint", observations=len(pending)):
                return store.scoreboard.record(pending, alpha=self.alpha)
        except BaseException:
            with self._lock:
                self._pending = pending + self._pending
            raise

    def discard_pending(self) -> int:
        """Drop unflushed observations (the ``store=False`` opt-out).

        The live statistics keep them — only the durable replay log is
        emptied, so the next :meth:`flush` writes nothing for the
        discarded batch.  Returns how many observations were dropped.

        The log is shared, so this drops *everything* unflushed.  That is
        exact under the scheduler's contract — a scheduler is driven by
        one call at a time (concurrent scheduled calls would already race
        its routing RNG and break determinism), and every scheduled call
        flushes at its batch boundary, so the pending log only ever holds
        the current call's delta.
        """
        with self._lock:
            dropped = len(self._pending)
            self._pending = []
        return dropped

    # -- feeding ---------------------------------------------------------------

    def record(self, ops: "Iterable[tuple]") -> int:
        """Apply observation ops live and queue them for :meth:`flush`.

        The one feed: every result, portfolio breakdown and low-level
        :meth:`observe` lands here, through :func:`apply_observations`.
        Returns the number of ops applied.
        """
        ops = list(ops)
        with self._lock:
            apply_observations(
                ops, lambda b, s: self._stats.setdefault((b, s), BackendStats()), self.alpha
            )
            if self._store is not None:
                self._pending.extend(ops)
        return len(ops)

    def record_results(self, results: "Sequence[SolveResult]",
                       portfolio: "str | None" = None) -> int:
        """Record engine results (or portfolio winners) via :func:`observations`."""
        return self.record(observations(results, portfolio))

    def observe(self, backend: str, signature: "str | None", objective: float,
                wall_time: float, cache_hit: bool = False) -> None:
        """Record one solve outcome (the low-level feed)."""
        self.record([("observe", backend, signature, objective, wall_time, cache_hit)])

    # -- reading ---------------------------------------------------------------

    def stats(self, backend: str, signature: "str | None") -> "BackendStats | None":
        """Exact-pair stats, falling back to the backend-global aggregate."""
        with self._lock:
            found = self._stats.get((backend, signature))
            if found is None and signature is not None:
                found = self._stats.get((backend, None))
            return found

    def seen(self, backend: str) -> bool:
        """Whether this backend has been observed at all (any structure)."""
        with self._lock:
            return (backend, None) in self._stats

    def snapshot(self) -> dict:
        """``{(backend, signature): stats-dict}`` copy for telemetry/tests."""
        with self._lock:
            return {key: stats.as_dict() for key, stats in self._stats.items()}

    def capacity_snapshot(self) -> "dict[str, dict]":
        """Per-backend capacity summary: the admission-control read model.

        One row per backend, from the backend-global aggregate (signature
        ``None``) plus a count of distinct structures observed::

            {"sa": {"count": 37, "quality": ..., "latency": ...,
                    "best_objective": ..., "cache_hit_rate": 0.4,
                    "timeouts": 0, "errors": 0, "timeout_rate": 0.0,
                    "error_rate": 0.0, "structures": 5}, ...}

        ``latency`` is the EWMA wall seconds per real (uncached) solve —
        the expected-service-time signal a capacity model or readiness
        probe needs; ``timeout_rate``/``error_rate`` are per observed
        solve.  Values are plain floats/ints (NaN where never observed),
        safe to serialise after NaN-scrubbing.  This is the queryable
        seam the service's ``/metrics`` and ``/readyz`` endpoints read,
        and the one the ROADMAP's admission-control item builds on.
        """
        with self._lock:
            rows: dict[str, dict] = {}
            structures: dict[str, int] = {}
            for (backend, signature), stats in self._stats.items():
                if signature is None:
                    rows[backend] = stats.as_dict()
                else:
                    structures[backend] = structures.get(backend, 0) + 1
            for backend, row in rows.items():
                count = row["count"]
                row["timeout_rate"] = row["timeouts"] / count if count else 0.0
                row["error_rate"] = row["errors"] / count if count else 0.0
                row["structures"] = structures.get(backend, 0)
            return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            pairs = len(self._stats)
        return f"BackendScoreboard({pairs} (backend, structure) pairs, alpha={self.alpha})"


@dataclass
class RoutingDecision:
    """Why a shard went where it went (stamped into result telemetry)."""

    backend: str
    mode: str                      #: "cold" | "explore" | "exploit"
    signature: "str | None"
    candidates: list = field(default_factory=list)


class AdaptiveScheduler:
    """Epsilon-greedy, deadline-aware backend router over a scoreboard.

    Exploitation ranks candidates by expected quality for the shard's
    structure — candidates whose expected latency exceeds ``deadline_s``
    are demoted behind every deadline-feasible one (but never dropped: if
    *all* candidates blow the deadline the fastest is still picked, so no
    shard is ever starved).  Quality ties within ``quality_tol`` (relative)
    break toward lower latency.  Exploration has two triggers: a backend
    the scoreboard has never seen anywhere is sampled first ("cold"), and
    an ``epsilon`` draw routes uniformly at random so the scoreboard keeps
    re-measuring backends that looked bad early ("explore").

    The scheduler owns a seeded RNG, so for a fixed seed and observation
    history its routing is deterministic — which keeps scheduled batches
    reproducible across executors.

    ``store=`` (a path or :class:`~repro.engine.store.EngineStore`) makes
    the routing knowledge durable: the scoreboard hydrates from the store
    on construction — so a fresh scheduler starts warm and, for the same
    stored history, routes exactly like the long-lived instance that wrote
    it — and scheduled calls flush new observations back at
    every batch boundary.
    """

    def __init__(
        self,
        scoreboard: "BackendScoreboard | None" = None,
        epsilon: float = 0.1,
        seed: int = 0,
        deadline_s: "float | None" = None,
        race_top_k: int = 2,
        quality_tol: float = 1e-9,
        store=None,
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ReproError("epsilon must be in [0, 1]")
        if race_top_k < 1:
            raise ReproError("race_top_k must be >= 1")
        if scoreboard is not None and store is not None:
            scoreboard.bind_store(store)
        self.scoreboard = scoreboard if scoreboard is not None else BackendScoreboard(store=store)
        self.epsilon = epsilon
        self.deadline_s = deadline_s
        self.race_top_k = race_top_k
        self.quality_tol = quality_tol
        self._rng = np.random.default_rng(seed)

    # -- routing ---------------------------------------------------------------

    def rank(self, signature: "str | None", candidates: Sequence[str]) -> list[str]:
        """Candidates best-first for this structure (pure exploitation view).

        Never-seen backends lead (optimism under uncertainty: they must be
        measured before they can be beaten), then deadline-feasible ones by
        quality (latency breaks near-ties), then deadline-breakers by
        latency.
        """
        names = _candidate_names(candidates)
        cold = [n for n in names if not self.scoreboard.seen(n)]
        scored = []
        for name in names:
            if name in cold:
                continue
            stats = self.scoreboard.stats(name, signature)
            quality = stats.quality if stats is not None else math.inf
            latency = stats.latency if stats is not None else math.nan
            if math.isnan(latency):
                # Quality-only observations (e.g. a warm cache: hits carry
                # no latency signal) — fall back to the backend-global
                # aggregate rather than assuming "instantaneous".
                fallback = self.scoreboard.stats(name, None)
                if fallback is not None:
                    latency = fallback.latency
            if math.isnan(quality):
                quality = math.inf
            if math.isnan(latency):
                # Still unknown: pessimistic. Never deadline-feasible on
                # faith, and last in any quality-tie latency tiebreak.
                latency = math.inf
            feasible = self.deadline_s is None or latency <= self.deadline_s
            scored.append((name, feasible, quality, latency))
        ordered = []
        for feasible_group in (True, False):
            group = [s for s in scored if s[1] is feasible_group]
            if not group:
                continue
            best_quality = min(s[2] for s in group)
            tol = self.quality_tol * (1.0 + abs(best_quality))
            tied = sorted((s for s in group if s[2] <= best_quality + tol),
                          key=lambda s: (s[3], s[0]))
            rest = sorted((s for s in group if s[2] > best_quality + tol),
                          key=lambda s: (s[2], s[3], s[0]))
            ordered.extend(s[0] for s in tied + rest)
        return cold + ordered

    def choose(self, signature: "str | None", candidates: Sequence[str]) -> RoutingDecision:
        """Pick one backend for a shard of this structure (epsilon-greedy)."""
        names = _candidate_names(candidates)
        cold = [n for n in names if not self.scoreboard.seen(n)]
        if cold:
            pick = cold[int(self._rng.integers(len(cold)))]
            return RoutingDecision(pick, "cold", signature, names)
        if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            pick = names[int(self._rng.integers(len(names)))]
            return RoutingDecision(pick, "explore", signature, names)
        return RoutingDecision(self.rank(signature, names)[0], "exploit", signature, names)

    def choose_race(self, signature: "str | None", candidates: Sequence[str]) -> dict:
        """Pick the contenders of a portfolio for this structure (top-k).

        The best ``race_top_k`` of :meth:`rank` race; an epsilon draw swaps
        the last raced slot for a random unraced candidate so the
        scoreboard keeps sampling backends that looked bad early.  Returns
        the ``info["portfolio_meta"]["scheduler"]`` record: ``signature``,
        ``ranked``, ``raced`` and ``explored``.

        ``deadline_s`` shapes routing feasibility only; it is never
        promoted into a race deadline, because a portfolio without one is
        the caller's claim to a reproducible (serial) race.
        """
        ranked = self.rank(signature, candidates)
        k = min(self.race_top_k, len(ranked))
        raced = list(ranked[:k])
        leftover = ranked[k:]
        explored = bool(leftover) and self.epsilon > 0.0 and self._rng.random() < self.epsilon
        if explored:
            raced[-1] = leftover[int(self._rng.integers(len(leftover)))]
        return {"signature": signature, "ranked": ranked, "raced": raced, "explored": explored}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveScheduler(epsilon={self.epsilon}, deadline_s={self.deadline_s}, "
            f"race_top_k={self.race_top_k}, {self.scoreboard!r})"
        )


def _candidate_names(candidates: Sequence) -> list[str]:
    names = []
    for c in candidates:
        if not isinstance(c, str):
            raise ReproError(
                "adaptive scheduling routes by registry name; pass backend names, "
                f"not {type(c).__name__} instances (the scoreboard keys on names)"
            )
        if c not in names:
            names.append(c)
    if not names:
        raise ReproError("adaptive scheduling needs at least one candidate backend")
    return names
