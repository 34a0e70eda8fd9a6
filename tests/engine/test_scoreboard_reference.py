"""The one scoreboard feed against frozen copies of the two it replaced.

Live and durable scoreboards once translated results into statistics
separately: ``BackendScoreboard.observe_result`` / ``observe_portfolio``
on one side, ``ScoreboardStore.record_results`` / ``record_portfolio``
and the kind dispatch inside ``ScoreboardStore.record`` on the other.
Both now go through :func:`~repro.engine.scheduler.observations` and
:func:`~repro.engine.scheduler.apply_observations`.  Routing decisions
read these statistics, so the refactor may not move a single bit: the
frozen copies below (the logic verbatim) are fed the same hypothesis-drawn
mixes of plain results and portfolio winners as the live code, and the
live ``snapshot()`` and the flushed ``ScoreboardStore.snapshot()`` must
equal theirs exactly (NaN-aware; live floats compared bit for bit).
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.result import SolveResult
from repro.engine import BackendScoreboard, BackendStats, EngineStore

# -- frozen reference feed -------------------------------------------------------

FROZEN_ALPHA = 0.25  # the durable store's default smoothing


def frozen_portfolio_observations(result, signature=None):
    entries = result.info.get("portfolio")
    if not entries:
        return []
    deadline = (result.info.get("portfolio_meta") or {}).get("deadline_s")
    observations = []
    for entry in entries:
        if entry is None:
            continue
        status = entry.get("status")
        if status == "completed":
            observations.append(
                ("observe", entry["method"], signature, entry["objective"],
                 entry["wall_time"], False)
            )
        elif status == "deadline_exceeded":
            observations.append(("timeout", entry["method"], signature, deadline))
        elif status == "error":
            observations.append(("error", entry["method"], signature))
    return observations


class FrozenScoreboard:
    """The live feed: ``observe``, ``observe_result``, ``observe_portfolio``."""

    def __init__(self, alpha):
        self.alpha = alpha
        self._stats = {}
        self._pending = []

    def observe(self, backend, signature, objective, wall_time, cache_hit=False):
        for key in {(backend, signature), (backend, None)}:
            self._stats.setdefault(key, BackendStats()).observe(
                objective, wall_time, self.alpha, cache_hit=cache_hit
            )
        self._pending.append(
            ("observe", backend, signature, objective, wall_time, cache_hit)
        )

    def observe_result(self, result):
        engine = result.info.get("engine", {})
        self.observe(
            result.method,
            engine.get("signature"),
            result.objective,
            result.wall_time,
            cache_hit=bool(engine.get("cache_hit", False)),
        )

    def observe_portfolio(self, result, signature=None):
        for op in frozen_portfolio_observations(result, signature=signature):
            if op[0] == "observe":
                self.observe(op[1], op[2], op[3], op[4], cache_hit=op[5])
                continue
            kind, backend, sig = op[0], op[1], op[2]
            deadline = op[3] if kind == "timeout" else None
            for key in {(backend, sig), (backend, None)}:
                stats = self._stats.setdefault(key, BackendStats())
                if kind == "error":
                    stats.errors += 1
                else:
                    stats.timeouts += 1
                    if deadline is not None:
                        stats.observe(math.nan, deadline, self.alpha)
            self._pending.append(op)


def frozen_store_record(rows, observations, alpha):
    """The kind dispatch of the durable ``record``, over an in-memory row map."""

    def stats_for(backend, signature):
        return rows.setdefault((backend, signature), BackendStats())

    for op in observations:
        kind, backend, signature = op[0], op[1], op[2]
        targets = {signature, None}
        if kind == "observe":
            objective, wall_time, cache_hit = op[3], op[4], op[5]
            for target in targets:
                stats_for(backend, target).observe(
                    objective, wall_time, alpha, cache_hit=cache_hit
                )
        elif kind == "timeout":
            deadline = op[3]
            for target in targets:
                stats = stats_for(backend, target)
                stats.timeouts += 1
                if deadline is not None:
                    stats.observe(math.nan, deadline, alpha)
        elif kind == "error":
            for target in targets:
                stats_for(backend, target).errors += 1
        else:
            raise AssertionError(kind)


def frozen_record_results(rows, results, alpha):
    frozen_store_record(
        rows,
        [
            (
                "observe",
                r.method,
                r.info.get("engine", {}).get("signature"),
                r.objective,
                r.wall_time,
                bool(r.info.get("engine", {}).get("cache_hit", False)),
            )
            for r in results
            if r is not None
        ],
        alpha,
    )


# -- strategies ------------------------------------------------------------------

BACKENDS = st.sampled_from(["sa", "tabu", "qaoa"])
SIGNATURES = st.sampled_from(["sig-a", "sig-b"])
OBJECTIVES = st.one_of(st.just(math.nan), st.floats(-100, 100, allow_nan=False))
WALL_TIMES = st.floats(0.0, 5.0, allow_nan=False)


@st.composite
def plain_results(draw):
    engine = st.fixed_dictionaries(
        {"signature": st.one_of(st.none(), SIGNATURES), "cache_hit": st.booleans()}
    )
    info = draw(st.one_of(st.just({}), engine.map(lambda e: {"engine": e})))
    return SolveResult(
        problem="toy", method=draw(BACKENDS), solution=(), objective=draw(OBJECTIVES),
        wall_time=draw(WALL_TIMES), info=info,
    )


@st.composite
def portfolio_entries(draw):
    status = draw(st.sampled_from([None, "completed", "deadline_exceeded", "error"]))
    if status is None:
        return None
    if status == "completed":
        return {"method": draw(BACKENDS), "objective": draw(OBJECTIVES),
                "wall_time": draw(WALL_TIMES), "status": status}
    return {"method": draw(BACKENDS), "objective": math.nan, "wall_time": math.nan,
            "status": status}


@st.composite
def portfolio_winners(draw):
    info = {"portfolio": draw(st.lists(portfolio_entries(), max_size=4))}
    meta = draw(st.sampled_from(["absent", "no_deadline", "deadline"]))
    if meta != "absent":
        deadline = draw(st.floats(0.01, 5.0)) if meta == "deadline" else None
        info["portfolio_meta"] = {"deadline_s": deadline}
    winner = SolveResult(
        problem="toy", method=draw(BACKENDS), solution=(), objective=draw(OBJECTIVES),
        wall_time=draw(WALL_TIMES), info=info,
    )
    return [winner], draw(SIGNATURES)


BATCHES = st.lists(
    st.one_of(
        st.lists(plain_results(), min_size=1, max_size=4).map(lambda rs: (rs, None)),
        portfolio_winners(),
    ),
    min_size=1,
    max_size=6,
)


# -- equality ----------------------------------------------------------------------


def _same(a, b, bitwise):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    if bitwise and isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return a == b


def assert_snapshots_equal(got: dict, want: dict, bitwise: bool):
    assert set(got) == set(want)
    for key in want:
        assert set(got[key]) == set(want[key]), key
        for field, value in want[key].items():
            assert _same(got[key][field], value, bitwise), (key, field, got[key][field], value)


def as_snapshot(rows: dict) -> dict:
    return {key: stats.as_dict() for key, stats in rows.items()}


# -- properties ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(batches=BATCHES, alpha=st.sampled_from([0.25, 0.5]))
def test_live_and_flushed_scoreboards_match_the_frozen_feed(batches, alpha):
    """Scheduled path: record on the live scoreboard, flush per batch."""
    frozen = FrozenScoreboard(alpha)
    frozen_rows: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = EngineStore(Path(tmp) / "engine.db")
        board = BackendScoreboard(alpha=alpha, store=store)
        for results, portfolio in batches:
            for result in results:
                if portfolio is None:
                    frozen.observe_result(result)
                else:
                    frozen.observe_portfolio(result, signature=portfolio)
            frozen_store_record(frozen_rows, frozen._pending, alpha)
            frozen._pending = []
            board.record_results(results, portfolio)
            board.flush()
        assert_snapshots_equal(board.snapshot(), as_snapshot(frozen._stats), bitwise=True)
        assert_snapshots_equal(store.scoreboard.snapshot(), as_snapshot(frozen_rows),
                               bitwise=False)
        # A scoreboard hydrated from the store carries the same statistics.
        hydrated = BackendScoreboard(alpha=alpha, store=EngineStore(Path(tmp) / "engine.db"))
        assert_snapshots_equal(hydrated.snapshot(), store.scoreboard.snapshot(),
                               bitwise=True)


@settings(max_examples=60, deadline=None)
@given(batches=BATCHES)
def test_direct_store_recording_matches_the_frozen_feed(batches):
    """Unscheduled path: results go straight into the durable scoreboard."""
    frozen_rows: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = EngineStore(Path(tmp) / "engine.db")
        for results, portfolio in batches:
            if portfolio is None:
                frozen_record_results(frozen_rows, results, FROZEN_ALPHA)
            else:
                frozen_store_record(
                    frozen_rows,
                    frozen_portfolio_observations(results[0], signature=portfolio),
                    FROZEN_ALPHA,
                )
            store.scoreboard.record_results(results, portfolio)
        assert_snapshots_equal(store.scoreboard.snapshot(), as_snapshot(frozen_rows),
                               bitwise=False)
