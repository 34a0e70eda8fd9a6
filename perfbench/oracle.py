"""Answer checks and exact optima, all computed outside the timed region.

* :func:`check_answer` — the returned objective equals
  ``problem.evaluate(solution)`` and a join order is a permutation of the
  query's relations.
* :func:`exact_optimum` — exhaustive MQO, dynamic-programming join
  ordering (left-deep without the cross-product restriction, or bushy) and
  exhaustive transaction scheduling.
* :func:`relative_gap` — how far an objective sits above the optimum.
* :func:`judge` — all three for one answer.
"""

from __future__ import annotations

import math

#: Relative tolerance for objective equality (floating-point re-evaluation).
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def check_answer(problem, solution, objective) -> "str | None":
    """``None`` when the answer is right, else why it is wrong."""
    from repro.api.adapters import BushyJoinAdapter, LeftDeepJoinAdapter

    if isinstance(problem, LeftDeepJoinAdapter):
        if not isinstance(solution, list) or sorted(solution) != sorted(problem.graph.relations):
            return f"join order {solution!r} is not a permutation of the relations"
    if isinstance(problem, BushyJoinAdapter) and not problem.is_feasible(solution):
        return "join tree does not cover every relation exactly once"
    if not isinstance(objective, (int, float)) or not math.isfinite(objective):
        return f"objective {objective!r} is not a finite number"
    try:
        expected = problem.evaluate(solution)
    except Exception as exc:  # a malformed solution is a wrong answer, not a crash
        return f"solution does not evaluate: {type(exc).__name__}: {exc}"
    if not _close(objective, expected):
        return f"objective {objective!r} != evaluate(solution) {expected!r}"
    return None


def exact_optimum(problem) -> "float | None":
    """The exact optimum of a Table I instance, or ``None`` when none exists."""
    from repro.api.adapters import (
        BushyJoinAdapter,
        LeftDeepJoinAdapter,
        MQOAdapter,
        TxnScheduleAdapter,
    )
    from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep
    from repro.mqo.classical import exhaustive_mqo
    from repro.txn.classical import exhaustive_schedule

    if isinstance(problem, MQOAdapter):
        return float(exhaustive_mqo(problem.problem)[1])
    if isinstance(problem, LeftDeepJoinAdapter):
        return float(dp_optimal_leftdeep(problem.graph, avoid_cross=False)[1])
    if isinstance(problem, BushyJoinAdapter):
        return float(dp_optimal_bushy(problem.graph)[1])
    if isinstance(problem, TxnScheduleAdapter):
        _, makespan, _ = exhaustive_schedule(problem.transactions, problem.num_slots)
        return None if makespan is None else float(makespan)
    raise TypeError(f"no exact oracle for {type(problem).__name__}")


def judge(problem, solution, objective) -> "tuple[str | None, float | None]":
    """``(why the answer is wrong or None, relative gap or None)``.

    The gap is ``None`` when the instance has no exact optimum (an
    infeasible schedule space); an objective below the exact optimum is a
    wrong answer.
    """
    why = check_answer(problem, solution, objective)
    if why is not None:
        return why, None
    optimum = exact_optimum(problem)
    if optimum is None:
        return None, None
    gap = relative_gap(objective, optimum)
    if gap is None:
        return f"objective {objective!r} below the exact optimum {optimum!r}", None
    return None, gap


def relative_gap(objective: float, optimum: float) -> "float | None":
    """``(objective - optimum) / |optimum|``; ``None`` if below the optimum.

    An objective below the exact optimum means the answer or the oracle is
    wrong, which the caller counts as a failed check.
    """
    if objective < optimum and not _close(objective, optimum):
        return None
    return max(0.0, objective - optimum) / max(abs(optimum), 1e-12)
