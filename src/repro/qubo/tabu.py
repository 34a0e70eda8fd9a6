"""Tabu search over QUBO assignments.

A deterministic-neighbourhood local search with a recency-based tabu list —
the classical heuristic baseline the annealing solvers are compared against
(and a fallback solver for QUBOs too large to embed).

The restarts run as one ``(restarts, n)`` array program: every iteration
moves all still-live restarts at once.  The search is deterministic once its
start is drawn, so the starts are drawn first, one restart after another,
and each row keeps its own energy, incumbent and tabu state.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import require_count
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng

#: Flip direction ``1 - 2 x`` looked up by the bit ``x``.
_SIGN = np.array([1.0, -1.0])


class TabuSolver:
    """Multi-restart single-flip tabu search."""

    def __init__(self, num_restarts: int = 8, max_iterations: int = 500, tenure: "int | None" = None):
        self.num_restarts = require_count("num_restarts", num_restarts)
        self.max_iterations = require_count("max_iterations", max_iterations, minimum=0)
        self.tenure = None if tenure is None else require_count("tenure", tenure, minimum=0)

    def solve(self, model: QuboModel, rng=None) -> SampleSet:
        rng = ensure_rng(rng)
        n = model.num_variables
        a, S = model.symmetric_couplings()
        tenure = self.tenure if self.tenure is not None else max(4, n // 4)
        X = np.array([rng.integers(0, 2, size=n) for _ in range(self.num_restarts)])
        # Per-row products, as a one-restart-at-a-time search computes them.
        fields = np.array([S @ x for x in X]).reshape(X.shape)
        energy = np.array([model.energy(x) for x in X])
        best_x, best_e = X.copy(), energy.copy()
        tabu_until = np.zeros(X.shape, dtype=int)
        restart = np.arange(len(X))  # the restart each state row belongs to
        at = np.arange(len(X))
        for it in range(self.max_iterations):
            deltas = _SIGN[X] * (a + fields)
            bound = best_e[restart] - 1e-12
            # Aspiration: a tabu move is allowed if it beats the incumbent.
            candidates = (tabu_until <= it) | (energy[:, None] + deltas < bound[:, None])
            stuck = ~candidates.any(axis=1)
            if stuck.any():
                # A restart whose candidate set runs empty stops for good.
                state = restart, X, fields, energy, tabu_until, deltas, candidates, bound
                restart, X, fields, energy, tabu_until, deltas, candidates, bound = (
                    v[~stuck] for v in state
                )
                at = at[: len(restart)]
                if not len(restart):
                    break
            # Masked argmin: the first minimum among candidates, as argmin
            # over the ascending candidate index list picks it.
            i = np.where(candidates, deltas, np.inf).argmin(axis=1)
            energy += deltas[at, i]
            sign = _SIGN[X[at, i]]
            X[at, i] ^= 1
            # S is exactly symmetric, so row i is column i.
            fields += sign[:, None] * S[i]
            tabu_until[at, i] = it + tenure
            improved = energy < bound
            if improved.any():
                best_e[restart[improved]] = energy[improved]
                best_x[restart[improved]] = X[improved]
        return SampleSet.from_arrays(
            best_x, best_e, info={"solver": "tabu", "restarts": self.num_restarts}
        )
