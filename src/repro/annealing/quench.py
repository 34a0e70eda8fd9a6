"""Greedy single-flip quench shared by the annealing samplers."""

from __future__ import annotations

import numpy as np

from repro.qubo.model import QuboModel


def greedy_quench(model: QuboModel, rows: np.ndarray) -> np.ndarray:
    """Steepest-descent single-flip quench of each row to a local minimum.

    The physical annealer's final read-out happens deep in the classical
    regime; this quench plays that role after the sampler's dynamics stop.
    All rows descend together: each step flips, in every still-active row,
    the variable with the most negative energy delta (first index on ties),
    and a row drops out once no flip lowers its energy.  Returns a quenched
    integer copy of ``rows``.
    """
    a, S = model.symmetric_couplings()
    X = np.array(rows, dtype=int)
    # One matrix-vector product per row, as a per-row descent computes it.
    F = np.array([S @ x for x in X]).reshape(X.shape)
    at = np.arange(X.shape[0])
    active = np.ones(X.shape[0], dtype=bool)
    while X.size:
        deltas = (1 - 2 * X) * (a + F)
        i = deltas.argmin(axis=1)
        active &= deltas[at, i] < -1e-12
        if not active.any():
            break
        sign = (1 - 2 * X[at, i]) * active
        X[at, i] ^= active
        # S is exactly symmetric, so row i is column i; inactive rows add 0.
        F += sign[:, None] * S[i]
    return X
