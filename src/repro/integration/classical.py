"""Classical schema-matching baselines."""

from __future__ import annotations

import numpy as np

from repro.integration.qubo import MatchKey
from repro.integration.schema import Schema
from repro.integration.similarity import combined_similarity


def hungarian_matching(
    source: Schema, target: Schema, threshold: float = 0.25
) -> dict[str, str]:
    """Optimal one-to-one matching by the Hungarian algorithm.

    Maximises total similarity; pairs below ``threshold`` are never matched
    (enforced via dummy columns), so the result is directly comparable with
    the QUBO optimum.
    """
    rows = source.attribute_names
    cols = target.attribute_names
    sim = np.zeros((len(rows), len(cols)))
    for i, a in enumerate(source):
        for j, b in enumerate(target):
            sim[i, j] = combined_similarity(a, b)
    # Pad to square with zeros ("match to nothing" option).
    size = max(len(rows), len(cols)) + len(rows)
    padded = np.zeros((size, size))
    padded[: len(rows), : len(cols)] = np.where(sim >= threshold, sim, 0.0)
    # Imported on use: scipy would nearly double the resident size of `import repro`.
    from scipy.optimize import linear_sum_assignment

    r_idx, c_idx = linear_sum_assignment(-padded)
    result: dict[str, str] = {}
    for i, j in zip(r_idx, c_idx):
        if i < len(rows) and j < len(cols) and padded[i, j] > 0:
            result[rows[i]] = cols[j]
    return result


def greedy_matching(
    source: Schema, target: Schema, threshold: float = 0.25
) -> dict[str, str]:
    """Greedy best-pair-first matching (the common heuristic baseline)."""
    pairs: list[tuple[float, MatchKey]] = []
    for a in source:
        for b in target:
            s = combined_similarity(a, b)
            if s >= threshold:
                pairs.append((s, (a.name, b.name)))
    pairs.sort(reverse=True)
    used_a: set[str] = set()
    used_b: set[str] = set()
    result: dict[str, str] = {}
    for _, (a, b) in pairs:
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        result[a] = b
    return result
