"""Classical simulated annealing for QUBO models.

Every read of one solve is a row of one stacked ``(reads, n)`` matrix, and
the sweep loop runs once for the whole stack: each step flips one variable
in every row at once.  Rows carry their own inverse temperature and their
own per-sweep visiting order (applied through gather indices), so the
default two-schedule portfolio costs one sweep loop, not two.  All random
draws are taken before the loop, read group by read group, in the order a
sampler running each group alone would consume them — stacking changes the
speed, never the samples.
"""

from __future__ import annotations

import numpy as np

from repro.annealing.quench import greedy_quench
from repro.annealing.schedule import beta_range, geometric_beta_schedule, model_beta_range
from repro.exceptions import ReproError, require_count
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng


#: Flip direction ``1 - 2 x`` looked up by the bit ``x``.
_SIGN = np.array([1.0, -1.0])


class SimulatedAnnealingSolver:
    """Metropolis single-flip simulated annealing.

    Args:
        num_reads: Independent annealing runs (returned as separate samples).
        num_sweeps: Full variable sweeps per read.
        beta_schedule: Optional explicit inverse-temperature ladder, resampled
            to ``num_sweeps`` points.  By default the reads are split across
            a portfolio of two geometric ramps (see :meth:`solve`).
        quench: Finish each read with a greedy single-flip descent.
    """

    def __init__(
        self,
        num_reads: int = 32,
        num_sweeps: int = 256,
        beta_schedule: "np.ndarray | None" = None,
        quench: bool = True,
    ):
        self.num_reads = require_count("num_reads", num_reads)
        self.num_sweeps = require_count("num_sweeps", num_sweeps)
        if beta_schedule is not None:
            betas = np.asarray(beta_schedule, dtype=float)
            if betas.ndim != 1 or betas.size == 0 or not np.isfinite(betas).all():
                raise ReproError("beta_schedule must be a non-empty 1-d ladder of finite values")
        self.beta_schedule = beta_schedule
        self.quench = quench

    def solve(self, model: QuboModel, rng=None, blocks: "list[list[int]] | None" = None) -> SampleSet:
        """Anneal ``model``.

        ``blocks`` optionally lists variable groups proposed as collective
        flips once per sweep (in addition to single flips).  The annealer
        device passes its embedding chains here: collective chain flips
        model the multi-spin tunnelling of the physical machine, without
        which classical dynamics freeze at chain-flip barriers.

        Without an explicit ``beta_schedule`` the reads are split across a
        *portfolio* of two schedules — one scaled to the coefficient range
        (good mixing on small, homogeneous problems) and one to the
        per-variable field range (good freezing on heterogeneous
        penalty/chain problems) — and the results merged.  A single read
        uses the field-range schedule alone.
        """
        rng = ensure_rng(rng)
        info = {"solver": "simulated_annealing", "reads": self.num_reads, "sweeps": self.num_sweeps}
        if self.beta_schedule is not None:
            betas = self.beta_schedule
            if len(betas) != self.num_sweeps:
                betas = np.interp(
                    np.linspace(0, 1, self.num_sweeps), np.linspace(0, 1, len(betas)), betas
                )
            groups = [(betas, self.num_reads)]
        else:
            field = geometric_beta_schedule(*model_beta_range(model), self.num_sweeps)
            groups = [(field, self.num_reads)]
            if self.num_reads >= 2:
                half = self.num_reads // 2
                coeff = geometric_beta_schedule(
                    *beta_range(model.max_abs_coefficient()), self.num_sweeps
                )
                groups = [(coeff, self.num_reads - half), (field, half)]
                info["schedule_portfolio"] = {
                    "coeff_reads": self.num_reads - half,
                    "field_reads": half,
                }
        X, energies = self._anneal(model, rng, blocks, groups)
        return SampleSet.from_arrays(X, energies, info=info)

    def _anneal(self, model: QuboModel, rng, blocks, groups) -> tuple[np.ndarray, np.ndarray]:
        """Anneal read groups ``[(betas, reads), ...]`` as one row stack.

        Returns the final ``(reads, n)`` assignments and their energies.
        Initial fields and energies are computed group by group, so their
        floating-point rounding matches a sampler that runs each group on
        its own.
        """
        n = model.num_variables
        a, S = model.symmetric_couplings()
        sweeps = self.num_sweeps
        block_data = []
        for block in blocks or []:
            idx = np.array(sorted(block), dtype=int)
            block_data.append((idx, S[np.ix_(idx, idx)]))

        slices, stop = [], 0
        for _, reads in groups:
            slices.append(slice(stop, stop + reads))
            stop += reads
        X = np.empty((stop, n), dtype=np.int64)
        F = np.empty((stop, n))  # F[r, i] = sum_j S_ij x_j of read r
        neg_beta = np.empty((sweeps, stop))
        # visit[s, k, r]: the variable read r flips at step k of sweep s;
        # uniforms[s, k, r]: the uniform its Metropolis test consumes.
        visit = np.empty((sweeps, n, stop), dtype=np.intp)
        uniforms = np.empty((sweeps, n, stop))
        block_u = np.empty((sweeps, len(block_data), stop))
        for (betas, reads), rows in zip(groups, slices):
            start = rng.integers(0, 2, size=(reads, n))
            X[rows] = start
            F[rows] = start @ S
            neg_beta[:, rows] = -np.asarray(betas, dtype=float)[:, None]
            for s in range(sweeps):
                order = rng.permutation(n)
                visit[s, :, rows] = order[:, None]
                uniforms[s, :, rows] = rng.random((reads, n))[:, order].T
                for b in range(len(block_data)):
                    block_u[s, b, rows] = rng.random(reads)

        Xf, Ff = X.reshape(-1), F.reshape(-1)
        offsets = np.arange(stop) * n
        # The Metropolis test is ``u < exp(-beta * clip(delta, 0, 700))``.  As
        # ``u < 1``, a non-positive delta (``exp(-0) == 1``) always passes, so
        # no separate ``delta <= 0`` test is needed; ``np.clip`` is spelled
        # ``minimum(maximum())`` over preallocated bounds, since its wrapper
        # alone costs more than the arithmetic on a few reads.
        zero, cap = np.zeros(stop), np.full(stop, 700.0)
        for s in range(sweeps):
            nb = neg_beta[s]
            order = visit[s]
            for i, f, a_i, u in zip(order, order + offsets, a[order], uniforms[s]):
                x = Xf[f]
                d = _SIGN[x]
                accept = u < np.exp(nb * np.minimum(np.maximum(d * (a_i + Ff[f]), zero), cap))
                Xf[f] = x ^ accept
                # A rejected read adds exactly +-0.0: its fields stay put.
                F += (d * accept)[:, None] * S.take(i, axis=0)
            for b, (idx, S_bb) in enumerate(block_data):
                for rows in slices:
                    _flip_block(X[rows], F[rows], a, S, idx, S_bb, nb[rows], block_u[s, b, rows])
        if self.quench:
            X = greedy_quench(model, X)
        return X, np.concatenate([model.energies(X[rows]) for rows in slices])


def _flip_block(X, F, a, S, idx, S_bb, neg_beta, u) -> None:
    """Propose one collective flip of block ``idx`` in every row of a group.

    With ``d_i = 1 - 2 x_i``,
    ``dE = sum_i d_i (a_i + field_i) + sum_{i<j} S_ij d_i d_j`` (the second
    term corrects the double-counted intra-block couplings already present
    in the fields).  Runs in place on one read group's row views: per group,
    the reductions and the matrix product keep the shapes, and so the
    rounding, of a sampler that anneals each group on its own.
    """
    D = 1.0 - 2.0 * X[:, idx]
    cross = 0.5 * np.einsum("ri,ij,rj->r", D, S_bb, D)
    delta = (D * (a[idx] + F[:, idx])).sum(axis=1) + cross
    accept = u < np.exp(neg_beta * np.minimum(np.maximum(delta, 0.0), 700.0))
    if not accept.any():
        return
    rows = np.nonzero(accept)[0]
    X[np.ix_(rows, idx)] ^= 1
    F[rows] += D[accept] @ S[idx]
