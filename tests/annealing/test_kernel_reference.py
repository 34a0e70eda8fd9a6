"""Byte-identity of the array-native sampler kernels against frozen copies.

The SA kernel stacks all reads (both schedules of the default portfolio)
into one sweep loop, the greedy quench descends all rows at once, and tabu
runs its restarts as one array program.  None of that may change a single
sample: seeded results feed the result cache, the golden fingerprints and
the service's bit-identity contract.  The reference classes below are
frozen copies (the logic verbatim) of the per-schedule SA sampler, the
per-row quench and the restart-at-a-time tabu search they replaced; every
test runs both on the same seed and compares whole ``SampleSet``s (bits,
energies, multiplicities and ``info``) on the five canonical Table I
instances plus 12- and 24-variable MQO.
"""

import numpy as np
import pytest

import repro.annealing.sqa as sqa_module
from repro.annealing.device import AnnealerDevice
from repro.annealing.quench import greedy_quench
from repro.annealing.schedule import geometric_beta_schedule, model_beta_range
from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
from repro.annealing.sqa import SimulatedQuantumAnnealingSolver
from repro.api import (
    BushyJoinAdapter,
    LeftDeepJoinAdapter,
    MQOAdapter,
    SchemaMatchingAdapter,
    TxnScheduleAdapter,
)
from repro.db.generator import chain_query
from repro.integration.generator import generate_schema_pair
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import Sample, SampleSet
from repro.qubo.tabu import TabuSolver
from repro.txn.generator import generate_transactions
from repro.utils.rngtools import ensure_rng

# -- frozen reference kernels ----------------------------------------------------


def _greedy_quench(model: QuboModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steepest-descent single-flip quench of each row to a local minimum.

    The physical annealer's final read-out happens deep in the classical
    regime; this quench plays that role after the Trotter dynamics stop.
    """
    a, S = model.symmetric_couplings()
    rows = np.array(rows, dtype=int)
    for r in range(rows.shape[0]):
        x = rows[r]
        fields = S @ x
        while True:
            deltas = (1 - 2 * x) * (a + fields)
            i = int(np.argmin(deltas))
            if deltas[i] >= -1e-12:
                break
            sign = 1 - 2 * x[i]
            x[i] ^= 1
            fields += S[:, i] * sign
    return rows, model.energies(rows)


class ReferenceSimulatedAnnealing:
    """Metropolis single-flip simulated annealing, one schedule at a time."""

    def __init__(self, num_reads=32, num_sweeps=256, beta_schedule=None, quench=True):
        self.num_reads = num_reads
        self.num_sweeps = num_sweeps
        self.beta_schedule = beta_schedule
        self.quench = quench

    def solve(self, model, rng=None, blocks=None):
        rng = ensure_rng(rng)
        if self.beta_schedule is None and self.num_reads >= 2:
            return self._solve_portfolio(model, rng, blocks)
        return self._solve_single(model, rng, blocks, self.beta_schedule, self.num_reads)

    def _solve_portfolio(self, model, rng, blocks):
        from repro.annealing.schedule import beta_range

        half = self.num_reads // 2
        lo_f, hi_f = model_beta_range(model)
        field_sched = geometric_beta_schedule(lo_f, hi_f, self.num_sweeps)
        lo_c, hi_c = beta_range(model.max_abs_coefficient())
        coeff_sched = geometric_beta_schedule(lo_c, hi_c, self.num_sweeps)
        first = self._solve_single(model, rng, blocks, coeff_sched, self.num_reads - half)
        second = self._solve_single(model, rng, blocks, field_sched, half)
        info = {**first.info, **second.info}
        info["schedule_portfolio"] = {
            "coeff_reads": self.num_reads - half,
            "field_reads": half,
        }
        return SampleSet(list(first) + list(second), info=info)

    def _solve_single(self, model, rng, blocks, beta_schedule, num_reads):
        n = model.num_variables
        a, S = model.symmetric_couplings()
        betas = beta_schedule
        if betas is None:
            lo, hi = model_beta_range(model)
            betas = geometric_beta_schedule(lo, hi, self.num_sweeps)
        elif len(betas) != self.num_sweeps:
            betas = np.interp(
                np.linspace(0, 1, self.num_sweeps), np.linspace(0, 1, len(betas)), betas
            )
        block_data = []
        for block in blocks or []:
            idx = np.array(sorted(block), dtype=int)
            block_data.append((idx, S[np.ix_(idx, idx)]))

        reads = num_reads
        X = rng.integers(0, 2, size=(reads, n))
        fields = X @ S  # (reads, n): sum_j S_ij x_j per read
        for beta in betas:
            order = rng.permutation(n)
            # One uniform draw per (read, variable) for the whole sweep.
            uniforms = rng.random((reads, n))
            for i in order:
                delta = (1 - 2 * X[:, i]) * (a[i] + fields[:, i])
                accept = (delta <= 0) | (uniforms[:, i] < np.exp(-beta * np.clip(delta, 0, 700)))
                if not accept.any():
                    continue
                signs = (1 - 2 * X[accept, i]).astype(float)
                X[accept, i] ^= 1
                fields[accept] += np.outer(signs, S[i])
            for idx, S_bb in block_data:
                D = 1.0 - 2.0 * X[:, idx]
                cross = 0.5 * np.einsum("ri,ij,rj->r", D, S_bb, D)
                delta = (D * (a[idx] + fields[:, idx])).sum(axis=1) + cross
                u = rng.random(reads)
                accept = (delta <= 0) | (u < np.exp(-beta * np.clip(delta, 0, 700)))
                if not accept.any():
                    continue
                Da = D[accept]
                rows = np.nonzero(accept)[0]
                X[np.ix_(rows, idx)] ^= 1
                fields[rows] += Da @ S[idx]
        if self.quench:
            X, energies = _greedy_quench(model, X)
        else:
            energies = model.energies(X)
        return SampleSet.from_arrays(
            X,
            energies,
            info={"solver": "simulated_annealing", "reads": self.num_reads, "sweeps": self.num_sweeps},
        )


class ReferenceTabu:
    """Multi-restart single-flip tabu search, one restart at a time."""

    def __init__(self, num_restarts=8, max_iterations=500, tenure=None):
        self.num_restarts = num_restarts
        self.max_iterations = max_iterations
        self.tenure = tenure

    def solve(self, model, rng=None):
        rng = ensure_rng(rng)
        n = model.num_variables
        a, S = model.symmetric_couplings()
        tenure = self.tenure if self.tenure is not None else max(4, n // 4)
        samples = []
        for _ in range(self.num_restarts):
            x = rng.integers(0, 2, size=n)
            best_x, best_e = self._search(model, x, a, S, tenure, rng)
            samples.append(Sample(tuple(int(b) for b in best_x), best_e))
        return SampleSet(samples, info={"solver": "tabu", "restarts": self.num_restarts})

    def _search(self, model, x, a, S, tenure, rng):
        n = x.shape[0]
        fields = S @ x
        energy = model.energy(x)
        best_x, best_e = x.copy(), energy
        tabu_until = np.zeros(n, dtype=int)
        for it in range(self.max_iterations):
            deltas = (1 - 2 * x) * (a + fields)
            allowed = tabu_until <= it
            # Aspiration: a tabu move is allowed if it beats the incumbent.
            aspiring = energy + deltas < best_e - 1e-12
            candidates = np.where(allowed | aspiring)[0]
            if candidates.size == 0:
                break
            i = candidates[np.argmin(deltas[candidates])]
            energy += deltas[i]
            delta_sign = 1 - 2 * x[i]
            x[i] ^= 1
            fields += S[:, i] * delta_sign
            tabu_until[i] = it + tenure
            if energy < best_e - 1e-12:
                best_e = energy
                best_x = x.copy()
        return best_x, float(best_e)


# -- instances --------------------------------------------------------------------


def _models():
    source, target, _ = generate_schema_pair(5, rng=7)
    problems = {
        "mqo": MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=7)),
        "joinorder_leftdeep": LeftDeepJoinAdapter(chain_query(4, rng=7)),
        "joinorder_bushy": BushyJoinAdapter(chain_query(4, rng=7)),
        "schema_matching": SchemaMatchingAdapter(source, target),
        "txn_schedule": TxnScheduleAdapter(generate_transactions(4, rng=7)),
        "mqo12": MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=11)),
        "mqo24": MQOAdapter(generate_mqo_problem(8, 3, sharing_density=0.4, rng=11)),
    }
    return {name: problem.to_qubo() for name, problem in problems.items()}


MODELS = _models()


def _as_tuple(samples: SampleSet):
    return [(s.bits, s.energy, s.num_occurrences) for s in samples], samples.info


@pytest.fixture
def seed(rng):
    """A solve seed drawn from the suite's (``REPRO_TEST_SEED``) stream."""
    return int(rng.integers(0, 2**31))


def test_reference_instances_cover_the_sizes():
    assert MODELS["mqo12"].num_variables == 12
    assert MODELS["mqo24"].num_variables == 24


# -- simulated annealing ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize(
    "options",
    [
        {"num_reads": 8},
        {"num_reads": 7},
        {"num_reads": 1},
        {"num_reads": 4, "beta_schedule": np.array([0.1, 1.0, 10.0])},
        {"num_reads": 5, "quench": False},
    ],
    ids=["even_reads", "odd_reads", "one_read", "resampled_schedule", "no_quench"],
)
def test_sa_matches_reference(name, options, seed):
    model = MODELS[name]
    options = {"num_sweeps": 30, **options}
    got = SimulatedAnnealingSolver(**options).solve(model, rng=seed)
    want = ReferenceSimulatedAnnealing(**options).solve(model, rng=seed)
    assert _as_tuple(got) == _as_tuple(want)


@pytest.mark.parametrize("name", ["mqo", "mqo12"])
@pytest.mark.parametrize("num_reads", [6, 5])
def test_sa_chain_blocks_through_the_annealer_match_reference(name, num_reads, seed):
    model = MODELS[name]
    device = AnnealerDevice(sampler="sa", num_reads=num_reads, num_sweeps=20)
    embedding = device.find_embedding(model, rng=seed)
    assert max(len(chain) for chain in embedding.values()) > 1  # blocks are proposed
    got = device.sample(model, rng=seed, embedding=embedding)
    device._sampler = ReferenceSimulatedAnnealing(num_reads=num_reads, num_sweeps=20)
    want = device.sample(model, rng=seed, embedding=embedding)
    assert _as_tuple(got) == _as_tuple(want)


# -- greedy quench (shared by SA and SQA) ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sqa_through_the_shared_quench_matches_reference(name, seed, monkeypatch):
    model = MODELS[name]
    solver = SimulatedQuantumAnnealingSolver(num_reads=5, num_sweeps=8, num_slices=4)
    got = solver.solve(model, rng=seed)
    monkeypatch.setattr(sqa_module, "greedy_quench", lambda m, rows: _greedy_quench(m, rows)[0])
    want = solver.solve(model, rng=seed)
    assert _as_tuple(got) == _as_tuple(want)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_quench_of_random_rows_matches_reference(name, seed):
    model = MODELS[name]
    rows = np.random.default_rng(seed).integers(0, 2, size=(9, model.num_variables))
    got = greedy_quench(model, rows)
    want, _ = _greedy_quench(model, rows)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# -- tabu ---------------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize(
    "options",
    [{}, {"num_restarts": 3, "max_iterations": 60, "tenure": 2}, {"num_restarts": 1}],
    ids=["default", "explicit_tenure", "one_restart"],
)
def test_tabu_matches_reference(name, options, seed):
    model = MODELS[name]
    got = TabuSolver(**options).solve(model, rng=seed)
    want = ReferenceTabu(**options).solve(model, rng=seed)
    assert _as_tuple(got) == _as_tuple(want)


def test_tabu_with_an_emptying_candidate_set_matches_reference(seed):
    """Every restart stops early: its candidate set runs empty.

    With ``x_i`` all costing +1 and no couplings, steepest descent first
    clears every set bit (each move a new incumbent), then has to set
    unset ones.  Once all five variables are tabu (tenure 10 > 5 moves),
    no flip beats the incumbent 0, so no move is allowed or aspiring.
    """
    model = QuboModel(5)
    for i in range(5):
        model.add_linear(i, 1.0)
    got = TabuSolver(num_restarts=6, max_iterations=50, tenure=10).solve(model, rng=seed)
    want = ReferenceTabu(num_restarts=6, max_iterations=50, tenure=10).solve(model, rng=seed)
    assert _as_tuple(got) == _as_tuple(want)
    assert got.best.bits == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("name", ["joinorder_leftdeep", "mqo24"])
def test_tabu_with_restarts_stopping_at_different_iterations_matches_reference(name, seed):
    """A tenure above ``n`` empties each restart's candidate set at an
    iteration that depends on its start, so restarts leave the array
    program one by one while the others keep searching."""
    model = MODELS[name]
    options = {"num_restarts": 8, "max_iterations": 80, "tenure": model.num_variables + 1}
    got = TabuSolver(**options).solve(model, rng=seed)
    want = ReferenceTabu(**options).solve(model, rng=seed)
    assert _as_tuple(got) == _as_tuple(want)
