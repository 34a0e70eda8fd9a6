"""The MILP/BILP intermediate formulation of join ordering, and BILP -> QUBO.

Schonberger et al. [24] derive their QUBO through a chain
``JO -> MILP -> BILP -> QUBO``.  This module reproduces that pipeline:

* :class:`Bilp` — binary integer linear programs with equality constraints
  and binary implications (``x_i <= x_j``);
* :func:`solve_branch_and_bound` — a small exact solver on scipy's LP
  relaxation;
* :func:`formulate_leftdeep_bilp` — left-deep join ordering with linearised
  prefix-pair variables;
* :func:`bilp_to_qubo` — the penalty transformation to QUBO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.query import JoinGraph
from repro.exceptions import InfeasibleError, ReproError
from repro.qubo.model import QuboModel


@dataclass
class Bilp:
    """``min c.x`` s.t. ``A_eq x = b_eq``, ``x_i <= x_j`` implications, x binary.

    Variables carry hashable labels (parallel to :class:`QuboModel`).
    """

    labels: list = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    equalities: list[tuple[dict[int, float], float]] = field(default_factory=list)
    implications: list[tuple[int, int]] = field(default_factory=list)  # (i, j): x_i <= x_j

    def variable(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            self.labels.append(label)
            return len(self.labels) - 1

    @property
    def num_variables(self) -> int:
        return len(self.labels)

    def set_objective(self, label, coeff: float) -> None:
        self.objective[self.variable(label)] = self.objective.get(self.variable(label), 0.0) + coeff

    def add_equality(self, coeffs: dict, rhs: float) -> None:
        self.equalities.append(({self.variable(k): v for k, v in coeffs.items()}, rhs))

    def add_implication(self, smaller, larger) -> None:
        """Constrain ``x_smaller <= x_larger``."""
        self.implications.append((self.variable(smaller), self.variable(larger)))

    def is_feasible(self, bits: np.ndarray, atol: float = 1e-9) -> bool:
        for coeffs, rhs in self.equalities:
            total = sum(v * bits[i] for i, v in coeffs.items())
            if abs(total - rhs) > atol:
                return False
        return all(bits[i] <= bits[j] for i, j in self.implications)

    def objective_value(self, bits: np.ndarray) -> float:
        return float(sum(v * bits[i] for i, v in self.objective.items()))


def _lp_relaxation(bilp: Bilp, fixed: dict[int, int]):
    n = bilp.num_variables
    c = np.zeros(n)
    for i, v in bilp.objective.items():
        c[i] = v
    a_eq = np.zeros((len(bilp.equalities), n))
    b_eq = np.zeros(len(bilp.equalities))
    for row, (coeffs, rhs) in enumerate(bilp.equalities):
        for i, v in coeffs.items():
            a_eq[row, i] = v
        b_eq[row] = rhs
    a_ub = np.zeros((len(bilp.implications), n))
    for row, (i, j) in enumerate(bilp.implications):
        a_ub[row, i] = 1.0
        a_ub[row, j] = -1.0
    b_ub = np.zeros(len(bilp.implications))
    bounds = []
    for i in range(n):
        if i in fixed:
            bounds.append((fixed[i], fixed[i]))
        else:
            bounds.append((0.0, 1.0))
    # Imported on use: scipy would nearly double the resident size of `import repro`.
    from scipy.optimize import linprog

    return linprog(
        c,
        A_eq=a_eq if len(bilp.equalities) else None,
        b_eq=b_eq if len(bilp.equalities) else None,
        A_ub=a_ub if len(bilp.implications) else None,
        b_ub=b_ub if len(bilp.implications) else None,
        bounds=bounds,
        method="highs",
    )


def solve_branch_and_bound(bilp: Bilp, max_nodes: int = 20_000) -> tuple[np.ndarray, float]:
    """Exact BILP optimum via LP-relaxation branch and bound."""
    best_bits: "np.ndarray | None" = None
    best_value = float("inf")
    stack: list[dict[int, int]] = [{}]
    nodes = 0
    while stack:
        fixed = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise ReproError("branch and bound exceeded node limit")
        res = _lp_relaxation(bilp, fixed)
        if not res.success:
            continue
        if res.fun >= best_value - 1e-12:
            continue
        x = np.clip(res.x, 0.0, 1.0)
        frac = np.where((x > 1e-6) & (x < 1 - 1e-6))[0]
        if frac.size == 0:
            bits = np.round(x).astype(int)
            if bilp.is_feasible(bits):
                value = bilp.objective_value(bits)
                if value < best_value:
                    best_value = value
                    best_bits = bits
            continue
        branch_var = int(frac[np.argmax(np.minimum(x[frac], 1 - x[frac]))])
        for val in (0, 1):
            child = dict(fixed)
            child[branch_var] = val
            stack.append(child)
    if best_bits is None:
        raise InfeasibleError("BILP has no feasible binary solution")
    return best_bits, best_value


def bilp_to_qubo(bilp: Bilp, penalty: "float | None" = None) -> QuboModel:
    """Penalty transformation: equalities squared, implications as x(1-y)."""
    if penalty is None:
        swing = sum(abs(v) for v in bilp.objective.values()) + 1.0
        penalty = swing
    model = QuboModel()
    for label in bilp.labels:
        model.variable(label)
    for i, v in bilp.objective.items():
        model.add_linear(bilp.labels[i], v)
    for coeffs, rhs in bilp.equalities:
        # penalty * (sum coeffs - rhs)^2
        items = list(coeffs.items())
        model.add_offset(penalty * rhs * rhs)
        for i, v in items:
            model.add_linear(bilp.labels[i], penalty * (v * v - 2.0 * rhs * v))
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                i, vi = items[a]
                j, vj = items[b]
                model.add_quadratic(bilp.labels[i], bilp.labels[j], 2.0 * penalty * vi * vj)
    for i, j in bilp.implications:
        # x_i <= x_j  <=>  penalise x_i (1 - x_j).
        model.add_linear(bilp.labels[i], penalty)
        model.add_quadratic(bilp.labels[i], bilp.labels[j], -penalty)
    return model


def formulate_leftdeep_bilp(graph: JoinGraph) -> Bilp:
    """Left-deep join ordering as a BILP with linearised prefix pairs.

    Variables:

    * ``("x", r, pos)`` — relation r at position pos (permutation matrix);
    * ``("z", edge, s)`` — both endpoints of ``edge`` inside the length-s
      prefix.  ``z <= y_a`` and ``z <= y_b`` (with ``y`` the prefix
      indicator, a sum of x's) are enforced via one auxiliary per (edge, s):
      because selectivity log-coefficients are negative, the minimiser
      pushes ``z`` to ``min(y_a, y_b)``, which is the AND for binaries.

    Objective: the same log-cost surrogate as
    :class:`~repro.joinorder.leftdeep_qubo.LeftDeepJoinQubo`.
    """
    bilp = Bilp()
    rels = graph.relations
    n = len(rels)
    for r in rels:
        for pos in range(n):
            bilp.variable(("x", r, pos))
    # Permutation constraints.
    for r in rels:
        bilp.add_equality({("x", r, pos): 1.0 for pos in range(n)}, 1.0)
    for pos in range(n):
        bilp.add_equality({("x", r, pos): 1.0 for r in rels}, 1.0)
    # Linear part of the objective (prefix counts, as in the QUBO).
    for r in rels:
        lc = math.log10(graph.cardinality(r))
        for pos in range(n):
            count = n - max(pos + 1, 2) + 1
            if count > 0:
                bilp.set_objective(("x", r, pos), lc * count)
    # Prefix-pair variables for each edge and prefix length s = 2..n-1
    # (the s = n prefix holds for every permutation: constant, skipped).
    for a, b in graph.edges:
        ls = math.log10(graph.selectivity(a, b))
        for s in range(2, n):
            z = ("z", (a, b), s)
            bilp.variable(z)
            bilp.set_objective(z, ls)
            # z <= y_a(s) and z <= y_b(s): since y is a 0/1 *sum* of x's we
            # link z to each position variable via one implication per
            # prefix: z <= sum_{pos<s} x[a,pos] can't be a plain binary
            # implication, so introduce it as an equality-free bound by
            # implying from z to an auxiliary "a in prefix s" indicator.
            ya = ("y", a, s)
            yb = ("y", b, s)
            bilp.variable(ya)
            bilp.variable(yb)
            bilp.add_implication(z, ya)
            bilp.add_implication(z, yb)
    # Tie each y indicator to the permutation: y[r, s] = sum_{pos < s} x[r, pos].
    seen_y = {label for label in bilp.labels if isinstance(label, tuple) and label[0] == "y"}
    for label in sorted(seen_y, key=str):
        _, r, s = label
        coeffs = {("x", r, pos): 1.0 for pos in range(s)}
        coeffs[label] = -1.0
        bilp.add_equality(coeffs, 0.0)
    return bilp


def decode_leftdeep_bilp(bilp: Bilp, bits: np.ndarray, graph: JoinGraph) -> list[str]:
    """Extract the join order from a BILP solution."""
    n = graph.num_relations
    order: list[str] = []
    for pos in range(n):
        for r in graph.relations:
            idx = bilp.labels.index(("x", r, pos))
            if bits[idx] == 1:
                order.append(r)
                break
    if len(order) != n:
        raise InfeasibleError("BILP solution is not a permutation")
    return order
