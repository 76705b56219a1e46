"""Weighted-sum LP oracles over the [0,1] relaxation, one per problem kind.

Each minimises (w^T C).x subject to the problem's rows and 0 <= x <= 1 and
returns an optimal vertex of the relaxed polytope, the same one for the same w:

* ``knapsack``: Dantzig's greedy ("Discrete-variable extremum problems",
  1957): items of negative cost by cost per unit weight, ties by index, at
  most one fractional; zero-weight ones always enter.
* ``assignment``: ``scipy.optimize.linear_sum_assignment``, an integral vertex.
* ``general``: ``scipy.optimize.linprog`` with the HiGHS dual simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TribipError, ValidationError
from .model import KIND_ASSIGNMENT, KIND_KNAPSACK, Problem

INT_TOL = 1e-6


@dataclass
class LpSolveResult:
    """Outcome of one scalar LP solve."""

    status: str                      # optimal | infeasible
    x: np.ndarray | None             # structural values in [0,1], basic solution
    value: float | None


class RelaxationSolver:
    """LP relaxation oracle of one problem, dispatched on ``problem.kind``."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self._c_float = problem.C.astype(np.float64)

    def solve_weighted(self, w) -> LpSolveResult:
        """Minimise (w^T C) . x over the relaxation, w a nonnegative weight vector."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.problem.p,):
            raise DimensionError(f"weight vector must have length {self.problem.p}")
        if (w < 0).any() or not (w > 0).any():
            raise ValidationError("weights must be nonnegative and not all zero")
        c = w @ self._c_float
        if self.problem.kind == KIND_KNAPSACK:
            x = self._knapsack(c)
        elif self.problem.kind == KIND_ASSIGNMENT:
            x = self._assignment(c)
        else:
            x = self._general(c)
            if x is None:
                return LpSolveResult("infeasible", None, None)
        return LpSolveResult("optimal", x, float(c @ x))

    def _knapsack(self, c: np.ndarray) -> np.ndarray:
        a = self.problem.weights
        x = np.zeros(c.shape[0])
        take = c < 0
        x[take & (a == 0)] = 1.0
        items = np.flatnonzero(take & (a > 0))
        order = items[np.argsort(c[items] / a[items], kind="stable")]
        filled = np.cumsum(a[order])
        whole = int(np.searchsorted(filled, self.problem.capacity, side="right"))
        x[order[:whole]] = 1.0
        if whole < order.shape[0]:
            room = self.problem.capacity - (filled[whole - 1] if whole else 0)
            x[order[whole]] = room / a[order[whole]]
        return x

    def _assignment(self, c: np.ndarray) -> np.ndarray:
        # imported here: scipy.optimize adds ~0.1 s and ~12 MiB to every start-up
        from scipy.optimize import linear_sum_assignment

        t = self.problem.tasks
        agents, tasks = linear_sum_assignment(c.reshape(t, t))
        x = np.zeros(c.shape[0])
        x[agents * t + tasks] = 1.0
        return x

    def _general(self, c: np.ndarray) -> np.ndarray | None:
        # imported here: scipy.optimize adds ~0.1 s and ~12 MiB to every start-up
        from scipy.optimize import linprog

        p = self.problem
        sense = np.array(p.row_sense)
        flip = np.where(sense == ">=", -1, 1)
        ub, eq = sense != "=", sense == "="
        res = linprog(c, A_ub=(flip[:, None] * p.A)[ub], b_ub=(flip * p.b)[ub],
                      A_eq=p.A[eq], b_eq=p.b[eq], bounds=(0, 1), method="highs-ds")
        if res.status == 2:
            return None
        if res.status != 0:
            raise TribipError(f"LP solve failed: {res.message}")
        return np.clip(res.x, 0.0, 1.0) + 0.0      # + 0.0 turns -0.0 into 0.0


def solve_weighted_lp(problem: Problem, w) -> LpSolveResult:
    """One-shot weighted-sum LP over the relaxation of `problem`."""
    return RelaxationSolver(problem).solve_weighted(w)


def is_integral(x, tol: float = INT_TOL) -> bool:
    """True when every component is within tol of 0 or 1."""
    arr = np.asarray(x, dtype=np.float64)
    return bool(np.all(np.abs(arr - np.round(arr)) <= tol))
