"""Weighted-sum LP oracles over the [0,1] relaxation, one per problem kind.

Each minimises (w^T C).x subject to the problem's rows and 0 <= x <= 1 and
finds an optimal vertex of the relaxed polytope, the same one for the same w.
`RelaxationSolver.solve_weighted` returns one LP's (value, x) and
`solve_weighted_many` the values and vertices of many; both raise
InfeasibleProblemError when the relaxation has no feasible point.  Every
non-knapsack LP goes through `solve_weighted`.

* ``knapsack``: Dantzig's greedy ("Discrete-variable extremum problems",
  1957): items of negative cost by cost per unit weight, ties by index, at
  most one fractional; zero-weight ones always enter.  `solve_weighted_many`
  runs it on many weight vectors at once (row-wise sort and prefix sums);
  a single LP is a batch of one.
* ``assignment``: ``scipy.optimize.linear_sum_assignment``, an integral vertex.
* ``general``: ``scipy.optimize.linprog`` with the HiGHS dual simplex.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InfeasibleProblemError, TribipError, ValidationError
from .model import KIND_ASSIGNMENT, KIND_KNAPSACK, Problem

INT_TOL = 1e-6


class RelaxationSolver:
    """LP relaxation oracle of one problem, dispatched on ``problem.kind``."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self._c_float = problem.C.astype(np.float64)

    def solve_weighted(self, w) -> tuple[float, np.ndarray]:
        """Optimal value and vertex x of min (w^T C) . x over the relaxation,
        w a nonnegative weight vector."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.problem.p,):
            raise DimensionError(f"weight vector must have length {self.problem.p}")
        cs = self._costs(w[None, :])
        c = cs[0]
        if self.problem.kind == KIND_KNAPSACK:
            x = self._knapsack(cs)[0]
        elif self.problem.kind == KIND_ASSIGNMENT:
            x = self._assignment(c)
        else:
            x = self._general(c)
        return float(c @ x), x

    def solve_weighted_many(self, ws) -> tuple[np.ndarray, np.ndarray]:
        """Optimal values and vertices (rows) of `solve_weighted` for every
        weight vector in ws, in order; knapsack LPs are solved together by
        one greedy pass over all their cost rows."""
        ws = np.asarray(ws, dtype=np.float64)
        if ws.ndim != 2 or ws.shape[1] != self.problem.p:
            raise DimensionError(f"weight vectors must have length {self.problem.p}")
        if self.problem.kind != KIND_KNAPSACK:
            solved = [self.solve_weighted(w) for w in ws]
            return (np.array([value for value, _ in solved]),
                    np.array([x for _, x in solved]).reshape(-1, self.problem.n))
        cs = self._costs(ws)
        xs = self._knapsack(cs)
        return np.matmul(cs[:, None, :], xs[:, :, None])[:, 0, 0], xs   # c @ x per row

    def _costs(self, ws: np.ndarray) -> np.ndarray:
        """Cost row w @ C of each weight row w of ws; every row is checked.

        A stacked matmul computes each row by the same vector-matrix product
        as ``w @ C``, so the rows are bitwise those of one LP at a time; the
        2-D ``ws @ C`` is another BLAS call whose rows can differ in the last
        bits."""
        if (ws < 0).any() or not (ws > 0).any(axis=1).all():
            raise ValidationError("weights must be nonnegative and not all zero")
        return np.matmul(ws[:, None, :], self._c_float)[:, 0]

    def _knapsack(self, cs: np.ndarray) -> np.ndarray:
        """Greedy optimum of each cost row of cs, one LP per row."""
        a, capacity = self.problem.weights, self.problem.capacity
        take = cs < 0
        item = take & (a > 0)
        # items first, by cost per unit weight with ties by index; the rest at +inf
        ratio = np.divide(cs, a, out=np.full(cs.shape, np.inf), where=item)
        order = np.argsort(ratio, axis=1, kind="stable")
        filled = np.cumsum(a[order], axis=1)
        items = item.sum(axis=1)
        whole = np.minimum((filled <= capacity).sum(axis=1), items)
        # flat position in cs of each entry in sorted order
        k, n = cs.shape
        flat = (order + np.arange(0, k * n, n)[:, None]).ravel()
        # x in sorted order: zero-weight items taken, whole items, one fractional
        xs = (take & (a == 0)).ravel()[flat].astype(np.float64).reshape(k, n)
        xs[np.arange(n) < whole[:, None]] = 1.0
        rows = np.flatnonzero(whole < items)
        at = whole[rows]
        room = capacity - np.where(at > 0, filled[rows, at - 1], 0)
        xs[rows, at] = room / a[order[rows, at]]
        x = np.empty(k * n)
        x[flat] = xs.ravel()
        return x.reshape(k, n)

    def _assignment(self, c: np.ndarray) -> np.ndarray:
        # imported here, not at start-up; `compute_lb_set` loads it before its
        # timer starts, so this is a cache hit there
        from scipy.optimize import linear_sum_assignment

        t = self.problem.tasks
        agents, tasks = linear_sum_assignment(c.reshape(t, t))
        x = np.zeros(c.shape[0])
        x[agents * t + tasks] = 1.0
        return x

    def _general(self, c: np.ndarray) -> np.ndarray:
        # imported here, not at start-up; `compute_lb_set` loads it before its
        # timer starts, so this is a cache hit there
        from scipy.optimize import linprog

        p = self.problem
        sense = np.array(p.row_sense)
        flip = np.where(sense == ">=", -1, 1)
        ub, eq = sense != "=", sense == "="
        res = linprog(c, A_ub=(flip[:, None] * p.A)[ub], b_ub=(flip * p.b)[ub],
                      A_eq=p.A[eq], b_eq=p.b[eq], bounds=(0, 1), method="highs-ds")
        if res.status == 2:
            raise InfeasibleProblemError("LP relaxation is infeasible")
        if res.status != 0:
            raise TribipError(f"LP solve failed: {res.message}")
        return np.clip(res.x, 0.0, 1.0) + 0.0      # + 0.0 turns -0.0 into 0.0

