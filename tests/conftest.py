"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive results by the dumbest possible
means (full enumeration, pairwise scans, literal rank tables) so that they
stay independent of the code paths they check.
"""

import itertools

import numpy as np
import pytest

import tribip


@pytest.fixture
def p_matrix_problem():
    """Four-item knapsack with the worked-example profit matrix, unit
    weights, capacity 4 (nothing binds)."""
    return tribip.knapsack_problem(
        [[4, 2, 3, 6], [5, 3, 1, 8], [6, 4, 2, 7]], [1, 1, 1, 1], 4)


def naive_filter(points):
    """O(n^2) pairwise nondominance oracle; duplicates collapsed; sorted."""
    pts = [tuple(int(v) for v in p) for p in points]
    out = []
    for p in set(pts):
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in set(pts)):
            out.append(p)
    return sorted(out)


def brute_force_front(problem):
    """Exact front by itertools enumeration (independent of metrics)."""
    pts = set()
    if problem.kind == "assignment":
        t = problem.tasks
        for perm in itertools.permutations(range(t)):
            x = np.zeros(problem.n, dtype=np.int8)
            for r, l in enumerate(perm):
                x[r * t + l] = 1
            pts.add(tribip.evaluate(problem, x))
    else:
        for bits in itertools.product((0, 1), repeat=problem.n):
            if tribip.is_feasible(problem, bits):
                pts.add(tribip.evaluate(problem, bits))
    return naive_filter(pts)


def brute_force_feasible_points(problem):
    """All feasible binary vectors with their objective points."""
    out = []
    for bits in itertools.product((0, 1), repeat=problem.n):
        if tribip.is_feasible(problem, bits):
            out.append((np.array(bits, dtype=np.int8), tribip.evaluate(problem, bits)))
    return out


def highs_lp_value(problem, w):
    """Weighted-sum LP optimum over the [0,1] relaxation by scipy's HiGHS,
    built straight from the problem's rows; None when infeasible."""
    from scipy.optimize import linprog

    c = np.asarray(w, dtype=float) @ problem.C.astype(float)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, rhs, sense in zip(problem.A, problem.b, problem.row_sense):
        if sense == "=":
            a_eq.append(row)
            b_eq.append(rhs)
        else:
            sign = 1 if sense == "<=" else -1
            a_ub.append(sign * row)
            b_ub.append(sign * rhs)
    res = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None, A_eq=a_eq or None,
                  b_eq=b_eq or None, bounds=(0, 1), method="highs")
    return float(res.fun) if res.status == 0 else None


NEAR_AXIS_WEIGHTS = [(1, 1e-4, 1e-4), (1e-4, 1, 1e-4), (1e-4, 1e-4, 1)]


def naive_improved_nd(obj_s_i, nd):
    """Literal rank-table implementation of the most-improved selection."""
    nd = [list(map(float, row)) for row in nd]
    k, p = len(nd), len(obj_s_i)
    ratio = [[0.0] * p for _ in range(k)]
    for i in range(k):
        for j in range(p):
            if obj_s_i[j] != 0:
                ratio[i][j] = nd[i][j] / obj_s_i[j]
            else:
                ratio[i][j] = -nd[i][j]
    rank = [[0] * p for _ in range(k)]
    for j in range(p):
        order = sorted(range(k), key=lambda i: (ratio[i][j], i))
        for pos, i in enumerate(order):
            rank[i][j] = pos + 1
    degree = [sum(rank[i]) for i in range(k)]
    best = max(degree)
    return degree.index(best)


def naive_select_pair(ir, rule, rng):
    """Reference pair selection: scans the whole IR matrix on every draw,
    with the same draws and tie rule (lowest index) as `tribip.select_pair`."""
    k = len(ir)
    if k < 2:
        raise tribip.InsufficientSolutionsError("path relinking needs at least two initial solutions")
    i = rng.randint(k)
    if rule == "random":
        g = rng.randint(k - 1)
        if g >= i:
            g += 1
        return ir.solutions[i], ir.solutions[g]
    xs = ir.x_matrix()
    sims = np.count_nonzero(xs == xs[i][None, :], axis=1)
    if rule == "sim":
        sims[i] = -1
        g = int(np.argmax(sims))
    else:
        sims[i] = xs.shape[1] + 1
        g = int(np.argmin(sims))
    return ir.solutions[i], ir.solutions[g]


def _nondominated_rows(y):
    """Mask of rows not strictly dominated by another row (duplicates all kept)."""
    le = (y[None, :, :] <= y[:, None, :]).all(axis=2)
    lt = (y[None, :, :] < y[:, None, :]).any(axis=2)
    return ~np.logical_and(le, lt).any(axis=1)


class _WalkState:
    """Incremental state of one relinking walk: current x, objective point,
    and constraint left-hand sides."""

    def __init__(self, problem, x0):
        self.problem = problem
        self.ct = problem.C.T.astype(np.int64)      # (n, 3)
        self.at = problem.A.T.astype(np.int64)      # (n, m)
        self.x = np.asarray(x0, dtype=np.int8).copy()
        xi = self.x.astype(np.int64)
        self.y = problem.C @ xi
        self.lhs = problem.A @ xi

    def advance(self, x_new, j):
        """Move to a neighbour that differs from the current x in bit j."""
        sign = 1 - 2 * int(self.x[j])
        self.x = x_new
        self.y += sign * self.ct[j]
        self.lhs += sign * self.at[j]

    def feasible(self):
        for i, sense in enumerate(self.problem.row_sense):
            v, rhs = int(self.lhs[i]), int(self.problem.b[i])
            if (sense == "<=" and v > rhs) or (sense == ">=" and v < rhs) \
                    or (sense == "=" and v != rhs):
                return False
        return True


def naive_path_relink_walk(problem, s_i, s_g, ir, archives, rng, best_move_prob,
                           collect_visits=False):
    """Reference walk: rebuilds the whole neighbourhood, its dominance and its
    ranks from the current point at every step, with the same draw order and
    the same archive updates as `tribip.path_relink_walk`."""
    visits = []
    key_g = s_g.key()
    x_g = np.asarray(s_g.x, dtype=np.int8)
    state = _WalkState(problem, s_i.x)
    ct = state.ct
    while True:
        key_cur = state.x.tobytes()
        if key_cur == key_g or (key_cur, key_g) in archives.ig_pairs:
            break
        delta = np.flatnonzero(state.x != x_g)
        neighborhood = np.repeat(state.x[None, :], delta.size, axis=0)
        neighborhood[np.arange(delta.size), delta] ^= 1
        coin = rng.random()
        if coin < best_move_prob:
            signs = (1 - 2 * state.x[delta]).astype(np.int64)
            y_nb = state.y[None, :] + signs[:, None] * ct[delta]
            nd_idx = np.flatnonzero(_nondominated_rows(y_nb))
            if nd_idx.size == 1:
                pick = int(nd_idx[0])
            else:
                pick = int(nd_idx[naive_improved_nd(state.y.tolist(), y_nb[nd_idx])])
        else:
            pick = int(rng.randint(delta.size))
        state.advance(neighborhood[pick], int(delta[pick]))
        if collect_visits:
            visits.append(state.x.copy())
        if state.feasible():
            key_new = state.x.tobytes()
            if key_new not in ir:
                sol = tribip.Solution(state.x.copy(), tuple(int(v) for v in state.y), True)
                archives.cand_x.append(sol)
                ir.add(sol)
    return visits
