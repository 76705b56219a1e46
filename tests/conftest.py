"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive results by the dumbest possible
means (full enumeration, pairwise scans, literal rank tables) so that they
stay independent of the code paths they check.
"""

import itertools

import numpy as np
import pytest

import tribip
from tribip.errors import DimensionError
from tribip.lp import INT_TOL

_MASK64 = (1 << 64) - 1


@pytest.fixture
def p_matrix_problem():
    """Four-item knapsack with the worked-example profit matrix, unit
    weights, capacity 4 (nothing binds)."""
    return tribip.knapsack_problem(
        [[4, 2, 3, 6], [5, 3, 1, 8], [6, 4, 2, 7]], [1, 1, 1, 1], 4)


class NaiveXoshiro256StarStar:
    """xoshiro256** stream seeded from a single integer via splitmix64, one
    output at a time on Python integers: the oracle of the block-generated
    `tribip.Xoshiro256StarStar`."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._s0, self._s1, self._s2, self._s3 = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        r = (s1 * 5) & _MASK64
        result = ((((r << 7) | (r >> 57)) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by 128-bit multiply-shift.

        The (negligible, < 2**-57 for n below a few hundred) modulo bias is
        accepted in exchange for a fixed one-draw-per-call contract.
        """
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return (self.next_u64() * n) >> 64


def next_outputs(rng):
    """The stream's next 4 outputs; this advances it.  Two streams at
    different positions give the same 4 outputs with probability about
    2**-256, so equal outputs stand for equal stream positions."""
    return tuple(rng.next_u64() for _ in range(4))


def dominates(a, b) -> bool:
    """True iff a <= b componentwise with a < b somewhere (minimisation)."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise DimensionError(f"points of different dimension: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


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


def naive_knapsack(problem, c):
    """Dantzig's greedy for one cost vector, one LP at a time: items of
    negative cost and positive weight by cost per unit weight (stable, so
    ties go to the lower index) while they fit, then one fractional item;
    negative-cost zero-weight items always enter."""
    a = problem.weights
    x = np.zeros(c.shape[0])
    take = c < 0
    x[take & (a == 0)] = 1.0
    items = np.flatnonzero(take & (a > 0))
    order = items[np.argsort(c[items] / a[items], kind="stable")]
    filled = np.cumsum(a[order])
    whole = int(np.searchsorted(filled, problem.capacity, side="right"))
    x[order[:whole]] = 1.0
    if whole < order.shape[0]:
        room = problem.capacity - (filled[whole - 1] if whole else 0)
        x[order[whole]] = room / a[order[whole]]
    return x


def naive_tolerant_dropped(y, point_tol):
    """Rows of y dropped by the LB set's final filter, from the full
    |y| x |y| x 3 difference tensor: dominated by another row by more than
    point_tol, or within point_tol of an earlier row in every coordinate."""
    diff = y[:, None, :] - y[None, :, :]                  # diff[j, i] = y_j - y_i
    dominates = (diff <= point_tol).all(axis=2) & (diff < -point_tol).any(axis=2)
    duplicate = (np.abs(diff) <= point_tol).all(axis=2)
    earlier = np.triu(np.ones(len(y), dtype=bool), k=1)  # earlier[j, i]: j < i
    return dominates.any(axis=0) | (duplicate & earlier).any(axis=0)


def similarity(a, b) -> int:
    """Number of positions with equal variable values."""
    return int(np.count_nonzero(np.asarray(a) == np.asarray(b)))


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


def naive_round_down(lb, problem, int_tol=INT_TOL):
    """Reference round-down: one LB point at a time, checked by
    `tribip.is_feasible`, with the IR order, provenance, drop count and
    warning of `tribip.round_down`."""
    ir = tribip.IrSet()
    for idx, point in enumerate(lb.points):
        x = (np.asarray(point.x) >= 1.0 - int_tol).astype(np.int8)
        y = tuple(int(v) for v in problem.C @ x.astype(np.int64))
        if not tribip.is_feasible(problem, x):
            ir.dropped_infeasible += 1
            continue
        ir.add(tribip.Solution(x, y, True), lb_index=idx)
    if ir.dropped_infeasible:
        tribip.heuristic.log.warning("round_down dropped %d infeasible rounded solutions",
                                     ir.dropped_infeasible)
    if len(ir) == 0:
        raise tribip.NoRoundedSolutionError("no feasible rounded solution; report the LB set instead")
    return ir


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
        return ir.rows[i], ir.rows[g]
    xs = ir.x_matrix()
    sims = np.array([similarity(xs[i], row) for row in xs])
    if rule == "sim":
        sims[i] = -1
        g = int(np.argmax(sims))
    else:
        sims[i] = xs.shape[1] + 1
        g = int(np.argmin(sims))
    return ir.rows[i], ir.rows[g]


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
    the same IR updates as `tribip.path_relink_walk`; s_i and s_g are IR rows
    or Solutions."""
    visits = []
    key_g = s_g.key()
    x_g = np.frombuffer(key_g, dtype=np.int8)
    state = _WalkState(problem, np.frombuffer(s_i.key(), dtype=np.int8))
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
                ir.add(tribip.Solution(state.x.copy(), tuple(int(v) for v in state.y), True))
    return visits
