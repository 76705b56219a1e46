"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive results by the dumbest possible
means (full enumeration, pairwise scans, literal rank tables) so that they
stay independent of the code paths they check.
"""

import itertools
from pathlib import Path

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


def solution_of(problem, x):
    """The checked `Solution` of the 0/1 vector x and its objective point."""
    return tribip.Solution(x, tribip.evaluate(problem, x))


def ir_add(ir, solution) -> bool:
    """Add a `Solution` to the IR set unless its x vector is already
    present, as rounding and the walk add their rows."""
    return ir._add(*solution)


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
        """Uniform integer in [0, n) by 128-bit multiply-shift, with a
        relative bias of at most n / 2**64."""
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


def naive_hypervolume(points, ref_point) -> float:
    """Exact hypervolume on the grid of the points' coordinates: the sum of
    the grid cells whose lower corner some point weakly dominates.  Points
    must not exceed the reference point."""
    pts = [tuple(float(v) for v in p) for p in points]
    axes = [sorted({p[d] for p in pts} | {float(ref_point[d])}) for d in range(3)]
    total = 0.0
    for x0, x1 in zip(axes[0], axes[0][1:]):
        for y0, y1 in zip(axes[1], axes[1][1:]):
            for z0, z1 in zip(axes[2], axes[2][1:]):
                if any(p[0] <= x0 and p[1] <= y0 and p[2] <= z0 for p in pts):
                    total += (x1 - x0) * (y1 - y0) * (z1 - z0)
    return total


def hypervolume_mc(points, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo hypervolume estimate against reference (1,1,1): the
    fraction of uniform samples of [0,1)^3 dominated by some point."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    covered = 0
    remaining = n_samples
    while remaining > 0:
        c = min(remaining, 100_000)
        samples = rng.random((c, 3))
        hit = (samples[:, None, :] >= pts[None, :, :]).all(axis=2).any(axis=1)
        covered += int(hit.sum())
        remaining -= c
    return covered / n_samples


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
            if naive_rows_hold(problem, bits):
                pts.add(tribip.evaluate(problem, bits))
    return naive_filter(pts)


def brute_force_feasible_points(problem):
    """All feasible binary vectors with their objective points."""
    out = []
    for bits in itertools.product((0, 1), repeat=problem.n):
        if naive_rows_hold(problem, bits):
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


def solve_weighted_lp(problem, w):
    """(value, x) of one weighted-sum LP over the relaxation of `problem`,
    through a fresh `RelaxationSolver`."""
    return tribip.RelaxationSolver(problem).solve_weighted(w)


def is_integral(x, tol=INT_TOL) -> bool:
    """True when every component is within tol of 0 or 1."""
    arr = np.asarray(x, dtype=np.float64)
    return bool(np.all(np.abs(arr - np.round(arr)) <= tol))


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
    point_tol."""
    diff = y[:, None, :] - y[None, :, :]                  # diff[j, i] = y_j - y_i
    dominates = (diff <= point_tol).all(axis=2) & (diff < -point_tol).any(axis=2)
    return dominates.any(axis=0)


def naive_near(points, y, point_tol) -> bool:
    """Whether y lies within point_tol of a row of points in every
    coordinate, by a scan over all rows (the LB enumeration's acceptance
    test)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return points.size > 0 and bool(np.abs(points - np.asarray(y)).max(axis=1).min() <= point_tol)


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


def naive_rows_hold(problem, x) -> bool:
    """Whether lo <= A_i.x <= hi holds for every row i, one row at a time,
    with (lo, hi) read off the row's sense (an open side is infinite): the
    oracle of `Problem.rows_hold`, which rounding, `is_feasible` and the
    binary front oracle use, and of the walk's packed test, built by
    `heuristic._walk_tables`."""
    inf = float("inf")
    for row, sense, rhs in zip(problem.A.tolist(), problem.row_sense, problem.b.tolist()):
        lhs = sum(a * int(v) for a, v in zip(row, x))
        lo = -inf if sense == "<=" else rhs
        hi = inf if sense == ">=" else rhs
        if not lo <= lhs <= hi:
            return False
    return True


def naive_round_down(lb, problem):
    """Reference round-down: one LB vertex at a time, checked row by row by
    `naive_rows_hold`, with the IR order, drop count and warning of
    `tribip.round_down`."""
    ir = tribip.IrSet()
    for lb_x in lb.x:
        x = (lb_x >= 1.0 - INT_TOL).astype(np.int8)
        y = tuple(int(v) for v in problem.C @ x.astype(np.int64))
        if not naive_rows_hold(problem, x):
            ir.dropped_infeasible += 1
            continue
        ir_add(ir, tribip.Solution(x, y))
    if ir.dropped_infeasible:
        tribip.heuristic.log.warning("round_down dropped %d infeasible rounded solutions",
                                     ir.dropped_infeasible)
    if len(ir) == 0:
        raise tribip.NoRoundedSolutionError("no feasible rounded solution; report the LB set instead")
    return ir


def naive_select_pair(ir, rule, rng):
    """Reference pair selection: scans the whole IR matrix on every draw,
    with the same draws and tie rule (lowest index) as `tribip.select_pair`;
    returns (initiating, guiding) row indices."""
    k = len(ir)
    if k < 2:
        raise tribip.InsufficientSolutionsError("path relinking needs at least two initial solutions")
    i = rng.randint(k)
    if rule == "random":
        g = rng.randint(k - 1)
        if g >= i:
            g += 1
        return i, g
    xs = np.array([list(row.key()) for row in ir], dtype=np.int8)
    sims = np.array([similarity(xs[i], row) for row in xs])
    if rule == "sim":
        sims[i] = -1
        g = int(np.argmax(sims))
    else:
        sims[i] = xs.shape[1] + 1
        g = int(np.argmin(sims))
    return i, g


# the paper's variants: PR* steps at random, PI* by best-move analysis
NAIVE_PAIR_RULE = {"PRrand": "random", "PRsim": "sim", "PRdif": "dif",
                   "PI": "random", "PIsim": "sim", "PIdif": "dif"}


def naive_path_relink(ir, archives, config, rng, problem, iterations):
    """Reference relinking loop: per iteration, select with
    `naive_select_pair`, walk every pair with `naive_path_relink_walk` (the
    walk of a pair already in ig_pairs stops before its first draw), then
    record the pair, whether it was new or not."""
    rule = NAIVE_PAIR_RULE[config.variant]
    prob = config.best_move_prob if config.variant.startswith("PI") else 0.0
    for _ in range(iterations):
        i, g = naive_select_pair(ir, rule, rng)
        s_i, s_g = ir[i], ir[g]
        naive_path_relink_walk(problem, s_i, s_g, ir, archives, rng, prob)
        archives.ig_pairs.add((s_i.key(), s_g.key()))


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
    the same IR updates as `tribip.path_relink_walk`; s_i and s_g are
    Solutions."""
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
                ir_add(ir, tribip.Solution(state.x.copy(), tuple(int(v) for v in state.y)))
    return visits


def _naive_format_number(v) -> str:
    f = float(v)
    if f == int(f):
        return str(int(f))
    return repr(f)


def naive_write_front(path, problem, entries) -> None:
    """Reference front writer: a `Solution` as its x one element at a time
    and its y as exact integers, any other entry as a '~' record through
    float casts and per-element formatting, with the sense signs rebuilt per
    entry; the file bytes of `tribip.write_front` must equal its."""
    records = []
    for entry in entries:
        signs = [int(s) for s in problem.sense_signs()]
        if isinstance(entry, tribip.Solution):
            xs = "".join(str(int(v)) for v in entry.x)
            ys = [str(s * int(v)) for s, v in zip(signs, entry.y)]
        else:
            x, y = entry
            xs = "~" + ",".join(_naive_format_number(v) for v in np.asarray(x, dtype=np.float64))
            ys = [_naive_format_number(s * float(v)) for s, v in zip(signs, y)]
        records.append(xs + " " + " ".join(ys))
    lines = [
        tribip.model.FRONT_MAGIC,
        f"kind {problem.kind}",
        f"n {problem.n}",
        f"p {problem.p}",
        "sense " + " ".join(problem.original_sense),
        f"count {len(records)}",
        "solutions",
    ]
    Path(path).write_text("\n".join(lines + records) + "\n")
