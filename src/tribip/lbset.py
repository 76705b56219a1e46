"""Lower bound sets: extreme supported points of the LP relaxation frontier.

The enumeration is a weight-space exploration over candidate facets of the
lower convex hull.  Three seed LPs with lexicographic-leaning weights
(permutations of (1, eps, eps)) provide the first points.  Then, round by
round, the convex hull of the known points plus three anchor points (each
placed high above the ideal corner along one objective axis, standing in
for the recession directions of the dominance hull) is built; every hull
facet whose normal is a nonnegative weight vector is probed with a weighted
LP, and any point strictly below the current hull is added.  The rounds
repeat until no probe improves the hull.  Facets with mixed-sign normals
are skipped: only nonnegative weights are valid scalarisations.

Every facet weight of a round is known before any of them is solved, so
the round's new weights (those not probed in an earlier round) go to the LP
oracle in one call (for knapsacks one greedy pass over all their cost rows)
in round order; `lp_count` and `probes` are those of solving them one by
one.  One vectorised comparison per round finds the improving probes among
the new weights.  A weight probed in an earlier round cannot improve: its
point is on the hull or near a kept point, or it was not below a hull
that has only come down since.  An improving
probe's point is accepted unless a known point lies within POINT_TOL of it;
that test reads the known points kept in order of their first coordinate,
in a window around the candidate's.  So no two accepted points lie within
POINT_TOL of each other, and at the end a point is kept unless another
dominates it by more than POINT_TOL: a pairwise test that every coordinate
difference of a pair is at most POINT_TOL, run one block of points at a
time so that its memory stays linear in the number of points, and then,
on the few pairs that pass it, a test of the smallest difference.

The accepted points, vertices and weights are rows gathered from each
round's LP batch through the accepted indices; each round's rows, and at
the end the kept rows, are ordered lexicographically on the point.

Termination is guaranteed: the relaxed polytope has finitely many vertices,
every round adds at least one of them or stops, and probed weights are
cached so no LP is solved twice.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .lp import RelaxationSolver
from .metrics import _lex_order, unique_rows
from .model import KIND_KNAPSACK, Problem

SEED_EPSILON = 1e-4
POINT_TOL = 1e-6          # two points closer than this in every coordinate are one
_FACET_REL_TOL = 1e-7     # relative improvement needed to call a point "below" the hull
_ANCHOR_SCALE = 1e6       # anchor reach beyond the objective range, in range units
_FILTER_BLOCK = 1 << 16   # pairs per block of the final filter


@dataclass(frozen=True)
class LbSet:
    """Lower bound set plus instrumentation, as read-only float64 arrays
    (one set serves many runs).

    Row i of points (k, p) is an extreme supported point, in lexicographic
    order; the points are pairwise nondominated and pairwise distinct
    (within POINT_TOL).  Row i of x (k, n) is its vertex of the relaxation
    and row i of w (k, p) the weight it is optimal for.  probes (lp_count,
    p + 1) holds one row (weight..., optimal value) per weighted-sum LP, in
    the order they were solved, and lp_count is their number.  seconds is
    the wall time `compute_lb_set` took, module loading excluded.
    """

    points: np.ndarray
    x: np.ndarray
    w: np.ndarray
    probes: np.ndarray
    seconds: float

    def __len__(self):
        return len(self.points)

    @property
    def lp_count(self) -> int:
        return len(self.probes)


def _lower_facet_weights(nodes: np.ndarray) -> np.ndarray:
    """Normalised nonnegative normals of the lower facets of conv(nodes),
    deduplicated and lexicographically sorted (rows of the result)."""
    from scipy.spatial import ConvexHull, QhullError   # loaded by compute_lb_set

    try:
        # Q5 skips Qhull's last pass, which tests every point against the
        # finished hull to widen its outer planes; facets and equations are
        # the same without it
        hull = ConvexHull(nodes, qhull_options="Q5")
    except QhullError:
        hull = ConvexHull(nodes, qhull_options="QJ")   # joggle degenerate input
    normals = hull.equations[:, :3]
    w = np.clip(-normals[normals.max(axis=1) <= 1e-9], 0.0, None)
    totals = w.sum(axis=1)
    w = w[totals > 0] / totals[totals > 0, None]
    if w.shape[0] == 0:
        return np.empty((0, nodes.shape[1]))
    return unique_rows(np.round(w, 12))


def _tolerant_dropped(y: np.ndarray, point_tol: float) -> np.ndarray:
    """Mask of the rows of y that another row dominates by more than
    point_tol.

    Row j drops row i when every coordinate difference d_c = y_jc - y_ic is
    at most point_tol and one of them is below -point_tol.  The first
    condition is taken over three 2-D difference planes, one block of rows
    against all rows at a time, so memory stays linear in the row count;
    the few pairs that meet it take the second."""
    k = y.shape[0]
    dropped = np.zeros(k, dtype=bool)
    step = max(1, _FILTER_BLOCK // k)
    for lo in range(0, k, step):
        block = y[lo:lo + step]
        near = y[:, None, 0] - block[None, :, 0] <= point_tol     # near[j, i - lo]
        near &= y[:, None, 1] - block[None, :, 1] <= point_tol
        near &= y[:, None, 2] - block[None, :, 2] <= point_tol
        j, i = np.nonzero(near)
        i += lo
        dropped[i[(y[j] - y[i] < -point_tol).any(axis=1)]] = True
    return dropped


class _NearIndex:
    """Points kept in order of their first coordinate for the test "within
    point_tol of a kept point in every coordinate".

    A query reads only the window of rows whose first coordinate lies within
    2 * point_tol of its own, then applies the exact test to them.  Near 0 a
    difference can round down to point_tol from first coordinates slightly
    more than point_tol apart; every row that passes the test still lies
    inside the doubled window, so the answer is that of a scan over all
    rows."""

    def __init__(self, point_tol: float):
        self.tol = point_tol
        self.firsts: list[float] = []
        self.rows: list[tuple[float, float, float]] = []

    def near(self, y) -> bool:
        tol, (y0, y1, y2) = self.tol, y
        lo = bisect_left(self.firsts, y0 - 2 * tol)
        hi = bisect_right(self.firsts, y0 + 2 * tol, lo)
        return lo < hi and any(
            abs(a0 - y0) <= tol and abs(a1 - y1) <= tol and abs(a2 - y2) <= tol
            for a0, a1, a2 in self.rows[lo:hi])

    def add(self, y) -> None:
        at = bisect_right(self.firsts, y[0])
        self.firsts.insert(at, y[0])
        self.rows.insert(at, y)


def compute_lb_set(problem: Problem) -> LbSet:
    """Enumerate the extreme supported nondominated points of the relaxation.

    Raises InfeasibleProblemError when the relaxation has no feasible point.
    Deterministic: re-running yields the identical point set.  The set's
    `seconds` is this call's wall time after the scipy imports.
    """
    # scipy.spatial (the hull of every round) costs about 0.4 s on first
    # import, and scipy.optimize (the assignment and general LP oracles in
    # `lp`, whose local imports then find it loaded) about 0.1 s more, so
    # `import tribip` loads neither; they load here, before the timer starts
    import scipy.spatial  # noqa: F401
    if problem.kind != KIND_KNAPSACK:
        import scipy.optimize  # noqa: F401
    t0 = time.perf_counter()
    solver = RelaxationSolver(problem)
    c_float = problem.C.astype(np.float64)
    # every LP solved: its rounded weight, and per batch its (weight, value) rows
    solved: set[bytes] = set()
    probes: list[np.ndarray] = []
    key_size = np.dtype(np.float64).itemsize * problem.p      # bytes of one rounded weight

    def solve(ws: np.ndarray):
        """The rows of ws whose rounded weight no earlier call solved (first
        occurrences), solved in one call: their indices, weights, LP values,
        vertices and objective points."""
        rows = []
        for at, key in enumerate(np.round(ws, 12).view(f"V{key_size}").ravel().tolist()):
            if key not in solved:
                solved.add(key)
                rows.append(at)
        batch = ws[rows]
        values, x_batch = solver.solve_weighted_many(batch)
        # C @ x per LP; the stacked matmul computes each as `c_float @ x` does
        y_batch = np.matmul(c_float, x_batch[:, :, None])[:, :, 0]
        probes.append(np.column_stack((batch, values)))
        return rows, batch, values, x_batch, y_batch

    index = _NearIndex(POINT_TOL)
    # the accepted rows of every batch, in the order of y_arr
    xs: list[np.ndarray] = []
    ws: list[np.ndarray] = []

    def accept(picks: np.ndarray, y_batch: np.ndarray) -> np.ndarray:
        """The picked rows whose y lies near no known point, in pick order;
        each becomes known as it is accepted."""
        accepted = []
        for at, y in zip(picks.tolist(), map(tuple, y_batch[picks].tolist())):
            if not index.near(y):
                index.add(y)
                accepted.append(at)
        return np.array(accepted, dtype=np.intp)

    seeds = np.full((problem.p, problem.p), SEED_EPSILON)
    np.fill_diagonal(seeds, 1.0)
    seeds = seeds / seeds.sum(axis=1, keepdims=True)
    rows, batch, _, x_batch, y_batch = solve(seeds)
    accepted = accept(np.arange(len(rows)), y_batch)          # in the order found
    y_arr = y_batch[accepted]
    xs.append(x_batch[accepted])
    ws.append(batch[accepted])

    # anchors: one per objective, high above the ideal corner along that
    # objective's axis.  They stand in for the recession directions of the
    # dominance hull: side facets (one anchor, two real points) then carry
    # valid near-boundary weights instead of mixed-sign normals.  The unit
    # margin below the seed minima keeps this sound when the epsilon-mixed
    # seeds sit a hair above the true per-objective ideals.
    upper = np.maximum(c_float, 0.0).sum(axis=1)
    lower = -np.maximum(-c_float, 0.0).sum(axis=1)
    reach = _ANCHOR_SCALE * (upper - lower + 1.0)
    anchors = np.repeat(y_arr.min(axis=0, keepdims=True) - 1.0, problem.p, axis=0)
    np.fill_diagonal(anchors, upper + reach)

    while True:
        nodes = np.concatenate([y_arr, anchors])
        weights = _lower_facet_weights(nodes)
        if weights.shape[0] == 0:
            break
        # only the new weights can improve (module docstring)
        rows, batch, values, x_batch, y_batch = solve(weights)
        if not rows:
            break
        hull_values = (nodes @ weights.T).min(axis=0)[rows]
        improving = hull_values - values > _FACET_REL_TOL * np.maximum(1.0, np.abs(hull_values))
        accepted = accept(np.flatnonzero(improving), y_batch)
        if not accepted.size:
            break
        accepted = accepted[_lex_order(y_batch[accepted])]
        y_arr = np.concatenate([y_arr, y_batch[accepted]])
        xs.append(x_batch[accepted])
        ws.append(batch[accepted])

    # keep the nondominated points, sorted for determinism
    kept = np.flatnonzero(~_tolerant_dropped(y_arr, POINT_TOL))
    kept = kept[_lex_order(y_arr[kept])]
    lb = LbSet(points=y_arr[kept], x=np.concatenate(xs)[kept], w=np.concatenate(ws)[kept],
               probes=np.concatenate(probes), seconds=time.perf_counter() - t0)
    for array in (lb.points, lb.x, lb.w, lb.probes):
        array.setflags(write=False)
    return lb
