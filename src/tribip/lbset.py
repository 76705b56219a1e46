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
the round's uncached weights go to the LP oracle in one call (for knapsacks
one greedy pass over all their cost rows) and enter the cache in round
order; `lp_count` and `probes` are those of solving them one by one.  The
points are then kept if no other point dominates them by more than
POINT_TOL and no earlier point lies within POINT_TOL, a pairwise test run
one block of points at a time so that its memory stays linear in the number
of points.

Termination is guaranteed: the relaxed polytope has finitely many vertices,
every round adds at least one of them or stops, and probed weights are
cached so no LP is solved twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import InfeasibleProblemError
from .lp import RelaxationSolver
from .model import Problem

SEED_EPSILON = 1e-4
POINT_TOL = 1e-6          # two points closer than this in every coordinate are one
_FACET_REL_TOL = 1e-7     # relative improvement needed to call a point "below" the hull
_ANCHOR_SCALE = 1e6       # anchor reach beyond the objective range, in range units
_FILTER_BLOCK = 1 << 16   # pairs per block of the final filter


@dataclass(frozen=True)
class LbPoint:
    """One extreme supported point: fractional solution, objective point,
    and the weight vector it is optimal for."""

    x: np.ndarray
    y: tuple[float, float, float]
    w: tuple[float, float, float]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))


@dataclass
class LbSet:
    """Lower bound set plus instrumentation.

    points are pairwise nondominated and pairwise distinct (within
    POINT_TOL); lp_count is the number of weighted-sum LPs actually solved;
    probes records every (weight, optimal value) pair the enumeration used,
    in the order they were solved.
    """

    points: list[LbPoint]
    lp_count: int
    probes: list[tuple[tuple[float, float, float], float]] = field(default_factory=list)

    def __len__(self):
        return len(self.points)


def _lower_facet_weights(nodes: np.ndarray) -> np.ndarray:
    """Normalised nonnegative normals of the lower facets of conv(nodes),
    deduplicated and lexicographically sorted (rows of the result)."""
    try:
        hull = ConvexHull(nodes)
    except QhullError:
        hull = ConvexHull(nodes, qhull_options="QJ")   # joggle degenerate input
    normals = hull.equations[:, :3]
    w = np.clip(-normals[normals.max(axis=1) <= 1e-9], 0.0, None)
    totals = w.sum(axis=1)
    w = w[totals > 0] / totals[totals > 0, None]
    if w.shape[0] == 0:
        return np.empty((0, nodes.shape[1]))
    return np.unique(np.round(w, 12), axis=0)


def _tolerant_dropped(y: np.ndarray, point_tol: float) -> np.ndarray:
    """Mask of the rows of y that another row dominates by more than
    point_tol, or that lie within point_tol of an earlier row (in every
    coordinate).  One block of rows is compared with all rows at a time, so
    memory stays linear in the row count."""
    k = y.shape[0]
    dropped = np.zeros(k, dtype=bool)
    index = np.arange(k)
    step = max(1, _FILTER_BLOCK // k)
    for lo in range(0, k, step):
        block = slice(lo, lo + step)
        diff = y[:, None, :] - y[None, block, :]           # diff[j, i] = y_j - y_i
        dominates = (diff <= point_tol).all(axis=2) & (diff < -point_tol).any(axis=2)
        duplicate = (np.abs(diff) <= point_tol).all(axis=2) & (index[:, None] < index[None, block])
        dropped[block] = (dominates | duplicate).any(axis=0)
    return dropped


def compute_lb_set(problem: Problem, seed_epsilon: float = SEED_EPSILON,
                   point_tol: float = POINT_TOL) -> LbSet:
    """Enumerate the extreme supported nondominated points of the relaxation.

    Raises InfeasibleProblemError when the relaxation has no feasible point.
    Deterministic: re-running yields the identical point set.
    """
    solver = RelaxationSolver(problem)
    c_float = problem.C.astype(np.float64)
    # every LP solved, in order: rounded weight -> (weight, value, x, y)
    weight_cache: dict[bytes, tuple] = {}

    def solve(ws: np.ndarray) -> list[tuple]:
        """(value, x, y) of every row of ws; the uncached ones are solved in
        one call and cached in row order."""
        keys = [row.tobytes() for row in np.round(ws, 12)]
        todo: dict[bytes, np.ndarray] = {}
        for key, w in zip(keys, ws):
            if key not in weight_cache:
                todo.setdefault(key, w)
        for (key, w), res in zip(todo.items(), solver.solve_weighted_many(list(todo.values()))):
            if res.status == "infeasible":
                raise InfeasibleProblemError("LP relaxation is infeasible")
            weight_cache[key] = (w, res.value, res.x, c_float @ res.x)
        return [weight_cache[key][1:] for key in keys]

    ys: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    ws: list[np.ndarray] = []

    def near(points: np.ndarray, y) -> bool:
        """Whether y lies within point_tol of a row of points (in every coordinate)."""
        return points.size > 0 and bool(np.abs(points - y).max(axis=1).min() <= point_tol)

    def add_point(x, y, w):
        ys.append(np.asarray(y, dtype=np.float64))
        xs.append(x)
        ws.append(np.asarray(w, dtype=np.float64))

    seeds = np.full((problem.p, problem.p), seed_epsilon)
    np.fill_diagonal(seeds, 1.0)
    seeds = seeds / seeds.sum(axis=1, keepdims=True)
    for w, (value, x, y) in zip(seeds, solve(seeds)):
        if not near(np.array(ys), y):
            add_point(x, y, w)

    # anchors: one per objective, high above the ideal corner along that
    # objective's axis.  They stand in for the recession directions of the
    # dominance hull: side facets (one anchor, two real points) then carry
    # valid near-boundary weights instead of mixed-sign normals.  The unit
    # margin below the seed minima keeps this sound when the epsilon-mixed
    # seeds sit a hair above the true per-objective ideals.
    upper = np.maximum(c_float, 0.0).sum(axis=1)
    lower = -np.maximum(-c_float, 0.0).sum(axis=1)
    reach = _ANCHOR_SCALE * (upper - lower + 1.0)
    base = np.min(np.array(ys), axis=0) - 1.0
    anchors = []
    for k in range(problem.p):
        anchor = base.copy()
        anchor[k] = upper[k] + reach[k]
        anchors.append(anchor)

    while True:
        nodes = np.array(ys + anchors)
        weights = _lower_facet_weights(nodes)
        if weights.shape[0] == 0:
            break
        hull_values = (nodes @ weights.T).min(axis=0)
        known_ys = nodes[:-problem.p]          # ys, unchanged until the round ends
        new_points = []
        new_ys = np.empty((0, problem.p))
        for w, hv, (value, x, y) in zip(weights, hull_values.tolist(), solve(weights)):
            if hv - value > _FACET_REL_TOL * max(1.0, abs(hv)):
                if not near(new_ys, y) and not near(known_ys, y):
                    new_points.append((x, w, y))
                    new_ys = np.vstack([new_ys, y])
        if not new_points:
            break
        new_points.sort(key=lambda item: tuple(item[2]))
        for x, w, y in new_points:
            add_point(x, y, w)

    # keep strictly nondominated, distinct points, sorted for determinism
    dropped = _tolerant_dropped(np.array(ys), point_tol)
    kept = sorted(np.flatnonzero(~dropped), key=lambda i: tuple(ys[i]))
    points = [LbPoint(xs[i], tuple(ys[i]), tuple(ws[i])) for i in kept]
    probes = [(tuple(w.tolist()), float(value)) for w, value, _, _ in weight_cache.values()]
    return LbSet(points=points, lp_count=len(weight_cache), probes=probes)


def lb_front_records(lb: LbSet) -> list[tuple[np.ndarray, tuple]]:
    """(x, y) pairs of an LB set, for front-file export."""
    return [(p.x, p.y) for p in lb.points]
