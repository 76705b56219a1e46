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

    def solve(w: np.ndarray):
        wkey = np.round(w, 12).tobytes()
        if wkey not in weight_cache:
            res = solver.solve_weighted(w)
            if res.status == "infeasible":
                raise InfeasibleProblemError("LP relaxation is infeasible")
            weight_cache[wkey] = (w, res.value, res.x, c_float @ res.x)
        return weight_cache[wkey][1:]

    ys: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    ws: list[np.ndarray] = []

    def known(y) -> bool:
        if not ys:
            return False
        return bool(np.min(np.max(np.abs(np.array(ys) - y), axis=1)) <= point_tol)

    def add_point(x, y, w):
        ys.append(np.asarray(y, dtype=np.float64))
        xs.append(x)
        ws.append(np.asarray(w, dtype=np.float64))

    for k in range(problem.p):
        w = np.full(problem.p, seed_epsilon)
        w[k] = 1.0
        w = w / w.sum()
        value, x, y = solve(w)
        if not known(y):
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
        new_points = []
        new_ys = np.empty((0, problem.p))
        for i in range(weights.shape[0]):
            w = weights[i]
            value, x, y = solve(w)
            hv = float(hull_values[i])
            if hv - value > _FACET_REL_TOL * max(1.0, abs(hv)):
                seen_this_round = new_ys.size and bool(
                    np.min(np.max(np.abs(new_ys - y), axis=1)) <= point_tol)
                if not seen_this_round and not known(y):
                    new_points.append((x, w, y))
                    new_ys = np.vstack([new_ys, y])
        if not new_points:
            break
        new_points.sort(key=lambda item: tuple(item[2]))
        for x, w, y in new_points:
            add_point(x, y, w)

    # keep strictly nondominated, distinct points, sorted for determinism
    y_arr = np.array(ys)
    diff = y_arr[:, None, :] - y_arr[None, :, :]          # diff[j, i] = y_j - y_i
    dominates = (diff <= point_tol).all(axis=2) & (diff < -point_tol).any(axis=2)
    duplicate = (np.abs(diff) <= point_tol).all(axis=2)
    earlier = np.triu(np.ones(len(ys), dtype=bool), k=1)  # earlier[j, i]: j < i
    dropped = dominates.any(axis=0) | (duplicate & earlier).any(axis=0)
    kept = sorted(np.flatnonzero(~dropped), key=lambda i: tuple(ys[i]))
    points = [LbPoint(xs[i], tuple(ys[i]), tuple(ws[i])) for i in kept]
    probes = [(tuple(float(v) for v in w), float(value))
              for w, value, _, _ in weight_cache.values()]
    return LbSet(points=points, lp_count=len(weight_cache), probes=probes)


def lb_front_records(lb: LbSet) -> list[tuple[np.ndarray, tuple]]:
    """(x, y) pairs of an LB set, for front-file export."""
    return [(p.x, p.y) for p in lb.points]
