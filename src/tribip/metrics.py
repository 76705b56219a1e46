"""Quality metrics: dominance filtering, exact and Monte-Carlo hypervolume,
normalisation, and a brute-force exact Pareto oracle for desk-scale instances.

All dominance comparisons are exact (integer points compare exactly, floats
compare bitwise); the hypervolume is the exact Lebesgue measure of the union
of boxes between the points and the reference point, computed by a sweep
along the third objective.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EnumerationLimitError, ValidationError
from .model import P_OBJECTIVES, KIND_ASSIGNMENT, KIND_KNAPSACK, Problem, Solution

log = logging.getLogger(__name__)

MAX_ENUM_KNAPSACK_N = 25
MAX_ENUM_ASSIGNMENT_TASKS = 8

_ENUM_CHUNK = 1 << 18
_SCREEN_HEAD = 64


def _nondominated_mask_unique(pts: np.ndarray) -> np.ndarray:
    """Mask of nondominated rows; rows must be pairwise distinct.

    Forward screen: rows are taken in ascending coordinate-sum order, so a
    row can only be dominated by an earlier one.  The first _SCREEN_HEAD rows
    still alive are resolved pairwise; every later row that a kept head row
    dominates is dropped, and the next head is taken from what is left.
    """
    k = pts.shape[0]
    sums = pts.sum(axis=1)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], sums))
    alive = order                         # row indices still undecided, in screen order
    mask = np.zeros(k, dtype=bool)
    while alive.size:
        head_idx, alive = alive[:_SCREEN_HEAD], alive[_SCREEN_HEAD:]
        head = pts[head_idx]
        # le[i, j]: head row j <= head row i; rows are distinct, so j != i dominates
        le = (head[None, :, :] <= head[:, None, :]).all(axis=2)
        keep = le.sum(axis=1) == 1
        kept = head[keep]
        mask[head_idx[keep]] = True
        if alive.size:
            rest = pts[alive]
            # dominated[r, i]: kept row i <= rest row r, one coordinate at a time
            dominated = kept[:, 0] <= rest[:, 0, None]
            dominated &= kept[:, 1] <= rest[:, 1, None]
            dominated &= kept[:, 2] <= rest[:, 2, None]
            alive = alive[~dominated.any(axis=1)]
    return mask


def unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order, by a lexsort
    and a neighbour-difference check: ``np.unique(a, axis=0)`` for arrays
    without NaN or -0.0."""
    a = a[np.lexsort(a.T[::-1])]
    first = np.ones(a.shape[0], dtype=bool)     # first of each run of equal rows
    first[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[first]


def filter_nondominated(points) -> np.ndarray:
    """Maximal mutually nondominated subset, duplicates collapsed,
    sorted lexicographically."""
    pts = np.asarray(points)
    if pts.size == 0:
        return np.zeros((0, P_OBJECTIVES), dtype=np.int64)
    pts = pts.reshape(-1, pts.shape[-1])
    if pts.shape[1] != P_OBJECTIVES:
        raise DimensionError(f"points must have {P_OBJECTIVES} coordinates")
    uniq = unique_rows(pts)
    return uniq[_nondominated_mask_unique(uniq)]


def filter_nondominated_solutions(solutions) -> list:
    """Nondominated subset of solutions (anything with a `y` tuple, such as
    `Solution`s or IR rows); among solutions sharing an objective point the
    first-discovered one is kept.  Output sorted by objective."""
    solutions = list(solutions)
    if not solutions:
        return []
    ys = [s.y for s in solutions]
    front_set = set(map(tuple, filter_nondominated(np.array(ys, dtype=np.int64)).tolist()))
    chosen: dict[tuple, Solution] = {}
    for y, sol in zip(ys, solutions):
        if y in front_set and y not in chosen:
            chosen[y] = sol
    return [chosen[key] for key in sorted(chosen)]


@dataclass(frozen=True)
class ReferenceFront:
    """Exact nondominated set (minimisation form) with per-objective bounds."""

    points: np.ndarray
    y_min: tuple
    y_max: tuple
    # reference point -> hypervolume of the normalised front, filled by hv_percent
    _hv: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_points(cls, points) -> "ReferenceFront":
        front = filter_nondominated(points)
        if front.shape[0] == 0:
            raise ValidationError("reference front needs at least one point")
        return cls(
            points=front,
            y_min=tuple(int(v) for v in front.min(axis=0)),
            y_max=tuple(int(v) for v in front.max(axis=0)),
        )


def normalize(points, ref: ReferenceFront) -> np.ndarray:
    """Map points by (y - min) / (max - min) per objective.

    Coordinates above 1 are clamped to 1 (no volume beyond the reference
    point); coordinates below 0 are kept but logged, since on exactly solved
    instances they indicate an oracle bug.
    """
    lo = np.asarray(ref.y_min, dtype=np.float64)
    hi = np.asarray(ref.y_max, dtype=np.float64)
    span = hi - lo
    if (span <= 0).any():
        raise ValidationError(f"degenerate reference front: max == min in objective(s) "
                              f"{np.flatnonzero(span <= 0).tolist()}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, P_OBJECTIVES)
    out = (pts - lo) / span
    if (out < -1e-12).any():
        log.warning("normalised point below 0: better than every reference point")
    return np.minimum(out, 1.0)


def hypervolume(points, ref_point=(1.0, 1.0, 1.0)) -> float:
    """Exact hypervolume of the union of boxes [p, ref] (minimisation).

    Dominated input points are permitted and do not change the value.
    Points must not exceed the reference point: normalise/clamp first.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, P_OBJECTIVES)
    if pts.shape[0] == 0:
        return 0.0
    ref = np.asarray(ref_point, dtype=np.float64)
    if ref.shape != (P_OBJECTIVES,):
        raise DimensionError(f"reference point must have {P_OBJECTIVES} coordinates")
    if (pts > ref + 1e-9).any():
        raise ValidationError("point beyond the reference point; normalise (clamp) first")
    pts = np.minimum(pts, ref)
    r1, r2, r3 = ref

    order = np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2]))
    pts = pts[order]
    volume = 0.0
    stair: np.ndarray | None = None            # rows (x, y), x asc, y strictly desc
    i = 0
    k = pts.shape[0]
    while i < k:
        z = pts[i, 2]
        j = i
        while j < k and pts[j, 2] == z:
            j += 1
        if z >= r3:
            break
        fresh = pts[i:j, :2]
        stair = fresh if stair is None else np.concatenate([stair, fresh], axis=0)
        srt = stair[np.lexsort((stair[:, 1], stair[:, 0]))]
        ymin = np.minimum.accumulate(srt[:, 1])
        keep = np.empty(srt.shape[0], dtype=bool)
        keep[0] = True
        keep[1:] = srt[1:, 1] < ymin[:-1]
        stair = srt[keep]
        widths = np.empty(stair.shape[0])
        widths[:-1] = stair[1:, 0] - stair[:-1, 0]
        widths[-1] = r1 - stair[-1, 0]
        area = float(widths @ (r2 - stair[:, 1]))
        z_next = min(float(pts[j, 2]), r3) if j < k else r3
        volume += (z_next - z) * area
        i = j
    return volume


def hypervolume_mc(points, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo hypervolume estimate against reference (1,1,1): the
    fraction of uniform samples of [0,1)^3 dominated by some point."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, P_OBJECTIVES)
    if pts.shape[0] == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    covered = 0
    remaining = n_samples
    while remaining > 0:
        c = min(remaining, 100_000)
        samples = rng.random((c, P_OBJECTIVES))
        hit = (samples[:, None, :] >= pts[None, :, :]).all(axis=2).any(axis=1)
        covered += int(hit.sum())
        remaining -= c
    return covered / n_samples


# ---------------------------------------------------------------------------
# brute-force exact oracle
# ---------------------------------------------------------------------------

def _merge_front(y_run, id_run, x_run, y_new, id_new, x_new):
    y = np.concatenate([y_run, y_new], axis=0)
    ids = np.concatenate([id_run, id_new], axis=0)
    xs = np.concatenate([x_run, x_new], axis=0)
    order = np.lexsort((ids, y[:, 2], y[:, 1], y[:, 0]))
    y, ids, xs = y[order], ids[order], xs[order]
    first = np.empty(y.shape[0], dtype=bool)
    first[0] = True
    first[1:] = (y[1:] != y[:-1]).any(axis=1)
    y, ids, xs = y[first], ids[first], xs[first]
    mask = _nondominated_mask_unique(y)
    return y[mask], ids[mask], xs[mask]


def _enumerate_binary_front(problem: Problem):
    n = problem.n
    ct = problem.C.T.astype(np.int64)
    shifts = np.arange(n, dtype=np.uint64)
    y_run = np.zeros((0, P_OBJECTIVES), dtype=np.int64)
    id_run = np.zeros(0, dtype=np.uint64)
    x_run = np.zeros((0, n), dtype=np.int8)
    total = 1 << n
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        ids = np.arange(start, stop, dtype=np.uint64)
        b = ids[:, None] >> shifts
        b &= 1
        bits = b.astype(np.int8)
        del b                     # free the 8-byte matrix before the products
        lhs = bits @ problem.A.T
        feas = np.ones(bits.shape[0], dtype=bool)
        for i, sense in enumerate(problem.row_sense):
            if sense == "<=":
                feas &= lhs[:, i] <= problem.b[i]
            elif sense == ">=":
                feas &= lhs[:, i] >= problem.b[i]
            else:
                feas &= lhs[:, i] == problem.b[i]
        if not feas.any():
            continue
        xc = bits[feas]
        yc = xc @ ct
        y_run, id_run, x_run = _merge_front(y_run, id_run, x_run, yc, ids[feas], xc)
    return y_run, x_run


def _enumerate_assignment_front(problem: Problem):
    t = problem.tasks
    costs = problem.C.reshape(P_OBJECTIVES, t, t)
    perms = np.array(list(itertools.permutations(range(t))), dtype=np.int64)
    rows = np.arange(t)[None, :]
    y = costs[:, rows, perms].sum(axis=2).T.astype(np.int64)
    xs = np.zeros((perms.shape[0], t * t), dtype=np.int8)
    cols = perms + np.arange(t)[None, :] * t
    np.put_along_axis(xs, cols, 1, axis=1)
    ids = np.arange(perms.shape[0], dtype=np.uint64)
    empty_y = np.zeros((0, P_OBJECTIVES), dtype=np.int64)
    empty_x = np.zeros((0, t * t), dtype=np.int8)
    yf, _, xf = _merge_front(empty_y, np.zeros(0, dtype=np.uint64), empty_x, y, ids, xs)
    return yf, xf


def _enumerate_front(problem: Problem):
    if problem.kind == KIND_ASSIGNMENT:
        if problem.tasks > MAX_ENUM_ASSIGNMENT_TASKS:
            raise EnumerationLimitError(
                f"assignment oracle enumerates at most {MAX_ENUM_ASSIGNMENT_TASKS} tasks, "
                f"instance has {problem.tasks}")
        return _enumerate_assignment_front(problem)
    if problem.n > MAX_ENUM_KNAPSACK_N:
        raise EnumerationLimitError(
            f"binary oracle enumerates at most {MAX_ENUM_KNAPSACK_N} variables, "
            f"instance has {problem.n}")
    return _enumerate_binary_front(problem)


def exact_front(problem: Problem) -> ReferenceFront:
    """Exact Pareto front by full enumeration of desk-scale instances.

    Limits: binary enumeration up to 25 variables, assignment instances up
    to 8 tasks.  Larger instances raise EnumerationLimitError.
    """
    points, _ = _enumerate_front(problem)
    if points.shape[0] == 0:
        raise ValidationError("problem has no feasible solution, no reference front")
    return ReferenceFront(
        points=points,
        y_min=tuple(int(v) for v in points.min(axis=0)),
        y_max=tuple(int(v) for v in points.max(axis=0)),
    )


def exact_front_solutions(problem: Problem) -> list[Solution]:
    """The exact front with one representative solution per point (the
    first-discovered one in enumeration order)."""
    points, xs = _enumerate_front(problem)
    return [Solution(xs[i], tuple(int(v) for v in points[i]), True)
            for i in range(points.shape[0])]


HV_PERCENT_REF_POINT = (2.0, 2.0, 2.0)


def hv_percent(points, ref: ReferenceFront, ref_point=HV_PERCENT_REF_POINT) -> float:
    """Hypervolume of `points` as a percentage of the reference front's.

    Both fronts are normalised by the reference front's bounds first.  The
    percentage is taken against reference point (2,2,2), the 0-8 scale the
    benchmark tables use; pass ref_point=(1,1,1) for the tight unit-box
    ratio instead.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, P_OBJECTIVES)
    if pts.shape[0] == 0:
        return 0.0
    key = tuple(float(v) for v in ref_point)
    hv_ref = ref._hv.get(key)
    if hv_ref is None:
        hv_ref = ref._hv[key] = hypervolume(normalize(ref.points, ref), ref_point)
    hv_pts = hypervolume(normalize(pts, ref), ref_point)
    return 100.0 * hv_pts / hv_ref
