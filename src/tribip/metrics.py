"""Quality metrics: dominance filtering, exact hypervolume, normalisation,
and a brute-force exact Pareto oracle for desk-scale instances.

Three kernels carry the work, and all of them are exact (integer points
compare exactly, floats compare bitwise):

- `_first_nondominated` keeps the first occurrence of each nondominated row
  by a forward screen in coordinate-sum order: exact int64 sums where none
  can wrap, float64 sums with a lexicographic tie-break otherwise.  Both
  filters and both oracles call it.
- the binary oracle builds y and the row sums of every 0/1 vector by
  doubling over the low bits, then screens one block per value of the high
  bits into a running front.  Each point keeps its lowest id sum x_j 2^j.
- `hypervolume` is the exact Lebesgue measure of the union of boxes between
  the points and the reference point.  It makes one pass in z order over a
  2-D staircase, adding the area that each new point uncovers (Beume et
  al., IEEE TEC 2009).
"""

from __future__ import annotations

import bisect
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EnumerationLimitError, ValidationError
from .model import P_OBJECTIVES, KIND_ASSIGNMENT, Problem, Solution

log = logging.getLogger(__name__)

MAX_ENUM_KNAPSACK_N = 25
MAX_ENUM_ASSIGNMENT_TASKS = 8

_LOW_BITS = 18          # the binary oracle's block: ids sharing their high bits
_SCREEN_HEAD = 64
_INT64_MAX = np.iinfo(np.int64).max


def _lex_order(pts: np.ndarray) -> np.ndarray:
    """The stable order of the rows of a 2-D array sorted lexicographically,
    first coordinate first."""
    return np.lexsort(pts.T[::-1])


def _first_nondominated(pts: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each nondominated row of a
    (k, 3) array, ordered lexicographically by row.

    Forward screen (the maxima problem of Kung, Luccio & Preparata, JACM
    1975): rows are taken in a stable order in which a row can only be
    weakly dominated by an earlier one: ascending coordinate sum, packed
    with the position into one int64 where no sum can wrap, and otherwise
    the float64 sum (int-to-float conversion and float addition are
    monotone) with ties broken lexicographically.  The
    first _SCREEN_HEAD rows still alive are resolved pairwise, where a row
    loses to one that dominates it or to an equal one taken earlier; every
    later row that a kept head row weakly dominates is dropped, and the next
    head is taken from what is left.
    """
    k = pts.shape[0]
    if (pts.dtype.kind in "iu" and k
            and (3 * max(-int(pts.min()), int(pts.max())) + 1) * k <= _INT64_MAX):
        # no sum wraps and sum * k + position is unique, so any sort gives
        # the stable order; built in place, as a fresh array per call costs
        # peak memory
        sums = pts.sum(axis=1, dtype=np.int64)
        sums *= k
        sums += np.arange(k)
        order = np.argsort(sums)
    else:
        # float sums are monotone but may tie a row with one it dominates;
        # the lexicographic tie-break then takes the dominating row first
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], pts.sum(axis=1, dtype=np.float64)))
    alive = order                  # positions still undecided, in screen order
    rest = pts[order]              # their rows
    kept = [order[:0]]
    while alive.size:
        head_idx, head = alive[:_SCREEN_HEAD], rest[:_SCREEN_HEAD]
        alive, rest = alive[_SCREEN_HEAD:], rest[_SCREEN_HEAD:]
        # le[i, j]: head row j <= head row i; j beats i unless they are equal
        # and i is taken first
        le = (head[None, :, :] <= head[:, None, :]).all(axis=2)
        beaten = le & (~le.T | np.tri(head.shape[0], k=-1, dtype=bool))
        keep = ~beaten.any(axis=1)
        kept.append(head_idx[keep])
        win = head[keep]
        # the kept row taken first goes first, alone: it drops most of a
        # large rest for a fraction of the cost of all kept rows
        for grp in (win[:1], win[1:]):
            if grp.size and alive.size:
                # dominated[r, i]: kept row i <= rest row r, one coordinate at a time
                dominated = grp[:, 0] <= rest[:, 0, None]
                dominated &= grp[:, 1] <= rest[:, 1, None]
                dominated &= grp[:, 2] <= rest[:, 2, None]
                live = ~dominated.any(axis=1)
                alive, rest = alive[live], rest[live]
    idx = np.concatenate(kept)
    return idx[_lex_order(pts[idx])]


def unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order, by a lexsort
    and a neighbour-difference check: ``np.unique(a, axis=0)`` for arrays
    without NaN or -0.0."""
    a = a[_lex_order(a)]
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
    return pts[_first_nondominated(pts)]


def filter_nondominated_solutions(solutions, points=None) -> list:
    """Nondominated subset of solutions (`Solution`s, or an `IrSet`, whose
    rows are `Solution`s); among solutions sharing an objective point the
    first-discovered one is kept.  Output sorted by objective.

    points, when given, is the (k, 3) int64 array of the solutions' y in
    order; it is read instead of the `y` attributes, and solutions is then
    only indexed at the kept positions."""
    if points is None:
        solutions = list(solutions)
        points = np.fromiter(itertools.chain.from_iterable([s.y for s in solutions]),
                             dtype=np.int64, count=P_OBJECTIVES * len(solutions))
        points = points.reshape(-1, P_OBJECTIVES)
    return [solutions[i] for i in _first_nondominated(points).tolist()]


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
        # tolist keeps the points' own number type: ints for an integer front
        return cls(points=front, y_min=tuple(front.min(axis=0).tolist()),
                   y_max=tuple(front.max(axis=0).tolist()))


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
    r1, r2, r3 = ref.tolist()
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2]))]

    # One pass in z order over the staircase of the points seen so far,
    # projected on (x, y): steps xs ascending, ys strictly descending, with
    # `area` the measure of their boxes up to (r1, r2).
    xs: list[float] = []
    ys: list[float] = []
    area = volume = 0.0
    z_prev = 0.0
    for x, y, z in pts.tolist():
        if z >= r3:
            break
        volume += area * (z - z_prev)
        z_prev = z
        right = bisect.bisect_right(xs, x)
        if right and ys[right - 1] <= y:
            continue                           # weakly dominated in (x, y)
        left = bisect.bisect_left(xs, x)
        # the new box uncovers the strip above y, step by step, up to the
        # first step at or below y; the steps in between are buried
        stop = left
        at, height = x, ys[left - 1] if left else r2
        while stop < len(xs) and ys[stop] >= y:
            area += (xs[stop] - at) * (height - y)
            at, height = xs[stop], ys[stop]
            stop += 1
        area += ((xs[stop] if stop < len(xs) else r1) - at) * (height - y)
        xs[left:stop] = [x]
        ys[left:stop] = [y]
    return volume + area * (r3 - z_prev)


# ---------------------------------------------------------------------------
# brute-force exact oracle
# ---------------------------------------------------------------------------

def _subset_sums(cols: np.ndarray) -> np.ndarray:
    """Row `id` holds the sum of cols[j] over the set bits j of id, for every
    id below 2**len(cols), built by doubling in id order."""
    out = np.zeros((1 << cols.shape[0], cols.shape[1]), dtype=np.int64)
    for j, col in enumerate(cols):
        half = 1 << j
        np.add(out[:half], col, out=out[half:2 * half])
    return out


def _enumerate_binary_front(problem: Problem):
    """Every x in {0,1}^n as id = sum x_j 2^j.  The low _LOW_BITS bits run
    inside a block, and each value of the high bits is one block, merged
    into the running front in id order, so each point keeps its lowest id."""
    n = problem.n
    low = min(n, _LOW_BITS)
    cols = np.concatenate([problem.C.T, problem.A.T], axis=1)     # y, then row sums
    low_sums = _subset_sums(cols[:low])
    high_sums = _subset_sums(cols[low:])
    y_run = np.zeros((0, P_OBJECTIVES), dtype=np.int64)
    id_run = np.zeros(0, dtype=np.int64)
    for high, shift in enumerate(high_sums):
        block = low_sums + shift
        ids = np.flatnonzero(problem.rows_hold(block[:, P_OBJECTIVES:]))
        if not ids.size:
            continue
        y = np.concatenate([y_run, block[ids, :P_OBJECTIVES]])
        ids = np.concatenate([id_run, ids + (high << low)])
        keep = _first_nondominated(y)
        y_run, id_run = y[keep], ids[keep]
    x = (id_run[:, None] >> np.arange(n)) & 1
    return y_run, x.astype(np.int8)


def _enumerate_assignment_front(problem: Problem):
    t = problem.tasks
    costs = problem.C.reshape(P_OBJECTIVES, t, t)
    perms = np.array(list(itertools.permutations(range(t))), dtype=np.int64)
    rows = np.arange(t)[None, :]
    y = costs[:, rows, perms].sum(axis=2).T.astype(np.int64)
    keep = _first_nondominated(y)
    xs = np.zeros((keep.size, t * t), dtype=np.int8)
    np.put_along_axis(xs, perms[keep] + np.arange(t)[None, :] * t, 1, axis=1)
    return y[keep], xs


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
    return ReferenceFront.from_points(points)


def exact_front_solutions(problem: Problem) -> list[Solution]:
    """The exact front with one representative solution per point (the
    first-discovered one in enumeration order), built unchecked, as the IR
    set builds its rows: x and y come from the validated problem."""
    points, xs = _enumerate_front(problem)
    return [tuple.__new__(Solution, (x.tobytes(), tuple(y)))
            for x, y in zip(xs, points.tolist())]


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
