"""Matheuristic engine: round-down repair of the LB set, path relinking with
its selection rules and archives, and the end-to-end run pipeline.

Variants
--------
RD      rounding only.
PRrand  random (initiating, guiding) pair, random next step.
PRsim   guiding solution most similar to the initiating one, random step.
PRdif   most different guiding solution, random step.
PI      random pair; best-move analysis picks the next step.
PIsim   similar pair with best-move analysis.
PIdif   different pair with best-move analysis.

Best-move analysis means: with probability `best_move_prob` the step is
chosen among the mutually nondominated neighbours (the improvement-ratio
rank rule breaks the tie when there are several), otherwise uniformly at
random.  The PR* variants always step randomly.

Random stream discipline: one seeded xoshiro256** stream per run.  Draw
order per iteration: pair draws first (one index for sim/dif rules, two for
the random rule), then per step one coin draw, then one neighbour index draw
when the step is random.  The coin is drawn even when its probability is
zero so that all variants consume the stream identically per step.

Walk kernel
-----------
`path_relink_walk` is one loop for every relinking variant.  Its state comes
from the problem's cached per-column moves (`Problem.flip_moves`) as Python
ints, with x a `bytearray` flipped in place, on three facts:

* D, the ascending positions where x differs from the guide, loses only the
  flipped entry per step, so it stays ``np.flatnonzero(x != x_g)`` in order
  and every index drawn or tie broken over it picks the same position.
* A flip at j moves y by the displacement s_j c_j, with s_j = 1 - 2 x_j fixed
  until j is flipped, so neighbour dominance is displacement dominance: built
  in plain Python at the walk's first best-move step, then updated as
  positions leave D.  Walks that never take a best-move step (every PR*
  walk, at best_move_prob 0) never build it.
* `improved_nd` ranks depend on y only through sign(y_k): (y_k + d)/y_k
  orders candidates as d for y_k > 0 and as -d otherwise (the y_k = 0
  fallback included), so the kernel ranks displacements against that sign
  vector.  This is exact while objective values stay below 2**52 in
  magnitude, where float64 division keeps distinct integers apart.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import compress
from operator import add, index, itemgetter, ne

import numpy as np

from .errors import (InsufficientSolutionsError, NoRoundedSolutionError,
                     ValidationError)
from .lbset import LbSet, compute_lb_set
from .lp import INT_TOL
from .model import KIND_ASSIGNMENT, Problem, Solution
from .metrics import filter_nondominated_solutions
from .rng import Xoshiro256StarStar

log = logging.getLogger(__name__)

VARIANTS = ("RD", "PRrand", "PRsim", "PRdif", "PI", "PIsim", "PIdif")

_PAIR_RULE = {
    "PRrand": "random", "PRsim": "sim", "PRdif": "dif",
    "PI": "random", "PIsim": "sim", "PIdif": "dif",
}
_USES_BEST_MOVE = {"PI", "PIsim", "PIdif"}


@dataclass
class PrConfig:
    """Heuristic parameters."""

    variant: str = "PI"
    seed: int = 0
    iteration_multiplier: int = 50
    best_move_prob: float = 0.7
    force_pr: bool = False          # run PR on assignment instances anyway

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}, pick one of {VARIANTS}")
        if not 0.0 <= self.best_move_prob <= 1.0:
            raise ValidationError("best_move_prob must be in [0, 1]")
        if self.iteration_multiplier < 0:
            raise ValidationError("iteration_multiplier must be >= 0")
        try:
            self.seed = index(self.seed)
        except TypeError:
            raise ValidationError(f"seed must be an integer, got {self.seed!r}") from None


class IrRow(tuple):
    """One IR entry: the x vector's bytes and its objective point.

    A plain (key, y) tuple, so rows cost one small object each; the final
    front turns only the rows it keeps into `Solution`s.
    """

    __slots__ = ()

    def key(self) -> bytes:
        """x as int8 bytes, the same as `Solution.key()`."""
        return self[0]

    y = property(itemgetter(1))


class IrSet:
    """Feasible integer solutions rounded from the LB set, then grown by path
    relinking; the x vectors are pairwise distinct.

    `rows` holds one `IrRow` per solution in discovery order.  `provenance`
    maps the index of each rounded row to the LB indices that rounded to it.
    """

    def __init__(self):
        self.rows: list[IrRow] = []
        self.provenance: dict[int, list[int]] = {}
        self.dropped_infeasible = 0
        self._index: dict[bytes, int] = {}
        self._x = np.empty((0, 0), dtype=np.int8)   # row k < _filled is rows[k]'s x
        self._filled = 0
        # (initiating row, rule) -> (guide row, its similarity, rows scanned)
        self._guides: dict[tuple[int, str], tuple[int, int, int]] = {}

    def __len__(self):
        return len(self.rows)

    def __contains__(self, key: bytes):
        return key in self._index

    def add(self, solution, lb_index: int | None = None) -> bool:
        """Add a `Solution` or `IrRow` unless its x vector is already present;
        lb_index records which LB point rounded to it."""
        key = solution.key()
        at = self._index.get(key)
        new = at is None
        if new:
            at = self._index[key] = len(self.rows)
            self.rows.append(IrRow((key, solution.y)))
        if lb_index is not None:
            self.provenance.setdefault(at, []).append(lb_index)
        return new

    def x_matrix(self) -> np.ndarray:
        """Read-only (|IR|, n) view of the x vectors in IR order; later adds
        do not show in it.  Rows added since the last call are filled here."""
        k, filled = len(self.rows), self._filled
        if filled < k:
            new = b"".join(map(IrRow.key, self.rows[filled:k]))
            if k > len(self._x):
                grown = np.empty((max(16, 2 * k), len(self.rows[0].key())), dtype=np.int8)
                if filled:
                    grown[:filled] = self._x[:filled]
                self._x = grown
            self._x[filled:k] = np.frombuffer(new, dtype=np.int8).reshape(k - filled, -1)
            self._filled = k
        view = self._x[:k]
        view.setflags(write=False)
        return view


@dataclass
class PrArchives:
    """ig_pairs: used (S_i, S_g) pairs, as key pairs.  New feasible solutions
    go straight to the IR set."""

    ig_pairs: set[tuple[bytes, bytes]] = field(default_factory=set)


@dataclass
class RunReport:
    """Per-run results row."""

    variant: str
    seed: int
    y_count: int
    time_sec: float
    lp_count: int
    ir_size: int = 0
    pr_iterations: int = 0
    instance: str | None = None
    hv: float | None = None
    hv_percent: float | None = None


def round_down(lb: LbSet, problem: Problem, int_tol: float = INT_TOL) -> IrSet:
    """Round every LB solution down to a binary vector and keep the feasible ones.

    Components within int_tol of 1 stay 1, everything else drops to 0
    (integral components are preserved, fractional ones floored).  Infeasible
    results are dropped with a warning count, duplicates are merged.
    """
    ir = IrSet()
    lb_x = np.array([point.x for point in lb.points], dtype=np.float64).reshape(-1, problem.n)
    xs = (lb_x >= 1.0 - int_tol).astype(np.int8)
    xi = xs.astype(np.int64)
    rows = zip(xs, (xi @ problem.C.T).tolist(), (xi @ problem.A.T).tolist())
    for idx, (x, y, lhs) in enumerate(rows):
        if not _within(lhs, problem.row_bounds):
            ir.dropped_infeasible += 1
            continue
        ir.add(IrRow((x.tobytes(), tuple(y))), lb_index=idx)
    if ir.dropped_infeasible:
        log.warning("round_down dropped %d infeasible rounded solutions", ir.dropped_infeasible)
    if len(ir) == 0:
        raise NoRoundedSolutionError("no feasible rounded solution; report the LB set instead")
    return ir


def _within(lhs, bounds) -> bool:
    """Whether every row's left-hand side lies in its (lo, hi) bounds."""
    for v, (lo, hi) in zip(lhs, bounds):
        if not lo <= v <= hi:
            return False
    return True


def _feasible_int(problem: Problem, x: np.ndarray) -> bool:
    return _within((problem.A @ x.astype(np.int64)).tolist(), problem.row_bounds)


def select_pair(ir: IrSet, rule: str, rng: Xoshiro256StarStar) -> tuple[IrRow, IrRow]:
    """Pick (initiating, guiding) from the IR set.

    random: two distinct uniform picks.  sim/dif: uniform initiating pick,
    then the most similar / most different guiding solution; ties go to the
    lowest index.  IR only grows by appending, so the best guide of each
    (initiating row, rule) is kept on the IR set and compared only against
    the rows added since; a later row takes over only when strictly better.
    """
    k = len(ir)
    if k < 2:
        raise InsufficientSolutionsError("path relinking needs at least two initial solutions")
    i = rng.randint(k)
    if rule == "random":
        g = rng.randint(k - 1)
        if g >= i:
            g += 1
        return ir.rows[i], ir.rows[g]
    if rule not in ("sim", "dif"):
        raise ValidationError(f"unknown selection rule {rule!r}")
    g, best, scanned = ir._guides.get((i, rule), (-1, 0, 0))
    if scanned < k:
        xs = ir.x_matrix()
        sims = np.count_nonzero(xs[scanned:] == xs[i], axis=1)
        if i >= scanned:                    # row i is never its own guide
            sims[i - scanned] = -1 if rule == "sim" else xs.shape[1] + 1
        at = int(np.argmax(sims) if rule == "sim" else np.argmin(sims))
        value = int(sims[at])
        if g < 0 or (value > best if rule == "sim" else value < best):
            g, best = scanned + at, value
        ir._guides[(i, rule)] = (g, best, k)
    return ir.rows[i], ir.rows[g]


def improved_nd(obj_s_i, nd) -> int:
    """Index of the most-improved point among mutually nondominated neighbours.

    Per objective, each point's ratio to the current objective value is
    ranked 1..|ND| with larger improvement getting the larger rank (ties go
    to the lower row index); the point with the highest rank sum wins, ties
    again to the lower index.  A zero current value falls back to ranking
    that objective by raw value, smaller meaning more improved.
    """
    rows = [[float(v) for v in row] for row in nd]
    if not rows:
        raise ValidationError("improved_nd needs at least one candidate")
    degrees = [0] * len(rows)
    for j, obj in enumerate(obj_s_i):
        obj = float(obj)
        if obj != 0.0:
            key = [row[j] / obj for row in rows]   # larger ratio = larger improvement
        else:
            key = [-row[j] for row in rows]        # smaller raw value = larger improvement
        # a stable sort ranks ties by the lower index
        for rank, i in enumerate(sorted(range(len(rows)), key=key.__getitem__), 1):
            degrees[i] += rank
    return degrees.index(max(degrees))


def _displacement_dominance(disp: dict) -> tuple[dict, dict]:
    """Dominance among the displacements disp[j]: per j, the positions whose
    displacement it strictly dominates and the number of positions whose
    displacement strictly dominates it."""
    beaten = {j: [] for j in disp}
    dominators = dict.fromkeys(disp, 0)
    # integer vectors: a dominates b exactly when a <= b with a smaller sum,
    # so in ascending-sum order only later entries can be dominated
    items = sorted((a0 + a1 + a2, j, a0, a1, a2) for j, (a0, a1, a2) in disp.items())
    for at, (total, j, a0, a1, a2) in enumerate(items):
        for t, k, b0, b1, b2 in items[at + 1:]:
            if a0 <= b0 and a1 <= b1 and a2 <= b2 and total < t:
                beaten[j].append(k)
                dominators[k] += 1
    return beaten, dominators


def path_relink_walk(problem: Problem, s_i, s_g, ir: IrSet,
                     archives: PrArchives, rng: Xoshiro256StarStar,
                     best_move_prob: float, collect_visits: bool = False):
    """Walk from the initiating to the guiding solution, one flip per step.

    s_i and s_g are `IrRow`s or `Solution`s; only their keys are read.
    Feasible, previously unseen intermediate solutions are appended to the
    IR set as rows; infeasible intermediates keep walking but are never
    archived.  The walk stops when the current solution reaches the guiding
    one or the current (S_i, S_g) pair was already used.  Returns the list
    of visited vectors (read-only int8 arrays) when collect_visits is set.
    """
    key, key_g = s_i.key(), s_g.key()
    pairs = archives.ig_pairs
    if key == key_g or (key, key_g) in pairs:
        return []
    c_rows, a_rows, moves = problem.flip_moves
    bounds = problem.row_bounds
    x = bytearray(key)
    rest = list(compress(range(len(key)), map(ne, key, key_g)))   # ascending
    y0, y1, y2 = (sum(compress(row, key)) for row in c_rows)
    lhs = [sum(compress(row, key)) for row in a_rows]
    beaten = dominators = None         # displacement dominance, built on first use
    random, randint = rng.random, rng.randint
    known, rows = ir._index, ir.rows        # new feasible points are appended here
    visits: list[bytes] = []
    while True:
        if random() < best_move_prob:
            if beaten is None:
                disp = {j: moves[x[j]][j][0] for j in rest}
                beaten, dominators = _displacement_dominance(disp)
            nd = [at for at, j in enumerate(rest) if not dominators[j]]
            if len(nd) == 1:
                at = nd[0]
            else:
                sign_y = (1 if y0 > 0 else -1, 1 if y1 > 0 else -1, 1 if y2 > 0 else -1)
                at = nd[improved_nd(sign_y, [disp[rest[k]] for k in nd])]
        else:
            at = randint(len(rest))
        j = rest.pop(at)
        if beaten is not None:
            for k in beaten[j]:
                dominators[k] -= 1
        dy, dlhs = moves[x[j]][j]
        x[j] ^= 1
        y0 += dy[0]
        y1 += dy[1]
        y2 += dy[2]
        lhs = list(map(add, lhs, dlhs))
        key = bytes(x)
        if collect_visits:
            visits.append(key)
        if _within(lhs, bounds) and key not in known:
            known[key] = len(rows)
            rows.append(IrRow((key, (y0, y1, y2))))
        if not rest or (key, key_g) in pairs:
            break
    return [np.frombuffer(v, dtype=np.int8) for v in visits]


def path_relink_once(ir: IrSet, archives: PrArchives, config: PrConfig,
                     rng: Xoshiro256StarStar, problem: Problem) -> None:
    """One outer iteration: select a pair, walk it, record the pair.

    A pair already recorded in ig_pairs exits immediately; the selected
    (ordered) pair is recorded either way.
    """
    rule = _PAIR_RULE[config.variant]
    prob = config.best_move_prob if config.variant in _USES_BEST_MOVE else 0.0
    s_i, s_g = select_pair(ir, rule, rng)
    path_relink_walk(problem, s_i, s_g, ir, archives, rng, prob)
    archives.ig_pairs.add((s_i.key(), s_g.key()))


def _lb_solutions(lb: LbSet, problem: Problem, int_tol: float = INT_TOL) -> list[Solution]:
    """Snap integral LB solutions to binary Solutions (assignment pass-through)."""
    out = []
    seen = set()
    for point in lb.points:
        x = np.asarray(point.x)
        if np.max(np.abs(x - np.round(x))) > int_tol:
            raise ValidationError("LB solution is fractional; expected integral (assignment)")
        xi = np.round(x).astype(np.int8)
        key = xi.tobytes()
        if key in seen:
            continue
        seen.add(key)
        y = tuple(int(v) for v in problem.C @ xi.astype(np.int64))
        out.append(Solution(xi, y, _feasible_int(problem, xi)))
    return out


def solve_from_lb(problem: Problem, lb: LbSet, config: PrConfig | None = None):
    """Rounding, optional path relinking and the final filter on a computed
    LB set, which is only read, so one set can serve many runs.

    Returns (front, report) like `run`; report.time_sec covers this call
    only, and report.lp_count is the LPs that enumerated `lb`.
    """
    config = config or PrConfig()
    t0 = time.perf_counter()
    pr_iterations = 0
    ir_size = 0
    if problem.kind == KIND_ASSIGNMENT and not config.force_pr:
        solutions = [s for s in _lb_solutions(lb, problem) if s.feasible]
        front = filter_nondominated_solutions(solutions)
    else:
        ir = round_down(lb, problem)
        ir_size = len(ir)
        if config.variant != "RD":
            if ir_size < 2:
                log.warning("IR set has %d solution(s); path relinking skipped", ir_size)
            else:
                rng = Xoshiro256StarStar(config.seed)
                archives = PrArchives()
                iterations = ir_size * config.iteration_multiplier
                for _ in range(iterations):
                    path_relink_once(ir, archives, config, rng, problem)
                    pr_iterations += 1
        # only the rows that reach the front become Solutions
        front = [Solution(np.frombuffer(row.key(), dtype=np.int8), row.y, True)
                 for row in filter_nondominated_solutions(ir.rows)]

    report = RunReport(
        variant=config.variant,
        seed=config.seed,
        y_count=len(front),
        time_sec=time.perf_counter() - t0,
        lp_count=lb.lp_count,
        ir_size=ir_size,
        pr_iterations=pr_iterations,
    )
    return front, report


def run(problem: Problem, config: PrConfig | None = None):
    """Full pipeline: LB set, rounding, optional path relinking, final filter.

    Returns (front, report): the mutually nondominated feasible solutions
    and a RunReport with |Y|, wall time, LP count, iteration counters.
    Assignment instances use the integral LB solutions directly and skip
    rounding and path relinking unless config.force_pr is set.  The wall
    time covers the LB enumeration and `solve_from_lb`.
    """
    t0 = time.perf_counter()
    lb = compute_lb_set(problem)
    front, report = solve_from_lb(problem, lb, config)
    report.time_sec = time.perf_counter() - t0
    return front, report
