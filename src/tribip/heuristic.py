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
`path_relink_walk` builds its state once per walk, on three facts:

* D, the ascending positions where x differs from the guide, loses only the
  flipped entry per step, so it stays ``np.flatnonzero(x != x_g)`` in order
  and every index drawn or tie broken over it picks the same position.
* A flip at j moves y by the displacement s_j c_j, with s_j = 1 - 2 x_j fixed
  until j is flipped, so neighbour dominance is displacement dominance: built
  at the first best-move step, then updated as positions leave D.
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


class IrSet:
    """Feasible integer solutions rounded from the LB set, with provenance.

    Grows during path relinking; the x vectors are pairwise distinct.
    """

    def __init__(self):
        self.solutions: list[Solution] = []
        self.provenance: list[list[int]] = []
        self.dropped_infeasible = 0
        self._keys: dict[bytes, int] = {}
        self._x = np.empty((0, 0), dtype=np.int8)   # row k is solutions[k].x
        # (initiating row, rule) -> (guide row, its similarity, rows scanned)
        self._guides: dict[tuple[int, str], tuple[int, int, int]] = {}

    def __len__(self):
        return len(self.solutions)

    def __contains__(self, key: bytes):
        return key in self._keys

    def add(self, solution: Solution, lb_index: int | None = None) -> bool:
        """Add a solution unless its x vector is already present."""
        key = solution.key()
        at = self._keys.get(key)
        if at is not None:
            if lb_index is not None:
                self.provenance[at].append(lb_index)
            return False
        k = len(self.solutions)
        if k == len(self._x):
            grown = np.empty((max(16, 2 * k), solution.x.size), dtype=np.int8)
            if k:
                grown[:k] = self._x
            self._x = grown
        self._x[k] = solution.x
        self._keys[key] = k
        self.solutions.append(solution)
        self.provenance.append([lb_index] if lb_index is not None else [])
        return True

    def x_matrix(self) -> np.ndarray:
        """Read-only (|IR|, n) view of the x vectors in IR order; later adds
        do not show in it."""
        view = self._x[:len(self.solutions)]
        view.setflags(write=False)
        return view


@dataclass
class PrArchives:
    """candX: newly found feasible solutions; ig_pairs: used (S_i, S_g) pairs."""

    cand_x: list[Solution] = field(default_factory=list)
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
    for idx, point in enumerate(lb.points):
        x = (np.asarray(point.x) >= 1.0 - int_tol).astype(np.int8)
        y = tuple(int(v) for v in problem.C @ x.astype(np.int64))
        feasible = _feasible_int(problem, x)
        if not feasible:
            ir.dropped_infeasible += 1
            continue
        ir.add(Solution(x, y, True), lb_index=idx)
    if ir.dropped_infeasible:
        log.warning("round_down dropped %d infeasible rounded solutions", ir.dropped_infeasible)
    if len(ir) == 0:
        raise NoRoundedSolutionError("no feasible rounded solution; report the LB set instead")
    return ir


def _row_bounds(problem: Problem) -> list[tuple[float, float]]:
    """Per-row (lo, hi) with lo <= A.x <= hi meaning feasible; an open side is infinite."""
    inf = float("inf")
    return [(-inf if sense == "<=" else rhs, inf if sense == ">=" else rhs)
            for sense, rhs in zip(problem.row_sense, problem.b.tolist())]


def _within(lhs, bounds) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(lhs, bounds))


def _feasible_int(problem: Problem, x: np.ndarray) -> bool:
    return _within((problem.A @ x.astype(np.int64)).tolist(), _row_bounds(problem))


def similarity(a, b) -> int:
    """Number of positions with equal variable values."""
    return int(np.count_nonzero(np.asarray(a) == np.asarray(b)))


def select_pair(ir: IrSet, rule: str, rng: Xoshiro256StarStar) -> tuple[Solution, Solution]:
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
        return ir.solutions[i], ir.solutions[g]
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
    return ir.solutions[i], ir.solutions[g]


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


def _displacement_dominance(disp: list, rest: list[int]):
    """Dominance among the displacements disp[r], r in rest: per r, the
    entries it strictly dominates and the number of entries dominating it."""
    d = np.array([disp[r] for r in rest], dtype=np.int64)
    a, b = d[:, None, :], d[None, :, :]
    beats = (a <= b).all(axis=2) & (a < b).any(axis=2)     # beats[i, k]: row i dominates row k
    beaten = {r: list(compress(rest, row)) for r, row in zip(rest, beats.tolist())}
    dominators = dict(zip(rest, beats.sum(axis=0).tolist()))
    return beaten, dominators


def path_relink_walk(problem: Problem, s_i: Solution, s_g: Solution, ir: IrSet,
                     archives: PrArchives, rng: Xoshiro256StarStar,
                     best_move_prob: float, collect_visits: bool = False):
    """Walk from the initiating to the guiding solution, one flip per step.

    Feasible, previously unseen intermediate solutions are appended to candX
    and to the IR set; infeasible intermediates keep walking but are never
    archived.  The walk stops when the current solution reaches the guiding
    one or the current (S_i, S_g) pair was already used.  Returns the list
    of visited vectors (read-only int8 arrays) when collect_visits is set.
    """
    key, key_g = s_i.key(), s_g.key()
    pairs = archives.ig_pairs
    if key == key_g or (key, key_g) in pairs:
        return []
    x = bytearray(key)
    pos = np.flatnonzero(s_i.x != s_g.x)
    signs = 1 - 2 * s_i.x[pos].astype(np.int64)
    disp = (problem.C[:, pos] * signs).T.tolist()     # objective move of each flip
    row_disp = (problem.A[:, pos] * signs).T.tolist()
    pos = pos.tolist()
    y = (problem.C @ s_i.x).tolist()
    lhs = (problem.A @ s_i.x).tolist()
    bounds = _row_bounds(problem)
    rest = list(range(len(pos)))       # indices into pos still differing, ascending
    beaten = dominators = None         # displacement dominance, built on first use
    random, randint = rng.random, rng.randint
    visits: list[bytes] = []
    while True:
        if random() < best_move_prob:
            if beaten is None:
                beaten, dominators = _displacement_dominance(disp, rest)
            nd = [at for at, r in enumerate(rest) if not dominators[r]]
            if len(nd) == 1:
                at = nd[0]
            else:
                sign_y = [1 if v > 0 else -1 for v in y]
                at = nd[improved_nd(sign_y, [disp[rest[k]] for k in nd])]
        else:
            at = randint(len(rest))
        r = rest.pop(at)
        if beaten is not None:
            for b in beaten[r]:
                dominators[b] -= 1
        x[pos[r]] ^= 1
        y = [a + b for a, b in zip(y, disp[r])]
        lhs = [a + b for a, b in zip(lhs, row_disp[r])]
        key = bytes(x)
        visits.append(key)
        if _within(lhs, bounds) and key not in ir:
            sol = Solution(np.frombuffer(key, dtype=np.int8), y, True)
            archives.cand_x.append(sol)
            ir.add(sol)
        if not rest or (key, key_g) in pairs:
            break
    return [np.frombuffer(v, dtype=np.int8) for v in visits] if collect_visits else []


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
        front = filter_nondominated_solutions(ir.solutions)

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
