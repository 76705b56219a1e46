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

Relinking loop
--------------
`path_relink` runs the iterations on IR row indices: `select_pair` returns
(initiating, guiding) rows, and a pair already in ig_pairs is skipped before
any `Solution` is built or any walk entered.  Such a pair's walk would stop
before its first draw, so the skip leaves the stream, the IR set and
ig_pairs unchanged; an iteration counts whether it walks or not.  Only a
walked pair is recorded, so each walk starts at a pair not recorded yet.

Walk kernel
-----------
`path_relink_walk` is one loop for every relinking variant.  Its state comes
from the walk tables of the problem (`_walk_tables`): per-column moves as
Python ints, and the row sums A.x packed into one int, which only the walk
uses.  x is a `bytearray` flipped in place and y starts from the initiating
row's y; a flip adds one packed displacement, and the row test is one add
and two masks.

The packed encoding: row i owns a field of w_i = span_i.bit_length() bits,
span_i the distance between the least and the greatest A_i.x over 0/1
vectors, with a guard bit above it.  The field holds A_i.x minus that least
value, so it lies in [0, span_i] and never borrows from or carries into its
neighbours.  s = offset + sum of columns[j] over x_j = 1 is the packed sum
of x, and flipping x_j adds or subtracts columns[j].  x meets every row
exactly when

    (s + add_lo) & guards == guards and (add_hi - s) & guards == guards

add_lo holds 2^w_i - l_i and add_hi holds 2^w_i + u_i per field, where
[l_i, u_i] are the row's bounds in field units, read off row_sense and b
and clamped to [0, span_i + 1] and [-1, span_i]: an open side always
passes, and a row that no 0/1 vector can meet always fails.

The kernel rests on four facts:

* D, the ascending positions where x differs from the guide, loses only the
  flipped entry per step, so it stays ``np.flatnonzero(x != x_g)`` in order
  and every index drawn or tie broken over it picks the same position.
* A flip at j moves y by the displacement s_j c_j, with s_j = 1 - 2 x_j fixed
  until j is flipped, so neighbour dominance is displacement dominance.
  `_flip_dominators` holds, per (value, column), the int bitmask of the 2n
  signed displacements that strictly dominate it.  At its first
  best-move step a walk reads those masks for D and sets a `live` bitmask of
  D's signed columns; a position is nondominated when its mask and `live`
  share no bit, and a flip clears its bit.  Walks that never take a
  best-move step (every PR* walk, at best_move_prob 0) read no mask, so
  runs of the PR* variants alone never build them.
* The improvement-ratio ranks depend on y only through sign(y_k):
  (y_k + d)/y_k orders candidates as d for y_k > 0 and as -d otherwise (a
  zero y_k ranks by the raw value, smaller first, which is -d too), so the
  kernel ranks the integer keys s_k d_k, with s_k = 1 if y_k > 0 else -1.
  This equals ranking the float ratios while objective values stay below
  2**52 in magnitude, where float64 division keeps distinct integers apart.
  The walk keeps the keys in a list along D, built at its first rank and
  rebuilt only when sign(y) has changed since.  Two candidates are settled
  by one count, the later winning when at least 2 of its 3 keys are >= the
  earlier one's, which is the rank-sum rule for k = 2; three or more go to
  the pairwise tournament of `_rank_winner`.
* Every pair in ig_pairs starts at an IR key: `path_relink` records only
  pairs of rows that `select_pair` drew from the IR set, which only grows.  So
  a step looks its key up in the IR index first; only an unseen key takes
  the packed row test, and only a known key is looked up in ig_pairs.

A new feasible point goes into the IR set flat: its key onto `IrSet.keys`
and its y onto the `array('q')` `IrSet.ys`.  So a step leaves behind no
object that the garbage collector tracks, and the walks no longer trigger
collections.
`path_relink` builds a `Solution` only for each pair it walks, and the
final filter reads the points straight from `IrSet.ys` and builds one only
for each row it keeps: those rows are the front.

Guide search
------------
The sim/dif rules rank IR rows by Hamming distance d to the initiating
row: the most similar guide is the nearest row and the most different the
farthest.  Two rows agree in n - d positions, so this is the order of
equal positions reversed, with the same ties.  `IrSet._words` keeps every
key bit-packed, ceil(n/64) uint64 words per row, so a scan is one popcount
of an XOR per word instead of a compare of n int8 entries, the per-word
counts added into one vector.

Assignment instances go through the same rounding: their LB vertices are
already 0/1, so rounding leaves them unchanged, and only path relinking is
skipped unless `force_pr` is set.
"""

from __future__ import annotations

import logging
import time
from array import array
from dataclasses import dataclass, field
from itertools import compress
from operator import index

import numpy as np

from .errors import InsufficientSolutionsError, NoRoundedSolutionError, ValidationError
from .lbset import LbSet, compute_lb_set
from .lp import INT_TOL
from .model import KIND_ASSIGNMENT, P_OBJECTIVES, Problem, Solution
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
        try:
            self.seed = index(self.seed)
        except TypeError:
            raise ValidationError(f"seed must be an integer, got {self.seed!r}") from None
        try:
            self.iteration_multiplier = index(self.iteration_multiplier)
        except TypeError:
            raise ValidationError("iteration_multiplier must be an integer, "
                                  f"got {self.iteration_multiplier!r}") from None
        if self.iteration_multiplier < 0:
            raise ValidationError("iteration_multiplier must be >= 0")


class IrSet:
    """Feasible integer solutions rounded from the LB set, then grown by path
    relinking; the x vectors are pairwise distinct.

    Row k is `keys[k]`, its x as int8 bytes, and `ys[3k:3k + 3]`, its
    objective point, in discovery order.  Neither holds an object the
    garbage collector tracks, so growing the set triggers no collection.
    Indexing and iteration give `Solution`s, built as they are read.  For
    the sim/dif guide search the keys are also kept as packed words
    (`_words`), filled lazily.
    """

    def __init__(self):
        self.keys: list[bytes] = []
        self.ys = array("q")
        self.dropped_infeasible = 0
        self._index: set[bytes] = set()
        self._w = np.zeros((0, 0), dtype="<u8")     # row k < _filled packs keys[k]
        self._filled = 0
        # (initiating row, rule) -> (guide row, its Hamming distance, rows scanned)
        self._guides: dict[tuple[int, str], tuple[int, int, int]] = {}

    def __len__(self):
        return len(self.keys)

    def __contains__(self, key: bytes):
        return key in self._index

    def __getitem__(self, k: int) -> Solution:
        ys = self.ys
        return tuple.__new__(Solution, (self.keys[k], (ys[3 * k], ys[3 * k + 1], ys[3 * k + 2])))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.keys)))

    def _add(self, key: bytes, y) -> bool:
        """Add the row (key, y) unless its x vector is already present."""
        if key in self._index:
            return False
        self._index.add(key)
        self.keys.append(key)
        self.ys.extend(y)
        return True

    def _words(self) -> np.ndarray:
        """The packed x buffer: row k holds keys[k] as W = ceil(n/64)
        little-endian uint64 words, x_j at bit j % 64 of word j // 64, zero
        past n.  Rows 0 .. |IR|-1 are filled, rows past |IR| are unused;
        rows added since the last call are packed here, by one `packbits`."""
        k, filled = len(self.keys), self._filled
        if filled < k:
            n = len(self.keys[0])
            if k > len(self._w):
                grown = np.zeros((max(16, 2 * k), -(-n // 64)), dtype="<u8")
                if filled:
                    grown[:filled] = self._w[:filled]
                self._w = grown
            bits = np.frombuffer(b"".join(self.keys[filled:k]), dtype=np.uint8)
            self._w.view(np.uint8)[filled:k, :-(-n // 8)] = np.packbits(
                bits.reshape(k - filled, n), axis=1, bitorder="little")
            self._filled = k
        return self._w


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


def round_down(lb: LbSet, problem: Problem) -> IrSet:
    """Round every LB vertex (the rows of `lb.x`, in order) down to a binary
    vector and keep the feasible ones.

    Components within INT_TOL of 1 stay 1, everything else drops to 0
    (integral components are preserved, fractional ones floored).  Results
    whose row sums fail `Problem.rows_hold` are dropped with a warning
    count, duplicates are merged.
    """
    ir = IrSet()
    xs = (lb.x >= 1.0 - INT_TOL).astype(np.int8)
    keys = xs.view(f"V{problem.n}").ravel().tolist()      # x.tobytes() of each row
    x64 = xs.astype(np.int64)
    ys = (x64 @ problem.C.T).tolist()
    feasible = problem.rows_hold(x64 @ problem.A.T).tolist()
    for key, y in compress(zip(keys, ys), feasible):
        ir._add(key, y)
    ir.dropped_infeasible = len(keys) - sum(feasible)
    if ir.dropped_infeasible:
        log.warning("round_down dropped %d infeasible rounded solutions", ir.dropped_infeasible)
    if len(ir) == 0:
        raise NoRoundedSolutionError("no feasible rounded solution; report the LB set instead")
    return ir


def select_pair(ir: IrSet, rule: str, rng: Xoshiro256StarStar) -> tuple[int, int]:
    """Pick (initiating, guiding) rows of the IR set, as row indices.

    random: two distinct uniform picks.  sim/dif: uniform initiating pick,
    then the guiding row at the least / greatest Hamming distance, the
    popcount of the XOR of the packed rows (`IrSet._words`) summed word by
    word; ties go to the lowest index.  IR only grows by appending, so the
    best guide of each (initiating row, rule) is kept on the IR set and
    compared only against the rows added since; a later row takes over only
    when strictly better.  An unknown rule is refused before any draw.
    Nothing is recorded here: `path_relink` records the pairs it walks.
    """
    k = len(ir)
    if k < 2:
        raise InsufficientSolutionsError("path relinking needs at least two initial solutions")
    if rule == "random":
        i = rng.randint(k)
        g = rng.randint(k - 1)
        if g >= i:
            g += 1
        return i, g
    if rule not in ("sim", "dif"):
        raise ValidationError(f"unknown selection rule {rule!r}")
    i = rng.randint(k)
    g, best, scanned = ir._guides.get((i, rule), (-1, 0, 0))
    if scanned < k:
        ws = ir._words()
        n = len(ir.keys[0])
        dist = np.bitwise_count(ws[scanned:k, 0] ^ ws[i, 0])    # uint8, holds n + 1 when W = 1
        if ws.shape[1] > 1:
            # add the per-word counts in a dtype that holds n + 1: uint8 wraps at 256
            dist = dist.astype(np.min_scalar_type(n + 1), copy=False)
            for w in range(1, ws.shape[1]):
                dist += np.bitwise_count(ws[scanned:k, w] ^ ws[i, w])
        if rule == "sim":
            if i >= scanned:                # row i is never its own guide
                dist[i - scanned] = n + 1
            at = int(dist.argmin())
        else:                               # row i is at distance 0, below every other row
            at = int(dist.argmax())
        value = int(dist[at])
        if g < 0 or (value < best if rule == "sim" else value > best):
            g, best = scanned + at, value
        ir._guides[(i, rule)] = (g, best, k)
    return i, g


def _rank_winner(keys) -> int:
    """Index of the key triple with the largest rank sum.

    Per objective the keys are ranked 1..k, larger key meaning larger rank
    and ties ranked by index, as a stable ascending sort would; the row with
    the largest sum of its three ranks wins, ties to the lower index.  Ranks
    come from a pairwise tournament: in each pair, per objective, the larger
    key takes the point and a tie goes to the later row, which gives every
    row its rank minus one.
    """
    score = [0] * len(keys)
    for later in range(1, len(keys)):
        b0, b1, b2 = keys[later]
        for i in range(later):
            a0, a1, a2 = keys[i]
            won = (b0 >= a0) + (b1 >= a1) + (b2 >= a2)
            score[later] += won
            score[i] += 3 - won
    return score.index(max(score))


def _kept(problem: Problem, name: str, build):
    """build(problem), built by the first call for `name` on this Problem
    object and kept in its `__dict__`: the LB set of `run` and the walk
    tables.  A Problem is immutable and each builder deterministic, so the
    kept value stays valid; an equal but distinct Problem builds its own."""
    value = problem.__dict__.get(name)
    if value is None:
        value = build(problem)
        object.__setattr__(problem, name, value)        # Problem is frozen
    return value


def _walk_tables(problem: Problem) -> tuple:
    """The walk's tables, built in one pass over the rows: (moves, columns,
    offset, add_lo, add_hi, guards).  columns[j] is column j of A packed as
    the module docstring describes, offset, add_lo, add_hi and guards are
    the packed constants, and moves[v][j] is (dy, ds), the objective and the
    packed displacement of flipping x_j away from the value v."""
    columns = [0] * problem.n
    offset = add_lo = add_hi = guards = 0
    shift = 0
    for row, sense, rhs in zip(problem.A.tolist(), problem.row_sense, problem.b.tolist()):
        least = sum(a for a in row if a < 0)
        span = sum(a for a in row if a > 0) - least
        width = span.bit_length()
        low = 0 if sense == "<=" else min(max(rhs - least, 0), span + 1)
        high = span if sense == ">=" else min(max(rhs - least, -1), span)
        columns = [c + (a << shift) for c, a in zip(columns, row)]
        offset += -least << shift
        add_lo += ((1 << width) - low) << shift
        add_hi += ((1 << width) + high) << shift
        guards += 1 << (shift + width)
        shift += width + 1
    up = [(tuple(c), d) for c, d in zip(problem.C.T.tolist(), columns)]
    down = [(tuple(-v for v in c), -d) for c, d in up]
    return (up, down), columns, offset, add_lo, add_hi, guards


def _flip_dominators(problem: Problem) -> tuple:
    """Strict dominance among the 2n objective displacements of the walk's
    moves.  The displacement of flipping x_j away from v is bit j + v*n;
    dominators[v][j] is the int bitmask of the displacements that strictly
    dominate it (<= everywhere, < once)."""
    n = problem.n
    disp = np.concatenate([problem.C.T, -problem.C.T])          # row j + v*n
    masks = []
    for row in disp:          # one row at a time: memory stays linear in n
        beats_row = (disp <= row).all(axis=1) & (disp < row).any(axis=1)
        masks.append(int.from_bytes(np.packbits(beats_row, bitorder="little").tobytes(),
                                    "little"))
    return masks[:n], masks[n:]


def path_relink_walk(problem: Problem, s_i, s_g, ir: IrSet,
                     archives: PrArchives, rng: Xoshiro256StarStar,
                     best_move_prob: float, collect_visits: bool = False):
    """Walk from the initiating to the guiding solution, one flip per step.

    s_i and s_g are `Solution`s; the walk reads their keys and s_i.y, which
    must be the objective point of s_i's key.  Feasible, previously unseen
    intermediate solutions are appended to the IR set as rows; infeasible
    intermediates keep walking but are never archived.  The
    walk stops when the current solution reaches the guiding one or the
    current (S_i, S_g) pair was already used.  Past the first step, the
    pair is looked up only when the current key is in the IR set, which
    assumes that every pair in archives.ig_pairs starts at an IR key, as
    `path_relink` keeps it.  Returns the list of visited vectors
    (read-only int8 arrays) when collect_visits is set.
    """
    key, key_g = s_i.key(), s_g.key()
    pairs = archives.ig_pairs
    if key == key_g or (key, key_g) in pairs:
        return []
    moves, columns, offset, add_lo, add_hi, guards = _kept(problem, "_walk_tables", _walk_tables)
    n = len(key)
    x = bytearray(key)
    # 0/1 bytes: the XOR of the keys read as ints is 1 at each byte that differs
    differ = int.from_bytes(key, "little") ^ int.from_bytes(key_g, "little")
    differ = differ.to_bytes(n, "little")
    rest = list(compress(range(n), differ))     # ascending
    y0, y1, y2 = s_i.y
    packed = offset + sum(compress(columns, key))
    masks = None        # dominator masks and rank keys along rest, built on first use
    random, randint = rng.random, rng.randint
    known, keys, ys = ir._index, ir.keys, ir.ys     # new feasible points are appended here
    visits: list[bytes] = []
    while True:
        if random() < best_move_prob:
            if masks is None:
                dominators = _kept(problem, "_flip_dominators", _flip_dominators)
                masks = [dominators[x[j]][j] for j in rest]
                live = sum(1 << (j + n * x[j]) for j in rest)
                signs, ranked = None, [None] * len(rest)    # keys built at the first rank
            nd = [at for at, mask in enumerate(masks) if not mask & live]
            if len(nd) == 1:
                at = nd[0]
            else:
                now = (y0 > 0, y1 > 0, y2 > 0)
                if signs != now:
                    signs = now
                    s0, s1, s2 = (1 if positive else -1 for positive in now)
                    ranked = [(s0 * d0, s1 * d1, s2 * d2)
                              for d0, d1, d2 in (moves[x[j]][j][0] for j in rest)]
                if len(nd) == 2:
                    at, later = nd
                    a0, a1, a2 = ranked[at]
                    b0, b1, b2 = ranked[later]
                    if (b0 >= a0) + (b1 >= a1) + (b2 >= a2) >= 2:
                        at = later
                else:
                    at = nd[_rank_winner([ranked[i] for i in nd])]
        else:
            at = randint(len(rest))
        j = rest.pop(at)
        v = x[j]
        if masks is not None:
            del masks[at], ranked[at]
            live ^= 1 << (j + n * v)
        dy, ds = moves[v][j]
        x[j] = v ^ 1
        y0 += dy[0]
        y1 += dy[1]
        y2 += dy[2]
        packed += ds
        key = bytes(x)
        if collect_visits:
            visits.append(key)
        if key in known:            # only an IR key can start a recorded pair
            if (key, key_g) in pairs:
                break
        elif (packed + add_lo) & guards == guards and (add_hi - packed) & guards == guards:
            known.add(key)
            keys.append(key)
            ys.append(y0)
            ys.append(y1)
            ys.append(y2)
        if not rest:
            break
    return [np.frombuffer(v, dtype=np.int8) for v in visits]


def path_relink(ir: IrSet, archives: PrArchives, config: PrConfig,
                rng: Xoshiro256StarStar, problem: Problem, iterations: int) -> None:
    """Outer relinking loop: per iteration, select a pair of IR rows, and
    walk it and record it in ig_pairs unless it is recorded already.

    A recorded pair's walk would stop before its first draw, so skipping it
    leaves the stream, the IR set and ig_pairs as walking it would.
    `Solution`s are built only for the pairs walked.  `select_pair` and
    `path_relink_walk` are looked up in the module namespace per call.
    """
    rule = _PAIR_RULE[config.variant]
    prob = config.best_move_prob if config.variant in _USES_BEST_MOVE else 0.0
    pairs, keys = archives.ig_pairs, ir.keys
    for _ in range(iterations):
        i, g = select_pair(ir, rule, rng)
        pair = (keys[i], keys[g])
        if pair in pairs:
            continue
        path_relink_walk(problem, ir[i], ir[g], ir, archives, rng, prob)
        pairs.add(pair)


def solve_from_lb(problem: Problem, lb: LbSet, config: PrConfig | None = None):
    """Rounding, optional path relinking and the final filter on a computed
    LB set, which is only read, so one set can serve many runs.

    Returns (front, report) like `run`; report.time_sec is `lb.seconds`
    plus this call's own wall time, and report.lp_count is the LPs that
    enumerated `lb`.  A relinking run makes its random stream before its
    clock starts, so the stream's table, built once per process, stays out
    of time_sec as module loading does.
    """
    config = config or PrConfig()
    relink = config.variant != "RD" and (problem.kind != KIND_ASSIGNMENT or config.force_pr)
    rng = Xoshiro256StarStar(config.seed) if relink else None
    t0 = time.perf_counter()
    pr_iterations = 0
    ir = round_down(lb, problem)
    ir_size = len(ir)
    if relink:
        if ir_size < 2:
            log.warning("IR set has %d solution(s); path relinking skipped", ir_size)
        else:
            pr_iterations = ir_size * config.iteration_multiplier
            path_relink(ir, PrArchives(), config, rng, problem, pr_iterations)
    points = np.frombuffer(ir.ys, np.int64).reshape(-1, P_OBJECTIVES)
    front = filter_nondominated_solutions(ir, points=points)

    report = RunReport(
        variant=config.variant,
        seed=config.seed,
        y_count=len(front),
        time_sec=lb.seconds + (time.perf_counter() - t0),
        lp_count=lb.lp_count,
        ir_size=ir_size,
        pr_iterations=pr_iterations,
    )
    return front, report


def run(problem: Problem, config: PrConfig | None = None):
    """Full pipeline: LB set, rounding, optional path relinking, final filter.

    Returns (front, report): the mutually nondominated feasible solutions
    and a RunReport with |Y|, wall time, LP count, iteration counters.
    Assignment instances skip path relinking unless config.force_pr is set;
    rounding leaves their integral LB solutions unchanged.

    The LB set is enumerated once per `Problem` object, by the first call
    on it, and then kept with that object by `_kept`, like the walk tables:
    a Problem is immutable and `compute_lb_set` deterministic, so every
    later call, whatever its variant or seed, reads the same set.  An equal
    but distinct Problem enumerates its own.  The wall time is that of
    `solve_from_lb`: the LB enumeration's (`lb.seconds`, also on the calls
    that reuse the set) plus its own, not module loading.
    """
    return solve_from_lb(problem, _kept(problem, "_lb_set", compute_lb_set), config)
