"""Tri-objective binary programs: data model, benchmark classes, file I/O.

All objectives are stored in minimisation form; an objective ingested as
"max" is negated exactly once and the original sense is kept for reporting.
Three problem kinds are supported:

* ``knapsack``   - maximise three profit rows under one capacity row,
* ``assignment`` - minimise three cost matrices under the two families of
  assignment equalities (variable ``x[r*T + l]`` assigns task ``l`` to
  agent ``r``),
* ``general``    - arbitrary rows with senses ``<=``, ``>=``, ``=``.

Problems and solutions are immutable after construction and safe to share
across concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, ParseError, ValidationError

P_OBJECTIVES = 3

KIND_KNAPSACK = "knapsack"
KIND_ASSIGNMENT = "assignment"
KIND_GENERAL = "general"
KINDS = (KIND_KNAPSACK, KIND_ASSIGNMENT, KIND_GENERAL)

ROW_SENSES = ("<=", ">=", "=")
_ROW_TESTS = {"<=": np.less_equal, ">=": np.greater_equal, "=": np.equal}     # A_i.x vs b_i
OBJ_SENSES = ("min", "max")

INSTANCE_MAGIC = "tribip-instance v1"
FRONT_MAGIC = "tribip-front v1"

DEFAULT_COEFF_RANGE = (1, 1000)

_INT64_BOUND = 2 ** 63      # int64 holds every integer of smaller magnitude, and its negation


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _int64_array(values, what: str) -> np.ndarray:
    """values as a new int64 array, so that a later write to the caller's
    array cannot change it.  Ragged rows are refused, as is a value that is
    not an integer (1.5, nan, 1+5j, the string '1') rather than truncated or
    parsed, and one of magnitude 2**63 or more, -2**63 included, rather than
    wrapped (OverflowError, or a uint64 or float beyond the bound); integral
    floats such as 2.0 and numpy ints pass."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:                   # ragged rows
        raise ValidationError(f"{what}: not an array of equal rows ({exc})") from None
    if raw.dtype.kind not in "biufO":           # strings, bytes, complex numbers
        raise ValidationError(f"{what}: a value of dtype {raw.dtype} is not an integer")
    try:
        if raw.dtype.kind in "uf" and (abs(raw) >= _INT64_BOUND).any():
            raise OverflowError
        with np.errstate(invalid="ignore"):         # nan: refused below
            out = raw.astype(np.int64)
    except OverflowError:
        raise ValidationError(f"{what}: a value of magnitude 2**63 or more, beyond int64") from None
    except (TypeError, ValueError) as exc:      # None, 'a', or nan among Python ints
        raise ValidationError(f"{what}: a value is not an integer ({exc})") from None
    if raw.dtype.kind in "fO":
        off = out != raw            # a fraction, nan or string differs from its cast
        if off.any():
            raise ValidationError(f"{what}: {raw[off].tolist()[0]!r} is not an integer")
    if (out == -_INT64_BOUND).any():        # after the nan test: nan casts to -2**63
        raise ValidationError(f"{what}: a value of magnitude 2**63 or more, beyond int64")
    return out


def _sense_signs(senses) -> np.ndarray:
    """+1 for each min objective, -1 for each max one (native = sign * internal)."""
    return np.array([1 if s == "min" else -1 for s in senses], dtype=np.int64)


@dataclass(frozen=True)
class Problem:
    """A tri-objective binary program in minimisation form.

    Attributes
    ----------
    kind : one of ``knapsack``, ``assignment``, ``general``.
    C : (3, n) int64 objective matrix, minimisation form.
    A : (m, n) int64 constraint matrix.
    b : (m,) int64 right-hand sides.
    row_sense : per-row sense, ``<=`` / ``>=`` / ``=``.
    original_sense : per-objective ingested sense, ``min`` / ``max``.

    The absolute coefficients of each row of C and of A add up to less than
    2**63, so no int64 sum of a row's terms over any 0/1 x can wrap.
    """

    kind: str
    C: np.ndarray
    A: np.ndarray
    b: np.ndarray
    row_sense: tuple[str, ...]
    original_sense: tuple[str, ...]

    def __post_init__(self):
        C = _int64_array(self.C, "objective matrix")
        if C.ndim != 2 or C.shape[0] != P_OBJECTIVES:
            raise ValidationError(f"objective matrix must have {P_OBJECTIVES} rows, got shape {C.shape}")
        n = C.shape[1]
        if n < 1:
            raise ValidationError("need at least one variable")
        A = _int64_array(self.A, "constraint matrix")
        b = _int64_array(self.b, "right-hand sides")
        if A.ndim != 2 or A.shape[1] != n:
            raise ValidationError(f"constraint matrix shape {A.shape} inconsistent with n={n}")
        m = A.shape[0]
        if b.shape != (m,):
            raise ValidationError(f"rhs length {b.shape} inconsistent with m={m}")
        row_sense = tuple(self.row_sense)
        if len(row_sense) != m or any(s not in ROW_SENSES for s in row_sense):
            raise ValidationError(f"row_sense must be {m} of {ROW_SENSES}, got {row_sense}")
        original_sense = tuple(self.original_sense)
        if len(original_sense) != P_OBJECTIVES or any(s not in OBJ_SENSES for s in original_sense):
            raise ValidationError(f"original_sense must be {P_OBJECTIVES} of {OBJ_SENSES}")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}")
        for what, rows in (("objective", C), ("constraint", A)):
            for i, row in enumerate(rows.tolist()):
                if sum(map(abs, row)) >= _INT64_BOUND:       # exact: Python ints
                    raise ValidationError(f"{what} row {i + 1}: absolute coefficients add up "
                                          "to 2**63 or more, beyond int64")
        object.__setattr__(self, "C", _frozen(C))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "row_sense", row_sense)
        object.__setattr__(self, "original_sense", original_sense)
        if self.kind == KIND_KNAPSACK:
            self._check_knapsack()
        elif self.kind == KIND_ASSIGNMENT:
            self._check_assignment()

    def _check_knapsack(self):
        if self.m != 1 or self.row_sense != ("<=",):
            raise ValidationError("knapsack needs exactly one <= capacity row")
        if self.original_sense != ("max",) * P_OBJECTIVES:
            raise ValidationError("knapsack objectives must be ingested as max profits")
        if (self.C > 0).any():
            raise ValidationError("knapsack profits must be nonnegative")
        if (self.A[0] < 0).any():
            raise ValidationError("knapsack weights must be nonnegative")
        if self.b[0] < 0:
            raise ValidationError("knapsack capacity must be nonnegative")

    def _check_assignment(self):
        t = math.isqrt(self.n)
        if t * t != self.n:
            raise ValidationError(f"assignment variable count {self.n} is not a perfect square")
        if self.original_sense != ("min",) * P_OBJECTIVES:
            raise ValidationError("assignment objectives must be ingested as min costs")
        if (self.C < 0).any():
            raise ValidationError("assignment costs must be nonnegative")
        expected_a, expected_b, expected_s = _assignment_rows(t)
        if (self.m != 2 * t or self.row_sense != expected_s
                or not np.array_equal(self.A, expected_a) or not np.array_equal(self.b, expected_b)):
            raise ValidationError("assignment constraint rows must be the two equality families")

    @property
    def n(self) -> int:
        return self.C.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return P_OBJECTIVES

    @property
    def weights(self) -> np.ndarray:
        if self.kind != KIND_KNAPSACK:
            raise ValidationError("weights only defined for knapsack problems")
        return self.A[0]

    @property
    def capacity(self) -> int:
        if self.kind != KIND_KNAPSACK:
            raise ValidationError("capacity only defined for knapsack problems")
        return int(self.b[0])

    @property
    def tasks(self) -> int:
        if self.kind != KIND_ASSIGNMENT:
            raise ValidationError("tasks only defined for assignment problems")
        return math.isqrt(self.n)

    def rows_hold(self, sums) -> np.ndarray:
        """Mask of the rows of `sums`, (k, m) int64 row sums A.x, that meet each
        bound b_i in the sense row_sense[i]; exact, as no row sum can wrap."""
        held = np.ones(len(sums), dtype=bool)
        for lhs, sense, rhs in zip(sums.T, self.row_sense, self.b.tolist()):
            held &= _ROW_TESTS[sense](lhs, rhs)
        return held

    def sense_signs(self) -> np.ndarray:
        """+1 for min rows, -1 for max rows (native = sign * internal)."""
        return _sense_signs(self.original_sense)

    def native_objectives(self) -> np.ndarray:
        """Objective matrix in the ingested senses (profits positive again)."""
        return self.sense_signs()[:, None] * self.C


def _check_binary(x, n: int | None = None) -> np.ndarray:
    """x as an int8 array, after checking that it is a 0/1 vector (of length
    n when n is given).  The values are compared before any cast, so 0.7 and
    300 are refused rather than truncated or wrapped."""
    arr = np.asarray(x)
    if arr.ndim != 1 or (n is not None and arr.shape[0] != n):
        expected = "be 1-D" if n is None else f"have length {n}"
        raise DimensionError(f"solution vector must {expected}, got shape {arr.shape}")
    if ((arr != 0) & (arr != 1)).any():
        raise ValidationError("solution vector must be binary")
    return arr.astype(np.int8)


class Solution(tuple):
    """A binary solution with its objective point (minimisation form), as
    the tuple (key, y) in which the IR set stores its rows: `key()` is x as
    int8 bytes, `.y` three ints and `.x` a read-only int8 view of the key.

    `Solution(x, y)` checks x and y once: y holds three integers of
    magnitude below 2**63, the rule of `Problem`'s arrays, so y and its
    negation fit int64.  The IR set and the exact oracle build their rows
    with ``tuple.__new__(Solution, (key, y))``, unchecked, as their x and y
    come from a validated Problem.
    """

    __slots__ = ()

    def __new__(cls, x, y):
        y = _int64_array(y, "objective point")
        if y.shape != (P_OBJECTIVES,):
            raise DimensionError(f"objective point must have {P_OBJECTIVES} entries, "
                                 f"got {y.tolist()!r}")
        return tuple.__new__(cls, (_check_binary(x).tobytes(), tuple(y.tolist())))

    def __getnewargs__(self):
        return self.x, self[1]

    def key(self) -> bytes:
        return self[0]

    y = property(itemgetter(1))

    @property
    def x(self) -> np.ndarray:
        return np.frombuffer(self[0], dtype=np.int8)


def evaluate(problem: Problem, x) -> tuple[int, int, int]:
    """Objective point C.x of a binary vector, in minimisation form."""
    arr = _check_binary(x, problem.n)
    y = problem.C @ arr
    return tuple(int(v) for v in y)


def is_feasible(problem: Problem, x) -> bool:
    """Whether the binary vector x meets every row: `Problem.rows_hold` on A.x."""
    return bool(problem.rows_hold((problem.A @ _check_binary(x, problem.n))[None])[0])


def knapsack_problem(profits, weights, capacity) -> Problem:
    """Build a knapsack problem from native (max) profits."""
    profits = _int64_array(profits, "profits")
    if profits.ndim != 2 or profits.shape[0] != P_OBJECTIVES:
        raise ValidationError(f"profits must have {P_OBJECTIVES} rows")
    n = profits.shape[1]
    weights = _int64_array(weights, "weights")
    if weights.shape != (n,):
        raise DimensionError(f"weights must have length {n}")
    return Problem(
        kind=KIND_KNAPSACK,
        C=-profits,
        A=weights[None, :],
        b=_int64_array([capacity], "capacity"),
        row_sense=("<=",),
        original_sense=("max",) * P_OBJECTIVES,
    )


def _assignment_rows(tasks: int):
    n = tasks * tasks
    a = np.zeros((2 * tasks, n), dtype=np.int64)
    for r in range(tasks):
        a[r, r * tasks:(r + 1) * tasks] = 1            # agent r does one task
    for l in range(tasks):
        a[tasks + l, l::tasks] = 1                     # task l done by one agent
    b = np.ones(2 * tasks, dtype=np.int64)
    senses = ("=",) * (2 * tasks)
    return a, b, senses


def assignment_problem(costs) -> Problem:
    """Build an assignment problem from three tasks x tasks cost matrices."""
    costs = _int64_array(costs, "costs")
    if costs.ndim != 3 or costs.shape[0] != P_OBJECTIVES or costs.shape[1] != costs.shape[2]:
        raise ValidationError("costs must have shape (3, tasks, tasks)")
    t = costs.shape[1]
    a, b, senses = _assignment_rows(t)
    return Problem(
        kind=KIND_ASSIGNMENT,
        C=costs.reshape(P_OBJECTIVES, t * t),
        A=a,
        b=b,
        row_sense=senses,
        original_sense=("min",) * P_OBJECTIVES,
    )


def general_problem(objectives, senses, a, row_sense, b) -> Problem:
    """Build a general binary program; max objectives are negated internally."""
    obj = _int64_array(objectives, "objectives")
    senses = tuple(senses)
    if obj.ndim != 2 or obj.shape[0] != P_OBJECTIVES or len(senses) != P_OBJECTIVES:
        raise ValidationError(f"need {P_OBJECTIVES} objective rows and senses")
    return Problem(
        kind=KIND_GENERAL,
        C=_sense_signs(senses)[:, None] * obj,
        A=a,
        b=b,
        row_sense=tuple(row_sense),
        original_sense=senses,
    )


def generate_knapsack(n: int, seed: int, coeff_range=DEFAULT_COEFF_RANGE) -> Problem:
    """Random knapsack: profits and weights uniform in coeff_range,
    capacity = ceil(total weight / 2).  Deterministic in seed (PCG64);
    profits are drawn before weights."""
    lo, hi = int(coeff_range[0]), int(coeff_range[1])
    if n < 1 or lo < 1 or hi < lo:
        raise ValidationError("need n >= 1 and a nonempty positive coefficient range")
    rng = np.random.default_rng(seed)
    profits = rng.integers(lo, hi + 1, size=(P_OBJECTIVES, n), dtype=np.int64)
    weights = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    capacity = -(-int(weights.sum()) // 2)
    return knapsack_problem(profits, weights, capacity)


def generate_assignment(tasks: int, seed: int, coeff_range=DEFAULT_COEFF_RANGE) -> Problem:
    """Random assignment: three tasks x tasks cost matrices uniform in
    coeff_range.  Deterministic in seed (PCG64)."""
    lo, hi = int(coeff_range[0]), int(coeff_range[1])
    if tasks < 1 or lo < 0 or hi < lo:
        raise ValidationError("need tasks >= 1 and a nonempty nonnegative coefficient range")
    rng = np.random.default_rng(seed)
    costs = rng.integers(lo, hi + 1, size=(P_OBJECTIVES, tasks, tasks), dtype=np.int64)
    return assignment_problem(costs)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

class _LineReader:
    def __init__(self, path, text: str):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0

    def _advance(self) -> tuple[int, str] | None:
        """The next line that is neither blank nor a comment, with its number."""
        while self.pos < len(self.lines):
            self.pos += 1
            line = self.lines[self.pos - 1].strip()
            if line and not line.startswith("#"):
                return self.pos, line
        return None

    def next(self, what: str) -> tuple[int, str]:
        found = self._advance()
        if found is None:
            raise ParseError(self.path, self.pos + 1, f"unexpected end of file, expected {what}")
        return found

    def end(self, what: str) -> None:
        """Refuse any line left after the last one expected."""
        found = self._advance()
        if found is not None:
            raise ParseError(self.path, found[0], f"unexpected line after {what}")

    def keyword(self, key: str) -> list[str]:
        no, line = self.next(f"'{key}' line")
        parts = line.split()
        if parts[0] != key:
            raise ParseError(self.path, no, f"expected '{key}', got '{parts[0]}'")
        return parts[1:]

    def section(self, key: str) -> None:
        """A `key` line that opens a block of rows and takes no values."""
        if self.keyword(key):
            raise ParseError(self.path, self.pos, f"{key} keyword takes no values")

    def choices(self, key: str, count: int, allowed) -> list[str]:
        """The values of a `key` line: exactly count of them, each in allowed."""
        vals = self.keyword(key)
        if len(vals) != count or any(v not in allowed for v in vals):
            raise ParseError(self.path, self.pos, f"{key} must list {count} of {allowed}")
        return vals

    def ints(self, key: str, count: int) -> list[int]:
        vals = self.keyword(key)
        return self._to_ints(vals, count, key)

    def int_row(self, what: str, count: int) -> list[int]:
        no, line = self.next(what)
        return self._to_ints(line.split(), count, what, line_no=no)

    def _to_ints(self, tokens, count, what, line_no=None):
        no = line_no if line_no is not None else self.pos
        if count is not None and len(tokens) != count:
            raise ParseError(self.path, no, f"{what}: expected {count} values, got {len(tokens)}")
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(self.path, no, f"{what}: not an integer: {exc}") from None
        if any(abs(v) >= _INT64_BOUND for v in values):    # -2**63 included, as in Problem
            raise ParseError(self.path, no, f"{what}: a value of magnitude 2**63 or more")
        return values


def _read_header(path: Path, magic: str) -> tuple[_LineReader, str, int, list[str]]:
    """Open a tribip file and read its header: the magic line, then kind, n,
    p and sense.  Returns the reader, positioned after the sense line, with
    kind, n and the objective senses."""
    rd = _LineReader(path, path.read_text())
    no, line = rd.next("file magic")
    if line != magic:
        raise ParseError(path, no, f"unrecognised magic line {line!r}")
    kind, = rd.choices("kind", 1, KINDS)
    n = rd.ints("n", 1)[0]
    p = rd.ints("p", 1)[0]
    if p != P_OBJECTIVES:
        raise ValidationError(f"{path}: this artifact fixes p = {P_OBJECTIVES}, file declares p = {p}")
    return rd, kind, n, rd.choices("sense", P_OBJECTIVES, OBJ_SENSES)


def _header_lines(magic: str, problem: Problem) -> list[str]:
    """The header lines `_read_header` reads, for `problem`."""
    return [magic, f"kind {problem.kind}", f"n {problem.n}", f"p {problem.p}",
            "sense " + " ".join(problem.original_sense)]


def write_instance(problem: Problem, path) -> None:
    lines = _header_lines(INSTANCE_MAGIC, problem)
    if problem.kind == KIND_ASSIGNMENT:
        lines.append(f"tasks {problem.tasks}")
    lines.append("objectives")
    for row in problem.native_objectives():
        lines.append(" ".join(str(int(v)) for v in row))
    if problem.kind == KIND_KNAPSACK:
        lines.append("weights")
        lines.append(" ".join(str(int(v)) for v in problem.weights))
        lines.append(f"capacity {problem.capacity}")
    elif problem.kind == KIND_GENERAL:
        lines.append(f"m {problem.m}")
        lines.append("rowsense " + " ".join(problem.row_sense))
        lines.append("A")
        for row in problem.A:
            lines.append(" ".join(str(int(v)) for v in row))
        lines.append("b " + " ".join(str(int(v)) for v in problem.b))
    Path(path).write_text("\n".join(lines) + "\n")


def read_instance(path) -> Problem:
    """Parse an instance file; malformed content, a value of magnitude 2**63
    or more or a line after the last one expected included, raises
    ParseError with the offending line, semantic violations raise
    ValidationError."""
    path = Path(path)
    rd, kind, n, senses = _read_header(path, INSTANCE_MAGIC)
    tasks = None
    if kind == KIND_ASSIGNMENT:
        tasks = rd.ints("tasks", 1)[0]
    rd.section("objectives")
    obj = [rd.int_row(f"objective row {k + 1}", n) for k in range(P_OBJECTIVES)]
    obj = np.array(obj, dtype=np.int64)

    if kind == KIND_KNAPSACK:
        if senses != ["max"] * P_OBJECTIVES:
            raise ValidationError(f"{path}: knapsack objectives must all be max")
        rd.section("weights")
        weights = rd.int_row("weights row", n)
        capacity = rd.ints("capacity", 1)[0]
        problem = knapsack_problem(obj, weights, capacity)
    elif kind == KIND_ASSIGNMENT:
        if tasks is None or tasks * tasks != n:
            raise ValidationError(f"{path}: tasks^2 must equal n")
        if senses != ["min"] * P_OBJECTIVES:
            raise ValidationError(f"{path}: assignment objectives must all be min")
        problem = assignment_problem(obj.reshape(P_OBJECTIVES, tasks, tasks))
    else:
        m = rd.ints("m", 1)[0]
        row_sense = rd.choices("rowsense", m, ROW_SENSES)
        rd.section("A")
        a = [rd.int_row(f"constraint row {i + 1}", n) for i in range(m)]
        b = rd.ints("b", m)
        problem = general_problem(obj, senses, a, tuple(row_sense), b)
    rd.end(f"the {kind} instance")
    return problem


# ---------------------------------------------------------------------------
# front files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontData:
    """Parsed front file: metadata plus (x, native y) records.  A 0/1
    record reads as (int8 x, int y), a '~' record as (float64 x, float y)."""

    kind: str
    n: int
    sense: tuple[str, ...]
    records: tuple

    def min_points(self) -> np.ndarray:
        """Objective points converted to minimisation form: int64 when every
        record is a 0/1 record (its x is int8), float64 otherwise."""
        exact = all(rec[0].dtype == np.int8 for rec in self.records)
        ys = np.array([rec[1] for rec in self.records], dtype=np.int64 if exact else np.float64)
        return _sense_signs(self.sense)[None, :] * ys.reshape(-1, P_OBJECTIVES)


def _format_number(v) -> str:
    f = float(v)
    if f == int(f):
        return str(int(f))
    return repr(f)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")      # a Solution's key -> its 0/1 digits


def write_front(path, problem: Problem, entries: Iterable) -> None:
    """Write a front file.

    ``entries`` may be Solution objects or (x, y) pairs where y is in
    minimisation form; the entry type decides the record.  A Solution is
    written as the 0/1 digits of its key and its y as exact integers.  A
    pair (an LB-set export) is flagged with '~' and its x written as
    comma-separated numbers, its y as numbers, integral values without a
    fraction.  Objective points are written in the original senses.  An
    entry whose x does not have length n, or a pair whose y does not have 3
    values, is refused with DimensionError, and nothing is written then.  A
    Solution's y needs no check here: its values and their negations fit
    int64, which the reader asks of a 0/1 record.
    """
    signs = problem.sense_signs().tolist()
    records = []
    for entry in entries:
        if isinstance(entry, Solution):
            key, y = entry
            width, xs = len(key), key.translate(_BIT_DIGITS).decode("ascii")
            ys = [str(s * v) for s, v in zip(signs, y)]
        else:
            x, y = entry
            if len(y) != P_OBJECTIVES:
                raise DimensionError(f"objective point must have {P_OBJECTIVES} entries, got {y!r}")
            width, xs = len(x), "~" + ",".join(map(_format_number, x))
            ys = [_format_number(s * float(v)) for s, v in zip(signs, y)]
        if width != problem.n:
            raise DimensionError(f"solution vector length {width} != n={problem.n}")
        records.append(" ".join([xs, *ys]))
    lines = _header_lines(FRONT_MAGIC, problem) + [f"count {len(records)}", "solutions"]
    Path(path).write_text("\n".join(lines + records) + "\n")


def read_front(path) -> FrontData:
    """Parse a front file: exactly count records, each a 0/1 digit string x
    with integer objective values below 2**63 in magnitude, or a '~' record
    with numbers.  Malformed content raises ParseError with the offending
    line."""
    path = Path(path)
    rd, kind, n, sense = _read_header(path, FRONT_MAGIC)
    count = rd.ints("count", 1)[0]
    if count < 0:
        raise ParseError(path, rd.pos, f"count must be nonnegative, got {count}")
    rd.section("solutions")
    records = []
    for _ in range(count):
        no, line = rd.next("solution record")
        parts = line.split()
        if len(parts) != 1 + P_OBJECTIVES:
            raise ParseError(path, no, f"record needs x plus {P_OBJECTIVES} objective values")
        xs = parts[0]
        fractional = xs.startswith("~")
        digits = xs.encode("ascii", "replace")
        if not fractional and digits.translate(None, b"01"):
            raise ParseError(path, no, f"solution vector {xs!r} is not a string of 0/1 digits")
        try:
            if fractional:
                x = np.array([float(t) for t in xs[1:].split(",")], dtype=np.float64)
                y = tuple(float(t) for t in parts[1:])
            else:
                x = np.frombuffer(digits, dtype=np.int8) - 48
                y = tuple(int(t) for t in parts[1:])
        except ValueError as exc:
            raise ParseError(path, no, f"bad solution record: {exc}") from None
        if len(x) != n:
            raise ParseError(path, no, f"solution vector length {len(x)} != n={n}")
        if not fractional and max(map(abs, y)) >= _INT64_BOUND:
            raise ParseError(path, no, "objective value does not fit int64")
        records.append((x, y))
    rd.end(f"{count} solution records")
    return FrontData(kind=kind, n=n, sense=tuple(sense), records=tuple(records))
