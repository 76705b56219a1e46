import hashlib
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tribip
from tribip import (DimensionError, EnumerationLimitError, ReferenceFront,
                    ValidationError, exact_front, exact_front_solutions,
                    filter_nondominated, filter_nondominated_solutions, hv_percent,
                    hypervolume, normalize)
from tribip import metrics
from tribip.metrics import _first_nondominated

from conftest import (brute_force_feasible_points, brute_force_front, dominates,
                      hypervolume_mc, naive_filter, naive_hypervolume)


def test_dominates_basic():
    assert dominates((1, 2, 3), (1, 2, 4))
    assert not dominates((1, 2, 3), (3, 2, 1))
    assert not dominates((3, 2, 1), (1, 2, 3))
    assert not dominates((1, 2, 3), (1, 2, 3))


def test_dominates_dimension():
    with pytest.raises(DimensionError):
        dominates((1, 2), (1, 2, 3))


def test_filter_simple():
    out = filter_nondominated([(1, 1, 1), (2, 2, 2)])
    assert out.tolist() == [[1, 1, 1]]


def test_filter_keeps_nondominated_set():
    pts = [(1, 5, 9), (5, 1, 9), (9, 5, 1)]
    out = filter_nondominated(pts)
    assert sorted(map(tuple, out.tolist())) == sorted(pts)


def test_filter_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.integers(0, 30, size=(100, 3))
        out = [tuple(r) for r in filter_nondominated(pts).tolist()]
        assert out == naive_filter(pts)


_HEAD = 64              # rows the forward screen resolves pairwise at a time
_coord = st.integers(-4, 4)
# a plane x + y + z = 30: distinct points on it are mutually nondominated
_plane = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(lambda p: (p[0], p[1], 30 - p[0] - p[1]))
_points = st.one_of(
    st.lists(st.tuples(_coord, _coord, _coord), max_size=3 * _HEAD),      # duplicates, equal sums
    st.lists(_plane, max_size=3 * _HEAD),                                 # all nondominated
    st.tuples(st.lists(_plane, min_size=_HEAD + 1, max_size=2 * _HEAD),   # more than one head
              st.lists(st.tuples(_coord, _coord, _coord), max_size=_HEAD))
    .map(lambda parts: parts[0] + parts[1]))


@settings(max_examples=300, deadline=None)
@given(points=_points)
@example(points=[])
@example(points=[(1, 2, 3)])
@example(points=[(1, 1, 1), (0, 1, 1)])                 # resolved only inside the head
@example(points=[(i, 2 * _HEAD - i, 0) for i in range(2 * _HEAD)] + [(_HEAD, _HEAD, 1)])
def test_filter_matches_pairwise_oracle(points):
    pts = np.array(points, dtype=np.int64).reshape(-1, 3)
    assert [tuple(r) for r in filter_nondominated(pts).tolist()] == naive_filter(points)


def test_filter_matches_pairwise_oracle_where_sums_wrap():
    """Coordinates near +-2**62 make int64 coordinate sums wrap, and the
    screen order must still put a dominating row first."""
    rng = np.random.default_rng(9)
    big = 2 ** 62
    cases = [[(big, big, i) for i in range(_HEAD)] + [(big - 1, big - 1, 0)]]
    for _ in range(60):
        k = int(rng.integers(_HEAD + 1, 3 * _HEAD + 8))
        pts = rng.choice([-big, big], size=(k, 3)) + rng.integers(-2, 3, size=(k, 3))
        cases.append(pts.tolist())
    for points in cases:
        got = filter_nondominated(np.array(points, dtype=np.int64))
        assert [tuple(r) for r in got.tolist()] == naive_filter(points)


# a rounded float sum ties a row with the row that dominates it, and a full
# head of mutually nondominated rows with that sum sits between the two
_ROUNDED_TIE = ([(1e16, 1, 0)] + [(2 * i, 0, 1e16 - 2 * i) for i in range(1, _HEAD + 1)]
                + [(1e16, 0, 0)])


@settings(max_examples=300, deadline=None)
@given(points=_points, dtype=st.sampled_from([np.int64, np.float64]))
@example(points=[], dtype=np.int64)
@example(points=[(1, 1, 1)] * (2 * _HEAD + 1) + [(0, 1, 1)], dtype=np.int64)   # equal rows over heads
@example(points=_ROUNDED_TIE, dtype=np.float64)
def test_first_nondominated_keeps_first_positions(points, dtype):
    pts = np.array(points, dtype=dtype).reshape(-1, 3)
    first = {}
    for i, p in enumerate(points):
        first.setdefault(tuple(int(v) for v in p), i)
    got = _first_nondominated(pts)
    assert got.tolist() == [first[p] for p in naive_filter(points)]


@settings(max_examples=300, deadline=None)
@given(points=_points, dtype=st.sampled_from([np.int64, np.float64]))
def test_filter_dedupe_matches_np_unique(points, dtype):
    assume(points)
    pts = np.array(points, dtype=dtype)
    uniq = np.unique(pts, axis=0)
    front = set(naive_filter(points))
    want = uniq[[tuple(int(v) for v in row) in front for row in uniq.tolist()]]
    got = filter_nondominated(pts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(points=_points, data=st.data())
def test_filter_solutions_keeps_first_discovered(points, data):
    order = data.draw(st.permutations(range(len(points))))
    sols = [tribip.Solution(np.array([i % 2, i // 2 % 2], dtype=np.int8), points[i])
            for i in order]
    first = {}
    for sol in sols:
        first.setdefault(sol.y, sol)
    front = filter_nondominated_solutions(sols)
    assert [s.y for s in front] == naive_filter(points)
    assert all(s is first[s.y] for s in front)


def test_filter_idempotent_and_order_insensitive():
    rng = np.random.default_rng(2)
    pts = rng.integers(0, 20, size=(60, 3))
    once = filter_nondominated(pts)
    twice = filter_nondominated(once)
    assert np.array_equal(once, twice)
    shuffled = pts[rng.permutation(len(pts))]
    assert np.array_equal(filter_nondominated(shuffled), once)


def test_normalize_corners():
    ref = ReferenceFront.from_points([(0, 0, 10), (10, 10, 0)])
    lo = normalize([(0, 0, 0)], ref)
    assert np.allclose(lo, [[0, 0, 0]])
    hi = normalize([(10, 10, 10)], ref)
    assert np.allclose(hi, [[1, 1, 1]])


def test_normalize_clamps_above_one():
    ref = ReferenceFront.from_points([(0, 0, 10), (10, 10, 0)])
    out = normalize([(20, 20, 20)], ref)
    assert np.allclose(out, [[1, 1, 1]])


def test_normalize_keeps_below_zero():
    ref = ReferenceFront.from_points([(0, 0, 10), (10, 10, 0)])
    out = normalize([(-5, 0, 0)], ref)
    assert out[0, 0] == pytest.approx(-0.5)


def test_reference_front_bounds_keep_fractional_values(caplog):
    """A front with fractional points (an LB-set export read as a reference
    front) is bounded by its own extremes, so its points normalise into
    [0, 1] without a warning; an integer front keeps int bounds."""
    ref = ReferenceFront.from_points([[-10.5, 0, 0], [0, -10.5, 0], [0, 0, -10.5]])
    assert ref.y_min == (-10.5, -10.5, -10.5) and ref.y_max == (0.0, 0.0, 0.0)
    with caplog.at_level(logging.WARNING, logger="tribip"):
        assert normalize(ref.points, ref).min() == 0.0
        assert hv_percent(ref.points, ref) == 100.0
    assert not caplog.records
    whole = ReferenceFront.from_points([(0, 0, 10), (10, 10, 0)])
    assert [type(v) for v in whole.y_min + whole.y_max] == [int] * 6
    assert whole.y_min == (0, 0, 0) and whole.y_max == (10, 10, 10)


def test_normalize_degenerate_reference():
    with pytest.raises(ValidationError):
        ref = ReferenceFront.from_points([(0, 1, 2), (0, 2, 1)])
        normalize([(0, 1, 2)], ref)


def test_hypervolume_single_box():
    assert hypervolume([(0.2, 0.2, 0.2)]) == pytest.approx(0.512, abs=1e-9)


def test_hypervolume_two_boxes():
    # 0.25 + 0.25 - 0.125 by inclusion-exclusion
    assert hypervolume([(0, 0.5, 0.5), (0.5, 0, 0.5)]) == pytest.approx(0.375, abs=1e-9)


def test_hypervolume_empty():
    assert hypervolume([]) == 0.0


def test_hypervolume_monotone_and_dominated_noop():
    rng = np.random.default_rng(3)
    pts = rng.random((20, 3)) * 0.9
    base = hypervolume(pts)
    more = hypervolume(np.vstack([pts, rng.random((5, 3)) * 0.9]))
    assert more >= base - 1e-12
    # adding a dominated point changes nothing
    dominated = np.minimum(pts[0] + 0.05, 1.0)
    assert hypervolume(np.vstack([pts, dominated])) == pytest.approx(base, abs=1e-12)


@st.composite
def _hv_cases(draw):
    """(reference coordinate, at most 10 points): coordinates tie often and
    touch the reference faces; some points repeat."""
    ref = draw(st.sampled_from([1.0, 2.0]))
    coord = st.one_of(st.sampled_from([0.0, ref / 4, ref / 2, ref]),
                      st.floats(0.0, ref, allow_nan=False))
    points = draw(st.lists(st.tuples(coord, coord, coord), max_size=8))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=2))
    return ref, points


@settings(max_examples=200, deadline=None)
@given(case=_hv_cases())
@example(case=(1.0, [(1, 0.5, 0.5), (0.5, 1, 0), (0, 0.5, 1),      # one on each face
                     (0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (0.75, 0.5, 0.5)]))
@example(case=(2.0, [(0, 0, 2), (2, 0, 0), (0, 2, 0), (1, 1, 1)]))
def test_hypervolume_matches_grid_oracle(case):
    ref, points = case
    ref_point = (ref, ref, ref)
    want = naive_hypervolume(points, ref_point) if points else 0.0
    assert hypervolume(points, ref_point) == pytest.approx(want, rel=0, abs=1e-12)


def test_hypervolume_rejects_beyond_reference():
    with pytest.raises(ValidationError):
        hypervolume([(1.5, 0.5, 0.5)])


def test_hypervolume_matches_monte_carlo():
    rng = np.random.default_rng(4)
    for trial in range(3):
        pts = rng.random((30, 3))
        exact = hypervolume(pts)
        approx = hypervolume_mc(pts, n_samples=200_000, seed=trial)
        assert abs(exact - approx) < 0.01


def test_exact_front_p_matrix_ample_capacity(p_matrix_problem):
    # with nothing binding, taking every item dominates everything else
    ref = exact_front(p_matrix_problem)
    assert ref.points.tolist() == [[-15, -17, -19]]
    assert brute_force_front(p_matrix_problem) == [(-15, -17, -19)]


def test_exact_front_p_matrix_tight_capacity():
    # capacity 2 keeps pairs only; cross-checked against the itertools oracle
    p = tribip.knapsack_problem([[4, 2, 3, 6], [5, 3, 1, 8], [6, 4, 2, 7]],
                                [1, 1, 1, 1], 2)
    ref = exact_front(p)
    assert [tuple(r) for r in ref.points.tolist()] == brute_force_front(p)


def test_exact_front_zero_capacity():
    p = tribip.knapsack_problem([[1, 2], [3, 4], [5, 6]], [1, 1], 0)
    ref = exact_front(p)
    assert ref.points.tolist() == [[0, 0, 0]]


def test_exact_front_assignment_two_tasks():
    p = tribip.generate_assignment(2, seed=1)
    ref = exact_front(p)
    assert [tuple(r) for r in ref.points.tolist()] == brute_force_front(p)
    assert len(ref.points) <= 2


def test_exact_front_matches_oracle_random():
    for seed in range(3):
        p = tribip.generate_knapsack(8, seed=seed)
        ref = exact_front(p)
        assert [tuple(r) for r in ref.points.tolist()] == brute_force_front(p)


def test_exact_front_refusal():
    p = tribip.generate_knapsack(26, seed=0)
    with pytest.raises(EnumerationLimitError):
        exact_front(p)
    pa = tribip.generate_assignment(9, seed=0)
    with pytest.raises(EnumerationLimitError):
        exact_front(pa)


def test_exact_front_solutions_consistent():
    p = tribip.generate_knapsack(8, seed=1)
    ref = exact_front(p)
    sols = exact_front_solutions(p)
    assert [s.y for s in sols] == [tuple(r) for r in ref.points.tolist()]
    for s in sols:
        assert tribip.evaluate(p, s.x) == s.y
        assert tribip.is_feasible(p, s.x)


_GENERAL = tribip.general_problem(
    [[3, -1, 4, 1, -5, 9, 2, 6, -5, 3, 5, 8],
     [2, 7, 1, -8, 2, 8, 1, 8, 2, -8, 4, 5],
     [1, 4, 1, 4, 2, 1, -3, 5, 6, 2, 3, 7]],
    ("max", "min", "max"),
    [[4, 2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4],
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]],
    (">=", "="), [20, 6])

# sha256 (first 16 hex digits) of the oracle's points, then its x, recorded
# from the earlier chunked enumeration
_ORACLE_DIGESTS = {
    ("knapsack", 8, 0): "36a1af59993955a7",
    ("knapsack", 8, 1): "f6f6f67795650ab7",
    ("knapsack", 8, 2): "3bc7e8f3858de0c6",
    ("knapsack", 12, 0): "0e09f2954f2526b5",
    ("knapsack", 12, 1): "4bab422071ce5978",
    ("knapsack", 12, 2): "93a6c34e00bc9726",
    ("knapsack", 16, 0): "c9c1b60ef85b4853",
    ("knapsack", 16, 1): "c41e7ab4bbbbe516",
    ("knapsack", 16, 2): "6232aaa2f9a9a398",
    ("knapsack", 20, 0): "684cbeedc57f85a4",        # more than one block of ids
    ("general", 12, 0): "dd38825949a1285a",
    ("assignment", 4, 0): "bf226bcc0c3d0ab0",
    ("assignment", 6, 0): "4320eceb80cbbdc9",
    ("assignment", 7, 0): "257419b8b7474598",
}


@pytest.mark.parametrize("case", sorted(_ORACLE_DIGESTS))
def test_exact_front_solutions_golden(case):
    kind, n, seed = case
    problem = {"knapsack": lambda: tribip.generate_knapsack(n, seed=seed),
               "assignment": lambda: tribip.generate_assignment(n, seed=seed),
               "general": lambda: _GENERAL}[kind]()
    sols = exact_front_solutions(problem)
    h = hashlib.sha256(np.array([s.y for s in sols], dtype=np.int64).tobytes())
    h.update(np.array([s.x for s in sols], dtype=np.int8).tobytes())
    assert h.hexdigest()[:16] == _ORACLE_DIGESTS[case]


_TIED_KNAPSACK = tribip.knapsack_problem(      # items 5-9 repeat 0-4
    [[9, 2, 3, 1, 5] * 2, [1, 7, 2, 8, 2] * 2, [3, 4, 9, 1, 6] * 2], [3, 1, 4, 1, 5] * 2, 17)
_TIED_GENERAL = tribip.general_problem(        # columns 6-11 repeat 0-5
    [[3, -1, 4, 1, -5, 9] * 2, [2, 7, 1, -8, 2, 8] * 2, [1, 4, 1, 4, 2, 1] * 2],
    ("max", "min", "max"),
    [[4, 2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4], [1] * 12],
    ("<=", ">="), [30, 4])


@pytest.mark.parametrize("low_bits", [None, 3])
@pytest.mark.parametrize("problem", [_TIED_KNAPSACK, _TIED_GENERAL], ids=["knapsack", "general"])
def test_exact_front_solutions_lowest_id_on_ties(problem, low_bits, monkeypatch):
    """Each front point keeps the feasible x of smallest id sum x_j 2^j,
    within one block of ids and, with 3 low bits, across blocks."""
    if low_bits is not None:
        monkeypatch.setattr(metrics, "_LOW_BITS", low_bits)
    lowest, ties = {}, {}
    for x, y in brute_force_feasible_points(problem):
        ident = sum(int(v) << j for j, v in enumerate(x))
        lowest[y] = min(lowest.get(y, ident), ident)
        ties[y] = ties.get(y, 0) + 1
    sols = exact_front_solutions(problem)
    assert [s.y for s in sols] == brute_force_front(problem)
    assert any(ties[s.y] > 1 for s in sols)
    for s in sols:
        assert s.x.dtype == np.int8
        assert sum(int(v) << j for j, v in enumerate(s.x)) == lowest[s.y]


def test_hv_percent_bounds():
    p = tribip.generate_knapsack(8, seed=3)
    ref = exact_front(p)
    assert hv_percent(ref.points, ref) == pytest.approx(100.0, abs=1e-9)
    subset = ref.points[: max(1, len(ref.points) // 2)]
    assert hv_percent(subset, ref) <= 100.0 + 1e-9
    assert hv_percent([], ref) == 0.0


def test_hv_percent_reference_hv_cached():
    p = tribip.generate_knapsack(10, seed=4)
    ref = exact_front(p)
    pts = ref.points[::2]
    calls = []
    real = tribip.metrics.hypervolume

    def counted(points, ref_point=(1.0, 1.0, 1.0)):
        calls.append(ref_point)
        return real(points, ref_point)
    for ref_point in ((2.0, 2.0, 2.0), (1.0, 1.0, 1.0)):
        uncached = (100.0 * hypervolume(normalize(pts, ref), ref_point)
                    / hypervolume(normalize(ref.points, ref), ref_point))
        with mock.patch.object(tribip.metrics, "hypervolume", counted):
            values = [hv_percent(pts, ref, ref_point) for _ in range(3)]
        assert values == [uncached] * 3          # bit-identical, not approximate
        assert len(calls) == 4                   # the reference front's HV once, then the points'
        calls.clear()


def test_reference_front_bounds():
    ref = ReferenceFront.from_points([(1, 8, 3), (4, 2, 9), (5, 5, 1)])
    assert ref.y_min == (1, 2, 1)
    assert ref.y_max == (5, 8, 9)
