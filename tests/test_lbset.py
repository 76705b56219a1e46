import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribip
from tribip import InfeasibleProblemError, compute_lb_set, lbset
from tribip.metrics import unique_rows

from conftest import (NEAR_AXIS_WEIGHTS, highs_lp_value, is_integral, naive_knapsack,
                      naive_near, naive_tolerant_dropped)

# knapsack and assignment instances of the LB-set completeness checks, then
# degenerate envelopes: three identical objective rows (every point on one
# line), two identical rows (every point in one plane), one item, and zero
# capacity
CERTIFICATE_PROBLEMS = [tribip.generate_knapsack(9, seed=s) for s in range(4)] + [
    tribip.generate_assignment(6, seed=6),
    tribip.knapsack_problem([[3, 5, 4, 2]] * 3, [2, 3, 3, 1], 4),
    tribip.knapsack_problem([[3, 5, 4, 2], [6, 1, 2, 5], [3, 5, 4, 2]], [2, 3, 3, 1], 4),
    tribip.knapsack_problem([[4], [5], [6]], [2], 1),
    tribip.knapsack_problem([[4, 2], [5, 1], [6, 3]], [2, 1], 0)]


def test_symmetric_three_items():
    # unit weights, W=1: the only LP vertices are the origin and the three
    # single-item picks, so the LB set is exactly the three profit points
    p = tribip.knapsack_problem([[10, 1, 1], [1, 10, 1], [1, 1, 10]], [1, 1, 1], 1)
    lb = compute_lb_set(p)
    assert lb.points.tolist() == [
        [-10.0, -1.0, -1.0], [-1.0, -10.0, -1.0], [-1.0, -1.0, -10.0]]


def test_dominating_item_single_point():
    # item 1 beats item 2 in every objective and W admits one item, so the
    # three corner LPs give one point: with identical objective rows, with
    # distinct ones, and with a single item, taken whole or in part
    for objectives, weights, capacity, want in [
            ([[10, 1], [10, 1], [10, 1]], [1, 1], 1, [-10.0, -10.0, -10.0]),
            ([[10, 1], [7, 3], [5, 2]], [1, 1], 1, [-10.0, -7.0, -5.0]),
            ([[4], [5], [6]], [2], 2, [-4.0, -5.0, -6.0]),
            ([[4], [5], [6]], [2], 1, [-2.0, -2.5, -3.0])]:
        lb = compute_lb_set(tribip.knapsack_problem(objectives, weights, capacity))
        assert lb.points.tolist() == [want]


def test_zero_capacity():
    for objectives, weights in [([[10, 1], [10, 1], [10, 1]], [1, 1]), ([[4], [5], [6]], [2])]:
        lb = compute_lb_set(tribip.knapsack_problem(objectives, weights, 0))
        assert lb.points.tolist() == [[0.0, 0.0, 0.0]]


def test_infeasible_relaxation_raises():
    p = tribip.general_problem(
        objectives=[[1, 0], [0, 1], [1, 1]],
        senses=("min", "min", "min"),
        a=[[1, 1]],
        row_sense=(">=",),
        b=[3],
    )
    with pytest.raises(InfeasibleProblemError):
        compute_lb_set(p)


def test_deterministic():
    p = tribip.generate_knapsack(12, seed=3)
    a = compute_lb_set(p)
    b = compute_lb_set(p)
    assert a.points.tolist() == b.points.tolist()
    assert a.w.tolist() == b.w.tolist()
    assert a.lp_count == b.lp_count


def test_points_pairwise_nondominated_and_distinct():
    # every pair (a, b) = (ys[i], ys[j]), i != j, of the golden-digest instances
    for kind, size, seed in _LB_DIGESTS:
        ys = compute_lb_set(_generate(kind, size, seed)).points
        diff = ys[:, None, :] - ys[None, :, :]                 # diff[i, j] = a - b
        pair = ~np.eye(len(ys), dtype=bool)
        assert (np.abs(diff).max(axis=2) > 1e-6)[pair].all()
        dominated = (diff <= 1e-6).all(axis=2) & (diff < -1e-6).any(axis=2)
        assert not dominated[pair].any()


def test_each_point_optimal_for_its_weight():
    for p in (tribip.generate_knapsack(10, seed=5), tribip.generate_assignment(6, seed=6)):
        lb = compute_lb_set(p)
        for w, y in zip(lb.w, lb.points):
            want = highs_lp_value(p, w)
            assert float(w @ y) == pytest.approx(want, abs=1e-9 * max(1, abs(want)))


def test_weighted_value_coverage():
    # for random and near-axis weights, the best LB point matches the LP
    # optimum of an independent solver: the enumeration found every extreme
    # supported point
    rng = np.random.default_rng(0)
    for p in CERTIFICATE_PROBLEMS:
        ys = compute_lb_set(p).points
        for w in [rng.dirichlet([1, 1, 1]) for _ in range(40)] + NEAR_AXIS_WEIGHTS:
            want = highs_lp_value(p, w)
            best = float(np.min(ys @ np.asarray(w)))
            assert best == pytest.approx(want, abs=1e-9 * max(1, abs(want)))


def _envelope_vertex_weights(points):
    """Weights of the top vertices of the dual envelope {(w, v): v <= w.y for
    every point y} over the closed weight triangle, by one halfspace
    intersection in (w1, w2, v) with w3 = 1 - w1 - w2 and a floor one unit
    below every coordinate; each weight clipped at 0 and renormalised."""
    from scipy.spatial import HalfspaceIntersection

    y = np.asarray(points, dtype=np.float64)
    floor = y.min() - 1.0
    rows = np.column_stack((y[:, 2] - y[:, 0], y[:, 2] - y[:, 1], np.ones(len(y)), -y[:, 2]))
    walls = np.array([[-1, 0, 0, 0], [0, -1, 0, 0], [1, 1, 0, -1], [0, 0, -1, floor]])
    inner = np.array([1 / 3, 1 / 3, (floor + y.sum(axis=1).min() / 3) / 2])
    vertices = HalfspaceIntersection(np.concatenate([walls, rows]), inner).intersections
    top = vertices[vertices[:, 2] > floor + 0.5, :2]
    w = np.clip(np.column_stack((top, 1.0 - top.sum(axis=1))), 0.0, None)
    return w / w.sum(axis=1, keepdims=True)


def _general_problem():
    # mixed-sense rows that a random 0/1 point meets, so the relaxation is feasible
    rng = np.random.default_rng(3)
    a = rng.integers(-5, 10, size=(3, 10))
    lhs = a @ rng.integers(0, 2, size=10)
    return tribip.general_problem(objectives=rng.integers(-20, 20, size=(3, 10)),
                                  senses=("min", "max", "min"), a=a,
                                  row_sense=("<=", ">=", "<="),
                                  b=[lhs[0] + 3, lhs[1] - 2, lhs[2]])


_ENVELOPE_PROBLEMS = CERTIFICATE_PROBLEMS + [_general_problem()] + [
    tribip.generate_knapsack(n, seed=s) for n, s in [(50, 0), (100, 1), (200, 1)]]


@pytest.mark.parametrize("problem", _ENVELOPE_PROBLEMS,
                         ids=[f"{i}-{p.kind}-n{p.n}" for i, p in enumerate(_ENVELOPE_PROBLEMS)])
def test_lb_set_certificate_at_every_envelope_vertex(problem):
    """Benson's stopping test: at every vertex of the final set's dual
    envelope over the closed weight triangle, boundary vertices included, no
    LP value lies below the envelope by more than the enumeration's
    improvement tolerance.  Knapsack LPs come from the one-at-a-time greedy,
    the others from HiGHS."""
    points = compute_lb_set(problem).points
    c_float = problem.C.astype(np.float64)
    for w in _envelope_vertex_weights(points):
        env = float((points @ w).min())
        if problem.kind == "knapsack":
            c = w @ c_float
            lp = float(c @ naive_knapsack(problem, c))
        else:
            lp = highs_lp_value(problem, w)
        assert env - lp <= lbset._FACET_REL_TOL * max(1.0, abs(env)), (w.tolist(), env, lp)


def test_assignment_points_integral():
    for tasks in (3, 4, 5):
        p = tribip.generate_assignment(tasks, seed=tasks)
        for x in compute_lb_set(p).x:
            assert is_integral(x, tol=1e-6)


def test_point_y_is_c_times_x_bitwise():
    # y comes from one product per LP batch; each must equal C @ x of its
    # own x to the last bit, as one LP at a time computes it
    for p in (tribip.generate_knapsack(60, seed=1), tribip.generate_assignment(7, seed=2)):
        c_float = p.C.astype(np.float64)
        lb = compute_lb_set(p)
        for x, y in zip(lb.x, lb.points):
            assert y.tolist() == (c_float @ x).tolist()


def test_lb_values_bound_integer_front():
    # every LB point lies weakly below the exact front in its weight
    p = tribip.generate_knapsack(8, seed=2)
    lb = compute_lb_set(p)
    ref = tribip.exact_front(p)
    for w, y in zip(lb.w, lb.points):
        lp_val = float(w @ y)
        int_val = float(np.min(ref.points @ w))
        assert lp_val <= int_val + 1e-6


def _lb_digest(lb) -> str:
    """sha256 over every point's x bytes, y and w, then lp_count, then every
    probe's weight and value, all as float64 bytes."""
    digest = hashlib.sha256()
    for x, y, w in zip(lb.x, lb.points, lb.w):
        digest.update(x.tobytes())
        digest.update(np.concatenate([y, w]).tobytes())
    digest.update(b"lp_count %d" % lb.lp_count)
    for probe in lb.probes:
        digest.update(probe.tobytes())
    return digest.hexdigest()


def _generate(kind, size, seed):
    generate = tribip.generate_knapsack if kind == "knapsack" else tribip.generate_assignment
    return generate(size, seed=seed)


# recorded with numpy 2.4 on x86-64; an LP tie that resolves to another vertex,
# or a cost or value that changes in its last bit, changes the digest
_LB_DIGESTS = {
    ("knapsack", 10, 0): "2b5375f8846f4bf18faff078280d6d2123613e7059af5da758a78708cd5eeb5a",
    ("knapsack", 10, 1): "2a8e4a0e4de21c40bfe7ff270a8ee016a7a44c106532c8fa0634d1cbf7ecdc79",
    ("knapsack", 10, 2): "99e39c4b843c83358a3a742f8316bf39343b503c7391a13440a63f8c3e094fce",
    ("knapsack", 34, 0): "ea016dd0bee6fe9b77c211489574d5c2feed0a5bd7e6b5bbf56b87548c0c7fe6",
    ("knapsack", 34, 1): "e2d45d6606457ef3c4be38518d5cc66020f61ca4f4b0d682e74d208f4c032132",
    ("knapsack", 34, 2): "cd1bf9364bef3b99025f05a58b35b24f4f5dd0784e391ecffadf3c9a36ef7b9e",
    ("knapsack", 50, 0): "7f88cff8434bd6a813c3e1b957deaf48c09dee8f6acd3c105517b6d1711edd82",
    ("knapsack", 50, 1): "54c68830af0276cc35779bb57be01687aa8134afb8ae1e383eab7910c14dfdf8",
    ("knapsack", 50, 2): "8f8499ffb17aa18847c878f0f2c0909fade8f2b8fc1fbc28caba76fd0a1f591c",
    ("assignment", 5, 5): "129104344286e39126ff35fe682888dcf73755d99490452a04ed475ce64da590",
    ("assignment", 7, 7): "370ea601529ecf0501ad261a7df52d976c79e52d6db11c064f572b7f18004837",
}


@pytest.mark.parametrize("kind, size, seed", list(_LB_DIGESTS))
def test_lb_set_matches_recorded_digest(kind, size, seed):
    """The LB points, lp_count and probes are bit for bit those recorded;
    every array is float64 and read-only."""
    lb = compute_lb_set(_generate(kind, size, seed))
    assert _lb_digest(lb) == _LB_DIGESTS[kind, size, seed]
    k, n = len(lb), lb.x.shape[1]
    shapes = {"points": (k, 3), "x": (k, n), "w": (k, 3), "probes": (lb.lp_count, 4)}
    for name, shape in shapes.items():
        array = getattr(lb, name)
        assert array.shape == shape and array.dtype == np.float64
        assert not array.flags.writeable


def test_probes_collected():
    p = tribip.generate_knapsack(6, seed=1)
    lb = compute_lb_set(p)
    assert len(set(map(tuple, lb.probes[:, :3].tolist()))) == lb.lp_count
    assert lb.probes.shape[1] == 3 + 1


def test_lp_count_positive():
    p = tribip.generate_knapsack(6, seed=0)
    lb = compute_lb_set(p)
    assert lb.lp_count >= 3                     # at least the seed LPs


_TOL = lbset.POINT_TOL
# coordinates a few units apart, moved by multiples of half the tolerance, so
# that pairs fall within, exactly at and just beyond point_tol of each other
_coordinate = st.builds(lambda base, k, scale: base * scale + k * _TOL / 2,
                        st.integers(0, 3), st.integers(-4, 4), st.sampled_from([1.0, 1e3, 1e5]))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_coordinate, _coordinate, _coordinate), min_size=1, max_size=40),
       block=st.sampled_from([1, 2, 7, 40, lbset._FILTER_BLOCK]),
       tol=st.sampled_from([_TOL, 0.0]))
@example(points=[(0.0, 0.0, 0.0), (_TOL, 0.0, -_TOL), (-_TOL, _TOL, 0.0), (0.0, -_TOL, _TOL),
                 (2 * _TOL, 0.0, 0.0)], block=2, tol=_TOL)
def test_tolerant_filter_matches_pairwise_tensor(points, block, tol):
    y = np.array(points, dtype=np.float64)
    with mock.patch.object(lbset, "_FILTER_BLOCK", block):
        got = lbset._tolerant_dropped(y, tol)
    assert got.tolist() == naive_tolerant_dropped(y, tol).tolist()


# first coordinates 0, 1e3 and 1e5 apart by multiples of a quarter tolerance,
# so that queries fall exactly at, just inside and just outside both point_tol
# and the 2 * point_tol window edge; the other coordinates vary less
_first = st.builds(lambda base, k: base + k * _TOL / 4,
                   st.sampled_from([0.0, 1e3, -1e5]), st.integers(-10, 10))
_other = st.builds(lambda k: k * _TOL / 2, st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.tuples(_first, _other, _other), st.booleans()),
                      min_size=1, max_size=40),
       tol=st.sampled_from([_TOL, 0.0]))
@example(steps=[((0.0, 0.0, 0.0), True), ((_TOL, 0.0, 0.0), False),
                ((2 * _TOL, -_TOL, _TOL), False), ((-2 * _TOL, 0.0, 0.0), True),
                ((-3 * _TOL, _TOL, 0.0), False)], tol=_TOL)
# near 0 the subtraction rounds: these pairs differ by exactly point_tol in
# floats, yet the stored first coordinate lies outside [y0 - tol, y0 + tol]
@example(steps=[((-1.782298760712742e-07, 0.0, 0.0), True),
                ((8.217701239287258e-07, 0.0, 0.0), False)], tol=_TOL)
@example(steps=[((-3.8127971741677813e-07, 0.0, 0.0), True),
                ((-1.3812797174167781e-06, 0.0, 0.0), False)], tol=_TOL)
def test_near_index_matches_linear_scan(steps, tol):
    """The windowed acceptance test answers as a scan over every point added
    so far; a step adds its point when the flag is set, or when it is not
    near (as the enumeration adds candidates)."""
    index, added = lbset._NearIndex(tol), []
    for y, always in steps:
        near = index.near(y)
        assert near == naive_near(added, y, tol)
        if always or not near:
            index.add(y)
            added.append(y)
    assert sorted(index.rows) == sorted(added)
    assert index.firsts == sorted(y[0] for y in added)


_weight = st.sampled_from([0.0, 1e-12, 0.25, 1 / 3, 0.5, 1.0, 1e3])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_weight, _weight, _weight), max_size=30))
def test_unique_rows_matches_numpy_unique(rows):
    a = np.array(rows, dtype=np.float64).reshape(-1, 3)
    got, want = unique_rows(a), np.unique(a, axis=0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    ints = (a * 4).astype(np.int64)
    assert unique_rows(ints).tobytes() == np.unique(ints, axis=0).tobytes()
