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

from conftest import (NEAR_AXIS_WEIGHTS, highs_lp_value, is_integral, naive_near,
                      naive_tolerant_dropped)

# knapsack and assignment instances of the LB-set completeness certificate
CERTIFICATE_PROBLEMS = [tribip.generate_knapsack(9, seed=s) for s in range(4)] + [
    tribip.generate_assignment(6, seed=6)]


def test_symmetric_three_items():
    # unit weights, W=1: the only LP vertices are the origin and the three
    # single-item picks, so the LB set is exactly the three profit points
    p = tribip.knapsack_problem([[10, 1, 1], [1, 10, 1], [1, 1, 10]], [1, 1, 1], 1)
    lb = compute_lb_set(p)
    assert lb.points.tolist() == [
        [-10.0, -1.0, -1.0], [-1.0, -10.0, -1.0], [-1.0, -1.0, -10.0]]


def test_dominating_item_single_point():
    # item 1 beats item 2 in every objective and W admits one item
    p = tribip.knapsack_problem([[10, 1], [10, 1], [10, 1]], [1, 1], 1)
    lb = compute_lb_set(p)
    assert lb.points.tolist() == [[-10.0, -10.0, -10.0]]


def test_zero_capacity():
    p = tribip.knapsack_problem([[10, 1], [10, 1], [10, 1]], [1, 1], 0)
    lb = compute_lb_set(p)
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
    ("knapsack", 10, 0): "1fa038c46ebe869b40f9bbdd2aea2d46caf1a521c3f474645b0c75c5bd0f64ed",
    ("knapsack", 10, 1): "0b5f5c5d26e7019fb3e41851d8861fcb411eedf8fc4f6e68bd41cc2bb3836be1",
    ("knapsack", 10, 2): "1ffbc96e7d70de46428790329eb399052bd8ca97d65d01d87ef9678279daff27",
    ("knapsack", 34, 0): "12d23fbddea7019e0a7ecbfc3ab9605822077472387df0f8525f99dd0c0d8cb7",
    ("knapsack", 34, 1): "f886eb4fcf009a9d965955dbfe321dc6c8f73129d29781ceb6b4840bad53f35f",
    ("knapsack", 34, 2): "fcbbea25605584e94c04a9019dfddbc25587f710c00b68b2007a7ba7d67933de",
    ("knapsack", 50, 0): "422dba9a1037a8211b9039ff509e4cb7a95f076deb853a33cafde5194cee368e",
    ("knapsack", 50, 1): "f59559316570799c07614336a6a358769ebb8956cc043ea61e133d25a77de055",
    ("knapsack", 50, 2): "b09044b3edc282f639217c0104ebb303a4c3341e19ae04456228e1b235c92663",
    ("assignment", 5, 5): "1e2770a88bd6b826f892bf4644fa01f3373546c8250c7a19c7ab1ab623fa193e",
    ("assignment", 7, 7): "0ddfc208d878356dd54db397befe7f62f7b090d4b241d418830c504f7bfa2d8d",
}


@pytest.mark.parametrize("kind, size, seed", list(_LB_DIGESTS))
def test_lb_set_matches_recorded_digest(kind, size, seed):
    """The LB points, lp_count and probes are bit for bit those recorded
    before the batched LP results, the vectorised improvement test and the
    LB set as arrays; every array is float64 and read-only."""
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
