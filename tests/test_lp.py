import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribip
from tribip import RelaxationSolver

from conftest import (NEAR_AXIS_WEIGHTS, brute_force_feasible_points, highs_lp_value,
                      is_integral, naive_knapsack, solve_weighted_lp)


def test_hand_lp():
    # two items, profits cols (10,1,1) and (1,10,1), unit weights, W=1:
    # w=(1,0,0) minimises -10*x1 - 1*x2 subject to x1+x2 <= 1
    p = tribip.knapsack_problem([[10, 1], [1, 10], [1, 1]], [1, 1], 1)
    value, x = solve_weighted_lp(p, [1, 0, 0])
    assert np.allclose(x, [1.0, 0.0])
    assert value == pytest.approx(-10.0, abs=1e-9)


def test_zero_objective():
    p = tribip.knapsack_problem([[0, 0], [0, 0], [0, 0]], [1, 1], 1)
    value, _ = solve_weighted_lp(p, [1, 1, 1])
    assert value == pytest.approx(0.0, abs=1e-12)


def test_assignment_lp_integral():
    # totally unimodular rows: every optimal basic solution is integral
    for tasks in (2, 3, 4):
        p = tribip.generate_assignment(tasks, seed=tasks)
        for w in ([1, 0, 0], [0.2, 0.3, 0.5], [1, 1, 1]):
            _, x = solve_weighted_lp(p, w)
            assert is_integral(x, tol=1e-6)


def test_deterministic_resolve():
    p = tribip.generate_knapsack(12, seed=9)
    a_value, a_x = solve_weighted_lp(p, [0.5, 0.3, 0.2])
    b_value, b_x = solve_weighted_lp(p, [0.5, 0.3, 0.2])
    assert a_value == b_value
    assert np.array_equal(a_x, b_x)


def test_lower_bound_property():
    # LP optimum never exceeds the best feasible binary value
    rng = np.random.default_rng(2)
    for seed in range(4):
        p = tribip.generate_knapsack(10, seed=seed)
        feasible = brute_force_feasible_points(p)
        c_float = p.C.astype(float)
        for _ in range(5):
            w = rng.dirichlet([1, 1, 1])
            value, _ = solve_weighted_lp(p, w)
            best_int = min(float(w @ np.array(y)) for _, y in feasible)
            assert value <= best_int + 1e-6


def test_infeasible_relaxation():
    # x1 + x2 >= 3 cannot hold with x in [0,1]^2
    p = tribip.general_problem(
        objectives=[[1, 0], [0, 1], [1, 1]],
        senses=("min", "min", "min"),
        a=[[1, 1]],
        row_sense=(">=",),
        b=[3],
    )
    with pytest.raises(tribip.InfeasibleProblemError):
        solve_weighted_lp(p, [1, 1, 1])


def test_equality_rows_phase1():
    # x1 + x2 = 1 with minimisation picks the cheaper end
    p = tribip.general_problem(
        objectives=[[2, 5], [2, 5], [2, 5]],
        senses=("min", "min", "min"),
        a=[[1, 1]],
        row_sense=("=",),
        b=[1],
    )
    value, x = solve_weighted_lp(p, [1, 1, 1])
    assert np.allclose(x, [1.0, 0.0])
    assert value == pytest.approx(6.0, abs=1e-9)


def test_ge_rows():
    # covering row: x1 + x2 >= 1, prefer the cheap variable
    p = tribip.general_problem(
        objectives=[[1, 10], [1, 10], [1, 10]],
        senses=("min", "min", "min"),
        a=[[1, 1]],
        row_sense=(">=",),
        b=[1],
    )
    _, x = solve_weighted_lp(p, [1, 1, 1])
    assert np.allclose(x, [1.0, 0.0])


def test_basic_solution_is_vertex():
    # a knapsack LP vertex has at most one fractional component
    rng = np.random.default_rng(3)
    for seed in range(5):
        p = tribip.generate_knapsack(15, seed=seed)
        w = rng.dirichlet([1, 1, 1])
        _, x = solve_weighted_lp(p, w)
        frac = np.sum(np.abs(x - np.round(x)) > 1e-7)
        assert frac <= 1


@pytest.mark.parametrize("problem", [tribip.generate_knapsack(5, seed=0),
                                     tribip.generate_assignment(3, seed=0),
                                     tribip.general_problem([[1, 2], [2, 1], [1, 1]], ("min",) * 3,
                                                            [[1, 1]], ("<=",), [1])],
                         ids=lambda p: p.kind)
def test_solve_weighted_many_takes_an_empty_batch(problem):
    values, xs = RelaxationSolver(problem).solve_weighted_many(np.zeros((0, 3)))
    assert values.shape == (0,) and values.dtype == np.float64
    assert xs.shape == (0, problem.n)


def test_weight_validation():
    p = tribip.generate_knapsack(4, seed=0)
    with pytest.raises(tribip.ValidationError):
        solve_weighted_lp(p, [0, 0, 0])
    with pytest.raises(tribip.ValidationError):
        solve_weighted_lp(p, [1, -1, 1])


# -- every oracle against an independent HiGHS solve --------------------------

def _oracle_weights(seed, count=6):
    rng = np.random.default_rng(seed)
    return [tuple(rng.dirichlet([1, 1, 1])) for _ in range(count)] + NEAR_AXIS_WEIGHTS


def _fractional(x):
    return int(np.sum(np.abs(x - np.round(x)) > 1e-9))


def _assert_matches_highs(p, w):
    value, x = RelaxationSolver(p).solve_weighted(w)
    want = highs_lp_value(p, w)
    tol = 1e-9 * max(1.0, abs(want))
    assert value == pytest.approx(want, rel=0, abs=tol)
    assert value == pytest.approx(float(np.asarray(w) @ p.C @ x), rel=0, abs=tol)
    assert np.all((x >= 0) & (x <= 1))
    return x


KNAPSACK_EDGE_CASES = {
    "zero capacity": tribip.knapsack_problem([[3, 1, 2], [1, 1, 1], [2, 0, 5]], [2, 1, 3], 0),
    "one zero-weight item": tribip.knapsack_problem(
        [[3, 1, 2, 7], [1, 1, 1, 2], [2, 0, 5, 1]], [2, 0, 3, 4], 5),
    "all-zero profits": tribip.knapsack_problem([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [2, 1, 3], 3),
}


@pytest.mark.parametrize("n", [1, 5, 16, 40, 150])
def test_knapsack_greedy_matches_highs(n):
    for seed in range(3):
        p = tribip.generate_knapsack(n, seed=seed)
        for w in _oracle_weights(seed):
            x = _assert_matches_highs(p, w)
            assert _fractional(x) <= 1
            assert float(p.weights @ x) <= p.capacity + 1e-9


@pytest.mark.parametrize("case", sorted(KNAPSACK_EDGE_CASES))
def test_knapsack_edge_cases_match_highs(case):
    p = KNAPSACK_EDGE_CASES[case]
    for w in _oracle_weights(0):
        x = _assert_matches_highs(p, w)
        assert _fractional(x) <= 1
        assert float(p.weights @ x) <= p.capacity


@st.composite
def _knapsack_lps(draw):
    """A small knapsack with zero-weight items and many equal cost ratios
    (small coefficients), a capacity from 0 to above the total weight, and
    weight vectors that include the seed weights and exact ties."""
    n = draw(st.integers(1, 8))
    ints = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    weights = draw(ints)
    profits = draw(st.lists(ints, min_size=3, max_size=3))
    capacity = draw(st.sampled_from([0, sum(weights), sum(weights) + 3])
                    | st.integers(0, sum(weights)))
    fixed = NEAR_AXIS_WEIGHTS + [(1, 1, 1), (1, 0, 0), (0, 1, 1), (0.5, 0.25, 0.25)]
    weight = st.sampled_from(fixed) | st.tuples(*[st.floats(0, 1)] * 3).filter(any)
    ws = draw(st.lists(weight, min_size=1, max_size=6))
    return tribip.knapsack_problem(profits, weights, capacity), ws


@settings(max_examples=300, deadline=None)
@given(case=_knapsack_lps())
@example(case=(tribip.knapsack_problem([[3], [1], [2]], [2], 1), [(1, 1, 1), (0, 0, 1)]))
@example(case=(tribip.knapsack_problem([[2, 4, 1], [2, 4, 1], [2, 4, 1]], [1, 2, 0], 2),
               [(1, 1, 1)]))
# generator-sized coefficients and many weights: the batch's cost rows and
# values must still be bitwise those of one LP at a time
@example(case=(tribip.generate_knapsack(60, seed=0),
               [tuple(w) for w in np.random.default_rng(1).dirichlet([1, 1, 1], size=40)]))
def test_knapsack_batch_matches_per_lp_greedy(case):
    p, ws = case
    solver = RelaxationSolver(p)
    c_float = p.C.astype(np.float64)
    values, xs = solver.solve_weighted_many(ws)
    assert values.shape == (len(ws),) and xs.shape == (len(ws), p.n)
    for w, value, x_batch in zip(ws, values.tolist(), xs):
        c = np.asarray(w, dtype=np.float64) @ c_float
        x = naive_knapsack(p, c)
        single_value, single_x = solver.solve_weighted(w)
        for got_x, got_value in ((x_batch, value), (single_x, single_value)):
            assert got_x.tobytes() == x.tobytes()
            assert got_value == float(c @ x)
            assert (c_float @ got_x).tobytes() == (c_float @ x).tobytes()


@pytest.mark.parametrize("tasks", [2, 5, 8, 25])
def test_assignment_lsap_matches_highs(tasks):
    p = tribip.generate_assignment(tasks, seed=tasks)
    t = p.tasks
    for w in _oracle_weights(tasks):
        x = _assert_matches_highs(p, w)
        assert is_integral(x, tol=0.0)
        grid = x.reshape(t, t)
        assert np.array_equal(grid.sum(axis=0), np.ones(t))
        assert np.array_equal(grid.sum(axis=1), np.ones(t))


def test_general_rows_match_highs():
    # mixed-sense rows around a known feasible point
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = 12
        a = rng.integers(-5, 10, size=(4, n))
        x0 = rng.integers(0, 2, size=n)
        lhs = a @ x0
        p = tribip.general_problem(
            objectives=rng.integers(-20, 20, size=(3, n)),
            senses=("min", "max", "min"),
            a=a, row_sense=("<=", ">=", "=", "<="),
            b=[lhs[0] + 3, lhs[1] - 2, lhs[2], lhs[3]])
        for w in _oracle_weights(int(x0.sum())):
            x = _assert_matches_highs(p, w)
            row = p.A @ x
            assert row[0] <= p.b[0] + 1e-7 and row[3] <= p.b[3] + 1e-7
            assert row[1] >= p.b[1] - 1e-7
            assert row[2] == pytest.approx(p.b[2], abs=1e-7)


def test_knapsack_run_does_not_import_scipy_optimize():
    # the greedy keeps scipy.optimize out of knapsack runs and their start-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, tribip\n"
            "tribip.run(tribip.generate_knapsack(8, seed=0), tribip.PrConfig(variant='PI'))\n"
            "sys.exit('scipy.optimize' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
