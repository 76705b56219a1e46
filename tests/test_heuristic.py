from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribip
from tribip import (InsufficientSolutionsError, IrRow, IrSet, NoRoundedSolutionError,
                    PrArchives, PrConfig, ValidationError, Xoshiro256StarStar,
                    improved_nd, path_relink_once, path_relink_walk, round_down, run,
                    select_pair)
from tribip import heuristic
from tribip.lbset import LbPoint, LbSet

from conftest import (dominates, naive_improved_nd, naive_path_relink_walk, naive_round_down,
                      naive_select_pair, next_outputs, similarity)


def _lbset_from(problem, xs):
    c_float = problem.C.astype(float)
    points = [LbPoint(np.array(x, dtype=float), tuple(c_float @ np.array(x, dtype=float)),
                      (1 / 3, 1 / 3, 1 / 3)) for x in xs]
    return LbSet(points=points, lp_count=0)


def _ir_from(problem, xs):
    ir = IrSet()
    for x in xs:
        ir.add(tribip.make_solution(problem, x))
    return ir


def _ints(lo, hi, size):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size)


# -- round_down ---------------------------------------------------------------

def test_round_down_floors(p_matrix_problem):
    lb = _lbset_from(p_matrix_problem, [[1, 0.6, 1, 0]])
    ir = round_down(lb, p_matrix_problem)
    assert list(ir.rows[0].key()) == [1, 0, 1, 0]


def test_round_down_keeps_near_integral(p_matrix_problem):
    lb = _lbset_from(p_matrix_problem, [[1 - 1e-9, 0, 0, 1]])
    ir = round_down(lb, p_matrix_problem)
    assert list(ir.rows[0].key()) == [1, 0, 0, 1]


def test_round_down_assignment_passthrough():
    p = tribip.generate_assignment(3, seed=1)
    lb = tribip.compute_lb_set(p)
    ir = round_down(lb, p)
    for row, pt in zip(ir.rows, lb.points):
        assert row.key() == np.round(pt.x).astype(np.int8).tobytes()


def test_round_down_feasibility_preserved():
    # rounding down can only decrease knapsack weight
    for seed in range(3):
        p = tribip.generate_knapsack(10, seed=seed)
        lb = tribip.compute_lb_set(p)
        ir = round_down(lb, p)
        assert ir.dropped_infeasible == 0
        for row in ir.rows:
            assert tribip.is_feasible(p, list(row.key()))


def test_round_down_merges_duplicates(p_matrix_problem):
    lb = _lbset_from(p_matrix_problem, [[1, 0.6, 1, 0], [1, 0.2, 1, 0]])
    ir = round_down(lb, p_matrix_problem)
    assert len(ir) == 1
    assert ir.provenance[0] == [0, 1]


def test_round_down_empty_raises():
    # >= row that every rounded-down vector violates
    p = tribip.general_problem(
        objectives=[[1, 1], [1, 1], [1, 1]],
        senses=("min", "min", "min"),
        a=[[1, 1]],
        row_sense=(">=",),
        b=[1],
    )
    lb = _lbset_from(p, [[0.5, 0.5]])
    with pytest.raises(NoRoundedSolutionError):
        round_down(lb, p)


@st.composite
def _rounding_cases(draw):
    """General problems with mixed row senses and LB points whose rounded
    vectors are partly infeasible, repeated, or all infeasible."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    problem = tribip.general_problem(
        objectives=draw(st.lists(_ints(-9, 9, n), min_size=3, max_size=3)),
        senses=draw(st.lists(st.sampled_from(("min", "max")), min_size=3, max_size=3)),
        a=draw(st.lists(_ints(-3, 3, n), min_size=m, max_size=m)),
        row_sense=draw(st.lists(st.sampled_from(("<=", ">=", "=")), min_size=m, max_size=m)),
        b=draw(_ints(-2, 4, m)),
    )
    values = st.sampled_from((0.0, 0.3, 0.5, 1.0 - 1e-3, 1.0 - 1e-9, 1.0))
    xs = draw(st.lists(st.lists(values, min_size=n, max_size=n), max_size=12))
    return problem, _lbset_from(problem, xs)


@settings(max_examples=300, deadline=None)
@given(case=_rounding_cases())
def test_round_down_matches_pointwise_rounding(case):
    problem, lb = case
    outcomes = []
    for rounding in (round_down, naive_round_down):
        with mock.patch.object(heuristic.log, "warning") as warning:
            try:
                ir = rounding(lb, problem)
            except NoRoundedSolutionError:
                ir = None
        outcomes.append((None if ir is None else (
            ir.rows, ir.provenance,
            ir.dropped_infeasible, ir.x_matrix().tolist()), warning.call_args_list))
    assert outcomes[0] == outcomes[1]


# -- select_pair --------------------------------------------------------------

def test_select_pair_sim(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]])

    class FixedRng:
        def randint(self, n):
            return 0          # initiating = first solution

    s_i, s_g = select_pair(ir, "sim", FixedRng())
    assert list(s_i.key()) == [0, 0, 1, 0]
    assert list(s_g.key()) == [1, 0, 1, 0]      # similarity 3 beats 1


def test_select_pair_dif(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]])

    class FixedRng:
        def randint(self, n):
            return 0

    s_i, s_g = select_pair(ir, "dif", FixedRng())
    assert list(s_g.key()) == [1, 1, 0, 0]      # similarity 1 is minimal


def test_select_pair_random_distinct(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]])
    rng = Xoshiro256StarStar(3)
    for _ in range(50):
        s_i, s_g = select_pair(ir, "random", rng)
        assert s_i.key() != s_g.key()


def test_select_pair_needs_two(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0]])
    with pytest.raises(InsufficientSolutionsError):
        select_pair(ir, "random", Xoshiro256StarStar(0))


class _ScriptedRng:
    """Draws the scripted initiating index (modulo k) and logs each draw."""

    def __init__(self, at):
        self.at, self.draws = at, []

    def randint(self, k):
        self.draws.append(k)
        return self.at % k


_TIES = [                # n = 4; every row is at similarity 3 from row 0 unless noted
    ("add", (0, 0, 0, 0)), ("add", (1, 0, 0, 0)), ("add", (0, 1, 0, 0)),
    ("sim", 0), ("dif", 0),
    ("add", (0, 0, 1, 0)),                  # ties both cached guides from row 0
    ("sim", 0), ("dif", 0),
    ("add", (1, 1, 0, 0)),                  # similarity 2: strictly better for dif
    ("sim", 0), ("dif", 0),
    ("add", (1, 1, 1, 1)), ("sim", 5), ("dif", 5),     # initiating row is the newest
    ("add", (0, 1, 1, 1)), ("sim", 5), ("dif", 5), ("sim", 1), ("dif", 6),
]


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("add"), st.tuples(*[st.integers(0, 1)] * 4)),
    st.tuples(st.sampled_from(("sim", "dif")), st.integers(0, 40)),
    st.tuples(st.sampled_from(("sim", "dif")), st.just(-1))), max_size=60))
@example(ops=_TIES)
def test_select_pair_matches_full_scan(ops):
    """Interleaved adds and sim/dif selections: the incremental guide search
    returns the full scan's pair and makes the same draws."""
    ir = IrSet()
    for op, arg in ops:
        if op == "add":
            ir.add(tribip.Solution(np.array(arg, dtype=np.int8), (0, 0, 0), True))
            continue
        if len(ir) < 2:
            continue
        rng, rng_ref = _ScriptedRng(arg), _ScriptedRng(arg)
        s_i, s_g = select_pair(ir, op, rng)
        r_i, r_g = naive_select_pair(ir, op, rng_ref)
        assert (s_i.key(), s_g.key()) == (r_i.key(), r_g.key())
        assert rng.draws == rng_ref.draws == [len(ir)]


def test_similarity_counts_equal_positions():
    assert similarity([0, 0, 1, 0], [1, 0, 1, 0]) == 3
    assert similarity([0, 0, 1, 0], [1, 1, 0, 0]) == 1


# -- improved_nd --------------------------------------------------------------

def test_improved_nd_single():
    assert improved_nd((-10, -10, -10), [(-12, -11, -10)]) == 0


def test_improved_nd_worked_example():
    # degrees: A=6, B=7, C=5 -> B
    nd = [(-12, -11, -10), (-11, -13, -10), (-10, -10, -14)]
    assert improved_nd((-10, -10, -10), nd) == 1


def test_improved_nd_duplicate_rows_follow_ordinal_ranks():
    # ordinal ranking gives the later duplicate the larger rank sum; the
    # naive rank-table oracle agrees
    nd = [(-12, -11, -10), (-12, -11, -10)]
    assert improved_nd((-10, -10, -10), nd) == naive_improved_nd((-10, -10, -10), nd) == 1


def test_improved_nd_zero_denominator_fallback():
    # second objective of the current point is zero: rank by raw value
    nd = [(-5, -7, -1), (-6, -3, -2)]
    assert improved_nd((-10, 0, -10), nd) == naive_improved_nd((-10, 0, -10), nd)


def test_improved_nd_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.integers(1, 8)
        nd = -rng.integers(0, 50, size=(k, 3))
        obj = -rng.integers(1, 50, size=3)
        assert improved_nd(obj, nd) == naive_improved_nd(obj, nd)


def test_improved_nd_empty_raises():
    with pytest.raises(ValidationError):
        improved_nd((-1, -1, -1), [])


# -- path relinking -----------------------------------------------------------

def test_walk_reproduces_worked_path(p_matrix_problem):
    s_i = tribip.make_solution(p_matrix_problem, [0, 0, 1, 0])
    s_g = tribip.make_solution(p_matrix_problem, [1, 1, 0, 0])
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    visits = path_relink_walk(p_matrix_problem, s_i, s_g, ir, archives,
                              Xoshiro256StarStar(0), best_move_prob=1.0,
                              collect_visits=True)
    assert [tuple(v) for v in visits] == [(1, 0, 1, 0), (1, 1, 1, 0), (1, 1, 0, 0)]
    # the two intermediates are new and feasible, the endpoint was known
    assert [list(row.key()) for row in ir.rows[2:]] == [[1, 0, 1, 0], [1, 1, 1, 0]]


def test_walk_identical_pair_no_steps(p_matrix_problem):
    s = tribip.make_solution(p_matrix_problem, [1, 0, 1, 0])
    ir = _ir_from(p_matrix_problem, [[1, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    visits = path_relink_walk(p_matrix_problem, s, s, ir, archives,
                              Xoshiro256StarStar(0), 1.0, collect_visits=True)
    assert visits == []
    assert len(ir) == 2


def test_walk_zero_capacity_archives_nothing():
    p = tribip.knapsack_problem([[4, 2, 3], [5, 3, 1], [6, 4, 2]], [1, 1, 1], 0)
    s_i = tribip.make_solution(p, [0, 0, 0])
    # an infeasible guiding solution still guides the walk
    s_g = tribip.Solution(np.array([1, 1, 0], dtype=np.int8),
                          tribip.evaluate(p, [1, 1, 0]), False)
    ir = IrSet()
    ir.add(s_i)
    archives = PrArchives()
    path_relink_walk(p, s_i, s_g, ir, archives, Xoshiro256StarStar(1), 0.7)
    assert len(ir) == 1


def test_pair_already_recorded_exits_immediately(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    s_i, s_g = ir.rows
    archives.ig_pairs.add((s_i.key(), s_g.key()))
    visits = path_relink_walk(p_matrix_problem, s_i, s_g, ir, archives,
                              Xoshiro256StarStar(0), 1.0, collect_visits=True)
    assert visits == []
    assert len(ir) == 2


def test_path_relink_once_records_pair(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    config = PrConfig(variant="PI", seed=0)
    path_relink_once(ir, archives, config, Xoshiro256StarStar(0), p_matrix_problem)
    assert len(archives.ig_pairs) == 1


def test_candx_members_feasible_and_new(p_matrix_problem):
    """candX, the new feasible points that relinking finds, is the IR tail
    past the start rows: each is feasible, new and carries its own y."""
    rng = Xoshiro256StarStar(5)
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 1]])
    ir0_keys = {row.key() for row in ir.rows}
    archives = PrArchives()
    config = PrConfig(variant="PRrand", seed=5)
    for _ in range(30):
        path_relink_once(ir, archives, config, rng, p_matrix_problem)
    assert len(ir) > 3
    for row in ir.rows[3:]:
        x = list(row.key())
        assert tribip.is_feasible(p_matrix_problem, x)
        assert row.y == tribip.evaluate(p_matrix_problem, x)
        assert row.key() not in ir0_keys


@st.composite
def _relink_problems(draw):
    """Small knapsacks, and general problems with mixed row senses and
    objectives of mixed sign, so that y_k = 0 and sign changes of y_k occur
    during walks."""
    n = draw(st.integers(3, 9))
    if draw(st.booleans()):
        weights = draw(_ints(0, 9, n))
        return tribip.knapsack_problem(draw(st.lists(_ints(0, 12, n), min_size=3, max_size=3)),
                                       weights, draw(st.integers(0, sum(weights))))
    m = draw(st.integers(1, 3))
    return tribip.general_problem(
        objectives=draw(st.lists(_ints(-4, 4, n), min_size=3, max_size=3)),
        senses=draw(st.lists(st.sampled_from(("min", "max")), min_size=3, max_size=3)),
        a=draw(st.lists(_ints(-3, 3, n), min_size=m, max_size=m)),
        row_sense=draw(st.lists(st.sampled_from(("<=", ">=", "=")), min_size=m, max_size=m)),
        b=draw(_ints(-3, 6, m)),
    )


def _recording(walk, visits):
    """path_relink_walk stand-in that logs each walk's visits."""
    def wrapper(problem, s_i, s_g, ir, archives, rng, best_move_prob, collect_visits=False):
        visited = walk(problem, s_i, s_g, ir, archives, rng, best_move_prob, collect_visits=True)
        visits.append([v.tobytes() for v in visited])
        return []
    return wrapper


@settings(max_examples=200, deadline=None)
@given(problem=_relink_problems(), data=st.data(),
       variant=st.sampled_from([v for v in tribip.VARIANTS if v != "RD"]),
       prob=st.sampled_from((0.0, 0.7, 1.0)), seed=st.integers(0, 2**32),
       iterations=st.integers(1, 40))
def test_walk_kernel_matches_reference_walk(problem, data, variant, prob, seed, iterations):
    n = problem.n
    starts = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                min_size=2, max_size=6, unique_by=tuple))
    config = PrConfig(variant=variant, seed=seed, best_move_prob=prob)
    sides = [(walk, _ir_from(problem, starts), PrArchives(), Xoshiro256StarStar(seed), [])
             for walk in (path_relink_walk, naive_path_relink_walk)]

    def snapshot(side):
        _, ir, archives, rng, visits = side
        # the IR rows past the starts are the walks' new feasible points
        return (visits, ir.rows, set(archives.ig_pairs), next_outputs(rng))

    for _ in range(iterations):
        for walk, ir, archives, rng, visits in sides:
            with mock.patch.object(heuristic, "path_relink_walk", _recording(walk, visits)):
                path_relink_once(ir, archives, config, rng, problem)
        assert snapshot(sides[0]) == snapshot(sides[1])


# derandomized: a drawn problem can also fail inside the LB enumeration,
# which is not under test here
@settings(max_examples=25, deadline=None, derandomize=True)
@given(problem=_relink_problems(), variant=st.sampled_from(tribip.VARIANTS),
       prob=st.sampled_from((0.0, 0.7, 1.0)), seed=st.integers(0, 2**32))
def test_run_front_matches_reference_walk(problem, variant, prob, seed):
    config = PrConfig(variant=variant, seed=seed, best_move_prob=prob, iteration_multiplier=5)
    try:
        front, report = run(problem, config)
    except (tribip.InfeasibleProblemError, NoRoundedSolutionError):
        return
    with mock.patch.object(heuristic, "path_relink_walk", naive_path_relink_walk):
        front_ref, report_ref = run(problem, config)
    assert [(s.key(), s.y) for s in front] == [(s.key(), s.y) for s in front_ref]
    assert (report.ir_size, report.pr_iterations) == (report_ref.ir_size, report_ref.pr_iterations)


@pytest.mark.parametrize("variant", ["PI", "PIsim", "PIdif"])
@pytest.mark.parametrize("prob", [0.7, 1.0])
def test_walk_kernel_equal_displacements_match_reference_walk(variant, prob):
    """Repeated objective columns give equal displacements, which do not
    dominate each other; the later of two equal rows wins the rank sum."""
    cols = [[5, 3, 2], [1, 6, 2], [7, 1, 8], [2, 4, 3]]
    profits = np.array(cols * 3).T
    problem = tribip.knapsack_problem(profits, [1] * 12, 9)
    rng = np.random.default_rng(4)
    starts = {tuple(x) for x in rng.integers(0, 2, size=(10, 12)) if x.sum() <= 9}
    config = PrConfig(variant=variant, seed=11, best_move_prob=prob)
    sides = [(walk, _ir_from(problem, sorted(starts)), PrArchives(), Xoshiro256StarStar(11), [])
             for walk in (path_relink_walk, naive_path_relink_walk)]
    for _ in range(80):
        for walk, ir, archives, walk_rng, visits in sides:
            with mock.patch.object(heuristic, "path_relink_walk", _recording(walk, visits)):
                path_relink_once(ir, archives, config, walk_rng, problem)
    got, want = [(visits, ir.rows, archives.ig_pairs,
                  next_outputs(r)) for _, ir, archives, r, visits in sides]
    assert got == want


def test_move_tables_cached_per_problem():
    """Two problems with the same n and different coefficients, walked
    alternately at best_move_prob 0: each matches the reference walk, so
    neither walk reads the other problem's cached moves or bounds."""
    problems = [tribip.generate_knapsack(12, seed=0), tribip.generate_knapsack(12, seed=1),
                tribip.general_problem(objectives=[[3, -1, 2] * 4, [-2, 0, 1] * 4, [1, 1, -3] * 4],
                                       senses=("min", "max", "min"),
                                       a=[[1, 2, -1] * 4, [-2, 1, 1] * 4],
                                       row_sense=("<=", ">="), b=[6, -3])]
    config = PrConfig(variant="PRrand", seed=7)
    rng = np.random.default_rng(5)
    sides = []
    for problem in problems:
        starts = [x for x in rng.integers(0, 2, size=(6, 12))
                  if tribip.is_feasible(problem, x)] or [np.zeros(12, dtype=np.int8)]
        starts.append(np.ones(12, dtype=np.int8) - starts[0])
        sides.append([(problem, walk, _ir_from(problem, starts), PrArchives(),
                       Xoshiro256StarStar(7), [])
                      for walk in (path_relink_walk, naive_path_relink_walk)])
    for _ in range(60):
        for pair in sides:
            for problem, walk, ir, archives, walk_rng, visits in pair:
                with mock.patch.object(heuristic, "path_relink_walk", _recording(walk, visits)):
                    path_relink_once(ir, archives, config, walk_rng, problem)
            side, ref = [(visits, ir.rows, archives.ig_pairs,
                          next_outputs(rng_))
                         for _, _, ir, archives, rng_, visits in pair]
            assert side == ref
    for problem in problems:
        assert problem.flip_moves is problem.flip_moves
        assert problem.row_bounds is problem.row_bounds
        for x in rng.integers(0, 2, size=(30, 12)):
            assert heuristic._feasible_int(problem, x.astype(np.int8)) == \
                tribip.is_feasible(problem, x)


@settings(max_examples=100, deadline=None)
@given(problem=_relink_problems(), data=st.data(), prob=st.sampled_from((0.0, 0.7, 1.0)),
       seed=st.integers(0, 2**32))
def test_walk_from_rows_matches_walk_from_solutions(problem, data, prob, seed):
    """The walk reads only the two keys, so a Solution pair and the equal IR
    row pair give the same visits, IR rows and RNG state."""
    n = problem.n
    starts = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                min_size=2, max_size=5, unique_by=tuple))
    i, g = data.draw(st.permutations(range(len(starts))))[:2]
    outcomes = []
    for as_rows in (False, True):
        ir, rng = _ir_from(problem, starts), Xoshiro256StarStar(seed)
        pair = (ir.rows[i], ir.rows[g]) if as_rows else \
            (tribip.make_solution(problem, starts[i]), tribip.make_solution(problem, starts[g]))
        visits = path_relink_walk(problem, *pair, ir, PrArchives(), rng, prob,
                                  collect_visits=True)
        outcomes.append(([v.tobytes() for v in visits], list(ir.rows),
                         next_outputs(rng)))
    assert outcomes[0] == outcomes[1]


def test_ir_rows_and_provenance(p_matrix_problem):
    sol = tribip.make_solution(p_matrix_problem, [1, 0, 1, 0])
    ir = IrSet()
    assert ir.add(sol) and not ir.add(IrRow((sol.key(), sol.y)))
    row, = ir.rows
    assert type(row) is IrRow and row == (sol.key(), sol.y)
    assert (row.key(), row.y) == (sol.key(), sol.y)
    assert sol.key() in ir and len(ir) == 1
    # provenance is keyed by row index, so rows without an LB origin, added
    # in any order, do not shift it
    other = tribip.make_solution(p_matrix_problem, [0, 1, 1, 0])
    assert ir.add(other, lb_index=7) and not ir.add(sol, lb_index=8)
    assert ir.provenance == {1: [7], 0: [8]}


def _y_points(size):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=size, max_size=size)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
@example(data=None, n=2)
def test_filter_over_rows_matches_filter_over_solutions(data, n):
    """The final filter keeps the same points and the same first-discovered
    x whether it reads IR rows or the equivalent Solutions."""
    if data is None:        # repeated and dominated points from distinct x, and no input
        xs, ys = [(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 2, 0), (1, 2, 0), (0, 2, 1), (1, 2, 1)]
        assert tribip.filter_nondominated_solutions(IrSet().rows) == []
    else:
        xs = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), unique=True,
                                max_size=min(2 ** n, 40)))
        ys = data.draw(_y_points(len(xs)))
    rows = [IrRow((np.array(x, dtype=np.int8).tobytes(), y)) for x, y in zip(xs, ys)]
    solutions = [tribip.Solution(np.array(x, dtype=np.int8), y, True) for x, y in zip(xs, ys)]
    from_rows = tribip.filter_nondominated_solutions(rows)
    from_solutions = tribip.filter_nondominated_solutions(solutions)
    assert [(r.key(), r.y) for r in from_rows] == [(s.key(), s.y) for s in from_solutions]
    first = {}
    for row in rows:
        first.setdefault(row.y, row.key())
    assert [r.key() for r in from_rows] == [first[r.y] for r in from_rows]


@pytest.mark.parametrize("variant", ["PI", "PRrand"])
def test_solve_from_lb_calls_each_layer_by_module_name(variant):
    """Pair selection and the walk run once per iteration and the final
    filter once, each looked up in the heuristic module's namespace, where
    wrappers that time the layers replace them."""
    problem = tribip.generate_knapsack(10, seed=2)
    lb = tribip.compute_lb_set(problem)
    config = PrConfig(variant=variant, seed=3, iteration_multiplier=4)
    names = ("select_pair", "path_relink_walk", "filter_nondominated_solutions")
    spies = {name: mock.Mock(wraps=getattr(heuristic, name)) for name in names}
    with mock.patch.multiple(heuristic, **spies):
        front, report = tribip.solve_from_lb(problem, lb, config)
    assert report.pr_iterations == report.ir_size * 4 > 0
    assert spies["select_pair"].call_count == report.pr_iterations
    assert spies["path_relink_walk"].call_count == report.pr_iterations
    assert spies["filter_nondominated_solutions"].call_count == 1
    rows, = spies["filter_nondominated_solutions"].call_args.args
    assert len(rows) > report.ir_size and all(type(row) is IrRow for row in rows)
    front_ref, _ = tribip.solve_from_lb(problem, lb, config)
    assert [(s.key(), s.y) for s in front] == [(s.key(), s.y) for s in front_ref]
    assert all(type(s) is tribip.Solution for s in front)


def test_ir_x_matrix_grows_with_adds():
    rng = np.random.default_rng(3)
    ir = IrSet()
    for bits in rng.integers(0, 2, size=(40, 9)):
        ir.add(tribip.Solution(bits, (0, 0, 0), True))
        xs = ir.x_matrix()
        assert np.array_equal(xs, np.array([list(row.key()) for row in ir.rows], dtype=np.int8))
    assert not xs.flags.writeable


def test_ir_x_matrix_fills_rows_added_since_last_call():
    rng = np.random.default_rng(4)
    ir = IrSet()
    views = []
    for step, bits in enumerate(rng.integers(0, 2, size=(120, 11))):
        ir.add(tribip.Solution(bits, (0, 0, 0), True))
        if step % 7 == 3 or step == 0:
            views.append((ir.x_matrix(), [row.key() for row in ir.rows]))
    for view, keys in views:              # earlier views keep their rows, later adds do not show
        assert [row.tobytes() for row in view] == keys
        assert not view.flags.writeable


# -- run ----------------------------------------------------------------------

def test_run_rd_assignment_uses_lb_directly():
    p = tribip.generate_assignment(3, seed=2)
    front, report = run(p, PrConfig(variant="RD", seed=0))
    lb = tribip.compute_lb_set(p)
    lb_pts = tribip.filter_nondominated([tuple(int(round(v)) for v in pt.y)
                                         for pt in lb.points])
    assert [s.y for s in front] == [tuple(r) for r in lb_pts.tolist()]
    assert report.pr_iterations == 0


def test_run_deterministic():
    p = tribip.generate_knapsack(10, seed=4)
    f1, r1 = run(p, PrConfig(variant="PI", seed=11))
    f2, r2 = run(p, PrConfig(variant="PI", seed=11))
    assert [s.y for s in f1] == [s.y for s in f2]
    assert [s.x.tolist() for s in f1] == [s.x.tolist() for s in f2]
    assert r1.lp_count == r2.lp_count


def test_run_iteration_discipline():
    p = tribip.generate_knapsack(10, seed=6)
    for variant in ("PRrand", "PI"):
        _, report = run(p, PrConfig(variant=variant, seed=1, iteration_multiplier=50))
        assert report.pr_iterations == report.ir_size * 50


def test_run_front_feasible_nondominated():
    p = tribip.generate_knapsack(10, seed=7)
    front, _ = run(p, PrConfig(variant="PIsim", seed=2))
    ys = [s.y for s in front]
    assert len(set(ys)) == len(ys)
    for s in front:
        assert tribip.is_feasible(p, s.x)
    for a in ys:
        for b in ys:
            assert a == b or not dominates(a, b)


def test_run_pr_improves_or_matches_rd():
    # structural: the PR front contains the rounded set, so HV cannot drop
    for seed in range(3):
        p = tribip.generate_knapsack(10, seed=seed)
        ref = tribip.exact_front(p)
        front_rd, _ = run(p, PrConfig(variant="RD"))
        front_pi, _ = run(p, PrConfig(variant="PI", seed=seed))
        hv_rd = tribip.hv_percent([s.y for s in front_rd], ref)
        hv_pi = tribip.hv_percent([s.y for s in front_pi], ref)
        assert hv_pi >= hv_rd - 1e-9


def test_run_all_variants_complete():
    p = tribip.generate_knapsack(8, seed=9)
    for variant in tribip.VARIANTS:
        front, report = run(p, PrConfig(variant=variant, seed=0))
        assert report.y_count == len(front) > 0


def test_config_validation():
    with pytest.raises(ValidationError):
        PrConfig(variant="nope")
    with pytest.raises(ValidationError):
        PrConfig(best_move_prob=1.5)
    with pytest.raises(ValidationError):
        PrConfig(iteration_multiplier=-1)


def test_run_general_kind():
    # mixed-sense general rows; covering row keeps rounding honest
    p = tribip.general_problem(
        objectives=[[3, 1, 4, 2], [1, 5, 2, 6], [2, 2, 5, 1]],
        senses=("max", "max", "max"),
        a=[[1, 1, 1, 1], [1, 1, 0, 0]],
        row_sense=("<=", "<="),
        b=[2, 1],
    )
    front, report = run(p, PrConfig(variant="PI", seed=3))
    assert report.y_count == len(front) > 0
    for s in front:
        assert tribip.is_feasible(p, s.x)


def test_run_force_pr_assignment_deterministic():
    p = tribip.generate_assignment(3, seed=8)
    f1, _ = run(p, PrConfig(variant="PRrand", seed=4, force_pr=True))
    f2, _ = run(p, PrConfig(variant="PRrand", seed=4, force_pr=True))
    assert [s.y for s in f1] == [s.y for s in f2]
    for s in f1:
        assert tribip.is_feasible(p, s.x)


def test_run_zero_capacity_rd():
    p = tribip.knapsack_problem([[4, 2], [5, 3], [6, 4]], [1, 1], 0)
    front, _ = run(p, PrConfig(variant="RD"))
    assert [s.y for s in front] == [(0, 0, 0)]


def test_run_assignment_skips_pr_by_default():
    # without force_pr every variant reduces to the filtered LB front
    p = tribip.generate_assignment(3, seed=6)
    front_rd, rep_rd = run(p, PrConfig(variant="RD"))
    front_pi, rep_pi = run(p, PrConfig(variant="PI", seed=1))
    assert [s.y for s in front_pi] == [s.y for s in front_rd]
    assert rep_pi.pr_iterations == 0
