import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribip
from tribip import (InsufficientSolutionsError, IrSet, NoRoundedSolutionError,
                    PrArchives, PrConfig, ValidationError, Xoshiro256StarStar,
                    path_relink, path_relink_walk, round_down, run, select_pair)
from tribip import heuristic
from tribip.lbset import LbSet

from conftest import (dominates, ir_add, naive_improved_nd, naive_path_relink,
                      naive_path_relink_walk, naive_round_down, naive_select_pair, next_outputs,
                      similarity, solution_of)


def _lbset_from(problem, xs):
    x = np.array(xs, dtype=float).reshape(-1, problem.n)
    points = x @ problem.C.astype(float).T
    return LbSet(points=points, x=x, w=np.full_like(points, 1 / 3), probes=np.empty((0, 4)),
                 seconds=0.0)


def _ir_from(problem, xs):
    ir = IrSet()
    for x in xs:
        ir_add(ir, solution_of(problem, x))
    return ir


def _walk_tables(problem):
    """The walk tables of `problem`, read through its cache as the walk reads them."""
    return heuristic._kept(problem, "_walk_tables", heuristic._walk_tables)


def _flip_dominators(problem):
    """The dominator masks of `problem`, read through its cache as the walk reads them."""
    return heuristic._kept(problem, "_flip_dominators", heuristic._flip_dominators)


def _ints(lo, hi, size):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size)


# -- round_down ---------------------------------------------------------------

def test_round_down_floors(p_matrix_problem):
    lb = _lbset_from(p_matrix_problem, [[1, 0.6, 1, 0]])
    ir = round_down(lb, p_matrix_problem)
    assert list(ir[0].key()) == [1, 0, 1, 0]


def test_round_down_keeps_near_integral(p_matrix_problem):
    lb = _lbset_from(p_matrix_problem, [[1 - 1e-9, 0, 0, 1]])
    ir = round_down(lb, p_matrix_problem)
    assert list(ir[0].key()) == [1, 0, 0, 1]


def test_round_down_assignment_passthrough():
    p = tribip.generate_assignment(3, seed=1)
    lb = tribip.compute_lb_set(p)
    ir = round_down(lb, p)
    for row, x in zip(ir, lb.x):
        assert row.key() == np.round(x).astype(np.int8).tobytes()


def test_round_down_feasibility_preserved():
    # rounding down can only decrease knapsack weight
    for seed in range(3):
        p = tribip.generate_knapsack(10, seed=seed)
        lb = tribip.compute_lb_set(p)
        ir = round_down(lb, p)
        assert ir.dropped_infeasible == 0
        for row in ir:
            assert tribip.is_feasible(p, list(row.key()))


def test_round_down_merges_duplicates(p_matrix_problem):
    lb = _lbset_from(p_matrix_problem, [[1, 0.6, 1, 0], [1, 0.2, 1, 0]])
    ir = round_down(lb, p_matrix_problem)
    assert len(ir) == 1


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


def _wide_rounding_case():
    """Rows with coefficients of 2**40 and more, whose packed sums take over
    63 bits, past what an int64 holds.  x = (1, 0, 1) meets row 0 at
    its bound, the reachable maximum, (1, 1, 0) row 1 at its bound, and
    (0, 1, 0) row 0 at its reachable minimum; (1, 0, 0) fails row 1."""
    problem = tribip.general_problem(
        objectives=[[1, -2, 3], [0, 5, -1], [2, 2, 2]], senses=("min", "max", "min"),
        a=[[2 ** 40, -(2 ** 41), 3], [-(2 ** 40), 1, 2 ** 42]], row_sense=("<=", ">="),
        b=[2 ** 40 + 3, 1 - 2 ** 40])
    xs = [[1, 1, 0.5], [0, 1, 1], [1, 0, 1], [1, 0.5, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0],
          [1 - 1e-9, 0.3, 1]]
    return problem, _lbset_from(problem, xs)


@example(case=_wide_rounding_case())
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
        outcomes.append((None if ir is None else (list(ir), ir.dropped_infeasible),
                         warning.call_args_list))
    assert outcomes[0] == outcomes[1]


# -- select_pair --------------------------------------------------------------

def test_select_pair_sim(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]])

    class FixedRng:
        def randint(self, n):
            return 0          # initiating = first solution

    assert select_pair(ir, "sim", FixedRng()) == (0, 1)     # similarity 3 beats 1


def test_select_pair_dif(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]])

    class FixedRng:
        def randint(self, n):
            return 0

    assert select_pair(ir, "dif", FixedRng()) == (0, 2)     # similarity 1 is minimal


def test_select_pair_random_distinct(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]])
    rng = Xoshiro256StarStar(3)
    for _ in range(50):
        i, g = select_pair(ir, "random", rng)
        assert i != g and 0 <= i < 3 and 0 <= g < 3


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


_TIES = [                # every row is at similarity n - 1 from row 0 unless noted
    ("add", (0, 0, 0, 0)), ("add", (1, 0, 0, 0)), ("add", (0, 1, 0, 0)),
    ("sim", 0), ("dif", 0),
    ("add", (0, 0, 1, 0)),                  # ties both cached guides from row 0
    ("sim", 0), ("dif", 0),
    ("add", (1, 1, 0, 0)),                  # similarity n - 2: strictly better for dif
    ("sim", 0), ("dif", 0),
    ("add", (1, 1, 1, 1)), ("sim", 5), ("dif", 5),     # initiating row is the newest
    ("add", (0, 1, 1, 1)), ("sim", 5), ("dif", 5), ("sim", 1), ("dif", 6),
]

# one byte, a byte and a bit, a word less a bit, one word, a word and a bit,
# and three words
_WIDTHS = (4, 9, 63, 64, 65, 130)


# n = 300: rows 0 and 1 are complements, at distance 300 > 255, and row 2 is
# 100 from row 0 and 200 from row 1; a count that wraps at 256 reads 300 as
# 44 and the sim sentinel 301 as 45, and picks row 1 or row i itself
_FAR = [("add", ()), ("add", (1,) * 300), ("add", (1,) * 100),
        ("sim", 0), ("dif", 0), ("sim", 1), ("dif", 1), ("sim", 2), ("dif", 2),
        ("add", (0,) * 40 + (1,) * 260), ("sim", 0), ("dif", 0), ("sim", 1), ("dif", 1),
        ("add_high", (1,) * 257), ("sim", 2), ("dif", 2), ("sim", 4), ("dif", 4)]


def _scan_examples(test):
    """The tie script at every width, with its rows at the low end of x and,
    where only the last word tells them apart, at the high end; and rows
    more than 255 apart at n = 300."""
    high = [("add_high", arg) if op == "add" else (op, arg) for op, arg in _TIES]
    for n in _WIDTHS:
        test = example(ops=_TIES, n=n)(example(ops=high, n=n)(test))
    return example(ops=_FAR, n=300)(test)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.sampled_from(("add", "add_high")),
              st.lists(st.integers(0, 1), max_size=max(_WIDTHS))),
    st.tuples(st.sampled_from(("sim", "dif")), st.integers(0, 40)),
    st.tuples(st.sampled_from(("sim", "dif")), st.just(-1))), max_size=60),
    n=st.sampled_from(_WIDTHS + (300,)))
@_scan_examples
def test_select_pair_matches_full_scan(ops, n):
    """Interleaved adds and sim/dif selections at widths that pad the last
    byte and word or span several words, up to distances past 255: the
    incremental guide search returns the full scan's pair and makes the
    same draws.  An added row's
    bits, cut to n, go at the low end of x ("add") or the high end
    ("add_high"); the other entries are 0."""
    ir = IrSet()
    for op, arg in ops:
        if op in ("add", "add_high"):
            x = np.zeros(n, dtype=np.int8)
            bits = arg[:n]
            if op == "add":
                x[:len(bits)] = bits
            else:
                x[n - len(bits):] = bits
            ir_add(ir, tribip.Solution(x, (0, 0, 0)))
            continue
        if len(ir) < 2:
            continue
        rng, rng_ref = _ScriptedRng(arg), _ScriptedRng(arg)
        assert select_pair(ir, op, rng) == naive_select_pair(ir, op, rng_ref)
        assert rng.draws == rng_ref.draws == [len(ir)]


def test_select_pair_refuses_unknown_rule_before_drawing(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 0, 1, 0]])
    rng, untouched = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    with pytest.raises(ValidationError):
        select_pair(ir, "bogus", rng)
    assert next_outputs(rng) == next_outputs(untouched)


def test_similarity_counts_equal_positions():
    assert similarity([0, 0, 1, 0], [1, 0, 1, 0]) == 3
    assert similarity([0, 0, 1, 0], [1, 1, 0, 0]) == 1


# -- improved-ND rank rule ----------------------------------------------------

def _kernel_pick(obj, nd):
    """The walk kernel's pick among neighbour points nd of the current point
    obj: `_rank_winner` over the sign keys s_k d_k of the displacements
    d = nd - obj, with s_k = 1 if obj_k > 0 else -1."""
    signs = [1 if o > 0 else -1 for o in obj]
    return heuristic._rank_winner([tuple(s * (v - o) for s, v, o in zip(signs, row, obj))
                                   for row in nd])


def test_improved_nd_single():
    assert _kernel_pick((-10, -10, -10), [(-12, -11, -10)]) == 0


def test_improved_nd_worked_example():
    # degrees: A=6, B=7, C=5 -> B
    nd = [(-12, -11, -10), (-11, -13, -10), (-10, -10, -14)]
    assert _kernel_pick((-10, -10, -10), nd) == naive_improved_nd((-10, -10, -10), nd) == 1


def test_improved_nd_duplicate_rows_follow_ordinal_ranks():
    # ordinal ranking gives the later duplicate the larger rank sum; the
    # naive rank-table oracle agrees
    nd = [(-12, -11, -10), (-12, -11, -10)]
    assert _kernel_pick((-10, -10, -10), nd) == naive_improved_nd((-10, -10, -10), nd) == 1


def test_improved_nd_zero_denominator_fallback():
    # second objective of the current point is zero: rank by raw value
    nd = [(-5, -7, -1), (-6, -3, -2)]
    assert _kernel_pick((-10, 0, -10), nd) == naive_improved_nd((-10, 0, -10), nd)


def test_improved_nd_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.integers(1, 8)
        nd = (-rng.integers(0, 50, size=(k, 3))).tolist()
        obj = (-rng.integers(1, 50, size=3)).tolist()
        assert _kernel_pick(obj, nd) == naive_improved_nd(obj, nd)


_small = st.integers(-3, 3)      # narrow range: ties and zero current values are common


@settings(max_examples=500, deadline=None)
@given(obj=st.tuples(_small, _small, _small),
       nd=st.lists(st.tuples(_small, _small, _small), min_size=1, max_size=40))
@example(obj=(0, 0, 0), nd=[(1, 1, 1)] * 40)
@example(obj=(-2, 0, 3), nd=[(-1, 2, 0), (-1, 2, 0), (2, -1, 0)])
def test_improved_nd_matches_naive_oracle_with_ties(obj, nd):
    assert _kernel_pick(obj, nd) == naive_improved_nd(obj, nd)
    # the kernel ranks integer keys directly, larger meaning more improved
    assert heuristic._rank_winner(nd) == naive_improved_nd((1, 1, 1), nd)


# -- flip dominance table -----------------------------------------------------

@st.composite
def _flip_problems(draw):
    """Objective columns drawn from a small pool plus the zero column, so
    that repeated, zero and mixed-sign columns are common; n from 1."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.tuples(_small, _small, _small), min_size=1, max_size=4))
    cols = draw(st.lists(st.sampled_from(pool + [(0, 0, 0)]), min_size=n, max_size=n))
    return tribip.general_problem(objectives=np.array(cols).T, senses=("min", "max", "min"),
                                  a=[[1] * n], row_sense=("<=",), b=[n])


@settings(max_examples=300, deadline=None)
@given(problem=_flip_problems())
@example(problem=tribip.general_problem([[0], [0], [0]], ("min",) * 3, [[1]], ("<=",), [1]))
@example(problem=tribip.general_problem([[2], [-1], [0]], ("min",) * 3, [[1]], ("<=",), [1]))
def test_flip_dominators_match_pairwise_dominance(problem):
    """Bit j + v*n of the table stands for the displacement (1 - 2v) c_j of
    flipping x_j away from v; each entry holds exactly the displacements
    that strictly dominate its own."""
    n = problem.n
    disp = {(v, j): tuple((1 - 2 * v) * int(c) for c in problem.C[:, j])
            for v in (0, 1) for j in range(n)}
    table = _flip_dominators(problem)
    assert _flip_dominators(problem) is table
    assert [len(row) for row in table] == [n, n]
    for (v, j), d in disp.items():
        want = sum(1 << (k + n * u) for (u, k), e in disp.items() if dominates(e, d))
        assert table[v][j] == want


# -- path relinking -----------------------------------------------------------

def test_walk_reproduces_worked_path(p_matrix_problem):
    s_i = solution_of(p_matrix_problem, [0, 0, 1, 0])
    s_g = solution_of(p_matrix_problem, [1, 1, 0, 0])
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    visits = path_relink_walk(p_matrix_problem, s_i, s_g, ir, archives,
                              Xoshiro256StarStar(0), best_move_prob=1.0,
                              collect_visits=True)
    assert [tuple(v) for v in visits] == [(1, 0, 1, 0), (1, 1, 1, 0), (1, 1, 0, 0)]
    # the two intermediates are new and feasible, the endpoint was known
    assert [list(row.key()) for row in list(ir)[2:]] == [[1, 0, 1, 0], [1, 1, 1, 0]]


def test_walk_identical_pair_no_steps(p_matrix_problem):
    s = solution_of(p_matrix_problem, [1, 0, 1, 0])
    ir = _ir_from(p_matrix_problem, [[1, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    visits = path_relink_walk(p_matrix_problem, s, s, ir, archives,
                              Xoshiro256StarStar(0), 1.0, collect_visits=True)
    assert visits == []
    assert len(ir) == 2


def test_walk_zero_capacity_archives_nothing():
    p = tribip.knapsack_problem([[4, 2, 3], [5, 3, 1], [6, 4, 2]], [1, 1, 1], 0)
    s_i = solution_of(p, [0, 0, 0])
    # an infeasible guiding solution still guides the walk
    s_g = tribip.Solution(np.array([1, 1, 0], dtype=np.int8), tribip.evaluate(p, [1, 1, 0]))
    ir = IrSet()
    ir_add(ir, s_i)
    archives = PrArchives()
    path_relink_walk(p, s_i, s_g, ir, archives, Xoshiro256StarStar(1), 0.7)
    assert len(ir) == 1


def test_pair_already_recorded_exits_immediately(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    s_i, s_g = ir
    archives.ig_pairs.add((s_i.key(), s_g.key()))
    visits = path_relink_walk(p_matrix_problem, s_i, s_g, ir, archives,
                              Xoshiro256StarStar(0), 1.0, collect_visits=True)
    assert visits == []
    assert len(ir) == 2


def test_path_relink_records_pair(p_matrix_problem):
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0]])
    archives = PrArchives()
    config = PrConfig(variant="PI", seed=0)
    path_relink(ir, archives, config, Xoshiro256StarStar(0), p_matrix_problem, 1)
    assert len(archives.ig_pairs) == 1


def test_candx_members_feasible_and_new(p_matrix_problem):
    """candX, the new feasible points that relinking finds, is the IR tail
    past the start rows: each is feasible, new and carries its own y."""
    rng = Xoshiro256StarStar(5)
    ir = _ir_from(p_matrix_problem, [[0, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 1]])
    ir0_keys = {row.key() for row in ir}
    archives = PrArchives()
    config = PrConfig(variant="PRrand", seed=5)
    path_relink(ir, archives, config, rng, p_matrix_problem, 30)
    assert len(ir) > 3
    for row in list(ir)[3:]:
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
        return (visits, list(ir), set(archives.ig_pairs), next_outputs(rng))

    for _ in range(iterations):
        for walk, ir, archives, rng, visits in sides:
            with mock.patch.object(heuristic, "path_relink_walk", _recording(walk, visits)):
                path_relink(ir, archives, config, rng, problem, 1)
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
                path_relink(ir, archives, config, walk_rng, problem, 1)
    got, want = [(visits, list(ir), archives.ig_pairs,
                  next_outputs(r)) for _, ir, archives, r, visits in sides]
    assert got == want


def test_walk_kernel_sign_change_matches_reference_walk():
    """y_0 goes from -2 to 1 in the middle of the one walk that seed 0
    draws, with two or more nondominated moves at steps on both sides of
    the crossing, so the kernel ranks on sign keys built for y_0 < 0 and
    then on keys rebuilt for y_0 > 0.  Knapsack y never changes sign."""
    cols = [[1, 0, -2], [1, 0, -3], [-1, -3, 3], [3, -3, 0], [3, 0, -2], [1, 0, 2], [-1, -2, 3]]
    problem = tribip.general_problem(objectives=np.array(cols).T, senses=("min",) * 3,
                                     a=[[1] * 7], row_sense=("<=",), b=[7])
    starts = [[0, 1, 1, 1, 1, 1, 0], [1, 0, 0, 0, 0, 0, 1]]
    config = PrConfig(variant="PI", seed=0, best_move_prob=1.0)
    sides = [(walk, _ir_from(problem, starts), PrArchives(), Xoshiro256StarStar(0), [])
             for walk in (path_relink_walk, naive_path_relink_walk)]
    for walk, ir, archives, rng, visits in sides:
        with mock.patch.object(heuristic, "path_relink_walk", _recording(walk, visits)):
            path_relink(ir, archives, config, rng, problem, 1)
    got, want = [(visits, list(ir), archives.ig_pairs, next_outputs(rng))
                 for _, ir, archives, rng, visits in sides]
    assert got == want
    # the walk runs from row 1 to row 0: y and the number of nondominated
    # moves before each step
    (walked,), rows, pairs = got[:3]
    assert pairs == {(rows[1].key(), rows[0].key())}
    c = problem.C.T.tolist()
    steps, x = [], list(starts[1])
    for key in walked:
        moves = [tuple((1 - 2 * x[j]) * v for v in c[j]) for j in range(7) if x[j] != starts[0][j]]
        nd = [d for d in moves if not any(dominates(e, d) for e in moves)]
        steps.append((tribip.evaluate(problem, x), len(nd)))
        x = list(key)
    assert steps == [((0, -2, 1), 4), ((-1, -5, 4), 3), ((-2, -5, 6), 2), ((1, -8, 6), 1),
                     ((2, -8, 3), 3), ((5, -8, 1), 2), ((6, -8, 3), 1)]


@settings(max_examples=100, deadline=None)
@given(problem=_relink_problems(), data=st.data(),
       variant=st.sampled_from([v for v in tribip.VARIANTS if v != "RD"]),
       seed=st.integers(0, 2**32), iterations=st.integers(1, 60))
def test_recorded_pairs_start_at_ir_keys(problem, data, variant, seed, iterations):
    """Every pair that `path_relink` records starts at a key of the IR
    set, which the walk relies on when it looks up only IR keys in
    ig_pairs."""
    n = problem.n
    starts = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                min_size=2, max_size=6, unique_by=tuple))
    ir, archives, rng = _ir_from(problem, starts), PrArchives(), Xoshiro256StarStar(seed)
    config = PrConfig(variant=variant, seed=seed)
    for _ in range(iterations):
        path_relink(ir, archives, config, rng, problem, 1)
        assert all(key_i in ir for key_i, _ in archives.ig_pairs)


@pytest.mark.parametrize("variant", ["PRrand", "PRsim", "PRdif", "PI", "PIsim", "PIdif"])
@settings(max_examples=50, deadline=None)
@given(problem=_relink_problems(), data=st.data(),
       prob=st.sampled_from((0.0, 0.7, 1.0)), seed=st.integers(0, 2**32),
       chunks=st.lists(st.integers(0, 30), min_size=1, max_size=4))
def test_path_relink_matches_loop_that_walks_every_pair(variant, problem, data, prob, seed,
                                                        chunks):
    """Skipping recorded pairs changes nothing: over calls of a few
    iterations each, `path_relink` leaves the IR rows, ig_pairs and the
    stream as the reference loop that selects by full scan, walks every
    pair with the reference walk and records it."""
    n = problem.n
    starts = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                min_size=2, max_size=6, unique_by=tuple))
    config = PrConfig(variant=variant, seed=seed, best_move_prob=prob)
    sides = [(loop, _ir_from(problem, starts), PrArchives(), Xoshiro256StarStar(seed))
             for loop in (path_relink, naive_path_relink)]
    for iterations in chunks:
        for loop, ir, archives, rng in sides:
            loop(ir, archives, config, rng, problem, iterations)
        got, want = [(list(ir), archives.ig_pairs, next_outputs(rng))
                     for _, ir, archives, rng in sides]
        assert got == want


@pytest.mark.parametrize("variant", ["PRrand", "PRsim", "PRdif", "PI", "PIsim", "PIdif"])
def test_no_walk_starts_at_a_recorded_pair(variant):
    """The loop walks only pairs it has not recorded, and records each one
    it walks, so the walks are as many as the recorded pairs; the sim rule
    repeats its pairs, so there it walks fewer times than it iterates."""
    problem = tribip.generate_knapsack(10, seed=2)
    lb = tribip.compute_lb_set(problem)
    ir = round_down(lb, problem)
    archives, rng = PrArchives(), Xoshiro256StarStar(3)
    starts = []

    def walk(problem, s_i, s_g, ir, archives, rng, best_move_prob, collect_visits=False):
        pair = (s_i.key(), s_g.key())
        assert s_i.key() != s_g.key() and pair not in archives.ig_pairs
        starts.append(pair)
        return path_relink_walk(problem, s_i, s_g, ir, archives, rng, best_move_prob,
                                collect_visits)

    iterations = len(ir) * 5
    with mock.patch.object(heuristic, "path_relink_walk", walk):
        path_relink(ir, archives, PrConfig(variant=variant, seed=3), rng, problem, iterations)
    assert len(starts) == len(set(starts)) == len(archives.ig_pairs) > 0
    if variant.endswith("sim"):
        assert len(starts) < iterations


def test_walk_appends_rows_without_tracked_objects():
    """A walk appends its new IR rows flat: with the collector off,
    gc.get_count()[0], the net count of new objects the collector tracks,
    grows by less than the number of rows the walk appends."""
    n = 40
    problem = tribip.knapsack_problem([[3] * n, [5] * n, [7] * n], [1] * n, n)
    s_i = tribip.Solution(np.zeros(n, dtype=np.int8), (0, 0, 0))
    s_g = solution_of(problem, np.ones(n, dtype=np.int8))
    ir, archives, rng = _ir_from(problem, [s_i.x, s_g.x]), PrArchives(), Xoshiro256StarStar(3)
    _walk_tables(problem)          # cached before counting
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        path_relink_walk(problem, s_i, s_g, ir, archives, rng, 0.0)
        grown = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    appended = len(ir) - 2
    assert appended >= 20 and grown < appended


def test_move_tables_cached_per_problem():
    """Two problems with the same n and different coefficients, walked
    alternately at best_move_prob 0: each matches the reference walk, so
    neither walk reads the other problem's cached moves or packed rows."""
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
                    path_relink(ir, archives, config, walk_rng, problem, 1)
            side, ref = [(visits, list(ir), archives.ig_pairs,
                          next_outputs(rng_))
                         for _, _, ir, archives, rng_, visits in pair]
            assert side == ref
    for problem in problems:
        assert _walk_tables(problem) is _walk_tables(problem)


@settings(max_examples=100, deadline=None)
@given(problem=_relink_problems(), data=st.data(), prob=st.sampled_from((0.0, 0.7, 1.0)),
       seed=st.integers(0, 2**32))
def test_walk_from_rows_matches_walk_from_solutions(problem, data, prob, seed):
    """The walk reads only the two keys, so a pair of checked Solutions and
    the equal IR rows, built unchecked, give the same visits, IR rows and RNG
    state."""
    n = problem.n
    starts = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                min_size=2, max_size=5, unique_by=tuple))
    i, g = data.draw(st.permutations(range(len(starts))))[:2]
    outcomes = []
    for as_rows in (False, True):
        ir, rng = _ir_from(problem, starts), Xoshiro256StarStar(seed)
        pair = (ir[i], ir[g]) if as_rows else \
            (solution_of(problem, starts[i]), solution_of(problem, starts[g]))
        visits = path_relink_walk(problem, *pair, ir, PrArchives(), rng, prob,
                                  collect_visits=True)
        outcomes.append(([v.tobytes() for v in visits], list(ir),
                         next_outputs(rng)))
    assert outcomes[0] == outcomes[1]


def _row(x, y):
    """The IR set's unchecked `Solution` of x and y, as `IrSet` indexing builds it."""
    return tuple.__new__(tribip.Solution, (np.array(x, dtype=np.int8).tobytes(), tuple(y)))


def test_ir_rows_and_provenance(p_matrix_problem):
    sol = solution_of(p_matrix_problem, [1, 0, 1, 0])
    ir = IrSet()
    assert ir_add(ir, sol) and not ir_add(ir, _row([1, 0, 1, 0], sol.y))
    row, = ir
    assert type(row) is tribip.Solution and row == sol and hash(row) == hash(sol)
    assert sol.key() in ir and len(ir) == 1


def test_ir_add_rejects_point_of_other_length():
    """Rows are stored three y entries each, so a point of another length
    is refused before it can shift the rows after it."""
    ir = IrSet()
    with pytest.raises(tribip.DimensionError):
        ir_add(ir, tribip.Solution([1, 0], (1, 2)))
    assert len(ir) == 0 and len(ir.ys) == 0


def _y_points(size):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=size, max_size=size)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
@example(data=None, n=2)
def test_filter_over_rows_matches_filter_over_solutions(data, n):
    """The final filter keeps the same points and the same first-discovered
    x whether it reads unchecked IR rows or the equal checked Solutions."""
    if data is None:        # repeated and dominated points from distinct x, and no input
        xs, ys = [(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 2, 0), (1, 2, 0), (0, 2, 1), (1, 2, 1)]
        assert tribip.filter_nondominated_solutions(IrSet()) == []
    else:
        xs = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), unique=True,
                                max_size=min(2 ** n, 40)))
        ys = data.draw(_y_points(len(xs)))
    rows = [_row(x, y) for x, y in zip(xs, ys)]
    solutions = [tribip.Solution(x, y) for x, y in zip(xs, ys)]
    from_rows = tribip.filter_nondominated_solutions(rows)
    from_solutions = tribip.filter_nondominated_solutions(solutions)
    assert [(r.key(), r.y) for r in from_rows] == [(s.key(), s.y) for s in from_solutions]
    first = {}
    for row in rows:
        first.setdefault(row.y, row.key())
    assert [r.key() for r in from_rows] == [first[r.y] for r in from_rows]


@pytest.mark.parametrize("variant", ["PI", "PRrand"])
def test_solve_from_lb_calls_each_layer_by_module_name(variant):
    """Pair selection runs once per iteration, the walk once per distinct
    pair walked and the final filter once, each looked up in the heuristic
    module's namespace, where wrappers that time the layers replace them."""
    problem = tribip.generate_knapsack(10, seed=2)
    lb = tribip.compute_lb_set(problem)
    config = PrConfig(variant=variant, seed=3, iteration_multiplier=4)
    names = ("select_pair", "path_relink_walk", "filter_nondominated_solutions")
    spies = {name: mock.Mock(wraps=getattr(heuristic, name)) for name in names}
    with mock.patch.multiple(heuristic, **spies):
        front, report = tribip.solve_from_lb(problem, lb, config)
    assert report.pr_iterations == report.ir_size * 4 > 0
    assert spies["select_pair"].call_count == report.pr_iterations
    walks = spies["path_relink_walk"].call_args_list
    archives = walks[0].args[4]
    assert all(walk.args[4] is archives for walk in walks)
    assert len(walks) == len({(w.args[1].key(), w.args[2].key()) for w in walks})
    assert len(walks) == len(archives.ig_pairs) > 0
    assert spies["filter_nondominated_solutions"].call_count == 1
    rows, = spies["filter_nondominated_solutions"].call_args.args
    assert len(rows) > report.ir_size and type(rows) is IrSet
    front_ref, _ = tribip.solve_from_lb(problem, lb, config)
    assert [(s.key(), s.y) for s in front] == [(s.key(), s.y) for s in front_ref]
    assert all(type(s) is tribip.Solution for s in front)


def _packed_rows_by_bit(keys):
    """Reference word buffer of x vectors given as key bytes: x_j at bit
    j % 64 of word j // 64, set one bit at a time on Python ints."""
    rows = []
    for key in keys:
        words = [0] * -(-len(key) // 64)
        for j, v in enumerate(key):
            words[j // 64] |= v << (j % 64)
        rows.append(words)
    return np.array(rows, dtype=np.uint64)


def test_ir_words_grow_with_adds():
    rng = np.random.default_rng(3)
    for n in (9, 64, 130):
        ir = IrSet()
        for bits in rng.integers(0, 2, size=(40, n)):
            ir_add(ir, tribip.Solution(bits, (0, 0, 0)))
            ws = ir._words()[:len(ir)]
            assert np.array_equal(ws, _packed_rows_by_bit(ir.keys))


def test_ir_words_fill_rows_added_since_last_call():
    rng = np.random.default_rng(4)
    ir = IrSet()
    views = []
    for step, bits in enumerate(rng.integers(0, 2, size=(120, 70))):
        ir_add(ir, tribip.Solution(bits, (0, 0, 0)))
        if step % 7 == 3 or step == 0:
            views.append((ir._words()[:len(ir)], list(ir.keys)))
    for view, keys in views:              # earlier views keep their rows, later adds do not show
        assert np.array_equal(view, _packed_rows_by_bit(keys))


# -- run ----------------------------------------------------------------------

def _assert_front_is_snapped_lb(lb, front, report):
    """Without force_pr an assignment run's front is the filtered LB front:
    rounding keeps every integral LB vertex and no relinking runs."""
    lb_pts = tribip.filter_nondominated([tuple(int(round(v)) for v in y)
                                         for y in lb.points.tolist()])
    assert [s.y for s in front] == [tuple(r) for r in lb_pts.tolist()]
    assert report.pr_iterations == 0
    assert report.ir_size == len({np.round(x).astype(np.int8).tobytes() for x in lb.x})


def test_run_rd_assignment_uses_lb_directly():
    p = tribip.generate_assignment(3, seed=2)
    _assert_front_is_snapped_lb(tribip.compute_lb_set(p), *run(p, PrConfig(variant="RD", seed=0)))


@pytest.fixture(scope="module")
def assignment_lb_sets():
    """(problem, LB set) per task count, enumerated once for the module."""
    problems = {t: tribip.generate_assignment(t, seed=t) for t in (3, 5, 8)}
    return {t: (p, tribip.compute_lb_set(p)) for t, p in problems.items()}


@pytest.mark.parametrize("variant", tribip.VARIANTS)
@pytest.mark.parametrize("tasks", [3, 5, 8])
def test_assignment_every_variant_gives_snapped_lb_front(assignment_lb_sets, tasks, variant):
    problem, lb = assignment_lb_sets[tasks]
    _assert_front_is_snapped_lb(
        lb, *tribip.solve_from_lb(problem, lb, PrConfig(variant=variant, seed=tasks)))


def test_run_deterministic():
    p = tribip.generate_knapsack(10, seed=4)
    f1, r1 = run(p, PrConfig(variant="PI", seed=11))
    f2, r2 = run(p, PrConfig(variant="PI", seed=11))
    assert [s.y for s in f1] == [s.y for s in f2]
    assert [s.x.tolist() for s in f1] == [s.x.tolist() for s in f2]
    assert r1.lp_count == r2.lp_count


def _count_builds(monkeypatch, name) -> list:
    """Route the builder heuristic.<name>, which `run` or the walk calls by
    that name, through a wrapper that records each (problem, value) it
    builds."""
    made = []
    build = getattr(heuristic, name)

    def counting(problem):
        value = build(problem)
        made.append((problem, value))
        return value

    monkeypatch.setattr(heuristic, name, counting)
    return made


def test_run_enumerates_the_lb_set_once_per_problem(monkeypatch):
    """The first run on a Problem enumerates its LB set and every later one
    reuses it, whatever the variant or seed; each report still counts the
    set's time and LPs.  An equal but distinct Problem enumerates its own."""
    made = _count_builds(monkeypatch, "compute_lb_set")
    p = tribip.generate_knapsack(10, seed=3)
    reports = [run(p, PrConfig(variant=variant, seed=seed))[1]
               for variant in ("RD", "PRrand", "PI") for seed in (0, 1)]
    assert len(made) == 1 and made[0][0] is p
    lb = made[0][1]
    assert all(r.time_sec >= lb.seconds and r.lp_count == lb.lp_count > 0 for r in reports)
    q = tribip.generate_knapsack(10, seed=3)
    run(q, PrConfig(variant="PI", seed=0))
    run(q, PrConfig(variant="RD"))
    assert len(made) == 2 and made[1][0] is q


def test_run_builds_the_walk_tables_once_per_problem(monkeypatch):
    """Six runs on one Problem, three variants by two seeds, build its LB set,
    walk tables and dominator masks once each.  An equal but distinct
    Problem builds its own, and PRrand runs alone never build the masks."""
    lbs, tables, masks = (_count_builds(monkeypatch, name)
                          for name in ("compute_lb_set", "_walk_tables", "_flip_dominators"))
    p = tribip.generate_knapsack(10, seed=3)
    for variant in ("RD", "PRrand", "PI"):
        for seed in (0, 1):
            run(p, PrConfig(variant=variant, seed=seed))
    assert [len(made) for made in (lbs, tables, masks)] == [1, 1, 1]
    assert all(made[0][0] is p for made in (lbs, tables, masks))
    q = tribip.generate_knapsack(10, seed=3)
    for seed in (0, 1):
        run(q, PrConfig(variant="PRrand", seed=seed))
    assert [len(made) for made in (lbs, tables, masks)] == [2, 2, 1]
    assert lbs[1][0] is q and tables[1][0] is q


def test_run_on_a_reused_lb_set_matches_a_fresh_enumeration(monkeypatch):
    """Every variant's front from the kept set equals `solve_from_lb` on an
    independent enumeration for a freshly built equal Problem."""
    made = _count_builds(monkeypatch, "compute_lb_set")
    p = tribip.generate_knapsack(12, seed=5)
    run(p, PrConfig(variant="RD"))
    for variant in tribip.VARIANTS:
        config = PrConfig(variant=variant, seed=2)
        q = tribip.generate_knapsack(12, seed=5)
        want, _ = tribip.solve_from_lb(q, tribip.compute_lb_set(q), config)
        got, _ = run(p, config)
        assert [(s.key(), s.y) for s in got] == [(s.key(), s.y) for s in want]
    assert len(made) == 1


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


@pytest.mark.parametrize("value", [2.5, "3", None, 3.0])
def test_config_rejects_non_integer_iteration_multiplier(value):
    with pytest.raises(ValidationError, match="iteration_multiplier"):
        PrConfig(iteration_multiplier=value)


def test_config_takes_integer_like_iteration_multiplier():
    config = PrConfig(iteration_multiplier=np.int64(3))
    assert type(config.iteration_multiplier) is int and config.iteration_multiplier == 3


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
