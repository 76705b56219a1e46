import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribip
from tribip import (DimensionError, ParseError, TribipError, ValidationError,
                    evaluate, heuristic, is_feasible)

from conftest import brute_force_front, ir_add, naive_rows_hold, naive_write_front, solution_of


def test_evaluate_p_matrix(p_matrix_problem):
    # native profits [7, 6, 8] for items 1 and 3
    assert evaluate(p_matrix_problem, [1, 0, 1, 0]) == (-7, -6, -8)


def test_evaluate_all_zeros(p_matrix_problem):
    assert evaluate(p_matrix_problem, [0, 0, 0, 0]) == (0, 0, 0)


def test_evaluate_column_sums(p_matrix_problem):
    # column sums of the first three columns: (9, 9, 12) native
    assert evaluate(p_matrix_problem, [1, 1, 1, 0]) == (-9, -9, -12)


def test_evaluate_dimension_mismatch(p_matrix_problem):
    with pytest.raises(DimensionError):
        evaluate(p_matrix_problem, [1, 0, 1])


def test_evaluate_matches_cached_y():
    rng = np.random.default_rng(5)
    for seed in range(5):
        p = tribip.generate_knapsack(8, seed=seed)
        for _ in range(20):
            x = rng.integers(0, 2, p.n)
            sol = solution_of(p, x)
            assert sol.y == evaluate(p, x)


def test_public_names_resolve_once():
    names = tribip.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(tribip, name), name


def test_solution_is_a_value():
    a = tribip.Solution([1, 0, 1], (1, 2, 3))
    b = tribip.Solution(np.array([1, 0, 1], dtype=np.int64), [1, 2, 3])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != tribip.Solution([1, 0, 0], (1, 2, 3))
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(copied) is tribip.Solution and copied == a


def test_solution_x_is_a_read_only_int8_view_of_the_key(p_matrix_problem):
    sol = solution_of(p_matrix_problem, [1, 0, 1, 0])
    ir = tribip.IrSet()
    ir_add(ir, sol)
    for s in (sol, ir[0]):
        assert s.x.dtype == np.int8 and s.x.tolist() == [1, 0, 1, 0]
        assert s.x.tobytes() == s.key() and s.y == (-7, -6, -8)
        with pytest.raises(ValueError):
            s.x[0] = 0


@pytest.mark.parametrize("x, error", [([0, 300], ValidationError), ([0.7], ValidationError),
                                      ([-1, 1], ValidationError), ([[1, 0]], DimensionError)])
def test_solution_rejects_x_that_is_not_a_binary_vector(x, error):
    with pytest.raises(error):
        tribip.Solution(x, (1, 2, 3))


@pytest.mark.parametrize("y", [(1.5, 2, 3), (1, 2, float("nan")), (1, float("inf"), 3),
                               (1, 2, "3"), (np.float64(0.25), 2, 3)])
def test_solution_rejects_a_point_that_is_not_integral(y):
    with pytest.raises(ValidationError):
        tribip.Solution([1, 0], y)


def test_solution_takes_integral_floats_and_numpy_ints():
    sol = tribip.Solution([1, 0], (2.0, np.int64(-3), np.float64(4.0)))
    assert sol.y == (2, -3, 4) and all(type(v) is int for v in sol.y)


def test_solution_rejects_point_of_other_length():
    with pytest.raises(DimensionError):
        tribip.Solution([1, 0], (1, 2))


def test_is_feasible_knapsack():
    p = tribip.knapsack_problem([[1, 1, 1, 1]] * 3, [1, 1, 1, 1], 2)
    assert is_feasible(p, [1, 0, 1, 0])
    assert not is_feasible(p, [1, 1, 1, 0])


def test_is_feasible_assignment_identity():
    p = tribip.generate_assignment(2, seed=0)
    assert is_feasible(p, [1, 0, 0, 1])
    assert is_feasible(p, [0, 1, 1, 0])
    assert not is_feasible(p, [1, 1, 0, 0])


def test_assignment_permutations_feasible():
    import itertools
    p = tribip.generate_assignment(3, seed=2)
    t = 3
    for perm in itertools.permutations(range(t)):
        x = np.zeros(9, dtype=np.int8)
        for r, l in enumerate(perm):
            x[r * t + l] = 1
        assert is_feasible(p, x)
    # a row sum != 1 fails
    assert not is_feasible(p, [1, 1, 0, 0, 0, 1, 0, 0, 0])


def test_generate_knapsack_deterministic():
    a = tribip.generate_knapsack(4, seed=7)
    b = tribip.generate_knapsack(4, seed=7)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)


def test_generate_knapsack_single_item_capacity():
    p = tribip.generate_knapsack(1, seed=3, coeff_range=(5, 5))
    assert p.weights.tolist() == [5]
    assert p.capacity == 3                       # ceil(5 / 2)


def test_generate_knapsack_capacity_recomputed():
    p = tribip.generate_knapsack(10, seed=1)
    total = int(p.weights.sum())
    assert p.capacity == (total + 1) // 2


def test_generate_assignment_dimensions():
    p = tribip.generate_assignment(2, seed=0)
    assert p.n == 4
    assert p.m == 4
    assert p.row_sense == ("=",) * 4


def test_generate_assignment_deterministic():
    a = tribip.generate_assignment(3, seed=7)
    b = tribip.generate_assignment(3, seed=7)
    assert np.array_equal(a.C, b.C)


def test_generate_assignment_constant_costs():
    c = 7
    p = tribip.assignment_problem(np.full((3, 3, 3), c))
    front = brute_force_front(p)
    assert front == [(3 * c, 3 * c, 3 * c)]


def test_instance_roundtrip_knapsack(tmp_path, p_matrix_problem):
    path = tmp_path / "kp.txt"
    tribip.write_instance(p_matrix_problem, path)
    q = tribip.read_instance(path)
    assert q.kind == p_matrix_problem.kind
    assert np.array_equal(q.C, p_matrix_problem.C)
    assert np.array_equal(q.A, p_matrix_problem.A)
    assert np.array_equal(q.b, p_matrix_problem.b)
    assert q.original_sense == p_matrix_problem.original_sense


def test_instance_roundtrip_assignment(tmp_path):
    p = tribip.generate_assignment(3, seed=4)
    path = tmp_path / "ap.txt"
    tribip.write_instance(p, path)
    q = tribip.read_instance(path)
    assert np.array_equal(q.C, p.C)
    assert q.row_sense == p.row_sense


def test_instance_roundtrip_general(tmp_path):
    p = tribip.general_problem(
        objectives=[[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        senses=("min", "max", "min"),
        a=[[1, 1, 1], [2, 0, 1]],
        row_sense=(">=", "<="),
        b=[1, 2],
    )
    path = tmp_path / "gen.txt"
    tribip.write_instance(p, path)
    q = tribip.read_instance(path)
    assert np.array_equal(q.C, p.C)
    assert np.array_equal(q.A, p.A)
    assert np.array_equal(q.b, p.b)
    assert q.row_sense == p.row_sense
    assert q.original_sense == p.original_sense


def test_instance_rejects_wrong_p(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tribip-instance v1\nkind knapsack\nn 2\np 2\n"
                    "sense max max\nobjectives\n1 2\n3 4\nweights\n1 1\ncapacity 1\n")
    with pytest.raises(TribipError):
        tribip.read_instance(path)


def test_instance_rejects_negative_weight(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tribip-instance v1\nkind knapsack\nn 2\np 3\n"
                    "sense max max max\nobjectives\n1 2\n3 4\n5 6\n"
                    "weights\n1 -1\ncapacity 1\n")
    with pytest.raises(ValidationError):
        tribip.read_instance(path)


def test_instance_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tribip-instance v1\nkind knapsack\nn 2\np 3\n"
                    "sense max max max\nobjectives\n1 x\n3 4\n5 6\n"
                    "weights\n1 1\ncapacity 1\n")
    with pytest.raises(ParseError) as err:
        tribip.read_instance(path)
    assert err.value.line_no == 7


_KNAPSACK_TEXT = ("tribip-instance v1\nkind knapsack\nn 2\np 3\nsense max max max\n"
                  "objectives\n1 2\n3 4\n5 6\nweights\n1 1\ncapacity 1\n")


def test_instance_refuses_lines_after_the_last(tmp_path):
    """A line after the capacity line is refused with its number, not
    ignored; comments and blank lines may follow."""
    path = tmp_path / "inst.txt"
    path.write_text(_KNAPSACK_TEXT + "\n# end\n")
    assert tribip.read_instance(path).capacity == 1
    path.write_text(_KNAPSACK_TEXT + "capacity 7\n")
    with pytest.raises(ParseError) as err:
        tribip.read_instance(path)
    assert err.value.line_no == len(_KNAPSACK_TEXT.splitlines()) + 1


@pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63), -(2 ** 63) - 1])
def test_instance_refuses_a_value_outside_int64(tmp_path, value):
    path = tmp_path / "inst.txt"
    path.write_text(_KNAPSACK_TEXT.replace("objectives\n1 2\n", f"objectives\n{value} 2\n"))
    with pytest.raises(ParseError) as err:
        tribip.read_instance(path)
    assert err.value.line_no == 7


def test_problem_refuses_a_row_whose_absolute_sum_leaves_int64():
    """A @ x and C @ x cannot wrap: a row whose absolute coefficients add up
    to 2**63 or more is refused; one just below the bound is kept."""
    big = 2 ** 62
    with pytest.raises(ValidationError):
        tribip.general_problem(objectives=[[1, 1, 1]] * 3, senses=["min"] * 3,
                               a=[[big, big, big]], row_sense=["<="], b=[big])
    with pytest.raises(ValidationError):
        tribip.knapsack_problem([[big, big, big], [1, 1, 1], [1, 1, 1]], [1, 1, 1], 1)
    with pytest.raises(ValidationError):
        tribip.general_problem(objectives=[[big, -big, 0], [1, 1, 1], [1, 1, 1]],
                               senses=["min"] * 3, a=[[1, 1, 1]], row_sense=["<="], b=[3])
    p = tribip.knapsack_problem([[big, big - 1], [1, 1], [1, 1]], [1, 1], 2)
    assert evaluate(p, [1, 1]) == (1 - 2 ** 63, -2, -2)      # minimisation form


_BEYOND = 2 ** 63


@pytest.mark.parametrize("build", [
    pytest.param(lambda: tribip.knapsack_problem([[1, 1]] * 3, [1, 1], _BEYOND), id="capacity"),
    pytest.param(lambda: tribip.knapsack_problem([[1, _BEYOND]] * 3, [1, 1], 1), id="profit"),
    pytest.param(lambda: tribip.knapsack_problem([[1, 1]] * 3, [1, -_BEYOND - 1], 1), id="weight"),
    pytest.param(lambda: tribip.general_problem([[1]] * 3, ["min"] * 3,
                                                np.array([[2 ** 64 - 1]], np.uint64), ["<="], [0]),
                 id="uint64-coefficient"),       # the cast would wrap it to -1
    pytest.param(lambda: tribip.assignment_problem([[[_BEYOND]]] * 3), id="cost"),
    pytest.param(lambda: tribip.general_problem([[1]] * 3, ["min"] * 3, [[1]], ["<="], [_BEYOND]),
                 id="rhs"),
    pytest.param(lambda: tribip.general_problem([[1]] * 3, ["min"] * 3, [[-_BEYOND - 1]], ["<="],
                                                [0]), id="coefficient"),
    pytest.param(lambda: tribip.Problem("general", [[_BEYOND]] * 3, [[1]], [1], ("<=",),
                                        ("min",) * 3), id="problem-objective"),
    pytest.param(lambda: tribip.general_problem([[1]] * 3, ["min"] * 3, [[1]], ["<="], [-_BEYOND]),
                 id="rhs-int64-min"),        # int64 holds it, but not its negation
    pytest.param(lambda: tribip.Solution([1, 0], (2 ** 70, 0, 0)), id="solution-y"),
    pytest.param(lambda: tribip.Solution([1, 0], (0, -_BEYOND, 0)), id="solution-y-int64-min"),
])
def test_builders_refuse_a_value_beyond_int64(build):
    """A value of magnitude 2**63 or more, -2**63 included, in a Problem's
    arrays or a Solution's y, is refused with ValidationError when it is
    built, not a bare OverflowError from the int64 cast, nor wrapped."""
    with pytest.raises(ValidationError, match="beyond int64"):
        build()


@pytest.mark.parametrize("build, what", [
    pytest.param(lambda: tribip.knapsack_problem([[1.9, 2]] * 3, [1, 1], 1.7), "profits",
                 id="knapsack"),
    pytest.param(lambda: tribip.knapsack_problem([[1, 2]] * 3, [1, 1], 1.7), "capacity",
                 id="capacity"),
    pytest.param(lambda: tribip.assignment_problem([[[1, 2], [3, 4.5]]] * 3), "costs",
                 id="assignment"),
    pytest.param(lambda: tribip.general_problem([[1, 1]] * 3, ["min"] * 3,
                                                np.array([[1.0, np.nan]]), ["<="], [1]),
                 "constraint matrix", id="general"),
    pytest.param(lambda: tribip.knapsack_problem([[1, 2]] * 3, [None, 1], 1), "weights",
                 id="none"),
    pytest.param(lambda: tribip.knapsack_problem([[float("nan"), 2 ** 70]] * 3, [1, 1], 1),
                 "profits", id="nan-beside-a-big-int"),
    pytest.param(lambda: tribip.general_problem([["1", "2"]] * 3, ("min",) * 3, [[b"1", b"1"]],
                                                ("<=",), ["1"]), "objectives", id="digit-strings"),
    pytest.param(lambda: tribip.general_problem([[1, 2]] * 3, ("min",) * 3, [[b"1", b"1"]],
                                                ("<=",), [1]), "constraint matrix", id="bytes"),
    pytest.param(lambda: tribip.knapsack_problem([[1 + 5j, 2]] * 3, [1, 1], 1), "profits",
                 id="complex"),
])
def test_builders_refuse_a_value_that_is_not_an_integer(build, what):
    """A value that is not an integer is refused with ValidationError naming
    its array, not truncated."""
    with pytest.raises(ValidationError, match=f"^{what}: .*is not an integer"):
        build()


def test_builders_refuse_ragged_rows():
    """Rows of unequal length are refused with ValidationError naming the
    array, not a bare ValueError from numpy."""
    with pytest.raises(ValidationError, match="^profits: "):
        tribip.knapsack_problem([[1, 2], [3], [4, 5]], [1, 1], 1)


def test_problem_owns_its_arrays():
    """A Problem copies what it is built from: a later write to the caller's
    arrays does not change the Problem, and the caller's arrays stay
    writable."""
    weights, a, b = np.array([3, 4]), np.array([[1, 1]]), np.array([1])
    knap = tribip.knapsack_problem([[1, 2]] * 3, weights, 4)
    general = tribip.general_problem([[1, 2]] * 3, ["min"] * 3, a, ["<="], b)
    weights[0], a[0, 0], b[0] = 9, 9, 9
    assert knap.A.tolist() == [[3, 4]] and general.A.tolist() == [[1, 1]]
    assert general.b.tolist() == [1]
    assert weights.flags.writeable and a.flags.writeable and b.flags.writeable


def test_builders_take_integral_floats():
    p = tribip.knapsack_problem(np.array([[4.0, 2.0]] * 3), [1.0, 3.0], 2.0)
    assert p.C.tolist() == [[-4, -2]] * 3 and p.A.tolist() == [[1, 3]] and p.b.tolist() == [2]
    assert p.C.dtype == p.A.dtype == p.b.dtype == np.int64


def test_front_roundtrip(tmp_path, p_matrix_problem):
    sols = [solution_of(p_matrix_problem, x)
            for x in ([1, 0, 1, 0], [0, 1, 0, 1])]
    path = tmp_path / "front.txt"
    tribip.write_front(path, p_matrix_problem, sols)
    data = tribip.read_front(path)
    assert data.n == 4
    assert len(data.records) == 2
    assert [x.tolist() for x, _ in data.records] == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert all(x.dtype == np.int8 and x.flags.writeable for x, _ in data.records)
    # y stored in native (max) sense, as exact integers
    assert data.records[0][1] == (7, 6, 8)
    assert all(type(v) is int for _, y in data.records for v in y)
    pts = data.min_points()
    assert pts.dtype == np.int64 and pts.tolist() == [[-7, -6, -8], [-8, -11, -11]]


@st.composite
def _exact_front(draw):
    """A general problem with mixed senses and `Solution`s whose objective
    values reach far beyond 2**53, where a float no longer holds every
    integer."""
    n = draw(st.integers(1, 8))
    senses = draw(st.lists(st.sampled_from(["min", "max"]), min_size=3, max_size=3))
    problem = tribip.general_problem([[1] * n] * 3, senses, [[1] * n], ("<=",), [n])
    value = st.integers(-(2 ** 62), 2 ** 62) | st.sampled_from([2 ** 63 - 1, 1 - 2 ** 63])
    solutions = st.builds(tribip.Solution, st.lists(st.integers(0, 1), min_size=n, max_size=n),
                          st.tuples(value, value, value))
    return problem, draw(st.lists(solutions, max_size=6))


@settings(max_examples=100, deadline=None)
@given(case=_exact_front())
@example(case=(tribip.general_problem([[1]] * 3, ["max", "min", "max"], [[1]], ("<=",), [1]),
               [tribip.Solution([1], (2 ** 60 + 1, 3, -(2 ** 53 + 1)))]))
def test_front_roundtrip_keeps_solution_y_exact(tmp_path_factory, case):
    """`Solution`s read back with their x, their native y as exact ints, and
    int64 minimisation points equal to their y."""
    problem, solutions = case
    path = tmp_path_factory.mktemp("front") / "front.txt"
    tribip.write_front(path, problem, solutions)
    data = tribip.read_front(path)
    signs = problem.sense_signs().tolist()
    assert [x.tolist() for x, _ in data.records] == [s.x.tolist() for s in solutions]
    assert [y for _, y in data.records] == [tuple(g * v for g, v in zip(signs, s.y))
                                             for s in solutions]
    pts = data.min_points()
    assert pts.dtype == np.int64 and pts.tolist() == [list(s.y) for s in solutions]


@pytest.mark.parametrize("value", ["7.5", "1e3", str(2 ** 63), str(-(2 ** 63))])
def test_front_refuses_a_0_1_record_value_that_is_not_int64(tmp_path, p_matrix_problem, value):
    """A 0/1 record's objective values are integers that fit int64 in either
    sense; the writer never writes anything else there, so the reader names
    the line of any other."""
    path = tmp_path / "front.txt"
    solution = solution_of(p_matrix_problem, [1, 0, 1, 0])
    tribip.write_front(path, p_matrix_problem, [solution])
    text = path.read_text()
    path.write_text(text.replace("1010 7 6 8", f"1010 {value} 6 8"))
    with pytest.raises(ParseError) as err:
        tribip.read_front(path)
    assert err.value.line_no == len(text.splitlines())


@pytest.mark.parametrize("x, text", [([2.0, -1.0, 0.0, 1.0], "~2,-1,0,1"),
                                     ([1.0, 0.0, 1.0, 0.0], "~1,0,1,0")])
def test_front_pair_with_integral_x_reads_back(tmp_path, p_matrix_problem, x, text):
    """A pair (an LB export) is a '~' record whatever its x: an integral x,
    0/1 or not, reads back as written, as float64, and so do its points."""
    path = tmp_path / "front.txt"
    tribip.write_front(path, p_matrix_problem, [(np.array(x), (-5, -3, -5))])
    assert path.read_text().endswith(f"\n{text} 5 3 5\n")
    data = tribip.read_front(path)
    (x_read, y_read), = data.records
    assert x_read.dtype == np.float64 and x_read.tolist() == x
    assert y_read == (5.0, 3.0, 5.0)
    pts = data.min_points()
    assert pts.dtype == np.float64 and pts.tolist() == [[-5.0, -3.0, -5.0]]


def test_front_refuses_negative_count(tmp_path, p_matrix_problem):
    path = tmp_path / "front.txt"
    tribip.write_front(path, p_matrix_problem, [])
    text = path.read_text()
    path.write_text(text.replace("count 0", "count -1"))
    with pytest.raises(ParseError) as err:
        tribip.read_front(path)
    assert err.value.line_no == text.splitlines().index("count 0") + 1


def test_front_refuses_records_past_count(tmp_path, p_matrix_problem):
    """A record after the count-th one is refused with its line, not dropped;
    comments and blank lines may follow the last record."""
    path = tmp_path / "front.txt"
    solution = solution_of(p_matrix_problem, [1, 0, 1, 0])
    tribip.write_front(path, p_matrix_problem, [solution])
    text = path.read_text() + "\n# end\n"
    path.write_text(text)
    assert len(tribip.read_front(path).records) == 1
    path.write_text(text + "0101 8 11 11\n")
    with pytest.raises(ParseError) as err:
        tribip.read_front(path)
    assert err.value.line_no == len(text.splitlines()) + 1


@pytest.mark.parametrize("x, y, error", [([1, 0, 1], (0, 0, 0), DimensionError),
                                         ([1, 0, 1, 0, 1], (0, 0, 0), DimensionError),
                                         ([1, 0, 1, 0], (2 ** 63, 0, 0), ValidationError),
                                         ([1, 0, 1, 0], (0, -(2 ** 63), 0), ValidationError)])
def test_write_front_refuses_what_its_reader_refuses(tmp_path, p_matrix_problem, x, y, error):
    """A Solution whose length is not n, or whose y does not fit int64 in
    either sense, is refused before any file is written: the y as the
    Solution is built."""
    path = tmp_path / "front.txt"
    with pytest.raises(error):
        tribip.write_front(path, p_matrix_problem, [tribip.Solution(x, y)])
    assert not path.exists()


@pytest.mark.parametrize("y", [(-1.0, -2.0), (-1.0, -2.0, -3.0, -4.0)])
def test_write_front_refuses_a_pair_whose_y_is_not_3_values(tmp_path, p_matrix_problem, y):
    path = tmp_path / "front.txt"
    with pytest.raises(DimensionError):
        tribip.write_front(path, p_matrix_problem, [([0.5, 1.0, 1.0, 1.0], y)])
    assert not path.exists()


# int() reads "2" and the Arabic-Indic digits; the others are not digits
@pytest.mark.parametrize("digits", ["1200", "\u0661\u0660\u0661\u0660", "10-1", "1a01", "1.01"])
def test_front_refuses_x_digits_other_than_0_1(tmp_path, p_matrix_problem, digits):
    """A digit string is x itself, one 0/1 entry per character: any other
    character is refused with the line of its record, not read as an entry."""
    path = tmp_path / "front.txt"
    solution = solution_of(p_matrix_problem, [1, 0, 1, 0])
    tribip.write_front(path, p_matrix_problem, [solution])
    text = path.read_text().replace("count 1", "count 2")
    path.write_text(text + f"{digits} 7 6 8\n")
    with pytest.raises(ParseError) as err:
        tribip.read_front(path)
    assert err.value.line_no == len(text.splitlines()) + 1
    assert repr(digits) in str(err.value)


def test_front_fractional_flag(tmp_path, p_matrix_problem):
    path = tmp_path / "front.txt"
    tribip.write_front(path, p_matrix_problem, [(np.array([0.5, 0, 1, 0]), (-5.0, -3.5, -5.0))])
    text = path.read_text()
    assert "~0.5,0,1,0" in text
    data = tribip.read_front(path)
    assert np.allclose(data.records[0][0], [0.5, 0, 1, 0])


@pytest.mark.parametrize("y", [(-50000.25, -60000.5, -70000.75), (-1e20, -2.0, -3.0)])
def test_front_min_points_stay_float_unless_int64(tmp_path, y):
    """A '~' record reads back as its float points: a fractional value, even
    within a relative 1e-5 of an integer, or one beyond int64."""
    path = tmp_path / "lb.txt"
    problem = tribip.knapsack_problem([[1], [2], [3]], [1], 1)
    tribip.write_front(path, problem, [(np.array([0.5]), y)])
    pts = tribip.read_front(path).min_points()
    assert pts.dtype == np.float64 and pts.tolist() == [list(y)]


_objective = st.integers(-1000, 1000) | st.sampled_from([0, -(2 ** 60), 2 ** 60])


@st.composite
def _front_case(draw):
    """A general problem with mixed senses, and front entries of every kind
    `write_front` takes: `Solution`s, and (x, y) pairs with integral float x
    (some within 1e-9 of an integer, some not 0/1), one-byte integer x or
    fractional x (LB exports)."""
    n = draw(st.integers(1, 12))
    senses = draw(st.lists(st.sampled_from(["min", "max"]), min_size=3, max_size=3))
    obj = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                        min_size=3, max_size=3))
    problem = tribip.general_problem(obj, senses, [[1] * n], ("<=",), [n])
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    int_y = st.tuples(_objective, _objective, _objective)
    float_y = st.tuples(*[st.floats(-1e4, 1e4) | _objective.map(float)] * 3)
    near = st.floats(-1e-9, 1e-9)
    solution = st.builds(tribip.Solution, bits, int_y)
    integral = st.tuples(
        st.builds(lambda x, d: np.array(x, dtype=np.float64) + np.array(d),
                  st.lists(st.integers(-1, 2), min_size=n, max_size=n),
                  st.lists(near, min_size=n, max_size=n)),
        float_y | int_y)
    one_byte = st.tuples(
        st.builds(np.array, bits, st.sampled_from([np.int8, np.uint8, np.bool_])), int_y)
    fractional = st.tuples(
        st.builds(lambda x, frac: np.array(x[:-1] + [frac]),
                  st.lists(st.floats(0, 1), min_size=n, max_size=n),
                  st.floats(1e-6, 1 - 1e-6)),
        float_y)
    entries = draw(st.lists(solution | integral | one_byte | fractional, max_size=6))
    return problem, entries


@settings(max_examples=300, deadline=None)
@given(case=_front_case())
@example(case=(tribip.knapsack_problem([[1], [2], [3]], [1], 1), []))      # empty front
def test_write_front_matches_naive_writer(tmp_path_factory, case):
    problem, entries = case
    tmp = tmp_path_factory.mktemp("front")
    tribip.write_front(tmp / "fast.txt", problem, entries)
    naive_write_front(tmp / "naive.txt", problem, entries)
    assert (tmp / "fast.txt").read_bytes() == (tmp / "naive.txt").read_bytes()


@st.composite
def _row_problems(draw):
    """General problems with 0 to 4 rows of mixed senses and coefficients of
    both signs, some of them wide.  Each right-hand side lies at an end of
    the range the row's left-hand side reaches on 0/1 vectors, just outside
    it, or near it, so rows that no 0/1 vector satisfies and left-hand sides
    at the reachable minimum and maximum are common."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 4))
    coefficient = st.integers(-5, 5) | st.sampled_from([0, -(2 ** 40), 2 ** 40])
    rows = draw(st.lists(st.lists(coefficient, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = []
    for row in rows:
        low, high = sum(a for a in row if a < 0), sum(a for a in row if a > 0)
        rhs.append(draw(st.sampled_from([low, high, low - 1, high + 1])
                        | st.integers(low - 2, high + 2)))
    return tribip.general_problem([[1] * n] * 3, ("min",) * 3,
                                  np.array(rows, dtype=np.int64).reshape(m, n),
                                  draw(st.lists(st.sampled_from(tribip.model.ROW_SENSES),
                                                min_size=m, max_size=m)), rhs)


def _rows_only(a, row_sense, b):
    n = np.shape(a)[1]
    return tribip.general_problem([[1] * n] * 3, ("min",) * 3, a, row_sense, b)


@settings(max_examples=300, deadline=None)
@given(problem=_row_problems())
@example(problem=_rows_only(np.zeros((0, 2), dtype=np.int64), (), []))           # m = 0
@example(problem=_rows_only([[2, 2], [0, 0]], ("=", ">="), [1, 0]))    # no 0/1 vector fits row 0
@example(problem=_rows_only([[3, -2, 0], [-1, -1, 4]], ("<=", ">="), [3, -2]))   # bounds at max, min
@example(problem=_rows_only([[2 ** 62 - 1, 2 ** 62 - 1]], ("<=",), [2 ** 63 - 3]))  # beyond float64
def test_row_checks_match_row_by_row_check(problem):
    """`Problem.rows_hold`, called once on the stacked row sums of all 2^n
    vectors, `is_feasible` and the packed row test of the walk agree with the
    row-by-row check on every 0/1 vector.  The packed sum holds, in the
    field below each guard bit, the row's left-hand side minus its least
    reachable value, and flipping x_j by the packed displacement
    moves[x_j][j][1] moves every field by the row-by-row difference."""
    moves, columns, offset, add_lo, add_hi, guards = heuristic._walk_tables(problem)
    rows = problem.A.tolist()
    least = [sum(a for a in row if a < 0) for row in rows]
    marks = [at for at in range(guards.bit_length()) if guards >> at & 1]
    assert len(marks) == problem.m
    starts = [0] + [at + 1 for at in marks[:-1]]

    def fields(s):
        assert s & guards == 0
        return [s >> lo & ((1 << (hi - lo)) - 1) for lo, hi in zip(starts, marks)]

    def row_fields(bits):
        return [sum(a * v for a, v in zip(row, bits)) - low for row, low in zip(rows, least)]

    vectors = list(itertools.product((0, 1), repeat=problem.n))
    held = problem.rows_hold(np.array(vectors, dtype=np.int64) @ problem.A.T)
    assert held.shape == (len(vectors),)
    for bits, holds in zip(vectors, held.tolist()):
        assert holds == naive_rows_hold(problem, bits)
        s = offset + sum(c for c, v in zip(columns, bits) if v)
        assert fields(s) == row_fields(bits)
        assert ((s + add_lo) & guards == guards and (add_hi - s) & guards == guards) == \
            naive_rows_hold(problem, bits)
        assert tribip.is_feasible(problem, bits) == naive_rows_hold(problem, bits)
        for j, v in enumerate(bits):
            flipped = list(bits)
            flipped[j] ^= 1
            assert fields(s + moves[v][j][1]) == row_fields(flipped)


def test_problem_immutable(p_matrix_problem):
    with pytest.raises(ValueError):
        p_matrix_problem.C[0, 0] = 99
