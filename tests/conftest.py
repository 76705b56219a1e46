"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive results by the dumbest possible
means (full enumeration, pairwise scans, literal rank tables) so that they
stay independent of the code paths they check.
"""

import itertools

import numpy as np
import pytest

import tribip


@pytest.fixture
def p_matrix_problem():
    """Four-item knapsack with the worked-example profit matrix, unit
    weights, capacity 4 (nothing binds)."""
    return tribip.knapsack_problem(
        [[4, 2, 3, 6], [5, 3, 1, 8], [6, 4, 2, 7]], [1, 1, 1, 1], 4)


def naive_filter(points):
    """O(n^2) pairwise nondominance oracle; duplicates collapsed; sorted."""
    pts = [tuple(int(v) for v in p) for p in points]
    out = []
    for p in set(pts):
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in set(pts)):
            out.append(p)
    return sorted(out)


def brute_force_front(problem):
    """Exact front by itertools enumeration (independent of metrics)."""
    pts = set()
    if problem.kind == "assignment":
        t = problem.tasks
        for perm in itertools.permutations(range(t)):
            x = np.zeros(problem.n, dtype=np.int8)
            for r, l in enumerate(perm):
                x[r * t + l] = 1
            pts.add(tribip.evaluate(problem, x))
    else:
        for bits in itertools.product((0, 1), repeat=problem.n):
            if tribip.is_feasible(problem, bits):
                pts.add(tribip.evaluate(problem, bits))
    return naive_filter(pts)


def brute_force_feasible_points(problem):
    """All feasible binary vectors with their objective points."""
    out = []
    for bits in itertools.product((0, 1), repeat=problem.n):
        if tribip.is_feasible(problem, bits):
            out.append((np.array(bits, dtype=np.int8), tribip.evaluate(problem, bits)))
    return out


def highs_lp_value(problem, w):
    """Weighted-sum LP optimum over the [0,1] relaxation by scipy's HiGHS,
    built straight from the problem's rows; None when infeasible."""
    from scipy.optimize import linprog

    c = np.asarray(w, dtype=float) @ problem.C.astype(float)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, rhs, sense in zip(problem.A, problem.b, problem.row_sense):
        if sense == "=":
            a_eq.append(row)
            b_eq.append(rhs)
        else:
            sign = 1 if sense == "<=" else -1
            a_ub.append(sign * row)
            b_ub.append(sign * rhs)
    res = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None, A_eq=a_eq or None,
                  b_eq=b_eq or None, bounds=(0, 1), method="highs")
    return float(res.fun) if res.status == 0 else None


NEAR_AXIS_WEIGHTS = [(1, 1e-4, 1e-4), (1e-4, 1, 1e-4), (1e-4, 1e-4, 1)]


def naive_improved_nd(obj_s_i, nd):
    """Literal rank-table implementation of the most-improved selection."""
    nd = [list(map(float, row)) for row in nd]
    k, p = len(nd), len(obj_s_i)
    ratio = [[0.0] * p for _ in range(k)]
    for i in range(k):
        for j in range(p):
            if obj_s_i[j] != 0:
                ratio[i][j] = nd[i][j] / obj_s_i[j]
            else:
                ratio[i][j] = -nd[i][j]
    rank = [[0] * p for _ in range(k)]
    for j in range(p):
        order = sorted(range(k), key=lambda i: (ratio[i][j], i))
        for pos, i in enumerate(order):
            rank[i][j] = pos + 1
    degree = [sum(rank[i]) for i in range(k)]
    best = max(degree)
    return degree.index(best)
