"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; plain
`pytest` runs them silently as ordinary tests.
"""

import time

import numpy as np
import pytest

import tribip
from tribip import PrConfig, PrArchives, Xoshiro256StarStar
from tribip.cli import main as cli_main

from conftest import hypervolume_mc, ir_add, naive_filter, solution_of


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} ({name}): {state}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_relink_trace_replay(p_matrix_problem):
    t0 = time.perf_counter()
    s_i = solution_of(p_matrix_problem, [0, 0, 1, 0])
    s_g = solution_of(p_matrix_problem, [1, 1, 0, 0])
    ir = tribip.IrSet()
    ir_add(ir, s_i)
    ir_add(ir, s_g)
    visits = tribip.path_relink_walk(
        p_matrix_problem, s_i, s_g, ir, PrArchives(), Xoshiro256StarStar(0),
        best_move_prob=1.0, collect_visits=True)
    elapsed = time.perf_counter() - t0
    got = [tuple(int(v) for v in x) for x in visits]
    want = [(1, 0, 1, 0), (1, 1, 1, 0), (1, 1, 0, 0)]
    _verdict(1, "relink trace replay", got == want and elapsed < 1.0,
             f"visited {got} in {elapsed:.3f}s")


def test_criterion_02_moap_integrality():
    sizes = [5, 6, 7, 8, 9, 10, 5, 6, 7, 8]
    worst = 0.0
    for i, tasks in enumerate(sizes):
        p = tribip.generate_assignment(tasks, seed=100 + i)
        lb = tribip.compute_lb_set(p)
        for x in lb.x:
            worst = max(worst, float(np.max(np.abs(x - np.round(x)))))
    _verdict(2, "MOAP integrality", worst <= 1e-6,
             f"max deviation from {{0,1}} over 10 instances: {worst:.2e}")


def test_criterion_03_moap_quality():
    t0 = time.perf_counter()
    values = []
    for seed in range(10):
        p = tribip.generate_assignment(5, seed=seed)
        lb = tribip.compute_lb_set(p)
        pts = tribip.filter_nondominated(
            [tuple(int(round(v)) for v in y) for y in lb.points.tolist()])
        ref = tribip.exact_front(p)
        values.append(tribip.hv_percent(pts, ref))
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(values))
    _verdict(3, "MOAP quality", mean >= 97.0 and elapsed < 10.0,
             f"mean HV% = {mean:.2f} over 10 tasks=5 instances in {elapsed:.2f}s")


def test_criterion_04_mokp_quality_ordering():
    t0 = time.perf_counter()
    hv = {"RD": [], "PRrand": [], "PI": []}
    for inst_seed in range(10):
        p = tribip.generate_knapsack(10, seed=inst_seed)
        ref = tribip.exact_front(p)
        front, _ = tribip.run(p, PrConfig(variant="RD"))
        hv["RD"].append(tribip.hv_percent([s.y for s in front], ref))
        for variant in ("PRrand", "PI"):
            for run_seed in range(10):
                front, _ = tribip.run(p, PrConfig(variant=variant, seed=run_seed))
                hv[variant].append(tribip.hv_percent([s.y for s in front], ref))
    elapsed = time.perf_counter() - t0
    means = {k: float(np.mean(v)) for k, v in hv.items()}
    ok = (means["RD"] >= 80.0 and means["PRrand"] >= 85.0 and means["PI"] >= 85.0
          and means["PI"] >= means["RD"] and elapsed < 120.0)
    _verdict(4, "MOKP quality ordering", ok,
             f"mean HV%: RD={means['RD']:.1f} PRrand={means['PRrand']:.1f} "
             f"PI={means['PI']:.1f} in {elapsed:.1f}s")


def test_criterion_05_iteration_discipline():
    checked = []
    for inst_seed, variant in ((0, "PI"), (1, "PRrand"), (2, "PIdif"), (3, "PRsim")):
        p = tribip.generate_knapsack(10, seed=inst_seed)
        _, report = tribip.run(p, PrConfig(variant=variant, seed=7))
        checked.append(report.pr_iterations == report.ir_size * 50)
    _verdict(5, "iteration discipline", all(checked),
             f"outer loop == |IR0| x 50 on {len(checked)} runs")


def test_criterion_06_hv_oracle_equivalence():
    worked_ok = (
        abs(tribip.hypervolume([(0.2, 0.2, 0.2)]) - 0.512) < 1e-9
        and abs(tribip.hypervolume([(0, 0.5, 0.5), (0.5, 0, 0.5)]) - 0.375) < 1e-9)
    rng = np.random.default_rng(42)
    max_err = 0.0
    for trial in range(20):
        k = int(rng.integers(1, 51))
        pts = rng.random((k, 3))
        exact = tribip.hypervolume(pts)
        mc = hypervolume_mc(pts, n_samples=1_000_000, seed=trial)
        max_err = max(max_err, abs(exact - mc))
    _verdict(6, "HV oracle equivalence", worked_ok and max_err < 0.005,
             f"worked examples to 1e-9; max |exact - MC(1e6)| = {max_err:.5f}")


def test_criterion_07_dominance_filter_equivalence():
    rng = np.random.default_rng(7)
    all_ok = True
    for _ in range(100):
        pts = rng.integers(0, 40, size=(200, 3))
        mine = [tuple(r) for r in tribip.filter_nondominated(pts).tolist()]
        if mine != naive_filter(pts):
            all_ok = False
            break
    _verdict(7, "dominance filter equivalence", all_ok,
             "100 random 200-point sets match the pairwise oracle")


def test_criterion_08_lp_lower_bound_property():
    worst_violation = -np.inf
    for i in range(10):
        n = (10, 11, 12)[i % 3]
        p = tribip.generate_knapsack(n, seed=200 + i)
        lb = tribip.compute_lb_set(p)
        ids = np.arange(1 << n, dtype=np.uint64)
        bits = ((ids[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1).astype(np.int8)
        feas = bits @ p.weights <= p.capacity
        ys = bits[feas].astype(np.int64) @ p.C.T.astype(np.int64)
        for *w, value in lb.probes.tolist():
            best_int = float(np.min(ys @ np.asarray(w)))
            worst_violation = max(worst_violation, value - best_int)
    _verdict(8, "LP lower-bound property", worst_violation <= 1e-6,
             f"max (LP value - best integer value) = {worst_violation:.2e}")


def test_criterion_09_determinism(tmp_path):
    cli_main(["generate", "--kind", "knapsack", "--n", "10", "--count", "1",
              "--seed", "31", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    identical = True
    for variant in ("RD", "PRrand", "PI"):
        a = tmp_path / f"{variant}_a.txt"
        b = tmp_path / f"{variant}_b.txt"
        for out in (a, b):
            rc = cli_main(["solve", str(inst), "--variant", variant,
                           "--seed", "13", "--out", str(out),
                           "--report-csv", str(tmp_path / "runs.csv")])
            assert rc == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    _verdict(9, "determinism", identical,
             "byte-identical front files for repeated (instance, variant, seed)")


def test_criterion_10_relative_cost_trend():
    lines = []
    ok = True
    for inst_seed in range(3):
        p = tribip.generate_knapsack(50, seed=inst_seed)
        _, rep_rd = tribip.run(p, PrConfig(variant="RD"))
        # PI reuses the LB set that RD enumerated on p; its time_sec still
        # includes that set's lb.seconds, as RD's does
        _, rep_pi = tribip.run(p, PrConfig(variant="PI", seed=0))
        ratio = rep_rd.time_sec / rep_pi.time_sec
        ok = ok and rep_rd.time_sec < 1.0 and ratio < 0.10
        lines.append(f"inst{inst_seed}: RD {rep_rd.time_sec:.3f}s, "
                     f"PI {rep_pi.time_sec:.2f}s, ratio {100 * ratio:.1f}%")
    _verdict(10, "relative cost trend", ok, "; ".join(lines))
