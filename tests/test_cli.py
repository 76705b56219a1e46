import csv
import gc
import sys
import warnings
from pathlib import Path

import pytest

import tribip
from tribip import cli
from tribip.cli import main


def _rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_generate_count_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["generate", "--kind", "knapsack", "--n", "6", "--count", "3",
                   "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
    files1 = sorted(out1.iterdir())
    files2 = sorted(out2.iterdir())
    assert len(files1) == 3
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()


def test_generate_capacity_consistent(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "10", "--count", "2",
          "--seed", "1", "--out-dir", str(tmp_path)])
    for path in tmp_path.iterdir():
        p = tribip.read_instance(path)
        assert p.capacity == (int(p.weights.sum()) + 1) // 2


def test_solve_writes_front_and_csv(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "1",
          "--seed", "3", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    front_path = tmp_path / "out.front.txt"
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", str(inst), "--variant", "PI", "--seed", "2",
               "--out", str(front_path), "--report-csv", str(csv_path)])
    assert rc == 0
    rows = _rows(csv_path)
    assert len(rows) == 1
    assert rows[0]["variant"] == "PI"
    assert rows[0]["seed"] == "2"
    assert int(rows[0]["y_count"]) > 0
    assert rows[0]["hv"] == ""                   # no reference given
    data = tribip.read_front(front_path)
    assert len(data.records) == int(rows[0]["y_count"])


def test_solve_reproducible_front_files(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "1",
          "--seed", "4", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    f1 = tmp_path / "f1.txt"
    f2 = tmp_path / "f2.txt"
    for f in (f1, f2):
        main(["solve", str(inst), "--variant", "PRsim", "--seed", "9", "--out", str(f)])
    assert f1.read_bytes() == f2.read_bytes()


def test_oracle_and_hv_percent(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "1",
          "--seed", "6", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    ref_path = tmp_path / "ref.txt"
    rc = main(["oracle", str(inst), "--out", str(ref_path)])
    assert rc == 0
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", str(inst), "--variant", "RD", "--ref-front", str(ref_path),
               "--report-csv", str(csv_path)])
    assert rc == 0
    row = _rows(csv_path)[0]
    assert row["hv"] != ""
    assert 0.0 <= float(row["hv"]) <= 1.0
    assert 0.0 < float(row["hv_pct"]) <= 100.0


def test_oracle_refuses_large(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "26", "--count", "1",
          "--seed", "0", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    rc = main(["oracle", str(inst)])
    assert rc == 2


def test_solve_missing_instance_fails(tmp_path):
    rc = main(["solve", str(tmp_path / "nope.txt"), "--variant", "RD"])
    assert rc != 0


def test_report_aggregates_means(tmp_path):
    csv_path = tmp_path / "runs.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "instance", "kind", "n", "variant", "seed", "y_count",
            "time_sec", "lp_count", "hv", "hv_pct", "front_file"])
        writer.writeheader()
        writer.writerow(dict(instance="kp_n10_i000", kind="kp", n="10", variant="PI",
                             seed="0", y_count="4", time_sec="0.5", lp_count="10",
                             hv="0.5", hv_pct="90.0", front_file=""))
        writer.writerow(dict(instance="kp_n10_i001", kind="kp", n="10", variant="PI",
                             seed="1", y_count="6", time_sec="1.5", lp_count="20",
                             hv="0.7", hv_pct="94.0", front_file=""))
        writer.writerow(dict(instance="kp_n10_i001", kind="kp", n="10", variant="RD",
                             seed="0", y_count="2", time_sec="0.25", lp_count="20",
                             hv="", hv_pct="", front_file=""))
    out = tmp_path / "agg.csv"
    rc = main(["report", str(csv_path), "--out", str(out)])
    assert rc == 0
    rows = {(r["variant"]): r for r in _rows(out)}
    # hand-computed means
    assert float(rows["PI"]["mean_y"]) == pytest.approx(5.0)
    assert float(rows["PI"]["mean_time_sec"]) == pytest.approx(1.0)
    assert float(rows["PI"]["mean_hv_pct"]) == pytest.approx(92.0)
    assert rows["PI"]["runs"] == "2"
    assert rows["RD"]["mean_hv_pct"] == ""       # blank, not zero
    assert float(rows["RD"]["mean_y"]) == pytest.approx(2.0)


def test_report_single_row_identity(tmp_path):
    csv_path = tmp_path / "runs.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "instance", "kind", "n", "variant", "seed", "y_count",
            "time_sec", "lp_count", "hv", "hv_pct", "front_file"])
        writer.writeheader()
        writer.writerow(dict(instance="kp_n10_i000", kind="kp", n="10", variant="RD",
                             seed="0", y_count="7", time_sec="0.125", lp_count="31",
                             hv="0.61", hv_pct="88.5", front_file=""))
    out = tmp_path / "agg.csv"
    main(["report", str(csv_path), "--out", str(out)])
    row = _rows(out)[0]
    assert float(row["mean_y"]) == pytest.approx(7.0)
    assert float(row["mean_time_sec"]) == pytest.approx(0.125)
    assert float(row["mean_hv_pct"]) == pytest.approx(88.5)


def test_report_permutation_invariant(tmp_path):
    fields = ["instance", "kind", "n", "variant", "seed", "y_count",
              "time_sec", "lp_count", "hv", "hv_pct", "front_file"]
    rows = [
        dict(instance=f"kp_n10_i{i:03d}", kind="kp", n="10", variant=v,
             seed=str(s), y_count=str(3 + i + s), time_sec="0.1",
             lp_count="5", hv="", hv_pct="", front_file="")
        for i in range(3) for s in range(2) for v in ("RD", "PI")
    ]
    outs = []
    for order in (rows, rows[::-1]):
        csv_path = tmp_path / f"runs_{len(outs)}.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(order)
        out = tmp_path / f"agg_{len(outs)}.csv"
        main(["report", str(csv_path), "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_assignment_rd_passthrough(tmp_path):
    main(["generate", "--kind", "assignment", "--n", "3", "--count", "1",
          "--seed", "2", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    front_path = tmp_path / "front.txt"
    rc = main(["solve", str(inst), "--variant", "RD", "--out", str(front_path)])
    assert rc == 0
    data = tribip.read_front(front_path)
    assert len(data.records) > 0
    # all solutions integral 0/1 strings
    for x, _ in data.records:
        assert set(x.tolist()) <= {0, 1}


def test_solve_batch_runs(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "2",
          "--seed", "8", "--out-dir", str(tmp_path)])
    insts = sorted(str(p) for p in tmp_path.glob("*.txt"))
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", *insts, "--variant", "PRrand", "--seed", "0", "--runs", "3",
               "--report-csv", str(csv_path), "--out-dir", str(tmp_path / "fronts")])
    assert rc == 0
    rows = _rows(csv_path)
    assert len(rows) == 6
    assert sorted({r["seed"] for r in rows}) == ["0", "1", "2"]
    assert len(list((tmp_path / "fronts").glob("*.front.txt"))) == 6


def test_solve_parallel_jobs_match_serial(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "2",
          "--seed", "12", "--out-dir", str(tmp_path)])
    insts = sorted(str(p) for p in tmp_path.glob("*.txt"))
    csvs = []
    for jobs, tag in ((1, "serial"), (3, "parallel")):
        csv_path = tmp_path / f"runs_{tag}.csv"
        rc = main(["solve", *insts, "--variant", "PI", "--runs", "2",
                   "--jobs", str(jobs), "--report-csv", str(csv_path)])
        assert rc == 0
        rows = sorted((r["instance"], r["seed"], r["y_count"])
                      for r in _rows(csv_path))
        csvs.append(rows)
    assert csvs[0] == csvs[1]


def _counting_lb_set(monkeypatch):
    """Count the calls through tribip.cli.compute_lb_set."""
    calls = []
    real = cli.compute_lb_set

    def counted(problem):
        calls.append(problem)
        return real(problem)
    monkeypatch.setattr(cli, "compute_lb_set", counted)
    return calls


def test_solve_enumerates_lb_once_per_instance(tmp_path, monkeypatch):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "2",
          "--seed", "14", "--out-dir", str(tmp_path / "inst")])
    insts = sorted((tmp_path / "inst").glob("*.txt"))
    ref_path = tmp_path / "ref.txt"
    main(["oracle", str(insts[0]), "--out", str(ref_path)])
    fronts, csv_path = tmp_path / "fronts", tmp_path / "runs.csv"
    calls = _counting_lb_set(monkeypatch)
    rc = main(["solve", *map(str, insts), "--variant", "PIsim", "--seed", "4", "--runs", "3",
               "--ref-front", str(ref_path), "--out-dir", str(fronts),
               "--report-csv", str(csv_path)])
    assert rc == 0
    assert len(calls) == 2

    # each run matches a separate run() with its seed, in the same row order
    ref = tribip.ReferenceFront.from_points(tribip.read_front(ref_path).min_points())
    expected = []
    for inst in insts:
        problem = tribip.read_instance(inst)
        for seed in (4, 5, 6):
            front, report = tribip.run(problem, tribip.PrConfig(variant="PIsim", seed=seed))
            alone = tmp_path / "alone.front.txt"
            tribip.write_front(alone, problem, front)
            front_file = fronts / f"{inst.stem}__PIsim_s{seed}.front.txt"
            assert front_file.read_bytes() == alone.read_bytes()
            pts = [s.y for s in front]
            expected.append({
                "instance": inst.stem, "kind": "knapsack", "n": "8", "variant": "PIsim",
                "seed": str(seed), "y_count": str(len(front)), "lp_count": str(report.lp_count),
                "hv": f"{tribip.hypervolume(tribip.normalize(pts, ref)):.6f}",
                "hv_pct": f"{tribip.hv_percent(pts, ref):.4f}", "raw_hv": "",
                "front_file": str(front_file)})
    rows = _rows(csv_path)
    assert [{k: v for k, v in row.items() if k != "time_sec"} for row in rows] == expected
    assert all(float(row["time_sec"]) > 0 for row in rows)

    calls.clear()
    lb_path = tmp_path / "lb.front.txt"
    assert main(["solve", str(insts[0]), "--variant", "RD", "--lb-front", str(lb_path)]) == 0
    assert len(calls) == 1
    lb = tribip.compute_lb_set(tribip.read_instance(insts[0]))
    assert len(tribip.read_front(lb_path).records) == len(lb.points)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad_kind", ["malformed", "infeasible"])
def test_solve_failure_fails_only_its_instance(tmp_path, capsys, jobs, bad_kind):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "1",
          "--seed", "15", "--out-dir", str(tmp_path / "inst")])
    good = next((tmp_path / "inst").glob("*.txt"))
    bad = tmp_path / "bad.txt"
    if bad_kind == "malformed":
        bad.write_text("not an instance\n")
    else:       # the LP relaxation has no point with x1 + x2 >= 3
        tribip.write_instance(tribip.general_problem(
            objectives=[[1, 1], [1, 0], [0, 1]], senses=["max"] * 3,
            a=[[1, 1]], row_sense=[">="], b=[3]), bad)
    csv_path = tmp_path / "runs.csv"
    capsys.readouterr()
    rc = main(["solve", str(bad), str(good), "--variant", "PI", "--runs", "2",
               "--jobs", str(jobs), "--report-csv", str(csv_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count(f"FAILED {bad}:") == 2          # one line per run of the bad instance
    assert str(good) not in err
    assert [(r["instance"], r["seed"]) for r in _rows(csv_path)] == [(good.stem, "0"),
                                                                    (good.stem, "1")]


def test_report_ref_dir_fills_missing_hv(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "1",
          "--seed", "9", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    refs = tmp_path / "refs"
    refs.mkdir()
    main(["oracle", str(inst), "--out", str(refs / f"{inst.stem}.ref.txt")])
    csv_path = tmp_path / "runs.csv"
    main(["solve", str(inst), "--variant", "RD", "--report-csv", str(csv_path),
          "--out-dir", str(tmp_path / "fronts")])
    row = _rows(csv_path)[0]
    assert row["hv_pct"] == ""
    out = tmp_path / "agg.csv"
    rc = main(["report", str(csv_path), "--ref-dir", str(refs), "--out", str(out)])
    assert rc == 0
    agg = _rows(out)[0]
    assert agg["mean_hv_pct"] != ""
    assert 0.0 < float(agg["mean_hv_pct"]) <= 100.0


def test_solve_lb_front_export(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "1",
          "--seed", "10", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    lb_path = tmp_path / "lb.front.txt"
    rc = main(["solve", str(inst), "--variant", "RD", "--lb-front", str(lb_path)])
    assert rc == 0
    data = tribip.read_front(lb_path)
    p = tribip.read_instance(inst)
    lb = tribip.compute_lb_set(p)
    assert len(data.records) == len(lb.points)


def test_solve_ref_point_raw_hv(tmp_path):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "1",
          "--seed", "11", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", str(inst), "--variant", "RD", "--ref-point", "0,0,0",
               "--report-csv", str(csv_path)])
    assert rc == 0
    row = _rows(csv_path)[0]
    assert float(row["raw_hv"]) > 0   # all profits positive, boxes below origin
    assert row["hv"] == ""
    assert row["hv_pct"] == ""


def test_solve_force_pr_on_assignment(tmp_path):
    main(["generate", "--kind", "assignment", "--n", "3", "--count", "1",
          "--seed", "5", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", str(inst), "--variant", "PI", "--force-pr",
               "--report-csv", str(csv_path)])
    assert rc == 0
    row = _rows(csv_path)[0]
    assert int(row["y_count"]) > 0


def test_solve_lb_front_rejects_several_jobs(tmp_path, capsys):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "2",
          "--seed", "12", "--out-dir", str(tmp_path)])
    first, second = sorted(tmp_path.glob("*.txt"))
    lb_path = tmp_path / "lb.front.txt"
    one, two = [str(first)], [str(first), str(second)]
    for instances, extra in ((one, ["--runs", "2"]), (one, ["--jobs", "2"]), (two, [])):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *instances, "--variant", "RD", "--lb-front", str(lb_path), *extra])
        assert exc.value.code == 2
        assert "--lb-front" in capsys.readouterr().err
    assert not lb_path.exists()


def test_report_closes_its_files(tmp_path, monkeypatch):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "1",
          "--seed", "13", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    csv_path = tmp_path / "runs.csv"
    assert main(["solve", str(inst), "--variant", "RD", "--report-csv", str(csv_path)]) == 0
    # an unclosed file warns when it is collected; inside __del__ the error
    # this filter makes of it reaches sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        rc = main(["report", str(csv_path), "--out", str(tmp_path / "summary.csv")])
        gc.collect()
    assert rc == 0
    assert [u.exc_type for u in unraisable] == []
