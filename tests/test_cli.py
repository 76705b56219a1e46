import csv
import dataclasses
import gc
import importlib
import logging
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


def test_time_sec_includes_the_lb_set_seconds(tmp_path, monkeypatch):
    # the LB set times itself; solve_from_lb, in Python and in a `solve` row,
    # adds that time to its own
    p = tribip.generate_knapsack(8, seed=3)
    lb = tribip.compute_lb_set(p)
    assert lb.seconds > 0
    slow = dataclasses.replace(lb, seconds=1000.0)
    _, report = tribip.solve_from_lb(p, slow, tribip.PrConfig(variant="PI"))
    assert report.time_sec >= 1000

    inst, csv_path = tmp_path / "k.txt", tmp_path / "runs.csv"
    tribip.write_instance(p, inst)
    monkeypatch.setattr(cli, "compute_lb_set", lambda problem: slow)
    assert main(["solve", str(inst), "--variant", "PI", "--report-csv", str(csv_path)]) == 0
    [row] = _rows(csv_path)
    assert float(row["time_sec"]) >= 1000


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("bad_kind", ["malformed", "infeasible", "beyond-int64"])
def test_solve_failure_fails_only_its_instance(tmp_path, capsys, runs, bad_kind):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "1",
          "--seed", "15", "--out-dir", str(tmp_path / "inst")])
    good = next((tmp_path / "inst").glob("*.txt"))
    bad = tmp_path / "bad.txt"
    if bad_kind == "malformed":
        bad.write_text("not an instance\n")
    elif bad_kind == "beyond-int64":      # a weight that int64 cannot hold
        lines = good.read_text().splitlines()
        at = lines.index("weights") + 1
        lines[at] = " ".join([str(2 ** 63)] + lines[at].split()[1:])
        bad.write_text("\n".join(lines) + "\n")
    else:       # the LP relaxation has no point with x1 + x2 >= 3
        tribip.write_instance(tribip.general_problem(
            objectives=[[1, 1], [1, 0], [0, 1]], senses=["max"] * 3,
            a=[[1, 1]], row_sense=[">="], b=[3]), bad)
    csv_path = tmp_path / "runs.csv"
    capsys.readouterr()
    rc = main(["solve", str(bad), str(good), "--variant", "PI", "--runs", str(runs),
               "--report-csv", str(csv_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count(f"FAILED {bad}:") == runs       # one line per run of the bad instance
    assert str(good) not in err
    assert [(r["instance"], r["seed"]) for r in _rows(csv_path)] == [
        (good.stem, str(seed)) for seed in range(runs)]


def test_solve_ref_front_of_another_kind_or_n_fails_its_instance(tmp_path, capsys):
    """--ref-front scores only instances of the front's kind and n; every
    run of any other instance fails with a FAILED line and exit code 1."""
    inst = tmp_path / "inst"
    inst.mkdir()
    same, other_n, other_kind = inst / "k6.txt", inst / "k7.txt", inst / "a3.txt"
    tribip.write_instance(tribip.generate_knapsack(6, seed=1), same)
    tribip.write_instance(tribip.generate_knapsack(7, seed=2), other_n)
    tribip.write_instance(tribip.generate_assignment(3, seed=3), other_kind)
    ref = tmp_path / "k6.ref.txt"
    assert main(["oracle", str(same), "--out", str(ref)]) == 0
    csv_path = tmp_path / "runs.csv"
    capsys.readouterr()
    rc = main(["solve", str(other_kind), str(same), str(other_n), "--variant", "RD",
               "--runs", "2", "--ref-front", str(ref), "--report-csv", str(csv_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count(f"FAILED {other_kind}: reference front {ref} is for knapsack n=6") == 2
    assert err.count(f"FAILED {other_n}: reference front {ref} is for knapsack n=6") == 2
    assert str(same) not in err
    rows = _rows(csv_path)
    assert [(r["instance"], r["seed"]) for r in rows] == [("k6", "0"), ("k6", "1")]
    assert all(0.0 < float(r["hv_pct"]) <= 100.0 for r in rows)


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


def test_report_ref_dir_scores_an_empty_front_zero(tmp_path):
    """A blank hv_pct whose front file holds no solution is scored 0, as
    `solve --ref-front` scores an empty front, and enters the mean."""
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
    tribip.write_front(row["front_file"], tribip.read_instance(inst), [])
    assert "count 0" in Path(row["front_file"]).read_text().splitlines()
    out = tmp_path / "agg.csv"
    assert main(["report", str(csv_path), "--ref-dir", str(refs), "--out", str(out)]) == 0
    agg = _rows(out)[0]
    assert (agg["mean_hv"], agg["mean_hv_pct"]) == ("0.0000", "0.0000")


@pytest.mark.parametrize("stray", ["k10.ref.txt", "k1.txt"])
def test_report_ref_dir_matches_instance_name_exactly(tmp_path, stray):
    """Only <instance>.ref.txt is a reference: not another instance's front
    whose name starts with the same characters, nor the instance file."""
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "2",
          "--seed", "12", "--out-dir", str(tmp_path)])
    first, second = sorted(tmp_path.glob("*.txt"))
    k1, k10 = first.rename(tmp_path / "k1.txt"), second.rename(tmp_path / "k10.txt")
    refs = tmp_path / "refs"
    refs.mkdir()
    if stray == "k10.ref.txt":
        main(["oracle", str(k10), "--out", str(refs / stray)])
    else:
        (refs / stray).write_bytes(k1.read_bytes())
    csv_path = tmp_path / "runs.csv"
    main(["solve", str(k1), "--variant", "RD", "--report-csv", str(csv_path),
          "--out-dir", str(tmp_path / "fronts")])
    out = tmp_path / "agg.csv"
    rc = main(["report", str(csv_path), "--ref-dir", str(refs), "--out", str(out)])
    assert rc == 0
    assert _rows(out)[0]["mean_hv_pct"] == ""


def test_report_ref_dir_warns_once_per_missing_reference(tmp_path, capsys):
    main(["generate", "--kind", "knapsack", "--n", "8", "--count", "2",
          "--seed", "12", "--out-dir", str(tmp_path)])
    with_ref, without_ref = sorted(tmp_path.glob("*.txt"))
    refs = tmp_path / "refs"
    refs.mkdir()
    main(["oracle", str(with_ref), "--out", str(refs / f"{with_ref.stem}.ref.txt")])
    csv_path = tmp_path / "runs.csv"
    main(["solve", str(with_ref), str(without_ref), "--variant", "RD", "--runs", "2",
          "--report-csv", str(csv_path), "--out-dir", str(tmp_path / "fronts")])
    capsys.readouterr()
    out = tmp_path / "agg.csv"
    rc = main(["report", str(csv_path), "--ref-dir", str(refs), "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"warning: no reference front {refs / without_ref.stem}.ref.txt; "
                     f"hv left blank for instance {without_ref.stem}"]
    assert _rows(out)[0]["mean_hv_pct"] != ""


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
    assert len(data.records) == len(lb)
    signs = p.sense_signs()
    for (x, y_native), lb_x, lb_y in zip(data.records, lb.x, lb.points):
        assert x.tolist() == lb_x.tolist()
        assert (signs * y_native).tolist() == lb_y.tolist()


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
    for instances, extra in ((one, ["--runs", "2"]), (two, [])):
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


@pytest.mark.parametrize("extra", [["--runs", "0"], ["--runs", "-1"]])
def test_solve_rejects_counts_below_one(tmp_path, capsys, extra):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "1",
          "--seed", "14", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    csv_path = tmp_path / "runs.csv"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--variant", "RD", "--report-csv", str(csv_path), *extra])
    assert exc.value.code == 2
    assert extra[0] in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("extra", [["--iter-mult", "-1"], ["--best-prob", "-0.1"],
                                   ["--best-prob", "1.5"], ["--best-prob", "nan"],
                                   ["--jobs", "2"]])   # no such option: runs are serial
def test_solve_rejects_out_of_range_parameters(tmp_path, capsys, monkeypatch, extra):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "1",
          "--seed", "14", "--out-dir", str(tmp_path)])
    inst = next(tmp_path.glob("*.txt"))
    csv_path = tmp_path / "runs.csv"
    capsys.readouterr()

    def no_prepare(*args):
        raise AssertionError("an instance was read before the arguments were checked")

    monkeypatch.setattr(cli, "_prepare", no_prepare)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--variant", "RD", "--report-csv", str(csv_path), *extra])
    assert exc.value.code == 2
    assert extra[0] in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_rejects_count_below_one(tmp_path, capsys, count):
    out_dir = tmp_path / "inst"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "knapsack", "--n", "6", "--count", count,
              "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err
    assert not out_dir.exists()


def test_solve_out_rejects_several_runs(tmp_path, capsys, monkeypatch):
    main(["generate", "--kind", "knapsack", "--n", "6", "--count", "2",
          "--seed", "15", "--out-dir", str(tmp_path)])
    first, second = sorted(tmp_path.glob("*.txt"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    out = work / "f.txt"
    for instances, extra in (([first], ["--runs", "2"]), ([first, second], []),
                             ([first], ["--out-dir", str(work / "fronts")])):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *map(str, instances), "--variant", "RD", "--out", str(out), *extra])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("existing", ["empty", "summary"])
def test_solve_report_csv_checks_an_existing_file(tmp_path, capsys, monkeypatch, existing):
    """An existing empty --report-csv file gets the run header before its
    rows.  A non-empty one whose first row is not the run header, such as a
    `report` summary, ends the command with exit code 2 and one 'error: ...'
    line before any instance is read, and is left as it was."""
    inst = tmp_path / "k.txt"
    tribip.write_instance(tribip.generate_knapsack(6, seed=4), inst)
    csv_path = tmp_path / "target.csv"
    if existing == "empty":
        csv_path.touch()
    else:
        runs = tmp_path / "runs.csv"
        assert main(["solve", str(inst), "--variant", "RD", "--report-csv", str(runs)]) == 0
        assert main(["report", str(runs), "--out", str(csv_path)]) == 0

        def no_prepare(*args):
            raise AssertionError("an instance was read before the CSV was checked")

        monkeypatch.setattr(cli, "_prepare", no_prepare)
    before = csv_path.read_bytes()
    capsys.readouterr()
    rc = main(["solve", str(inst), "--variant", "RD", "--report-csv", str(csv_path)])
    captured = capsys.readouterr()
    if existing == "empty":
        assert rc == 0
        assert csv_path.read_text().splitlines()[0] == ",".join(cli.CSV_FIELDS)
        assert [r["instance"] for r in _rows(csv_path)] == ["k"]
        assert main(["report", str(csv_path)]) == 0
    else:
        assert rc == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(csv_path) in lines[0]
        assert csv_path.read_bytes() == before


@pytest.fixture
def tribip_logger():
    """The 'tribip' logger, with its level restored after the test."""
    logger = logging.getLogger("tribip")
    level = logger.level
    yield logger
    logger.setLevel(level)


@pytest.mark.parametrize("flag, warned", [([], True), (["--log-level", "WARNING"], True),
                                          (["--log-level", "ERROR"], False)])
def test_log_level_flag(tmp_path, caplog, tribip_logger, flag, warned):
    """round_down warns about the two LB points of this instance that round
    down to infeasible vectors; --log-level ERROR silences that warning by
    setting the 'tribip' logger's level, and adds no handler."""
    problem = tribip.general_problem([[5, 3, 3, 1], [1, 0, 0, 0], [1, 4, 3, 5]], ("min",) * 3,
                                     [[2, 2, 3, 2]], (">=",), [3])
    path = tmp_path / "drops.txt"
    tribip.write_instance(problem, path)
    level, handlers = tribip_logger.level, list(tribip_logger.handlers)
    rc = main(flag + ["solve", str(path), "--variant", "RD",
                      "--report-csv", str(tmp_path / "runs.csv")])
    assert rc == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "tribip.heuristic"]
    assert messages == (["round_down dropped 2 infeasible rounded solutions"] if warned else [])
    assert tribip_logger.level == (logging.getLevelName(flag[1]) if flag else level)
    assert tribip_logger.handlers == handlers


@pytest.mark.parametrize("case", ["oracle-missing-instance", "oracle-missing-out-dir",
                                  "report-missing-csv"])
def test_os_error_exits_2_with_one_line(tmp_path, capsys, case):
    """A file the command cannot open or write ends it with exit code 2 and
    one 'error: ...' line on stderr, as a TribipError does."""
    inst = tmp_path / "k.txt"
    tribip.write_instance(tribip.generate_knapsack(6, seed=1), inst)
    missing = tmp_path / "missing"
    argv = {"oracle-missing-instance": ["oracle", str(missing / "k.txt")],
            "oracle-missing-out-dir": ["oracle", str(inst), "--out", str(missing / "x.txt")],
            "report-missing-csv": ["report", str(missing / "runs.csv")]}[case]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(missing) in lines[0]
    assert not missing.exists()


@pytest.fixture
def fresh_parser(monkeypatch):
    """Counts `cli.build_parser` calls, with `main`'s cached parser dropped
    before and after the test."""
    built = []

    def counted():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    yield built
    cli._parser.cache_clear()


def test_main_reuses_its_parser_without_carrying_state(tmp_path, capsys, tribip_logger,
                                                       fresh_parser):
    """Several `main` calls in one process share one parser, and no option of
    one call shows in the next."""
    inst = tmp_path / "k.txt"
    tribip.write_instance(tribip.generate_knapsack(6, seed=2), inst)
    csv_path = tmp_path / "runs.csv"
    solve = ["solve", str(inst), "--report-csv", str(csv_path)]

    assert main(["--log-level", "ERROR", *solve, "--variant", "PRsim"]) == 0
    assert tribip_logger.level == logging.ERROR
    tribip_logger.setLevel(logging.INFO)
    assert main(solve) == 0
    assert tribip_logger.level == logging.INFO          # no --log-level: left as it is
    assert [row["variant"] for row in _rows(csv_path)] == ["PRsim", "PI"]

    out = tmp_path / "f.txt"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*solve, "--out", str(out), "--runs", "2"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert main([*solve, "--out", str(out)]) == 0
    assert out.is_file() and len(_rows(csv_path)) == 3
    assert len(fresh_parser) == 1


def _solve_setup(tmp_path):
    """A knapsack instance, its oracle front and one run CSV row whose front
    file has no HV yet."""
    inst = tmp_path / "k.txt"
    tribip.write_instance(tribip.generate_knapsack(6, seed=3), inst)
    ref = tmp_path / "refs" / "k.ref.txt"
    ref.parent.mkdir()
    assert main(["oracle", str(inst), "--out", str(ref)]) == 0
    csv_path = tmp_path / "runs.csv"
    assert main(["solve", str(inst), "--variant", "RD", "--report-csv", str(csv_path),
                 "--out-dir", str(tmp_path / "fronts")]) == 0
    return inst, ref, csv_path


@pytest.mark.parametrize("case", ["report-not-run-csv", "ref-front-bare-kind",
                                  "ref-front-two-senses", "ref-dir-bare-kind"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    """A run CSV without the run columns, or a front file whose kind or
    sense line is malformed, ends the command with exit code 2 and one
    'error: ...' line naming the file."""
    inst, ref, csv_path = _solve_setup(tmp_path)
    text = ref.read_text()
    if case == "report-not-run-csv":
        bad = tmp_path / "ab.csv"
        bad.write_text("a,b\n1,2\n")
        argv = ["report", str(bad)]
    else:
        bad = ref
        old, new = (("sense max max max\n", "sense max max\n") if case == "ref-front-two-senses"
                    else ("kind knapsack\n", "kind\n"))
        assert old in text
        ref.write_text(text.replace(old, new))
        argv = (["report", str(csv_path), "--ref-dir", str(ref.parent)]
                if case == "ref-dir-bare-kind" else
                ["solve", str(inst), "--ref-front", str(ref), "--report-csv", str(csv_path)])
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(bad) in lines[0]
    assert captured.out == ""


def test_tracer_wraps_names_the_cli_path_uses(tmp_path, monkeypatch):
    """The benchmark's tracer replaces tribip functions by name; an oracle
    and a solve call under it record a span in every layer, and leaving it
    puts the originals back."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    inst = tmp_path / "k.txt"
    tribip.write_instance(tribip.generate_knapsack(8, seed=1), inst)
    assignment = tmp_path / "a.txt"
    tribip.write_instance(tribip.generate_assignment(3, seed=1), assignment)
    ref = tmp_path / "ref.txt"
    originals = (cli.main, cli.run, tribip.heuristic.round_down, tribip.model.read_front)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["oracle", str(inst), "--out", str(ref)]) == 0
        assert cli.main(["solve", str(inst), "--variant", "PI", "--ref-front", str(ref),
                         "--report-csv", str(tmp_path / "runs.csv")]) == 0
        # an assignment's LPs go one by one through the wrapped solve_weighted
        assert cli.main(["solve", str(assignment), "--variant", "RD",
                         "--report-csv", str(tmp_path / "runs.csv")]) == 0
    assert (cli.main, cli.run, tribip.heuristic.round_down, tribip.model.read_front) == originals
    got = tracer.layer_metrics(instances=2)
    assert got["lp.solves"] > 0
    assert got["lbset.calls_per_instance"] == 1 and got["lbset.points"] > 0
    assert got["heuristic.walks"] > 0 and got["heuristic.steps"] > 0
    assert got["heuristic.ir_end"] > got["heuristic.ir_start"] > 0
    assert got["metrics.filter_out"] > 0 and got["metrics.oracle_points"] > 0
    assert got["metrics.hv_calls"] > 0 and got["model.io_calls"] >= 4
    assert got["rng.draws"] > 0 and got["cli.self_s"] > 0
