"""Command-line harness: generate instances, run solver variants, compute the
exact oracle, and aggregate run CSVs into table-style reports.

Subcommands: generate | solve | oracle | report.  Run rows share a fixed CSV
header; wall times cover the solve pipeline only (file I/O excluded).

`solve` groups its runs by instance: it reads each instance once and
enumerates its LB set once, and every run (seed) of that instance starts
from the same set, which `--jobs` threads share read-only.  A row's
`time_sec` is the instance's LB enumeration time plus the run's own
`solve_from_lb` time, the same span `run()` reports.  A failure to read an
instance or to enumerate its LB set fails that instance's runs only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import statistics
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

from . import model
from .errors import TribipError
# `run` stays in this namespace for perfbench/tracing.py, which wraps cli.run
from .heuristic import VARIANTS, PrConfig, run, solve_from_lb
from .lbset import compute_lb_set, lb_front_records
from .metrics import ReferenceFront, exact_front_solutions, hv_percent, hypervolume, normalize

CSV_FIELDS = ["instance", "kind", "n", "variant", "seed", "y_count",
              "time_sec", "lp_count", "hv", "hv_pct", "raw_hv", "front_file"]


def _load_reference(path) -> ReferenceFront:
    front = model.read_front(path)
    return ReferenceFront.from_points(front.min_points())


def cmd_generate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        if args.kind == "knapsack":
            problem = model.generate_knapsack(args.n, seed, (args.coeff_min, args.coeff_max))
        else:
            problem = model.generate_assignment(args.n, seed, (args.coeff_min, args.coeff_max))
        path = out_dir / f"{args.kind}_n{args.n}_i{i:03d}.txt"
        model.write_instance(problem, path)
        print(path)
    return 0


def _prepare(instance_path: Path, args):
    """Read one instance, enumerate its LB set for all of its runs and, with
    --lb-front, write that set; returns (problem, lb, enumeration seconds)."""
    problem = model.read_instance(instance_path)
    t0 = time.perf_counter()
    lb = compute_lb_set(problem)
    lb_sec = time.perf_counter() - t0
    if args.lb_front:
        model.write_front(args.lb_front, problem, lb_front_records(lb))
    return problem, lb, lb_sec


def _solve_one(instance_path: Path, problem, lb, lb_sec: float, seed: int, args,
               ref: ReferenceFront | None):
    config = PrConfig(variant=args.variant, seed=seed,
                      iteration_multiplier=args.iter_mult,
                      best_move_prob=args.best_prob,
                      force_pr=args.force_pr)
    front, report = solve_from_lb(problem, lb, config)
    report.time_sec += lb_sec
    report.instance = instance_path.stem

    raw_hv = None
    if ref is not None:
        pts = [s.y for s in front]
        report.hv = hypervolume(normalize(pts, ref)) if pts else 0.0
        report.hv_percent = hv_percent(pts, ref)
    elif args.ref_point is not None:
        pts = [s.y for s in front]
        raw_hv = hypervolume(pts, args.ref_point) if pts else 0.0

    front_file = None
    if args.out or args.out_dir:
        if args.out and len(args.instances) == 1 and args.runs == 1:
            front_file = Path(args.out)
        else:
            base = Path(args.out_dir or ".")
            base.mkdir(parents=True, exist_ok=True)
            front_file = base / f"{instance_path.stem}__{args.variant}_s{seed}.front.txt"
        model.write_front(front_file, problem, front)
    return _report_row(report, front_file, problem, raw_hv)


def _attempt(job):
    """The CSV row of one run, or the error that failed it."""
    try:
        return _solve_one(*job)
    except (TribipError, OSError) as exc:
        return exc


def _report_row(report, front_file, problem, raw_hv) -> dict:
    size = problem.tasks if problem.kind == "assignment" else problem.n
    return {
        "instance": report.instance,
        "kind": problem.kind,
        "n": size,
        "variant": report.variant,
        "seed": report.seed,
        "y_count": report.y_count,
        "time_sec": f"{report.time_sec:.6f}",
        "lp_count": report.lp_count,
        "hv": "" if report.hv is None else f"{report.hv:.6f}",
        "hv_pct": "" if report.hv_percent is None else f"{report.hv_percent:.4f}",
        "raw_hv": "" if raw_hv is None else f"{raw_hv:.6f}",
        "front_file": str(front_file) if front_file else "",
    }


def cmd_solve(args) -> int:
    ref = _load_reference(args.ref_front) if args.ref_front else None
    seeds = range(args.seed, args.seed + args.runs)
    outcomes = []          # (instance, row | error | Future of either), in run order
    pool = ThreadPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
    with pool or contextlib.nullcontext():
        for inst in map(Path, args.instances):
            try:
                problem, lb, lb_sec = _prepare(inst, args)
            except (TribipError, OSError) as exc:
                outcomes += [(inst, exc)] * len(seeds)
                continue
            for seed in seeds:
                job = (inst, problem, lb, lb_sec, seed, args, ref)
                outcomes.append((inst, pool.submit(_attempt, job) if pool else _attempt(job)))

    rows = []
    failures = []
    for inst, outcome in outcomes:
        if isinstance(outcome, Future):
            outcome = outcome.result()
        if isinstance(outcome, Exception):
            failures.append((inst, outcome))
        else:
            rows.append(outcome)

    if args.report_csv:
        csv_path = Path(args.report_csv)
        new_file = not csv_path.exists()
        with csv_path.open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            if new_file:
                writer.writeheader()
            writer.writerows(rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    for inst, exc in failures:
        print(f"FAILED {inst}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_oracle(args) -> int:
    instance = Path(args.instance)
    problem = model.read_instance(instance)
    solutions = exact_front_solutions(problem)
    out = Path(args.out) if args.out else instance.with_suffix(".ref.txt")
    model.write_front(out, problem, solutions)
    print(out)
    return 0


def _mean_or_blank(values) -> str:
    vals = [v for v in values if v != ""]
    if not vals:
        return ""
    return f"{statistics.fmean(float(v) for v in vals):.4f}"


def cmd_report(args) -> int:
    with open(args.run_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        print("no rows to aggregate", file=sys.stderr)
        return 1

    ref_dir = Path(args.ref_dir) if args.ref_dir else None
    if ref_dir is not None:
        refs: dict[str, ReferenceFront] = {}
        for row in rows:
            if row["hv_pct"] or not row["front_file"]:
                continue
            instance = row["instance"]
            if instance not in refs:
                candidates = sorted(ref_dir.glob(f"{instance}*.ref.txt")) or \
                    sorted(ref_dir.glob(f"{instance}*.txt"))
                if not candidates:
                    continue
                refs[instance] = _load_reference(candidates[0])
            ref = refs[instance]
            pts = model.read_front(row["front_file"]).min_points()
            if len(pts):
                row["hv"] = f"{hypervolume(normalize(pts, ref)):.6f}"
                row["hv_pct"] = f"{hv_percent(pts, ref):.4f}"

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["kind"], row["n"], row["variant"]), []).append(row)

    out_fields = ["kind", "n", "variant", "runs", "mean_y", "mean_time_sec",
                  "mean_lp_count", "mean_hv", "mean_hv_pct"]
    out_rows = []
    for (kind, n, variant) in sorted(groups):
        grp = groups[(kind, n, variant)]
        out_rows.append({
            "kind": kind, "n": n, "variant": variant, "runs": len(grp),
            "mean_y": _mean_or_blank([g["y_count"] for g in grp]),
            "mean_time_sec": _mean_or_blank([g["time_sec"] for g in grp]),
            "mean_lp_count": _mean_or_blank([g["lp_count"] for g in grp]),
            "mean_hv": _mean_or_blank([g["hv"] for g in grp]),
            "mean_hv_pct": _mean_or_blank([g["hv_pct"] for g in grp]),
        })
    out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with out as out_fh:
        writer = csv.DictWriter(out_fh, fieldnames=out_fields)
        writer.writeheader()
        writer.writerows(out_rows)
    return 0


def _parse_ref_point(text: str):
    parts = [float(t) for t in text.split(",")]
    if len(parts) != model.P_OBJECTIVES:
        raise argparse.ArgumentTypeError(f"need {model.P_OBJECTIVES} comma-separated values")
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tribip",
                                     description="Tri-objective binary programming matheuristic")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write random instances")
    g.add_argument("--kind", choices=("knapsack", "assignment"), required=True)
    g.add_argument("--n", type=int, required=True,
                   help="items (knapsack) or tasks (assignment)")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0,
                   help="instance i uses seed+i")
    g.add_argument("--coeff-min", type=int, default=model.DEFAULT_COEFF_RANGE[0])
    g.add_argument("--coeff-max", type=int, default=model.DEFAULT_COEFF_RANGE[1])
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run a solver variant on instances")
    s.add_argument("instances", nargs="+")
    s.add_argument("--variant", choices=VARIANTS, default="PI")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--runs", type=int, default=1,
                   help="consecutive seeds starting at --seed")
    s.add_argument("--iter-mult", type=int, default=50)
    s.add_argument("--best-prob", type=float, default=0.7)
    s.add_argument("--force-pr", action="store_true",
                   help="run path relinking on assignment instances too")
    s.add_argument("--ref-front", help="reference front file for HV and HV%%")
    s.add_argument("--ref-point", type=_parse_ref_point,
                   help="raw-HV reference point y1,y2,y3 (minimisation form)")
    s.add_argument("--out", help="front file (single run)")
    s.add_argument("--out-dir", help="front file directory (batches)")
    s.add_argument("--lb-front", help="also export the LB set (fractional "
                                      "solutions flagged) to this front file; "
                                      "one instance, --runs 1 and --jobs 1 only")
    s.add_argument("--report-csv", help="append run rows to this CSV")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("oracle", help="exact front by enumeration (desk scale)")
    o.add_argument("instance")
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)

    r = sub.add_parser("report", help="aggregate run CSV into per-subclass means")
    r.add_argument("run_csv")
    r.add_argument("--ref-dir", help="directory of <instance>.ref.txt fronts "
                                     "for rows missing HV%%")
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.lb_front and (
            len(args.instances) > 1 or args.runs > 1 or args.jobs > 1):
        # every job would write its LB set to the same file
        parser.error("--lb-front needs a single instance, --runs 1 and --jobs 1")
    try:
        return args.func(args)
    except TribipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
