"""Command-line harness: generate instances, run solver variants, compute the
exact oracle, and aggregate run CSVs into table-style reports.

Subcommands: generate | solve | oracle | report.  Run rows share a fixed CSV
header; wall times cover the solve pipeline only (file I/O and module
loading excluded).

`solve` groups its runs by instance: it reads each instance once and
enumerates its LB set once, and every run (seed) of that instance starts
from the same set.  The runs go one after another.  A row's `time_sec` is
the one `solve_from_lb` reports, as `run()` does: the instance's LB
enumeration time (`LbSet.seconds`) plus the run's own.  A failure to read
an instance or to enumerate its LB set, or a --ref-front of another kind
or n than the instance, fails that instance's runs only.  --lb-front
writes the LB set's vertices and objective points (`LbSet.x` and
`LbSet.points`) row by row.

`solve --ref-front` and `report --ref-dir` score a front with the same
helper, `_scores`: hv and hv_pct, both 0 for an empty front.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import logging
import statistics
import sys
from pathlib import Path

from . import model
from .errors import ParseError, TribipError, ValidationError
# `run` stays in this namespace for perfbench/tracing.py, which wraps cli.run
from .heuristic import VARIANTS, PrConfig, run, solve_from_lb
from .lbset import compute_lb_set
from .metrics import ReferenceFront, exact_front_solutions, hv_percent, hypervolume, normalize

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

CSV_FIELDS = ["instance", "kind", "n", "variant", "seed", "y_count",
              "time_sec", "lp_count", "hv", "hv_pct", "raw_hv", "front_file"]


def _load_reference(path) -> tuple[ReferenceFront, tuple[str, int]]:
    """The reference front of a front file, with the (kind, n) it was written for."""
    front = model.read_front(path)
    return ReferenceFront.from_points(front.min_points()), (front.kind, front.n)


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


def _prepare(instance_path: Path, args, ref_for: tuple[str, int] | None):
    """Read one instance, check that it has the (kind, n) ref_for of the
    --ref-front, enumerate its LB set for all of its runs and, with
    --lb-front, write that set; returns (problem, lb)."""
    problem = model.read_instance(instance_path)
    if ref_for is not None and ref_for != (problem.kind, problem.n):
        kind, n = ref_for
        raise ValidationError(f"reference front {args.ref_front} is for {kind} n={n}, "
                              f"the instance is {problem.kind} n={problem.n}")
    lb = compute_lb_set(problem)
    if args.lb_front:
        model.write_front(args.lb_front, problem, zip(lb.x, lb.points))
    return problem, lb


def _solve_one(instance_path: Path, problem, lb, seed: int, args,
               ref: ReferenceFront | None) -> dict:
    config = PrConfig(variant=args.variant, seed=seed,
                      iteration_multiplier=args.iter_mult,
                      best_move_prob=args.best_prob,
                      force_pr=args.force_pr)
    front, report = solve_from_lb(problem, lb, config)

    hv = hv_pct = raw_hv = None
    if ref is not None:
        hv, hv_pct = _scores([s.y for s in front], ref)
    elif args.ref_point is not None:
        pts = [s.y for s in front]
        raw_hv = hypervolume(pts, args.ref_point) if pts else 0.0

    front_file = None
    if args.out:                        # main() allows it for a single run only
        front_file = Path(args.out)
    elif args.out_dir:
        front_file = Path(args.out_dir) / f"{instance_path.stem}__{args.variant}_s{seed}.front.txt"
        front_file.parent.mkdir(parents=True, exist_ok=True)
    if front_file:
        model.write_front(front_file, problem, front)
    return _report_row(instance_path.stem, problem, report, front_file, hv, hv_pct, raw_hv)


def _scores(points, ref: ReferenceFront) -> tuple[float, float]:
    """(hv, hv_pct) of a front's points (minimisation form) against ref,
    (0.0, 0.0) for an empty front.  hypervolume and hv_percent are looked up
    in this module, where perfbench/tracing.py wraps them."""
    if not len(points):
        return 0.0, 0.0
    return hypervolume(normalize(points, ref)), hv_percent(points, ref)


def _report_row(instance, problem, report, front_file, hv, hv_pct, raw_hv) -> dict:
    size = problem.tasks if problem.kind == "assignment" else problem.n
    return {
        "instance": instance,
        "kind": problem.kind,
        "n": size,
        "variant": report.variant,
        "seed": report.seed,
        "y_count": report.y_count,
        "time_sec": f"{report.time_sec:.6f}",
        "lp_count": report.lp_count,
        "hv": "" if hv is None else f"{hv:.6f}",
        "hv_pct": "" if hv_pct is None else f"{hv_pct:.4f}",
        "raw_hv": "" if raw_hv is None else f"{raw_hv:.6f}",
        "front_file": str(front_file) if front_file else "",
    }


def _needs_header(csv_path: Path) -> bool:
    """Whether rows appended to this run CSV need the header first: the file
    is missing or empty.  Any other file must start with the run header."""
    try:
        with csv_path.open(newline="") as fh:
            header = next(csv.reader(fh), None)
    except FileNotFoundError:
        return True
    if header is None:
        return True
    if header != CSV_FIELDS:
        raise ParseError(csv_path, 1, f"not a run CSV header, expected {','.join(CSV_FIELDS)}")
    return False


def cmd_solve(args) -> int:
    if args.report_csv:
        csv_path = Path(args.report_csv)
        new_file = _needs_header(csv_path)
    ref, ref_for = _load_reference(args.ref_front) if args.ref_front else (None, None)
    seeds = range(args.seed, args.seed + args.runs)
    rows = []
    failures = []          # (instance, error), one per failed run
    for inst in map(Path, args.instances):
        try:
            problem, lb = _prepare(inst, args, ref_for)
        except (TribipError, OSError) as exc:
            failures += [(inst, exc)] * len(seeds)
            continue
        for seed in seeds:
            try:
                rows.append(_solve_one(inst, problem, lb, seed, args, ref))
            except (TribipError, OSError) as exc:
                failures.append((inst, exc))

    if args.report_csv:
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


# the run CSV columns `report` reads
_REPORT_READS = ("instance", "kind", "n", "variant", "y_count", "time_sec", "lp_count",
                 "hv", "hv_pct", "front_file")


def cmd_report(args) -> int:
    with open(args.run_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        # an empty file has no header and ends below as "no rows"
        missing = [f for f in _REPORT_READS if f not in (reader.fieldnames or _REPORT_READS)]
        if missing:
            raise ParseError(args.run_csv, 1, f"not a run CSV, missing columns {missing}")
        rows = list(reader)
    if not rows:
        print("no rows to aggregate", file=sys.stderr)
        return 1

    ref_dir = Path(args.ref_dir) if args.ref_dir else None
    if ref_dir is not None:
        refs: dict[str, ReferenceFront | None] = {}
        for row in rows:
            if row["hv_pct"] or not row["front_file"]:
                continue
            instance = row["instance"]
            if instance not in refs:
                ref_path = ref_dir / f"{instance}.ref.txt"
                if ref_path.is_file():
                    refs[instance] = _load_reference(ref_path)[0]
                else:
                    print(f"warning: no reference front {ref_path}; hv left blank for "
                          f"instance {instance}", file=sys.stderr)
                    refs[instance] = None
            ref = refs[instance]
            if ref is None:
                continue
            hv, hv_pct = _scores(model.read_front(row["front_file"]).min_points(), ref)
            row["hv"], row["hv_pct"] = f"{hv:.6f}", f"{hv_pct:.4f}"

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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tribip",
                                     description="Tri-objective binary programming matheuristic")
    parser.add_argument("--log-level", choices=LOG_LEVELS,
                        help="level of the 'tribip' logger (no handler is added); "
                             "without it, logging is left as it is")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write random instances")
    g.add_argument("--kind", choices=("knapsack", "assignment"), required=True)
    g.add_argument("--n", type=int, required=True,
                   help="items (knapsack) or tasks (assignment)")
    g.add_argument("--count", type=_positive_int, default=1)
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
    s.add_argument("--runs", type=_positive_int, default=1,
                   help="consecutive seeds starting at --seed")
    s.add_argument("--iter-mult", type=_nonnegative_int, default=50)
    s.add_argument("--best-prob", type=_probability, default=0.7)
    s.add_argument("--force-pr", action="store_true",
                   help="run path relinking on assignment instances too")
    s.add_argument("--ref-front", help="reference front file for HV and HV%%; an instance "
                                       "of another kind or n than the front fails")
    s.add_argument("--ref-point", type=_parse_ref_point,
                   help="raw-HV reference point y1,y2,y3 (minimisation form)")
    out = s.add_mutually_exclusive_group()
    out.add_argument("--out", help="front file; one instance and --runs 1 only")
    out.add_argument("--out-dir", help="front file directory (batches)")
    s.add_argument("--lb-front", help="also export the LB set (fractional "
                                      "solutions flagged) to this front file; "
                                      "one instance and --runs 1 only")
    s.add_argument("--report-csv", help="append run rows to this CSV; an existing "
                                        "non-empty file must start with the run header")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and then reused:
    parsing reads it but never changes it, and each call gets a fresh
    namespace."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.log_level:
        logging.getLogger("tribip").setLevel(args.log_level)
    if args.command == "solve":
        several_runs = len(args.instances) > 1 or args.runs > 1
        # every run would write to the same file
        if args.out and several_runs:
            parser.error("--out needs a single instance and --runs 1; use --out-dir")
        if args.lb_front and several_runs:
            parser.error("--lb-front needs a single instance and --runs 1")
    try:
        return args.func(args)
    except (TribipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
