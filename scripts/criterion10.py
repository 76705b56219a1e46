"""Criterion 10's RD/PI time ratios, from fresh processes, for one or more
checkouts of this repository.

Each run starts a new interpreter with PYTHONPATH=<checkout>/src that runs
the loop of `test_criterion_10_relative_cost_trend`: knapsack n=50 at
instance seeds 0, 1 and 2, RD then PI at seed 0, so one run gives three
ratios RD time_sec / PI time_sec.  The PI run reuses the LB set that the
RD run enumerated on the same Problem (`tribip.run` keeps it with the
Problem), and its time_sec still includes that set's `lb.seconds`.  Runs
alternate between the checkouts, the first checkout leading on even runs
and the last on odd ones, so that host drift reaches every side alike.
Prints, per checkout, the median, quartiles and maximum of its ratios, the
medians of RD and PI time, and how many runs would fail the criterion: a
run fails when one of its ratios is 10% or more, or one of its RD times is
1 s or more.  It also prints, per instance seed, the median headroom
0.1 x PI - RD in ms over the runs: how many milliseconds RD may grow on
that instance before its ratio reaches 10%.

Each run also counts, through `gc.callbacks`, the generation-2 collections
that start during each `tribip.run` call.  Per checkout it prints how many
fell inside RD runs and inside PI runs, and how many of the failing ratios
had one inside their RD run, so that an outlier can be put down to the
collector or, failing that, to the host.  The progress lines on stderr
give each ratio with its RD and PI times, so that an outlier shows as a
slow RD run or a fast PI run.

    python3 scripts/criterion10.py PARENT_CHECKOUT CHANGE_CHECKOUT --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

LOOP = """
import gc
import json
import tribip
from tribip import PrConfig
gen2 = [0]
def count(phase, info):
    if phase == "start" and info["generation"] == 2:
        gen2[0] += 1
gc.callbacks.append(count)
rows = []
for inst_seed in range(3):
    p = tribip.generate_knapsack(50, seed=inst_seed)
    row = []
    for config in (PrConfig(variant="RD"), PrConfig(variant="PI", seed=0)):
        before = gen2[0]
        _, rep = tribip.run(p, config)
        row.append((rep.time_sec, gen2[0] - before))
    rows.append(row)
print(json.dumps(rows))
"""


def run_once(checkout: Path) -> list[tuple[float, float, int, int]]:
    """(RD seconds, PI seconds, generation-2 collections during RD, during
    PI) per instance from one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", LOOP], env=env, check=True,
                          capture_output=True, text=True)
    return [(rd, pi, rd_gen2, pi_gen2)
            for (rd, rd_gen2), (pi, pi_gen2) in json.loads(done.stdout)]


def fails(times: list[tuple]) -> bool:
    """Whether one run's (RD, PI, ...) times fail criterion 10."""
    return any(rd >= 1.0 or rd / pi >= 0.10 for rd, pi, *_ in times)


def summary(runs: list[list[tuple]]) -> str:
    times = [row for rows in runs for row in rows]
    headroom = ", ".join(
        f"{1e3 * statistics.median(0.1 * pi - rd for rd, pi, *_ in instance):.1f}"
        for instance in zip(*runs))
    ratios = [100 * rd / pi for rd, pi, *_ in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    failing = [row for row in times if fails([row])]
    return (f"ratio median {median:.2f}% (quartiles {q1:.2f}-{q3:.2f}, max {max(ratios):.2f}, "
            f"{len(ratios)} ratios); RD median {1e3 * statistics.median(t[0] for t in times):.1f} ms, "
            f"PI median {statistics.median(t[1] for t in times):.3f} s; "
            f"headroom 0.1 x PI - RD median per instance {headroom} ms; "
            f"{sum(map(fails, runs))} of {len(runs)} runs fail; "
            f"gen-2 collections inside RD runs {sum(t[2] for t in times)}, "
            f"inside PI runs {sum(t[3] for t in times)}; "
            f"{sum(t[2] > 0 for t in failing)} of {len(failing)} failing ratios "
            f"had one inside their RD run")


def alternate(checkouts: list[Path], runs: int):
    """(run, checkout) in the order the runs go: the first checkout leads on
    even runs and the last on odd ones."""
    for run in range(runs):
        for checkout in checkouts if run % 2 == 0 else checkouts[::-1]:
            yield run, checkout


def parse_checkouts(parser: argparse.ArgumentParser, argv=None, runs: int = 10):
    """Parse argv with the checkouts and --runs arguments added to parser,
    after checking that every checkout has the package under src/."""
    parser.add_argument("checkouts", nargs="+", type=Path,
                        help="repository checkouts, each with the package under src/")
    parser.add_argument("--runs", type=int, default=runs, help="fresh processes per checkout")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for checkout in args.checkouts:
        if not (checkout / "src" / "tribip").is_dir():
            parser.error(f"{checkout} has no src/tribip")
    return args


def main(argv=None) -> int:
    args = parse_checkouts(argparse.ArgumentParser(description=__doc__.split("\n\n")[0]), argv)
    times: dict[Path, list] = {checkout: [] for checkout in args.checkouts}
    for run, checkout in alternate(args.checkouts, args.runs):
        rows = run_once(checkout)
        times[checkout].append(rows)
        ratios = ", ".join(f"{100 * rd / pi:.2f}% (RD {1e3 * rd:.1f} ms, PI {pi:.3f} s"
                           + ", gen-2 in RD" * (rd_gen2 > 0) + ")"
                           for rd, pi, rd_gen2, _ in rows)
        print(f"run {run}: {checkout}: {ratios}", file=sys.stderr)
    for checkout in args.checkouts:
        print(f"{checkout}: {summary(times[checkout])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
