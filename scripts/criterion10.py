"""Criterion 10's RD/PI time ratios, from fresh processes, for one or more
checkouts of this repository.

Each run starts a new interpreter with PYTHONPATH=<checkout>/src that runs
the loop of `test_criterion_10_relative_cost_trend`: knapsack n=50 at
instance seeds 0, 1 and 2, RD then PI at seed 0, so one run gives three
ratios RD time_sec / PI time_sec.  Runs alternate between the checkouts,
the first checkout leading on even runs and the last on odd ones, so that
host drift reaches every side alike.  Prints, per checkout, the median,
quartiles and maximum of its ratios, the medians of RD and PI time, and
how many runs would fail the criterion: a run fails when one of its ratios
is 10% or more, or one of its RD times is 1 s or more.

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
import json
import tribip
from tribip import PrConfig
times = []
for inst_seed in range(3):
    p = tribip.generate_knapsack(50, seed=inst_seed)
    _, rep_rd = tribip.run(p, PrConfig(variant="RD"))
    _, rep_pi = tribip.run(p, PrConfig(variant="PI", seed=0))
    times.append((rep_rd.time_sec, rep_pi.time_sec))
print(json.dumps(times))
"""


def run_once(checkout: Path) -> list[tuple[float, float]]:
    """(RD seconds, PI seconds) per instance from one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", LOOP], env=env, check=True,
                          capture_output=True, text=True)
    return [tuple(pair) for pair in json.loads(done.stdout)]


def fails(pairs: list[tuple[float, float]]) -> bool:
    """Whether one run's (RD, PI) times fail criterion 10."""
    return any(rd >= 1.0 or rd / pi >= 0.10 for rd, pi in pairs)


def summary(runs: list[list[tuple[float, float]]]) -> str:
    times = [pair for pairs in runs for pair in pairs]
    ratios = [100 * rd / pi for rd, pi in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return (f"ratio median {median:.2f}% (quartiles {q1:.2f}-{q3:.2f}, max {max(ratios):.2f}, "
            f"{len(ratios)} ratios); RD median {1e3 * statistics.median(t[0] for t in times):.1f} ms, "
            f"PI median {statistics.median(t[1] for t in times):.3f} s; "
            f"{sum(map(fails, runs))} of {len(runs)} runs fail")


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
        pairs = run_once(checkout)
        times[checkout].append(pairs)
        ratios = ", ".join(f"{100 * rd / pi:.2f}%" for rd, pi in pairs)
        print(f"run {run}: {checkout}: {ratios}", file=sys.stderr)
    for checkout in args.checkouts:
        print(f"{checkout}: {summary(times[checkout])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
