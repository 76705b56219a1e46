"""Fresh-process cost of the tribip commands, for one or more checkouts of
this repository.

Each timed command is a new `python -m tribip.cli` interpreter with
PYTHONPATH=<checkout>/src: `generate`, `oracle` and `solve` (PI, seed 0),
each on a knapsack (n=16) and an assignment (6 tasks) instance.  The wall
time is taken around the whole process, start-up included; for `solve` the
run row's own `time_sec` is read as well, which should cover no module
loading.  Runs alternate between the checkouts as in `criterion10.py`.
Prints, per command and checkout, the median wall time with its quartiles
and, for `solve`, the median `time_sec`.

    python3 scripts/startup.py PARENT_CHECKOUT CHANGE_CHECKOUT --runs 5
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from criterion10 import alternate, parse_checkouts

SIZES = {"knapsack": 16, "assignment": 6}


def commands(inst_dir: Path, out: Path) -> dict[str, list[str]]:
    """The timed commands by name; every one writes only under out."""
    cmds = {}
    for kind, n in SIZES.items():
        inst = str(inst_dir / f"{kind}_n{n}_i000.txt")      # the name `generate` gives
        cmds[f"generate {kind}"] = ["generate", "--kind", kind, "--n", str(n), "--out-dir", str(out)]
        cmds[f"oracle {kind}"] = ["oracle", inst, "--out", str(out / "ref.txt")]
        cmds[f"solve {kind}"] = ["solve", inst, "--report-csv", str(out / "runs.csv")]
    return cmds


def tribip(checkout: Path, argv: list[str]) -> float:
    """Run one tribip command in a new interpreter; returns its wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "tribip.cli", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.3f}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.3f} ({q1:.3f}-{q3:.3f})"


def main(argv=None) -> int:
    args = parse_checkouts(argparse.ArgumentParser(description=__doc__.split("\n\n")[0]),
                           argv, runs=5)
    with tempfile.TemporaryDirectory() as tmp:
        inst_dir = Path(tmp) / "inst"
        for kind, n in SIZES.items():       # untimed; every checkout generates the same files
            tribip(args.checkouts[0], ["generate", "--kind", kind, "--n", str(n),
                                       "--out-dir", str(inst_dir)])
        wall: dict[tuple[str, Path], list[float]] = {}
        time_sec: dict[tuple[str, Path], list[float]] = {}
        for k, (run, checkout) in enumerate(alternate(args.checkouts, args.runs)):
            for name, cmd in commands(inst_dir, Path(tmp) / f"out{k}").items():
                wall.setdefault((name, checkout), []).append(tribip(checkout, cmd))
                if name.startswith("solve"):
                    with open(cmd[cmd.index("--report-csv") + 1], newline="") as fh:
                        row = list(csv.DictReader(fh))[-1]
                    time_sec.setdefault((name, checkout), []).append(float(row["time_sec"]))
            print(f"run {run}: {checkout} done", file=sys.stderr)
    print("command              checkout: wall s median (quartiles); solve time_sec median")
    for name in commands(Path(), Path()):
        for checkout in args.checkouts:
            line = f"{name:20} {checkout}: {quartiles(wall[name, checkout])}"
            if (name, checkout) in time_sec:
                line += f"; time_sec {statistics.median(time_sec[name, checkout]):.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
