"""Smoke tests of the timing scripts under scripts/, run as a user runs them:
in a fresh interpreter, on this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_OP_LINE = re.compile(r"  (knapsack_n\d+__\w+): parent (\d+\.\d+) s, change (\d+\.\d+) s, "
                      r"ratio (\d+\.\d+)")


def test_paired_runs_a_checkout_against_itself():
    """One round of kp-relink with this checkout on both sides: exit code 0,
    the round's line on stderr, and on stdout the CPU and wall summaries and
    one median line per op of the job list, both sides timed."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "paired.py"), str(REPO), str(REPO),
         "--workload", "kp-relink", "--rounds", "1"],
        capture_output=True, text=True, timeout=600,
        env=os.environ | {"PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"round 0: parent \d+\.\d+ s, change \d+\.\d+ s, ratio \d+\.\d+, "
                        r"wall ratio \d+\.\d+", done.stderr.strip())
    summary, wall, header, *ops = done.stdout.splitlines()
    assert summary.startswith("CPU ratio change/parent over 1 rounds: median ")
    assert wall.startswith("wall ratio change/parent over 1 rounds: median ")
    assert header == "median CPU per op:"
    matches = [_OP_LINE.fullmatch(line) for line in ops]
    assert all(matches), ops
    labels = [m[1] for m in matches]
    assert len(labels) == len(set(labels)) == 8
    assert {label.split("__")[1].split("_")[0] for label in labels} == {"PI", "PRrand"}
    assert all(float(m[2]) > 0 and float(m[3]) > 0 for m in matches)


def test_criterion10_runs_a_checkout():
    """One run of this checkout: exit code 0, the run's line on stderr with
    three ratios, and the checkout's summary line on stdout."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "criterion10.py"), str(REPO), "--runs", "1"],
        capture_output=True, text=True, timeout=600,
        env=os.environ | {"PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    ratio = r"\d+\.\d+% \(RD \d+\.\d+ ms, PI \d+\.\d+ s(, gen-2 in RD)?\)"
    assert re.fullmatch(rf"run 0: {re.escape(str(REPO))}: {ratio}(, {ratio}){{2}}",
                        done.stderr.strip())
    assert re.fullmatch(rf"{re.escape(str(REPO))}: ratio median \d+\.\d+% \(quartiles .*, "
                        r"3 ratios\); .* of 1 runs fail; .*", done.stdout.strip())


def test_startup_runs_a_checkout():
    """One run of this checkout: exit code 0, the header line, and one line
    per timed command, the two `solve` lines with their row's time_sec."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "startup.py"), str(REPO), "--runs", "1"],
        capture_output=True, text=True, timeout=600,
        env=os.environ | {"PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header == ("command              checkout: wall s median (quartiles); "
                      "solve time_sec median")
    names = [f"{command} {kind}" for kind in ("knapsack", "assignment")
             for command in ("generate", "oracle", "solve")]
    assert len(lines) == len(names)
    for name, line in zip(names, lines):
        timed = rf"{re.escape(f'{name:20} {REPO}')}: \d+\.\d{{3}}"
        if name.startswith("solve"):
            timed += r"; time_sec \d+\.\d{4}"
        assert re.fullmatch(timed, line), line
