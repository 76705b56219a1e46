"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that each run succeeds, that every end-to-end (untraced) and every
per-layer (traced) metric is printed with its unit, and that the traced run
wrote the same front hashes as the untraced one.  Then it runs the benchmark
in a directory that holds only BENCHMARK.json and this directory, where it
must fail without printing a result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int, failures: list[str]) -> dict | None:
    """Run one tiny benchmark; return its front hashes, or None on failure."""
    what = f"{workload} --trace {trace}"
    done = bench(ROOT, workload, trace)
    if done.returncode != 0:
        failures.append(f"{what}: exit code {done.returncode}\n{done.stderr}")
        return None
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"] \
            or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{what}: bad result line {lines[-1][:200]}")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            failures.append(f"{what}: metric {name} missing or without unit {unit}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines):
            failures.append(f"{what}: metric {name} not printed with unit {unit}")
    extra = set(result["metrics"]) - {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if extra:
        failures.append(f"{what}: metrics not in BENCHMARK.json: {sorted(extra)}")
    detail = json.loads((ROOT / ".perfbench-out" / f"{workload}-s{SEED}-t{trace}" / "result.json")
                        .read_text())
    return detail["fronts"]


def check_bare(workload: str, failures: list[str]) -> None:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, workload, 0)
        if done.returncode == 0 or '"correct"' in done.stdout:
            failures.append("run without the program's sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = check_run(spec, workload, 0, failures)
        traced = check_run(spec, workload, 1, failures)
        if untraced is not None and traced is not None and untraced != traced:
            failures.append(f"{workload}: traced front hashes differ from untraced ones")
        print(f"{workload}: done", flush=True)
    check_bare(spec["workloads"][0]["name"], failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
