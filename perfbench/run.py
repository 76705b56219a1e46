"""tribip benchmark: one workload per run, closed loop, in one process.

    python3 perfbench/run.py --workload kp-relink --seed 1 --seconds 55 --trace 0

Set-up (import plus instance generation) is timed in fresh interpreters,
several times.  One warm-up round at smoke-test size follows.  Then rounds
of the workload's fixed job list run for about --seconds (at least two
rounds); every front of every round is checked.  With --trace 0 the
end-to-end metrics are printed, as times scaled to a reference host speed
(see hostspeed.py) and, for reading only, as measured; with --trace 1 one
untraced round runs first, then traced rounds give the per-layer metrics.
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every call
and every check succeeded.  Details are written to
.perfbench-out/<workload>-s<seed>-t<trace>/result.json.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, here and in the set-up probes: the benchmark gets a few
# shared cores, on which a second BLAS thread measures the scheduler rather
# than tribip.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 5
MIN_ROUNDS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test instance sizes")
    ap.add_argument("--record", action="store_true",
                    help="store this run's front hashes (and rng draws, when traced) in "
                         "expected.json; refused when they contradict a stored entry")
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def import_workloads():
    """Import tribip from src/ of this checkout and the workload module."""
    if not (SRC / "tribip" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tribip sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def setup_probe(args) -> int:
    """Time `import tribip` plus the workload's set-up in this fresh process,
    then the host speed probe (median of five, after one untimed run).
    Prints the set-up seconds as measured and scaled."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[args.workload](args.seed, args.setup_probe, args.tiny)
    seconds = time.perf_counter() - t0
    import hostspeed
    hostspeed.probe()       # first calls into numpy's ufunc machinery
    probe = statistics.median(hostspeed.probe()[0] for _ in range(5))
    print(seconds, hostspeed.at_reference(seconds, probe))
    return 0


def measure_setup(args, out_dir: Path) -> list[tuple[float, float]]:
    """(set-up seconds as measured, scaled) of each fresh-process sample."""
    samples = []
    for k in range(SETUP_SAMPLES):
        probe_dir = out_dir / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(probe_dir)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds, scaled = done.stdout.split()[-2:]
        samples.append((float(seconds), float(scaled)))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unreadable."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and "numpy" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


class Round:
    """One round: its ops, wall and CPU time, and its checked outputs."""

    def __init__(self, workload, tracer=None):
        started = time.perf_counter()
        workload.prepare()
        with tracer.installed() if tracer else contextlib.nullcontext():
            c0 = os.times()
            t0 = time.perf_counter()
            self.ops = workload.run_round()
            self.wall = time.perf_counter() - t0
            c1 = os.times()
        self.cpu = sum(c1[:4]) - sum(c0[:4])         # user + system, self + children
        self.tracer = tracer
        self.layers = tracer.layer_metrics(workload.instances) if tracer else None
        self.checked = workload.check(self.ops)
        self.total = time.perf_counter() - started  # with preparation and checks

    def failed(self) -> int:
        """Ops that raised, returned an error, or failed a check.  A check
        failure that no op owns (a missing file) counts too, capped at the
        number of ops."""
        labels = {op.label for op in self.ops if op.error is not None} | set(self.checked.errors)
        return min(len(labels), len(self.ops))


def per_call_median(rounds: list[Round], time_of) -> float:
    """Time of one round from its calls: the sum over the job list of each
    call's median `time_of(op)` over `rounds`."""
    samples = defaultdict(list)
    for rnd in rounds:
        for op in rnd.ops:
            samples[op.label].append(time_of(op))
    return sum(statistics.median(values) for values in samples.values())


def time_metrics(setup_samples, untraced: list[Round], scaled: bool) -> dict:
    """setup_s, wall_s, cpu_s and solve_s_p50, scaled to the reference host
    speed or as measured."""
    if scaled:
        setup = [s for _, s in setup_samples]
        wall, cpu = (lambda op: op.at_reference()[0]), (lambda op: op.at_reference()[1])
    else:
        setup = [s for s, _ in setup_samples]
        wall, cpu = (lambda op: op.seconds), (lambda op: op.cpu)
    solves = [wall(op) for rnd in untraced for op in rnd.ops if op.kind == "solve"]
    return {"setup_s": statistics.median(setup),
            "wall_s": per_call_median(untraced, wall),
            "cpu_s": per_call_median(untraced, cpu),
            "solve_s_p50": statistics.median(solves)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}, "
                 f"pick one of {sorted(workloads.WORKLOADS)}")
    import hostspeed
    import tracing

    out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup_samples = measure_setup(args, out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir / "work", args.tiny)
    # lazy imports, first-use caches and allocator arenas, before timing;
    # checked like every round, not part of any figure
    warm_up = Round(workloads.WORKLOADS[args.workload](args.seed, out_dir / "warm-up", True))

    # a round starts only when it is expected to end within --seconds
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        done = untraced + traced
        if len(done) >= MIN_ROUNDS + args.trace and \
                time.perf_counter() - start + done[-1].total > args.seconds:
            break
        if args.trace and untraced:
            traced.append(Round(workload, tracing.Tracer()))
        else:
            untraced.append(Round(workload))
    rounds = untraced + traced

    # every round repeats the first one's fronts; the traced run must too
    reference = untraced[0].checked.hashes
    for rnd in rounds[1:]:
        rnd.checked.compare(reference, "round 0")
    key = f"{args.workload}/tiny" if args.tiny else args.workload
    expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected = expected_all.get(key, {}).get(str(args.seed))
    notes, problems = [], []
    if expected is not None:
        untraced[0].checked.compare(expected["fronts"], "expected")
    else:
        notes.append(f"no expected hashes for {key} seed {args.seed}: "
                     "fronts checked for repeatability only")
    draws = sorted({rnd.layers["rng.draws"] for rnd in traced})
    if len(draws) > 1:
        problems.append(f"rng.draws differ between traced rounds: {draws}")
    elif draws and expected is not None and expected.get("rng_draws", draws[0]) != draws[0]:
        problems.append(f"rng.draws {draws[0]} != expected {expected['rng_draws']}")

    attempted = sum(len(rnd.ops) for rnd in [warm_up] + rounds)
    failed = sum(rnd.failed() for rnd in [warm_up] + rounds)
    correct = failed == 0 and not problems

    solve_times = [op.seconds for rnd in untraced for op in rnd.ops if op.kind == "solve"]
    oracle_times = [sum(op.seconds for op in rnd.ops if op.kind == "oracle") for rnd in untraced]
    oracle_s = statistics.median(oracle_times)
    hv_pct = untraced[0].checked.extras.get("hv_pct_mean", 0.0)
    if args.trace:
        layers = {name: statistics.median(rnd.layers[name] for rnd in traced)
                  for name in traced[0].layers}
        layers["metrics.hv_pct_mean"] = hv_pct
        layers["trace.overhead_s"] = (statistics.median(rnd.wall for rnd in traced)
                                      - untraced[0].wall)
        values = {name: (layers[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}
        measured = {}
    else:
        scaled = time_metrics(setup_samples, untraced, scaled=True)
        values = {
            "setup_s": (scaled["setup_s"], "s"),
            "wall_s": (scaled["wall_s"], "s"),
            "cpu_s": (scaled["cpu_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "solve_s_p50": (scaled["solve_s_p50"], "s"),
        }
        measured = time_metrics(setup_samples, untraced, scaled=False)
    probe_s = statistics.median(op.probe[0] for rnd in untraced for op in rnd.ops)

    fp = fingerprint()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "fingerprint": fp, "correct": correct, "attempted": attempted, "failed": failed,
        "notes": notes + problems, "setup_samples": setup_samples,
        "rounds": [{"warm_up": rnd is warm_up, "traced": rnd in traced, "wall_s": rnd.wall,
                    "cpu_s": rnd.cpu,
                    "ops": [[op.label, op.kind, op.seconds, op.cpu, *op.probe, op.error]
                            for op in rnd.ops],
                    "errors": rnd.checked.errors, "layers": rnd.layers}
                   for rnd in [warm_up] + rounds],
        "fronts": reference, "solve_samples": len(solve_times),
        "oracle_s": oracle_s, "hv_pct_mean": hv_pct,
        "probe_s": probe_s, "reference_probe_s": hostspeed.REFERENCE_S, "measured": measured,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    if traced:
        detail["rng_draws"] = traced[0].layers["rng.draws"]
        spans = traced[0].tracer.spans
        t0 = spans[0][1] if spans else 0.0
        (out_dir / "spans.json").write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent_index"],
            "spans": [[name, a - t0, b - t0, parent] for name, a, b, parent in spans]}))
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1))

    if args.record and correct:
        entry = expected_all.setdefault(key, {}).setdefault(str(args.seed), {})
        entry["fronts"] = reference
        if traced:
            entry["rng_draws"] = traced[0].layers["rng.draws"]
        EXPECTED.write_text(json.dumps(expected_all, indent=1, sort_keys=True) + "\n")

    print(f"fingerprint: {json.dumps(fp)}")
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
          f"rounds, {len(solve_times)} timed solves, {failed}/{attempted} ops failed")
    if oracle_s:
        print(f"  oracle_s {oracle_s:.4f} s (median of untraced rounds), hv_pct_mean {hv_pct:.4f} %")
    for name, (value, unit) in values.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    if measured:
        print(f"  times above are at the reference host speed; host speed probe "
              f"{probe_s * 1e3:.3f} ms (reference {hostspeed.REFERENCE_S * 1e3:.3f} ms); "
              "as measured: " + ", ".join(f"{k} {v:.6f} s" for k, v in measured.items()))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for rnd in [warm_up] + rounds:
        for label, messages in sorted(rnd.checked.errors.items()):
            print(f"FAILED {label}: {'; '.join(messages)}", file=sys.stderr)
        for op in rnd.ops:
            if op.error is not None:
                print(f"FAILED {op.label}: {op.error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, u) in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
