"""Paired in-process timing of two checkouts on one benchmark workload.

    python3 scripts/paired.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload protocol --rounds 30

Runs one after the other on a shared host drift by up to 30% in speed, so
two checkouts are compared here inside one process, round by round.  Each
checkout's src/tribip is copied to a temporary directory under its own
package name (tribip_parent, tribip_change) and imported, and the
checkout's perfbench/workloads.py is loaded against that package: its
`import tribip` binds the copy.  Both sides build the workload from the
same --seed.  After one untimed warm-up round per side, rounds of the
workload's job list alternate between the sides as in `criterion10.py`,
the parent leading on even rounds and the change on odd ones, so that host
drift reaches both alike.  A round's CPU time is the sum of its calls' CPU
seconds, which leaves out the host speed probe the workload runs before
each call.

Every round's fronts are checked by the workload, and each front file must
hash alike on both sides; a failed call, a failed check or a differing
front stops the script with exit code 1.  At the end it prints the per-round
CPU ratios CHANGE / PARENT: the median, how many rounds the change was
faster, the minimum and the lower quartile.  Then, one line per op label
of the job list, the median CPU seconds of that op on each side and their
ratio, so that a difference can be traced to the ops that carry it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from criterion10 import alternate

# One BLAS thread, as perfbench/run.py sets; before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("kp-relink", "protocol")
SIDES = ("parent", "change")


def _module_from(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, side: str, tmp: Path):
    """This checkout's workloads module, bound to its own copy of tribip,
    imported as the package tribip_<side> from tmp."""
    package = f"tribip_{side}"
    shutil.copytree(checkout / "src" / "tribip", tmp / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if str(tmp) not in sys.path:
        sys.path.insert(0, str(tmp))
    saved = {name: sys.modules.get(name) for name in ("tribip", "hostspeed")}
    sys.modules["tribip"] = importlib.import_module(package)
    sys.modules["hostspeed"] = _module_from(checkout / "perfbench" / "hostspeed.py",
                                            f"hostspeed_{side}")
    try:
        return _module_from(checkout / "perfbench" / "workloads.py", f"workloads_{side}")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def run_round(workload) -> tuple[dict[str, float], dict[str, str]]:
    """One checked round: (CPU seconds per op label, front hash per file).
    Exits on a failed call or check."""
    workload.prepare()
    ops = workload.run_round()
    checked = workload.check(ops)
    failed = {op.label: [op.error] for op in ops if op.error is not None} | checked.errors
    if failed:
        sys.exit(f"paired: failed calls or checks: {failed}")
    return {op.label: op.cpu for op in ops}, checked.hashes


def summary(ratios: list[float]) -> str:
    q1 = statistics.quantiles(ratios, n=4)[0] if len(ratios) > 1 else ratios[0]
    return (f"CPU ratio change/parent over {len(ratios)} rounds: "
            f"median {statistics.median(ratios):.3f}, "
            f"change faster in {sum(r < 1.0 for r in ratios)} of {len(ratios)}, "
            f"min {min(ratios):.3f}, lower quartile {q1:.3f}")


def per_op(rounds: dict[str, list[dict[str, float]]]) -> list[str]:
    """Per op label: the median CPU seconds over the rounds on each side and
    their ratio CHANGE / PARENT."""
    lines = []
    for label in rounds["parent"][0]:
        parent, change = (statistics.median(r[label] for r in rounds[side]) for side in SIDES)
        ratio = f"{change / parent:.3f}" if parent > 0 else "n/a"
        lines.append(f"  {label}: parent {parent:.4f} s, change {change:.4f} s, ratio {ratio}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--rounds", type=int, default=10, help="timed rounds per side")
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed of the job list")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    for checkout in (args.parent, args.change):
        for part in ("src/tribip/__init__.py", "perfbench/workloads.py"):
            if not (checkout / part).is_file():
                ap.error(f"{checkout} has no {part}")

    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        tmp = Path(tmp)
        workloads = {}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            module = load_side(checkout.resolve(), side, tmp)
            workloads[side] = module.WORKLOADS[args.workload](args.seed, tmp / f"work-{side}",
                                                              tiny=False)
        for side in SIDES:                 # warm-up, untimed
            run_round(workloads[side])
        ratios, rounds = [], {side: [] for side in SIDES}
        cpu, hashes = {}, {}
        for r, side in alternate(SIDES, args.rounds):
            ops, hashes[side] = run_round(workloads[side])
            rounds[side].append(ops)
            cpu[side] = sum(ops.values())
            if len(rounds["parent"]) != len(rounds["change"]):     # the other side runs next
                continue
            if hashes["parent"] != hashes["change"]:
                differ = sorted(name for name in hashes["parent"].keys() | hashes["change"].keys()
                                if hashes["parent"].get(name) != hashes["change"].get(name))
                sys.exit(f"paired: round {r}: fronts differ: {differ}")
            ratios.append(cpu["change"] / cpu["parent"])
            print(f"round {r}: parent {cpu['parent']:.3f} s, change {cpu['change']:.3f} s, "
                  f"ratio {ratios[-1]:.3f}", file=sys.stderr)
    print(summary(ratios))
    print("median CPU per op:")
    print("\n".join(per_op(rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
