"""The benchmark's three workloads and the checks on their outputs.

A workload's constructor is its set-up: it builds the instances from the
benchmark seed.  `run_round` makes one round of closed-loop calls into
tribip (each call starts when the previous one has returned) and is the
only timed code.  `check` runs after a round, untimed, and checks every
front the round produced.  A round is a fixed job list, so every round of
one run repeats the same work and must give byte-identical fronts.

Instances come from tribip's generators with a fixed base seed and are then
relabelled by a permutation drawn from the benchmark seed: knapsack items,
assignment agents and assignment tasks.  The program sees only the
relabelled instances.  Relabelling keeps the amount of work comparable from
seed to seed while every seed still gives the program different input
files, different walks and different fronts.  A freshly generated knapsack
per seed does not: at n=30 the run time of PI plus PRrand varies with a
coefficient of variation of 0.55 between generated instances, which no run
of this length averages out.  The heuristic seeds are drawn from the
benchmark seed too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import tribip
from tribip import cli, heuristic, model

BASE_SEED = 0           # generator seed of the base instances


@dataclass
class Op:
    """One timed call: a solve, an oracle call or a report, with its wall
    and CPU seconds and those of the host speed probe run just before it."""

    label: str
    kind: str
    seconds: float
    cpu: float
    probe: tuple[float, float]
    error: str | None = None
    problem: tribip.Problem | None = None
    front: list | None = None

    def at_reference(self) -> tuple[float, float]:
        """Wall and CPU seconds scaled to the reference host speed."""
        return (hostspeed.at_reference(self.seconds, self.probe[0]),
                hostspeed.at_reference(self.cpu, self.probe[1]))


@dataclass
class Checked:
    """Outcome of checking one round: a short sha256 per front file, the
    check failures per op label, and figures read from the outputs."""

    hashes: dict[str, str] = field(default_factory=dict)
    owners: dict[str, str] = field(default_factory=dict)    # front file -> op label
    errors: dict[str, list[str]] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    def fail(self, label: str, message: str) -> None:
        self.errors.setdefault(label, []).append(message)

    def add_hash(self, label: str, path: Path) -> None:
        self.hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        self.owners[path.name] = label

    def compare(self, want: dict[str, str], against: str) -> None:
        """Fail the op that wrote each front whose hash differs from `want`."""
        for name in sorted(set(self.hashes) | set(want)):
            if self.hashes.get(name) != want.get(name):
                self.fail(self.owners.get(name, name), f"{name}: hash {self.hashes.get(name)} "
                                                       f"!= {against} {want.get(name)}")


def _rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


def relabel(problem: tribip.Problem, rng: np.random.Generator) -> tribip.Problem:
    """The same instance with its knapsack items, or its assignment agents
    and tasks, listed in a random order."""
    if problem.kind == "knapsack":
        perm = rng.permutation(problem.n)
        return model.knapsack_problem(-problem.C[:, perm], problem.weights[perm], problem.capacity)
    t = problem.tasks
    costs = problem.C.reshape(problem.p, t, t)
    return model.assignment_problem(costs[:, rng.permutation(t)][:, :, rng.permutation(t)])


def front_errors(problem: tribip.Problem, xs, ys, exact=None) -> list[str]:
    """Independent checks of one front, y in minimisation form.

    Every x must be feasible and evaluate to its y, no point may weakly
    dominate another (which also rules out repeated points), and, when the
    exact front is given, every point must be weakly dominated by one of its
    points.
    """
    errors = []
    for x, y in zip(xs, ys):
        if not model.is_feasible(problem, x):
            errors.append(f"infeasible x {np.asarray(x).tolist()}")
        elif tuple(int(v) for v in y) != model.evaluate(problem, x):
            errors.append(f"y {tuple(y)} is not C.x")
    pts = np.asarray(ys, dtype=np.int64).reshape(-1, problem.p)
    weak = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    np.fill_diagonal(weak, False)
    if weak.any():
        errors.append(f"{int(weak.any(axis=0).sum())} points are dominated or repeated")
    if exact is not None and len(pts):
        covered = (exact[None, :, :] <= pts[:, None, :]).all(axis=2).any(axis=1)
        if not covered.all():
            errors.append(f"{int((~covered).sum())} points beat the exact front")
    return errors


def _cpu() -> float:
    """CPU seconds (user + system) of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Clock:
    """Wall and CPU time since construction, stamped onto an Op together
    with the host speed probe that construction runs first."""

    def __init__(self):
        self.probe = hostspeed.probe()
        self.cpu0 = _cpu()
        self.t0 = time.perf_counter()

    def op(self, label: str, kind: str, **fields) -> Op:
        seconds = time.perf_counter() - self.t0
        return Op(label, kind, seconds, _cpu() - self.cpu0, self.probe, **fields)


def _solve(label: str, problem: tribip.Problem, config: tribip.PrConfig) -> Op:
    clock = _Clock()
    try:
        front, _ = heuristic.run(problem, config)
    except tribip.TribipError as exc:
        return clock.op(label, "solve", error=str(exc))
    return clock.op(label, "solve", problem=problem, front=front)


class InMemoryWorkload:
    """Workloads that call `tribip.run` directly and get fronts back in memory.

    `check` writes each front with `write_front` so that its hash is the
    hash of the file the CLI would write.
    """

    def __init__(self, workdir: Path):
        self.fronts_dir = workdir / "fronts"
        self.jobs: list[tuple[str, tribip.Problem, tribip.PrConfig]] = []

    def prepare(self) -> None:
        pass

    def run_round(self) -> list[Op]:
        return [_solve(label, problem, config) for label, problem, config in self.jobs]

    def check(self, ops: list[Op]) -> Checked:
        out = Checked()
        self.fronts_dir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op.error is not None:
                continue
            path = self.fronts_dir / f"{op.label}.front.txt"
            model.write_front(path, op.problem, op.front)
            out.add_hash(op.label, path)
            for message in front_errors(op.problem, [s.x for s in op.front],
                                        [s.y for s in op.front]):
                out.fail(op.label, message)
        return out


class KpRelink(InMemoryWorkload):
    """PI and PRrand on knapsacks: path-relinking walks and the final filter.

    PI runs on n=34 and PRrand on n=40, sizes at which one solve of either
    takes about as long, so the median solve time lies inside one cluster of
    solve times instead of in the gap between two.
    """

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(workdir)
        sizes, seeds_per_variant = ((12, 14), 1) if tiny else ((34, 40), 4)
        self.instances = 2
        for slot, (variant, n) in enumerate(zip(("PI", "PRrand"), sizes)):
            problem = relabel(model.generate_knapsack(n, BASE_SEED), _rng(seed, slot))
            for j in range(seeds_per_variant):
                h = seed * 1000 + j
                self.jobs.append((f"knapsack_n{n}__{variant}_s{h}", problem,
                                  tribip.PrConfig(variant=variant, seed=h)))


class LbBound(InMemoryWorkload):
    """LB set enumeration on two constraint structures, no path relinking:
    an assignment (2t equality rows, LB pass-through) and a knapsack (one
    `<=` row) solved with RD."""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(workdir)
        t, n = (5, 16) if tiny else (25, 150)
        self.instances = 2
        for slot, problem in enumerate((model.generate_assignment(t, BASE_SEED),
                                        model.generate_knapsack(n, BASE_SEED))):
            size = t if problem.kind == "assignment" else n
            self.jobs.append((f"{problem.kind}_n{size}__RD", relabel(problem, _rng(seed, slot)),
                              tribip.PrConfig(variant="RD", seed=seed)))


def _cli(label: str, kind: str, argv: list[str]) -> Op:
    clock = _Clock()
    try:
        code = cli.main(argv)
    except OSError as exc:
        return clock.op(label, kind, error=str(exc))
    return clock.op(label, kind, error=None if code == 0 else f"exit code {code}")


class Protocol:
    """The paper's table workflow through `tribip.cli.main`, serially:
    oracle per instance, `solve --runs R` per (instance, variant), report."""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        n_knapsack, tasks = (10, 4) if tiny else (16, 7)
        self.runs = 3
        self.heuristic_seed = seed * 1000
        inst_dir = workdir / "instances"
        self.round_dir = workdir / "round"
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, size in (("knapsack", n_knapsack), ("assignment", tasks)):
                code = cli.main(["generate", "--kind", kind, "--n", str(size), "--count", "2",
                                 "--seed", str(BASE_SEED), "--out-dir", str(inst_dir)])
                if code != 0:
                    raise RuntimeError(f"tribip generate failed with exit code {code}")
        self.problems: dict[str, tribip.Problem] = {}
        self.paths = sorted(inst_dir.glob("*.txt"))
        for slot, path in enumerate(self.paths):
            problem = relabel(model.read_instance(path), _rng(seed, slot))
            model.write_instance(problem, path)
            self.problems[path.stem] = problem
        self.instances = len(self.paths)

    def prepare(self) -> None:
        shutil.rmtree(self.round_dir, ignore_errors=True)
        (self.round_dir / "refs").mkdir(parents=True)

    def _ref(self, path: Path) -> Path:
        return self.round_dir / "refs" / f"{path.stem}.ref.txt"

    def run_round(self) -> list[Op]:
        rd = self.round_dir
        ops = []
        with contextlib.redirect_stdout(io.StringIO()):
            for path in self.paths:
                ops.append(_cli(f"oracle {path.stem}", "oracle",
                                ["oracle", str(path), "--out", str(self._ref(path))]))
            for path in self.paths:
                for variant in tribip.VARIANTS:
                    ops.append(_cli(f"solve {path.stem} {variant}", "solve",
                                    ["solve", str(path), "--variant", variant,
                                     "--seed", str(self.heuristic_seed), "--runs", str(self.runs),
                                     "--ref-front", str(self._ref(path)),
                                     "--out-dir", str(rd / "fronts"),
                                     "--report-csv", str(rd / "runs.csv")]))
            ops.append(_cli("report", "report", ["report", str(rd / "runs.csv"), "--ref-dir",
                                                 str(rd / "refs"), "--out", str(rd / "summary.csv")]))
        return ops

    def check(self, ops: list[Op]) -> Checked:
        out = Checked()
        exact = {}
        for path in self.paths:
            ref_path = self._ref(path)
            if not ref_path.exists():
                out.fail(f"oracle {path.stem}", "no reference front written")
                continue
            ref = model.read_front(ref_path)
            exact[path.stem] = ref.min_points()
            out.add_hash(f"oracle {path.stem}", ref_path)
            for message in front_errors(self.problems[path.stem], [r[0] for r in ref.records],
                                        exact[path.stem]):
                out.fail(f"oracle {path.stem}", message)

        runs_csv = self.round_dir / "runs.csv"
        rows = []
        if runs_csv.exists():
            with runs_csv.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        expected_rows = len(self.paths) * len(tribip.VARIANTS) * self.runs
        if len(rows) != expected_rows:
            out.fail("report", f"runs.csv has {len(rows)} rows, expected {expected_rows}")
        hv_pcts = []
        for row in rows:
            label = f"solve {row['instance']} {row['variant']}"
            front_path = Path(row["front_file"])
            front = model.read_front(front_path)
            out.add_hash(label, front_path)
            for message in front_errors(self.problems[row["instance"]],
                                        [r[0] for r in front.records], front.min_points(),
                                        exact.get(row["instance"])):
                out.fail(label, message)
            hv_pct = float(row["hv_pct"])
            if not 0.0 < hv_pct <= 100.0 + 1e-9:
                out.fail(label, f"hv_pct {hv_pct} outside (0, 100]")
            hv_pcts.append(hv_pct)
        if hv_pcts:
            out.extras["hv_pct_mean"] = sum(hv_pcts) / len(hv_pcts)

        summary = self.round_dir / "summary.csv"
        groups = []
        if summary.exists():
            with summary.open(newline="") as fh:
                groups = list(csv.DictReader(fh))
        per_group = self.runs * len(self.paths) // 2      # two instances per kind
        if len(groups) != 2 * len(tribip.VARIANTS) or any(int(g["runs"]) != per_group
                                                          for g in groups):
            out.fail("report", "summary.csv does not have one row of "
                               f"{per_group} runs per (kind, variant)")
        return out


WORKLOADS = {"kp-relink": KpRelink, "lb-bound": LbBound, "protocol": Protocol}
