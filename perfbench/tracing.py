"""Spans and counters around calls into tribip's modules, for the traced run.

`Tracer.installed()` replaces public functions of tribip's modules, in the
namespaces their callers look them up in, with wrappers that record a span
(name, start, end, parent) per call and the counts that explain it, and puts
the originals back on exit.  Nothing under src/ is changed.  Spans stay in
memory; `layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

from tribip import cli, heuristic, lbset, lp, metrics, model, rng

# Per-layer metrics: name -> (unit, better).  Times and counts are totals over
# one round; ir_start and ir_end are means per rounded solve.
LAYER_METRICS = {
    "lp.solves": ("count", "lower"),
    "lp.time_s": ("s", "lower"),
    "lp.ms_per_solve": ("ms", "lower"),
    "lbset.time_s": ("s", "lower"),
    "lbset.self_s": ("s", "lower"),
    "lbset.points": ("count", "higher"),
    "lbset.points_per_lp": ("points/lp", "higher"),
    "lbset.calls_per_instance": ("calls/instance", "lower"),
    "heuristic.walk_s": ("s", "lower"),
    "heuristic.walks": ("count", "lower"),
    "heuristic.steps": ("count", "lower"),
    "heuristic.us_per_step": ("us", "lower"),
    "heuristic.select_s": ("s", "lower"),
    "heuristic.select_calls": ("count", "lower"),
    "heuristic.ir_start": ("solutions", "higher"),
    "heuristic.ir_end": ("solutions", "higher"),
    "heuristic.new_per_walk": ("solutions/walk", "higher"),
    "heuristic.walks_repeat_pair": ("count", "lower"),
    "heuristic.round_s": ("s", "lower"),
    "heuristic.round_dropped": ("count", "lower"),
    "metrics.filter_s": ("s", "lower"),
    "metrics.filter_in": ("count", "lower"),
    "metrics.filter_out": ("count", "higher"),
    "metrics.oracle_s": ("s", "lower"),
    "metrics.oracle_points": ("count", "higher"),
    "metrics.hv_s": ("s", "lower"),
    "metrics.hv_calls": ("count", "lower"),
    "metrics.hv_pct_mean": ("%", "higher"),
    "model.io_s": ("s", "lower"),
    "model.io_calls": ("count", "lower"),
    "model.bytes_written": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "rng.draws": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans and counters of one traced round.  Single-threaded: the
    workloads call tribip serially."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ir = None                 # IR set of the run in progress

    def _timed(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, t0, time.perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _walk(self, fn):
        timed = self._timed("heuristic.walk", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(problem, s_i, s_g, ir, archives, rng_, best_move_prob, collect_visits=False):
            if (s_i.key(), s_g.key()) in archives.ig_pairs:
                counts["walks_repeat_pair"] += 1
            visits = timed(problem, s_i, s_g, ir, archives, rng_, best_move_prob,
                           collect_visits=True)
            counts["steps"] += len(visits)
            return visits if collect_visits else []
        return wrapper

    def _draws(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts["rng_draws"] += 1
            return fn(*args)
        return wrapper

    # after-call hooks: (args, result) -> None
    def _after_lbset(self, args, result):
        self.counts["lb_points"] += len(result.points)

    def _after_round(self, args, result):
        self.counts["rounded_solves"] += 1
        self.counts["ir_start"] += len(result)
        self.counts["round_dropped"] += result.dropped_infeasible
        self._ir = result

    def _after_filter(self, args, result):
        self.counts["filter_in"] += len(args[0])
        self.counts["filter_out"] += len(result)
        if self._ir is not None:
            self.counts["ir_end"] += len(self._ir)
            self._ir = None

    def _after_oracle(self, args, result):
        self.counts["oracle_points"] += len(result)

    def _after_write(self, position):
        def after(args, result):
            self.counts["bytes_written"] += os.path.getsize(args[position])
        return after

    @contextmanager
    def installed(self):
        """Wrap tribip's public functions for the duration of the block."""
        targets = [
            (lp.RelaxationSolver, "solve_weighted", self._timed("lp", lp.RelaxationSolver.solve_weighted)),
            (rng.Xoshiro256StarStar, "random", self._draws(rng.Xoshiro256StarStar.random)),
            (rng.Xoshiro256StarStar, "randint", self._draws(rng.Xoshiro256StarStar.randint)),
            (heuristic, "round_down", self._timed("heuristic.round", heuristic.round_down,
                                                  self._after_round)),
            (heuristic, "select_pair", self._timed("heuristic.select", heuristic.select_pair)),
            (heuristic, "path_relink_walk", self._walk(heuristic.path_relink_walk)),
            (heuristic, "filter_nondominated_solutions",
             self._timed("metrics.filter", heuristic.filter_nondominated_solutions,
                         self._after_filter)),
            (cli, "exact_front_solutions", self._timed("metrics.oracle", cli.exact_front_solutions,
                                                       self._after_oracle)),
            (cli, "hv_percent", self._timed("metrics.hv", cli.hv_percent)),
            (cli, "hypervolume", self._timed("metrics.hv", cli.hypervolume)),
            (model, "read_instance", self._timed("model.io", model.read_instance)),
            (model, "read_front", self._timed("model.io", model.read_front)),
            (model, "write_front", self._timed("model.io", model.write_front, self._after_write(0))),
            (model, "write_instance", self._timed("model.io", model.write_instance,
                                                  self._after_write(1))),
            (cli, "main", self._timed("cli", cli.main)),
        ]
        for module in (heuristic, cli):
            targets.append((module, "compute_lb_set",
                            self._timed("lbset", lbset.compute_lb_set, self._after_lbset)))
            targets.append((module, "run", self._timed("heuristic.run", heuristic.run)))
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
        try:
            for owner, name, wrapper in targets:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def layer_metrics(self, instances: int) -> dict[str, float]:
        """Per-layer figures of the spans and counts recorded so far."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        # children of one span run one after another, so the time they cover
        # is the sum of their durations
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for index, (name, t0, t1, parent) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child_time[index]
            calls[name] += 1
        c = self.counts

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        return {
            "lp.solves": calls["lp"],
            "lp.time_s": total["lp"],
            "lp.ms_per_solve": ratio(total["lp"], calls["lp"], 1e3),
            "lbset.time_s": total["lbset"],
            "lbset.self_s": own["lbset"],
            "lbset.points": c["lb_points"],
            "lbset.points_per_lp": ratio(c["lb_points"], calls["lp"]),
            "lbset.calls_per_instance": ratio(calls["lbset"], instances),
            "heuristic.walk_s": total["heuristic.walk"],
            "heuristic.walks": calls["heuristic.walk"],
            "heuristic.steps": c["steps"],
            "heuristic.us_per_step": ratio(total["heuristic.walk"], c["steps"], 1e6),
            "heuristic.select_s": total["heuristic.select"],
            "heuristic.select_calls": calls["heuristic.select"],
            "heuristic.ir_start": ratio(c["ir_start"], c["rounded_solves"]),
            "heuristic.ir_end": ratio(c["ir_end"], c["rounded_solves"]),
            "heuristic.new_per_walk": ratio(c["ir_end"] - c["ir_start"], calls["heuristic.walk"]),
            "heuristic.walks_repeat_pair": c["walks_repeat_pair"],
            "heuristic.round_s": total["heuristic.round"],
            "heuristic.round_dropped": c["round_dropped"],
            "metrics.filter_s": total["metrics.filter"],
            "metrics.filter_in": c["filter_in"],
            "metrics.filter_out": c["filter_out"],
            "metrics.oracle_s": total["metrics.oracle"],
            "metrics.oracle_points": c["oracle_points"],
            "metrics.hv_s": total["metrics.hv"],
            "metrics.hv_calls": calls["metrics.hv"],
            "model.io_s": total["model.io"],
            "model.io_calls": calls["model.io"],
            "model.bytes_written": c["bytes_written"],
            "cli.self_s": own["cli"],
            "rng.draws": c["rng_draws"],
        }
