"""Module loading: which commands load scipy, and that no timer covers it.

Each test runs a fresh interpreter, because a module that an earlier test
loaded stays in this process's `sys.modules`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _fresh(code: str, *args):
    """Run PRELUDE + code with args in a new interpreter that imports tribip
    from src/; returns the JSON its last stdout line holds."""
    done = subprocess.run([sys.executable, "-c", PRELUDE + code, *map(str, args)], cwd=SRC,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SCIPY_FREE = """
import contextlib, csv, io
from pathlib import Path
loaded = {}
import tribip
loaded["import tribip"] = scipy_modules()
from tribip import cli
loaded["import tribip.cli"] = scipy_modules()
d = Path(sys.argv[1])
steps = [
    ("generate knapsack", ["generate", "--kind", "knapsack", "--n", "8", "--out-dir", str(d)]),
    ("generate assignment", ["generate", "--kind", "assignment", "--n", "4", "--out-dir", str(d)]),
    ("oracle knapsack", ["oracle", str(d / "knapsack_n8_i000.txt")]),
    ("oracle assignment", ["oracle", str(d / "assignment_n4_i000.txt")]),
    ("report", ["report", str(d / "runs.csv"), "--ref-dir", str(d)]),
]
with (d / "runs.csv").open("w", newline="") as fh:
    writer = csv.DictWriter(fh, fieldnames=cli.CSV_FIELDS)
    writer.writeheader()
    # the oracle's own front as a run's: report fills its HV% from --ref-dir
    writer.writerow(dict.fromkeys(cli.CSV_FIELDS, "") | {
        "instance": "knapsack_n8_i000", "kind": "knapsack", "n": 8, "variant": "PI",
        "seed": 0, "y_count": 1, "time_sec": 0.5, "lp_count": 3,
        "front_file": str(d / "knapsack_n8_i000.ref.txt")})
for name, argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_commands_that_need_no_lp_load_no_scipy(tmp_path):
    loaded = _fresh(SCIPY_FREE, tmp_path)
    assert list(loaded) == ["import tribip", "import tribip.cli", "generate knapsack",
                            "generate assignment", "oracle knapsack", "oracle assignment",
                            "report"]
    assert loaded == dict.fromkeys(loaded, [])


def test_cli_loads_no_thread_pool():
    # `solve` runs serially, so the CLI needs no executor
    code = "import tribip.cli\nprint(json.dumps('concurrent.futures' in sys.modules))"
    assert _fresh(code) is False


TIMED = """
import time
import tribip
from tribip import cli, heuristic, lbset

class Clock:
    '''time as the module sees it, noting the scipy modules at every perf_counter call'''
    def __init__(self):
        self.seen = []
    def perf_counter(self):
        self.seen.append(scipy_modules())
        return time.perf_counter()
    def __getattr__(self, name):
        return getattr(time, name)

clocks = {"lbset": Clock(), "heuristic": Clock()}
lbset.time, heuristic.time = clocks["lbset"], clocks["heuristic"]
kind, entry = sys.argv[2:]
problem = (tribip.generate_knapsack(10, seed=0) if kind == "knapsack"
           else tribip.generate_assignment(5, seed=0))
if entry == "run":
    tribip.run(problem, tribip.PrConfig(variant="PI"))
else:
    path = sys.argv[1] + "/inst.txt"
    tribip.write_instance(problem, path)
    assert cli.main(["solve", path, "--variant", "PI", "--report-csv",
                     sys.argv[1] + "/runs.csv"]) == 0
print(json.dumps({name: clock.seen for name, clock in clocks.items()}))
"""


@pytest.mark.parametrize("entry", ["run", "cli"])
@pytest.mark.parametrize("kind", ["knapsack", "assignment"])
def test_no_module_is_loaded_inside_a_timer(tmp_path, kind, entry):
    # every span of a namespace starts and stops at one of its perf_counter
    # calls, so an import inside one shows as a change between two calls
    seen = _fresh(TIMED, tmp_path, kind, entry)
    for name in ["lbset", "heuristic"]:
        calls = seen[name]
        assert len(calls) >= 2, name
        assert "scipy.spatial" in calls[0], name
        changes = [(a, b) for a, b in zip(calls, calls[1:]) if a != b]
        assert not changes, (name, [sorted(set(b) - set(a)) for a, b in changes])


QJ_FALLBACK = """
import numpy as np
from tribip import lbset
assert not scipy_modules()
nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
weights = lbset._lower_facet_weights(nodes)
from scipy.spatial import ConvexHull, QhullError
try:
    ConvexHull(nodes)
    raised = False
except QhullError:
    raised = True
print(json.dumps({"raised": raised, "weights": weights.tolist()}))
"""


def test_coplanar_nodes_take_the_joggle_fallback():
    # four points in the plane y3 = 0 have no full-dimensional hull, so Qhull
    # raises and the `QJ` (joggle) retry gives the plane's upward normal
    out = _fresh(QJ_FALLBACK)
    assert out["raised"]
    assert out["weights"]
    for w in out["weights"]:
        assert w == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)
