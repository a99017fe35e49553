"""The benchmark's tracer wraps glcarleman functions where they are bound.

``perfbench/child.py`` looks the traced functions up by module and name; a
refactor that moves or unbinds one of them breaks every traced benchmark run,
and one that changes what the hooks read (``SolveResult.substeps``,
``SolveConfig.bc``) breaks its per-layer numbers.  ``install`` and a traced
run are done here in fresh interpreters, so that the test suite catches that.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """\
import sys
sys.path[:0] = sys.argv[1:]
from child import install
from tracer import Tracer
install(Tracer())
"""


def test_benchmark_tracer_installs():
    res = subprocess.run(
        [sys.executable, "-c", INSTALL, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


TRACED_STABILITY = """\
import json, sys, tempfile
sys.path[:0] = sys.argv[1:]
from child import install, layer_metrics
from tracer import Tracer
from glcarleman import cli
from glcarleman.config import build_run_grid, load_config

tracer = Tracer()
install(tracer)
tracer.enter("cli.main")
with tempfile.TemporaryDirectory() as out:
    rc = cli.main(["--grid", "16", "--output-dir", out, "stability"])
tracer.exit()
grid = build_run_grid(load_config(None, {"grid": {"nx": 16, "ny": 16, "nt": 16}}))
print(json.dumps({"rc": rc, **layer_metrics(tracer, grid)}))
"""


def test_traced_stability_counts_solver_work():
    # u2 and one u1 per delta: 4 solves of 16 steps, all with one substep,
    # so one factorization serves them all
    res = subprocess.run(
        [sys.executable, "-c", TRACED_STABILITY, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    metrics = json.loads(res.stdout.splitlines()[-1])
    assert metrics["rc"] == 0
    assert metrics["solver.solve_calls"] == 4
    assert metrics["solver.steps"] == 64
    assert metrics["solver.factorizations"] == 1
