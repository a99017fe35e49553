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


TRACED_RUN = """\
import json, sys, tempfile
command, sys.path[:0] = sys.argv[1], sys.argv[2:]
from child import install, layer_metrics
from tracer import Tracer
from glcarleman import cli
from glcarleman.config import build_run_grid, load_config

tracer = Tracer()
install(tracer)
tracer.enter("cli.main")
with tempfile.TemporaryDirectory() as out:
    rc = cli.main(["--grid", "16", "--output-dir", out, command])
tracer.exit()
grid = build_run_grid(load_config(None, {"grid": {"nx": 16, "ny": 16, "nt": 16}}))
print(json.dumps({"rc": rc, **layer_metrics(tracer, grid)}))
"""


def traced_run(command):
    """The per-layer metrics of one traced 16^3 run of `command`."""
    res = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, command, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_traced_stability_counts_solver_work():
    # u2 and one u1 per delta are marched together by solver.march, which
    # the hooks do not wrap: they see no solve and no step, and the suite
    # and its 18 reports only
    metrics = traced_run("stability")
    assert metrics["rc"] == 0
    assert metrics["solver.solve_calls"] == 0
    assert metrics["solver.steps"] == 0
    assert metrics["solver.factorizations"] == 0
    assert metrics["stability.suite_s"] > 0
    assert metrics["stability.reports"] == 18


def test_traced_scan_streams_the_suite():
    # the five members are marched by solver.march, which the hooks do not
    # wrap, and scanned step by step in one call; the steps prepared, one
    # per interior time, add up to the ten integrands of each on every one
    metrics = traced_run("carleman-scan")
    assert metrics["rc"] == 0
    assert metrics["solver.solve_calls"] == 0
    assert metrics["functionals.scan_s"] > 0
    slices, nodes, samples = 15, 17 * 17, 4 * 17
    member = 8 * slices * (9 * nodes + samples)
    assert metrics["functionals.prepare_mb"] == 5 * member / 1e6
