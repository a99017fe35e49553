"""The benchmark's own correctness check passes on its gated workloads.

``perfbench/run.py`` judges every run of a workload by its exit code, its
stderr and its summary numbers against ``perfbench/reference.json`` at the
reference seed.  Each gated workload is run once here, in a fresh
interpreter and through the harness's own functions, so that a change the
benchmark would judge incorrect fails the test suite first.  The harness
writes only under ``.perfbench_tmp/`` in the checkout and removes it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = """\
import json, sys
name, root, sys.path[:0] = sys.argv[1], sys.argv[2], sys.argv[3:]
from run import (REFERENCE_SEED, WORKLOADS, check_run, load_reference,
                 run_child, scratch)

workload = WORKLOADS[name]
with scratch(root) as tmp:
    _, rc, err, out_dir = run_child(root, tmp, workload, REFERENCE_SEED, "check")
    problems = check_run(workload, REFERENCE_SEED, rc, err, out_dir,
                         load_reference(workload))
print(json.dumps(problems))
"""


@pytest.mark.parametrize("workload", ["scan-square-64", "observe-disk-128"])
def test_gated_workload_passes_the_benchmark_check(workload):
    res = subprocess.run(
        [sys.executable, "-c", CHECK, workload, ROOT, os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == []
