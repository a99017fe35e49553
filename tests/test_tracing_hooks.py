"""The benchmark's tracer wraps glcarleman functions where they are bound.

``perfbench/child.py`` looks the traced functions up by module and name; a
refactor that moves or unbinds one of them breaks every traced benchmark run.
Its ``install`` is run here in a fresh interpreter, so that the test suite
catches that.
"""

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
