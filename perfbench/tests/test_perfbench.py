"""Tests of the benchmark harness itself, on a tiny 16^3 configuration.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import math
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import Tracer, patch  # noqa: E402

TINY_GRID = {"nx": 16, "ny": 16, "nt": 16}
TINY_SCAN = run.Workload("tiny-scan", "carleman-scan",
                         {"grid": TINY_GRID, "scan": {"n_trajectories": 2}})
TINY_OBSERVE = run.Workload("tiny-observe", "stability", {"grid": TINY_GRID})


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, seed, reference, trace=False):
    lines = []
    m = run.measure(workload, seed, 0.0, trace, ROOT, reference, log=lines.append)
    result = run.report(workload, seed, trace, m, run.metadata(ROOT),
                        log=lines.append)
    return m, result, lines


def _reference(workload):
    with run.scratch(ROOT) as tmp:
        _, rc, err, out_dir = run.run_child(ROOT, tmp, workload,
                                            run.REFERENCE_SEED, "ref")
        assert rc == run.REFERENCE_RC, err
        return run.key_numbers(workload, out_dir)


def test_tiny_run_prints_every_end_to_end_metric_with_unit():
    _, result, lines = _run(TINY_SCAN, 8, {})
    declared = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines if line.startswith("  ")), name
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in lines)
    assert result["correct"] and result["failed"] == 0
    assert json.loads(json.dumps(result)) == result


def test_corrupted_reference_fails_the_check_and_counts_in_fail_frac():
    reference = _reference(TINY_SCAN)
    _, good, _ = _run(TINY_SCAN, run.REFERENCE_SEED, reference)
    assert good["correct"] and good["failed"] == 0

    key = next(k for k in sorted(reference) if k.endswith("c_emp_last"))
    corrupted = dict(reference, **{key: reference[key] * (1 + 1e-6)})
    m, bad, lines = _run(TINY_SCAN, run.REFERENCE_SEED, corrupted)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] >= 1
    assert any(key in p for p in m["failures"][0])
    assert any(line.split()[:2] == ["fail_frac", "1"] for line in lines)


def test_self_times_plus_unattributed_add_up_to_traced_run():
    m, result, _ = _run(TINY_OBSERVE, 8, {}, trace=True)
    declared = {p["name"]: p["unit"] for p in _bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for traced in m["traced"]:
        layers = traced["layers"]
        self_sum = sum(v for k, v in layers.items() if k.endswith("_self_s"))
        assert math.isclose(self_sum + layers["trace.unattributed_s"],
                            layers["trace.run_s"], rel_tol=1e-9)
        assert layers["stability.reports"] == 18
        assert layers["solver.solve_calls"] == 4


def test_tracer_self_time_and_outermost_total():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.enter("root")          # t=0
    tr.enter("a")             # t=1
    tr.enter("a")             # t=2, nested in the same layer
    tr.exit()                 # t=3
    tr.exit()                 # t=4
    tr.enter("b")             # t=5
    tr.exit()                 # t=6
    tr.exit()                 # t=7
    layers = tr.layers()
    assert layers["root"]["total"] == 7 and layers["root"]["self"] == 3
    assert layers["a"]["total"] == 3 and layers["a"]["self"] == 3
    assert layers["a"]["calls"] == 2 and layers["b"]["self"] == 1
    assert sum(lay["self"] for lay in layers.values()) == layers["root"]["total"]


def test_patch_rebinds_every_module_that_imported_the_name():
    def original():
        return 1

    defining = types.ModuleType("fakepkg.defining")
    user = types.ModuleType("fakepkg.user")
    defining.f = user.g = original
    sys.modules.update({"fakepkg.defining": defining, "fakepkg.user": user})
    try:
        tr = Tracer()
        assert patch(original, tr.wrap(original, "layer"), prefix="fakepkg") == 2
        assert user.g() == 1 and defining.f() == 1
        assert tr.layers()["layer"]["calls"] == 2
        with pytest.raises(LookupError):
            patch(lambda: None, None, prefix="fakepkg")
    finally:
        del sys.modules["fakepkg.defining"], sys.modules["fakepkg.user"]
