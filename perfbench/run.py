"""glcarleman benchmark: batch CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload scan-square-64 --seed 7 --seconds 60 --trace 0

One closed-loop client runs the CLI once at a time, each run in a fresh
process (``child.py``) with BLAS/OpenMP threads fixed at 1, repeating until
``--seconds`` would be exceeded (at least one run).  Every run's exit code,
stderr and summary numbers are checked.  Human-readable lines come first; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SEED = 7
REFERENCE_RC = 0           # every workload passes at the reference seed
# Reference numbers repeat byte for byte today; the tolerance leaves room
# for a deliberate reordering of summations (ROADMAP: 1e-12 relative).
REFERENCE_RTOL = 1e-9
SETUP_ONLY_RUNS = 3        # set-up samples besides the one in each CLI run
CHILD_TIMEOUT_S = 100.0    # keeps a whole run of up to 60 s under 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_GRID_128 = {"nx": 128, "ny": 128, "nt": 128}


SUMMARY_FILE = {"carleman-scan": "carleman_summary.json",
                "stability": "stability_summary.json"}


@dataclass
class Workload:
    name: str
    command: str
    config: dict


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("scan-square-64", "carleman-scan", {}),
    Workload("scan-square-128", "carleman-scan",
             {"grid": _GRID_128,
              "scan": {"n_trajectories": 2, "lambdas": [32.0, 64.0], "mus": [2.0]}}),
    Workload("observe-square-128", "stability", {"grid": _GRID_128}),
    Workload("observe-disk-128", "stability",
             {"domain": {"shape": "unit_disk", "omega_center": [0.0, 0.0],
                         "omega_radius": 0.35},
              "grid": _GRID_128, "stability": {"variants": ["interior"]}}),
]}

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# -- output check -------------------------------------------------------------

def key_numbers(workload, out_dir):
    """The summary numbers a run is judged by, keyed by a stable name."""
    with open(os.path.join(out_dir, SUMMARY_FILE[workload.command]), encoding="utf-8") as fh:
        summary = json.load(fh)
    if workload.command == "carleman-scan":
        return {f"{variant}/mu={mu}/{k}": vals[k]
                for variant, per_mu in summary["variants"].items()
                for mu, vals in per_mu.items()
                for k in ("c_emp_last", "c_emp_drift")}
    return {f"spread/{k}": v for k, v in summary["spreads"].items()}


def check_run(workload, seed, rc, stderr, out_dir, reference):
    """Problems with one run; an empty list means the run passed its check.

    At the reference seed the exit code must be ``REFERENCE_RC`` and
    the key numbers must match ``reference`` within ``REFERENCE_RTOL``.  On
    other seeds the CLI's verdict may be PASS (0) or FAIL (1), and the key
    numbers must be finite.
    """
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    allowed = {REFERENCE_RC} if seed == REFERENCE_SEED else {0, 1}
    if rc not in allowed:
        problems.append(f"exit code {rc}, expected one of {sorted(allowed)}")
        return problems
    try:
        got = key_numbers(workload, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable summary: {exc!r}"]
    bad = [k for k, v in got.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite {bad}")
    if seed == REFERENCE_SEED:
        if set(got) != set(reference):
            problems.append(f"keys {sorted(got)} differ from reference {sorted(reference)}")
        for k in sorted(set(got) & set(reference)):
            # a drift is itself a relative difference, so compare it absolutely
            abs_tol = REFERENCE_RTOL if k.endswith("drift") else 0.0
            if not math.isclose(got[k], reference[k], rel_tol=REFERENCE_RTOL,
                                abs_tol=abs_tol):
                problems.append(f"{k} = {got[k]!r}, reference {reference[k]!r}")
    return problems


# -- running ------------------------------------------------------------------

def run_child(root, tmp, workload, seed, tag, trace=False, setup_only=False):
    """One fresh process; returns (result dict or None, rc, stderr, out_dir)."""
    out_dir = os.path.join(tmp, f"out-{tag}")
    result_path = os.path.join(tmp, f"result-{tag}.json")
    config_path = os.path.join(tmp, f"config-{workload.name}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--src", os.path.join(root, "src"), "--result", result_path,
           "--config", config_path, "--seed", str(seed),
           "--command", workload.command, "--output-dir", out_dir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=tmp,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    return result, proc.returncode, proc.stderr, out_dir


@contextlib.contextmanager
def scratch(root):
    """A fresh directory under ``<root>/.perfbench_tmp``, removed afterwards."""
    parent = os.path.join(root, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=parent)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it


def measure(workload, seed, seconds, trace, root, reference, log=print):
    """Run ``workload`` for about ``seconds``; return the aggregated result."""
    root = os.path.abspath(root)
    with scratch(root) as tmp:
        return _measure(workload, seed, seconds, trace, root, reference, tmp, log)


def _measure(workload, seed, seconds, trace, root, reference, tmp, log):
    setups, runs, traced, failures = [], [], [], []
    run_child(root, tmp, workload, seed, "warmup", setup_only=True)
    for i in range(SETUP_ONLY_RUNS):
        res, rc, err, _ = run_child(root, tmp, workload, seed, f"setup{i}",
                                    setup_only=True)
        if res is None or rc != 0:
            raise RuntimeError(f"set-up failed (exit {rc}):\n{err}")
        setups.append(res["setup_s"])
    start, longest, attempted = time.monotonic(), 0.0, 0
    # Traced mode runs one untraced run first, for the tracing overhead.
    while True:
        traced_run = trace and attempted > 0
        t = time.monotonic()
        res, rc, err, out_dir = run_child(root, tmp, workload, seed,
                                          f"run{attempted}", trace=traced_run)
        longest = max(longest, time.monotonic() - t)
        attempted += 1
        problems = check_run(workload, seed, rc, err, out_dir, reference)
        if res is None:
            problems.append("no result written")
        if problems:
            failures.append(problems)
            log(f"run {attempted} FAILED: {'; '.join(problems)}")
        if res is not None:
            setups.append(res["setup_s"])
            (traced if traced_run else runs).append(res)
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.monotonic() - start
        if attempted >= 1 + trace and elapsed + longest > seconds:
            break
    return {"attempted": attempted, "failed": len(failures), "setups": setups,
            "runs": runs, "traced": traced, "failures": failures}


# -- reporting ----------------------------------------------------------------

def end_to_end(m):
    """End-to-end metrics: medians over runs (set-up over every set-up)."""
    if not m["runs"]:
        raise RuntimeError("no run produced a result")
    med = lambda key: statistics.median(r[key] for r in m["runs"])  # noqa: E731
    return {"setup_s": statistics.median(m["setups"]), "run_s": med("run_s"),
            "cpu_s": med("cpu_s"), "peak_rss_mb": med("peak_rss_mb")}


def per_layer(m):
    """Per-layer metrics: medians over traced runs, plus tracing overhead."""
    if not m["traced"] or not m["runs"]:
        raise RuntimeError("no traced and untraced run pair produced a result")
    keys = m["traced"][0]["layers"]
    out = {k: statistics.median(r["layers"][k] for r in m["traced"]) for k in keys}
    out["trace.untraced_run_s"] = statistics.median(r["run_s"] for r in m["runs"])
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def layer_unit(name):
    if name.endswith("_ms_p50") or name.endswith("_ms_p95"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def metadata(root):
    src = os.path.join(root, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "commit": commit or "unknown", "src_lines": lines}


def report(workload, seed, trace, m, meta, log=print):
    """Print every metric with its unit; return the final JSON object."""
    if trace:
        metrics = per_layer(m)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(m)
        units = END_TO_END
    log(f"workload {workload.name} seed {seed} trace {int(trace)}: "
        f"{len(m['runs'])} untraced runs, {len(m['traced'])} traced runs, "
        f"{len(m['setups'])} set-up samples")
    log(f"meta {json.dumps(meta, sort_keys=True)}")
    rcs = sorted({r["rc"] for r in m["runs"] + m["traced"]})
    log(f"exit codes {rcs}")
    log("run_s samples " + " ".join(f"{r['run_s']:.4f}" for r in m["runs"]))
    for name, value in metrics.items():
        log(f"  {name:34s} {value:14.6g} {units[name]}")
    fail_frac = m["failed"] / m["attempted"]
    log(f"  {'fail_frac':34s} {fail_frac:14.6g} ratio "
        f"({m['failed']} of {m['attempted']} runs)")
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload.name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "glcarleman", "cli.py")):
        print("perfbench: run from a checkout root holding src/glcarleman",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), root,
                    load_reference(workload))
        result = report(workload, args.seed, bool(args.trace), m, metadata(root))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
