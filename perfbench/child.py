"""One benchmark run in a fresh process: set up, then run the glcarleman CLI.

Set-up is what every CLI call pays before its command starts: interpreter
start, ``import glcarleman.cli``, ``load_config`` and ``build_run_grid``.
The grid built in set-up is handed to the command, so the run does not build
it a second time.  With ``--trace`` the public functions of each module are
wrapped (see ``tracer.py``) and the per-layer numbers of this run are
written with the result.

Usage (normally started by ``run.py``)::

    python3 perfbench/child.py --src SRC --t0 T0 --result OUT.json \
        --config CFG.json --seed N --command carleman-scan \
        --output-dir DIR [--trace] [--setup-only]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes.  The process exits
with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from tracer import Tracer, patch

# Layers whose spans make up the traced breakdown, in report order.
SPAN_LAYERS = ("grid.stencil", "solver.solve", "solver.ops_build",
               "functionals.scan", "functionals.prepare",
               "functionals.weight_tables", "functionals.cell",
               "stability.suite", "stability.report", "cli.write")
CALL_COUNTS = {"grid.stencil": "grid.stencil_calls",
               "solver.solve": "solver.solve_calls",
               "functionals.prepare": "functionals.prepare_calls",
               "functionals.cell": "functionals.cells",
               "stability.report": "stability.reports"}
P95_MIN_CELLS = 200  # p95 is reported only with >= 10 cells beyond it


def install(tracer):
    """Wrap the public functions of each layer wherever they are bound."""
    from glcarleman import cli, functionals, grid, solver, stability

    seen_ops = set()
    factorizations = set()

    def first_ops(g, bc):
        key = (id(g), bc)
        if key in seen_ops:
            return False
        seen_ops.add(key)
        return True

    def on_solve(res, y0, cfg, g):
        tracer.counts["solver.steps"] += len(res.substeps)
        tracer.counts["solver.substeps"] += int(res.substeps.sum())
        factorizations.update((id(g), cfg.bc, int(n)) for n in set(res.substeps))
        tracer.counts["solver.factorizations"] = len(factorizations)

    def on_prepare(data, *args):
        tracer.counts["functionals.prepare_bytes"] += sum(
            v.nbytes for v in vars(data).values() if hasattr(v, "nbytes"))

    def on_write(_, path, *args):
        tracer.counts["cli.bytes_written"] += os.path.getsize(path)

    table = [
        ("grid.stencil", [grid.laplacian, grid.grad, grid.normal_derivative,
                          grid.boundary_values], None, None),
        ("solver.solve", [solver.solve], on_solve, None),
        ("solver.ops_build", [solver.build_linear_ops], None, first_ops),
        ("functionals.scan", [functionals.lambda_scan], None, None),
        ("functionals.prepare", [functionals.prepare_trajectory], on_prepare, None),
        ("functionals.weight_tables", [functionals.weight_tables], None, None),
        ("functionals.cell", [functionals.evaluate_cell], None, None),
        ("stability.suite", [stability.perturbation_suite], None, None),
        ("stability.report", [stability.stability_interior,
                              stability.stability_boundary], None, None),
        ("cli.write", [cli.write_csv, cli.write_json, solver.save_trajectory],
         on_write, None),
    ]
    for name, fns, on_result, when in table:
        for fn in fns:
            patch(fn, tracer.wrap(fn, name, on_result, when))


def layer_metrics(tracer, grid):
    """Flat per-layer metrics of one traced run (root span ``cli.main``)."""
    import numpy as np

    layers = tracer.layers()
    empty = {"total": 0.0, "self": 0.0, "calls": 0, "durations": []}
    out = {}
    for name in SPAN_LAYERS:
        lay = layers.get(name, empty)
        out[f"{name}_s"] = lay["total"]
        out[f"{name}_self_s"] = lay["self"]
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] = lay["calls"]
    for key in ("solver.steps", "solver.substeps", "solver.factorizations",
                "cli.bytes_written"):
        out[key] = tracer.counts[key]
    out["functionals.prepare_mb"] = tracer.counts["functionals.prepare_bytes"] / 1e6
    cells_ms = np.array(layers.get("functionals.cell", empty)["durations"]) * 1e3
    out["functionals.cell_ms_p50"] = float(np.median(cells_ms)) if cells_ms.size else 0.0
    out["functionals.cell_ms_p95"] = float(np.percentile(cells_ms, 95)) \
        if cells_ms.size >= P95_MIN_CELLS else 0.0
    nodes = cells_ms.size * (grid.nt - 1) * (grid.ny + 1) * (grid.nx + 1)
    cell_s = out["functionals.cell_s"]
    out["functionals.quad_nodes_per_s"] = nodes / cell_s if cell_s > 0 else 0.0
    root = layers["cli.main"]
    out["trace.run_s"] = root["total"]
    out["trace.unattributed_s"] = root["self"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--command", required=True)
    ap.add_argument("--output-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # One fixed core: migrating between cores of unequal speed (CPU 0 also
    # takes most interrupts) made identical runs differ by up to 20%.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.abspath(args.src))
    t = time.perf_counter()
    import glcarleman.cli as cli
    from glcarleman.config import load_config
    import_s = time.perf_counter() - t
    cfg = load_config(args.config, {"seed": args.seed})
    t = time.perf_counter()
    grid = cli.build_run_grid(cfg)
    build_s = time.perf_counter() - t
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "import_s": import_s, "build_s": build_s,
              "module": cli.__file__}
    rc = 0
    if not args.setup_only:
        build_run_grid = cli.build_run_grid
        cli.build_run_grid = lambda c: grid if c == cfg else build_run_grid(c)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            install(tracer)
            tracer.enter("cli.main")
        t = time.perf_counter()
        rc = cli.main(["--config", args.config, "--seed", str(args.seed),
                       "--output-dir", args.output_dir, args.command])
        result["run_s"] = time.perf_counter() - t
        if tracer is not None:
            tracer.exit()
            result["layers"] = {"cli.import_s": import_s, "grid.build_s": build_s,
                                **layer_metrics(tracer, grid)}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["rc"] = rc
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
