"""Batch front-end: verify-identity | solve | carleman-scan | stability.

Every command loads a JSON configuration (defaults + file + flag overrides),
validates it against all module preconditions, a bound on the arrays it holds
among them, and writes its reports under a run directory named by the
configuration hash.  Outputs are byte-stable: identical configurations give
byte-identical files, under any BLAS thread count.  Among the preconditions,
carleman-scan checks on the run grid that each auxiliary function psi its
variants weigh with is admissible, before any work starts, and marches its
suite in lockstep, one stack per boundary condition, scanning each time
step as soon as it is solved.  --lambda and --mu set the lists of the one
command reading them (identity.* for verify-identity, scan.* for carleman-scan).
Coefficients, initial fields, solver configurations and verdict summaries
are each made in one place: _prepare, _member, _solve_config and _finish.

Exit codes: 0 pass, 1 assertion failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import fields as flds
from .config import ConfigError, build_domain, build_run_grid, config_hash, load_config
from .functionals import (STABILIZATION_TOL, VARIANT_FAMILY, lambda_scan,
                          overflowing_cells, suite_worst_constant)
from .gloperator import check_condition1, derive_coeffs
from .grid import DomainSpec, GridError, build_grid, eps_window, integrate_q
from .identity import (T_coefficient_positivity, default_samples, identity_residuals,
                       overflowing_pairs)
from .solver import (MAX_HALVINGS, STIFFNESS_CAP, SolveConfig, energy_balance,
                     grid_source, march, save_trajectory, solve)
from .stability import perturbation_suite
from .weights import CarlemanParams, horizon_representable, verify_psi_admissibility

# the section whose lambda and mu lists each command reads
LIST_SECTION = {"verify-identity": "identity", "carleman-scan": "scan"}
# the stability summary's key of a variant's spread at one epsilon
SPREAD_KEY = "{}_eps_{:.6g}"


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return x


def write_csv(path, rows, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row.get(c, "")) for c in columns])


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_capabilities(cfg, command, manufactured):
    """Reject the runs that cannot pass, before any work starts."""
    disk = cfg["domain"]["shape"] == "unit_disk"
    errs = []
    if disk and command == "carleman-scan":
        # the disk's weight keeps too few nodes past the exp(-700) flush
        errs.append("domain.shape: carleman-scan runs on unit_square only (the "
                    "disk's Carleman integrals are not resolved)")
    if disk and command == "solve" and manufactured:
        errs.append("--manufactured: the manufactured study runs on unit_square only")
    elif disk and command == "solve" and cfg["solver"]["bc"] != "dirichlet0":
        errs.append("solver.bc: unit_disk supports dirichlet0 only")
    if disk and command != "verify-identity" and cfg["solver"]["scheme"] == "exp_strang":
        errs.append("solver.scheme: exp_strang runs on unit_square only")
    if disk and command == "stability" and "boundary" in cfg["stability"]["variants"]:
        errs.append("stability.variants: boundary unsupported on unit_disk "
                    "(no normal derivative on the circle)")
    spec = build_domain(cfg)
    # the interior grid times, and the identity suite's sample times
    T, nt = cfg["grid"]["T"], cfg["grid"]["nt"]
    t_nodes = np.linspace(0.0, float(T), nt + 1)
    horizon_ok = horizon_representable(T, np.concatenate([
        t_nodes[1:-1], default_samples(spec, T)[0]]))
    if not horizon_ok:
        errs.append(f"grid.T: {T:g} leaves the weights' time factor "
                    "1/(t (T - t)) no finite positive value at some time")
    # march halves a step at most MAX_HALVINGS times to bring dt peak^2 under
    # STIFFNESS_CAP; a member peaks at A = solver.amplitude (at most A on the
    # disk), a stability member y0 + delta w at most A + delta
    amp, cap = cfg["solver"]["amplitude"], STIFFNESS_CAP * 2 ** MAX_HALVINGS
    peaks = {} if command == "verify-identity" or manufactured else {"solver.amplitude": amp}
    if command == "stability":
        peaks.update({f"stability.deltas[{i}]": amp + d
                      for i, d in enumerate(cfg["stability"]["deltas"])})
    errs += [f"{path}: a peak of {p:g} gives (T/nt) peak^2 = {T / nt * p * p:.6g} > {cap:g}: "
             f"the solver cannot reach its stiffness cap within {MAX_HALVINGS} halvings"
             for path, p in peaks.items() if T / nt * p * p > cap]
    if command == "stability":
        st, keys = cfg["stability"], {}
        for i, fr in enumerate(st["eps_fractions"]):
            try:
                eps_window(t_nodes, T, fr * T)
            except GridError as exc:
                errs.append(f"stability.eps_fractions[{i}]: {exc} (eps = {fr:g} T)")
            # every variant's keys share their eps part
            key = SPREAD_KEY.format(st["variants"][0], fr * T)
            if (j := keys.setdefault(key, i)) != i:
                errs.append(f"stability.eps_fractions[{i}]: eps = {fr:.10g} T shares "
                            f"the summary key {key} with entry [{j}]")
    ident = cfg["identity"]
    if command == "verify-identity" and horizon_ok and (bad := overflowing_pairs(
            spec, T, ident["lambdas"], ident["mus"])):
        errs.append("identity.lambdas: with identity.mus, theta^{-4} overflows on the "
                    f"{spec.shape} sample set (-4 ell > 700) at (lambda, mu) = "
                    + ", ".join(f"({lam:g}, {mu:g})" for lam, mu in bad))
    if errs:
        raise ConfigError(errs)


def _check_admissibility(cfg, grid):
    """The Carleman estimates hold for an admissible psi only: psi1 weighs
    the interior variants and psi2 the boundary ones.  Each cell's log
    offset, powers of lambda and mu and weights must be finite doubles."""
    scan = cfg["scan"]
    families = {VARIANT_FAMILY[v] for v in scan["variants"]}
    failed, errs = [], []
    for which, family in (("psi1", "j1_interior"), ("psi2", "j2_boundary")):
        if family in families:
            clauses = verify_psi_admissibility(which, grid)
            failed += [f"{which}.{c}" for c, ok in clauses.items() if not ok]
    if failed:
        errs.append(f"domain.omega_center: psi is not admissible on this "
                    f"grid and omega, failing {', '.join(failed)}")
    if bad := overflowing_cells(grid, scan["variants"], scan["lambdas"], scan["mus"]):
        # a mu at which every lambda overflows is at fault whatever the lambdas
        per_mu = Counter((family, mu) for family, _, mu in bad)
        field = "scan.mus" if len(scan["lambdas"]) in per_mu.values() else "scan.lambdas"
        errs.append(f"{field}: the log offset max 2 ell, a power lambda^p mu^q or "
                    "the weight exp(2 ell - log_scale + p log phi) of the Carleman "
                    "cells overflows at (family, lambda, mu) = "
                    + ", ".join(f"({f}, {lam:g}, {mu:g})" for f, lam, mu in bad))
    if errs:
        raise ConfigError(errs)


def _prepare(args, command):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.grid is not None:
        overrides["grid"] = {"nx": args.grid, "ny": args.grid, "nt": args.grid}
    for flag, key, values in (("--lambda", "lambdas", args.lam),
                              ("--mu", "mus", args.mu)):
        if values is None:
            continue
        if command not in LIST_SECTION:
            raise ConfigError([f"{flag}: {command} reads no {flag[2:]} list"])
        overrides.setdefault(LIST_SECTION[command], {})[key] = values
    cfg = load_config(args.config, overrides, command)   # bounded by what it holds
    _check_capabilities(cfg, command, getattr(args, "manufactured", False))
    try:
        grid = build_run_grid(cfg)
    except GridError as exc:
        # every field is valid on its own, so omega does not fit the grid
        raise ConfigError([f"domain.omega_center: {exc}"]) from None
    if command == "carleman-scan":
        _check_admissibility(cfg, grid)
    out_dir = args.output_dir or cfg["output_dir"] or os.path.join(
        "runs", config_hash(cfg))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        field = "--output-dir" if args.output_dir else "output_dir"
        raise ConfigError([f"{field}: cannot make {out_dir}: {exc.strerror}"]) from None
    return cfg, grid, derive_coeffs(cfg["coeffs"]["b"], cfg["coeffs"]["c"]), out_dir


def _member(cfg, grid, seed, bc, amplitude=None):
    """A seeded initial field of solver.n_modes modes, peaking at
    solver.amplitude unless `amplitude` is given."""
    solver = cfg["solver"]
    return flds.random_initial_field(
        grid, seed=seed, amplitude=solver["amplitude"] if amplitude is None else amplitude,
        bc=bc, n_modes=solver["n_modes"])


def _solve_config(cfg, coeffs, bc, source=None):
    return SolveConfig(b=coeffs.b, c=coeffs.c, bc=bc, scheme=cfg["solver"]["scheme"],
                       source=source)


def _finish(out_dir, name, cfg, summary, ok, line) -> int:
    """Write the summary `name` with its verdict, print `line` with it, and
    return the exit code."""
    write_json(os.path.join(out_dir, name), {"config": cfg, **summary, "passed": bool(ok)})
    print(f"{line} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_identity(args) -> int:
    cfg, grid, coeffs, out_dir = _prepare(args, "verify-identity")
    ident = cfg["identity"]
    threshold = ident["threshold"]
    b, c = cfg["coeffs"]["b"], cfg["coeffs"]["c"]
    results = []
    worst = 0.0
    for fid in range(ident["n_fields"]):
        field = flds.random_trig_field(seed=cfg["seed"] + 1000 + fid,
                                       T=grid.T, n_modes=3)
        for lam in ident["lambdas"]:
            for mu in ident["mus"]:
                params = CarlemanParams(lam=lam, mu=mu, T=grid.T)
                res = identity_residuals(field, params, coeffs, grid,
                                         corrupt=args.corrupt_term)
                nl, lin = res["cubic"], res["linear"]
                # np.max keeps a nan residual, which then fails the threshold
                worst = float(np.max([worst, nl.max_rel, lin.max_rel]))
                results.append({
                    "field": fid, "b": b, "c": c, "lambda": lam, "mu": mu,
                    "nonlinear_max_rel": nl.max_rel, "nonlinear_l2_rel": nl.l2_rel,
                    "linear_max_rel": lin.max_rel, "linear_l2_rel": lin.l2_rel,
                    "term_magnitudes": nl.term_magnitudes})
    tpos = T_coefficient_positivity(coeffs)
    summary = {"results": results, "worst_max_rel": worst, "threshold": threshold,
               "t_coefficient": {"value": tpos.t_value, "bound": tpos.lower_bound,
                                 "passed": tpos.passed},
               "corrupt_term": args.corrupt_term}
    return _finish(out_dir, "identity_report.json", cfg, summary,
                   worst <= threshold and tpos.passed,
                   f"verify-identity: worst max relative residual {worst:.3e} "
                   f"(threshold {threshold:g})")


def _manufactured_study(cfg, coeffs, out_dir) -> int:
    """Convergence table of the manufactured-solution run over halved grids."""
    ref = flds.manufactured_reference()
    rows, errs = [], []
    for n in (32, 64, 128):
        # omega does not enter the study: the plain unit square
        g = build_grid(DomainSpec(), n, n, n, 0.5)
        # the reference vanishes on the boundary of the square
        sc = _solve_config(cfg, coeffs, "dirichlet0", source=grid_source(ref, g, coeffs))
        y0 = ref.sample(g, times=np.array([0.0]))[0]
        Y = solve(y0, sc, g).Y
        err = float(np.sqrt(integrate_q(np.abs(Y - ref.sample(g)) ** 2, g)))
        errs.append(err)
        order = math.log2(errs[-2] / err) if len(errs) > 1 else float("nan")
        rows.append({"n": n, "l2_error": err, "order": order})
    write_csv(os.path.join(out_dir, "manufactured.csv"), rows,
              ["n", "l2_error", "order"])
    orders = [r["order"] for r in rows[1:]]
    return _finish(out_dir, "solve_summary.json", cfg,
                   {"mode": "manufactured", "orders": orders},
                   all(1.8 <= p <= 2.2 for p in orders),
                   f"solve --manufactured: orders {', '.join(f'{p:.2f}' for p in orders)}")


def cmd_solve(args) -> int:
    cfg, grid, coeffs, out_dir = _prepare(args, "solve")
    if args.manufactured:
        return _manufactured_study(cfg, coeffs, out_dir)
    bc = cfg["solver"]["bc"]
    sc = _solve_config(cfg, coeffs, bc)
    res = solve(_member(cfg, grid, cfg["seed"], bc), sc, grid)
    save_trajectory(os.path.join(out_dir, "trajectory.bin"), res.Y, grid)
    bal = energy_balance(res.Y, grid, sc)
    rows = [{"step": k, "t": grid.t_nodes[k + 1], "l2_norm": res.l2_norms[k + 1],
             "energy_residual": bal[k], "substeps": int(res.substeps[k])}
            for k in range(grid.nt)]
    write_csv(os.path.join(out_dir, "energy.csv"), rows,
              ["step", "t", "l2_norm", "energy_residual", "substeps"])
    dissipative = bool(np.all(np.diff(res.l2_norms) <= 1e-8 * res.l2_norms[:-1]))
    write_json(os.path.join(out_dir, "solve_summary.json"), {
        "config": cfg, "final_l2": res.l2_norms[-1],
        "max_energy_residual": float(bal.max()),
        "l2_dissipative": dissipative,
    })
    print(f"solve: final L2 {res.l2_norms[-1]:.6g}, "
          f"max energy residual {bal.max():.3e}, dissipative={dissipative}")
    return 0 if dissipative else 1


def cmd_carleman_scan(args) -> int:
    cfg, grid, coeffs, out_dir = _prepare(args, "carleman-scan")
    sc_cfg = cfg["scan"]
    cond = check_condition1(coeffs, cfg["coeffs"]["r0"], cfg["coeffs"]["delta0"])
    # a seeded suite alternating Dirichlet / Neumann, marched in lockstep,
    # one march per boundary condition; the Neumann members weigh with the
    # interior family only, so they come first, as the scan orders its
    # members by family
    members, marches = [], []    # (k, bc, variants) in march order
    for bc in ("neumann0", "dirichlet0"):
        ks = [k for k in range(sc_cfg["n_trajectories"])
              if (k % 2 == 0) == (bc == "dirichlet0")]
        # the boundary family needs a Dirichlet trace
        variants = [v for v in sc_cfg["variants"]
                    if bc == "dirichlet0" or VARIANT_FAMILY[v] != "j2_boundary"]
        if ks and variants:      # marched only if a requested variant uses it
            members += [(k, bc, variants) for k in ks]
            Y0 = np.stack([_member(cfg, grid, cfg["seed"] + k, bc) for k in ks])
            marches.append(march(Y0, _solve_config(cfg, coeffs, bc), grid))
    # each step is scanned as soon as it is marched, and each cell's
    # weights serve every member
    slices = (np.concatenate([step.Y for step in steps]) for steps in zip(*marches))
    scan_of = lambda_scan(slices, [variants for *_, variants in members], grid,
                          sc_cfg["lambdas"], sc_cfg["mus"], coeffs)
    n_cells = sum(len({VARIANT_FAMILY[v] for v in variants})
                  for *_, variants in members) * len(sc_cfg["mus"]) * len(sc_cfg["lambdas"])
    scans = {v: [] for v in sc_cfg["variants"]}
    rows_of = {v: [] for v in sc_cfg["variants"]}
    for (k, bc, _), member in sorted(zip(members, scan_of), key=lambda p: p[0][0]):
        for v, scan in member.items():
            scans[v].append(scan)
            rows_of[v] += [{**rep.as_row(), "trajectory": k, "bc": bc}
                           for rep in scan.reports]
    rows = [row for v in sc_cfg["variants"] for row in rows_of[v]]
    summary, ok = {}, cond.passed
    lams = sorted(float(l) for l in sc_cfg["lambdas"])
    for variant in sc_cfg["variants"]:
        per_mu = summary[variant] = {}
        for mu in sc_cfg["mus"]:
            stabs = [s.stabilization_lambda.get(float(mu)) for s in scans[variant]]
            stable = None not in stabs
            c_last = suite_worst_constant(scans[variant], lams[-1], float(mu))
            c_prev = suite_worst_constant(scans[variant], lams[-2], float(mu))
            drift = abs(c_last - c_prev) / c_prev if c_prev > 0 else float("inf")
            per_mu[str(mu)] = {"stabilization_lambda": max(stabs) if stable else None,
                               "c_emp_last": c_last, "c_emp_prev": c_prev,
                               "c_emp_drift": drift}
            ok = ok and np.isfinite(c_last) and drift <= STABILIZATION_TOL and stable
    columns = sorted({k for row in rows for k in row}, key=str)
    write_csv(os.path.join(out_dir, "carleman_scan.csv"), rows, columns)
    return _finish(out_dir, "carleman_summary.json", cfg, {
        "condition1": {"passed": cond.passed, "margins": cond.margins},
        "variants": summary}, ok, f"carleman-scan: {n_cells} cells, {len(rows)} rows")


def cmd_stability(args) -> int:
    cfg, grid, coeffs, out_dir = _prepare(args, "stability")
    st = cfg["stability"]
    y0 = _member(cfg, grid, cfg["seed"], "dirichlet0")
    w = _member(cfg, grid, cfg["seed"] + 77, "dirichlet0", amplitude=1.0)
    eps_list = [fr * grid.T for fr in st["eps_fractions"]]
    reports = perturbation_suite(y0, w, st["deltas"], eps_list,
                                 _solve_config(cfg, coeffs, "dirichlet0"), grid,
                                 variants=tuple(st["variants"]))
    rows = [r.as_row() for r in reports]
    ok, spreads = True, {}
    for variant in st["variants"]:
        for eps in eps_list:
            cs = [r.c_emp for r in reports
                  if r.variant == variant and r.epsilon == eps
                  and not r.degenerate and np.isfinite(r.c_emp)]
            if not cs:
                ok = False
                continue
            spread = max(cs) / min(cs)
            spreads[SPREAD_KEY.format(variant, eps)] = spread
            ok = ok and spread <= 10.0
    write_csv(os.path.join(out_dir, "stability.csv"), rows,
              ["variant", "delta", "epsilon", "lhs", "rhs_obs", "c_u2", "c_u1",
               "c_emp", "c_emp_u1", "degenerate"])
    return _finish(out_dir, "stability_summary.json", cfg, {"spreads": spreads}, ok,
                   f"stability: {len(rows)} reports")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glcarleman",
        description="Carleman-estimate laboratory for the cubic complex "
                    "Ginzburg-Landau equation")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None,
                        help="set nx = ny = nt")
    parser.add_argument("--lambda", dest="lam", type=_float_list, default=None,
                        help="override the lambda list of verify-identity or "
                             "carleman-scan (comma separated)")
    parser.add_argument("--mu", dest="mu", type=_float_list, default=None,
                        help="override the mu list of verify-identity or "
                             "carleman-scan (comma separated)")
    parser.add_argument("--output-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identity", help="pointwise weighted identity suite")
    p.add_argument("--corrupt-term", default=None,
                   choices=["B", "E", "U", "M", "H"],
                   help="deliberately flip one term (failure-path test)")
    p.set_defaults(fn=cmd_verify_identity)

    p = sub.add_parser("solve", help="forward solve with energy diagnostics")
    p.add_argument("--manufactured", action="store_true",
                   help="run the manufactured-solution convergence study")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("carleman-scan", help="lambda/mu scans of the inequalities")
    p.set_defaults(fn=cmd_carleman_scan)

    p = sub.add_parser("stability", help="state observation perturbation suite")
    p.set_defaults(fn=cmd_stability)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
