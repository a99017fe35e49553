"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Grid sizes, parameter
ranges and tolerances are fixed here; nothing is deferred to calibration.
"""

import filecmp
import math
import os

import numpy as np
import pytest

from glcarleman.cli import main as cli_main
from glcarleman.fields import manufactured_reference, random_initial_field, \
    random_trig_field
from glcarleman.functionals import VARIANT_FAMILY, suite_worst_constant
from glcarleman.gloperator import CoeffError, check_condition1, derive_coeffs
from glcarleman.grid import DomainSpec, build_grid, integrate_q
from glcarleman.identity import T_coefficient_positivity, identity_residuals
from glcarleman.solver import SolveConfig, energy_balance, grid_source, solve
from glcarleman.stability import perturbation_suite, stability_interior
from glcarleman.weights import (CarlemanParams, verify_psi_admissibility,
                                weight_tables)
from support import (check_time_monotonicity, derivative_consistency, linf_l6_norm,
                     prepare_difference, scan_trajectories)
from test_operator import coefficient_relations

SQUARE = DomainSpec(shape="unit_square", omega_center=(0.5, 0.5),
                    omega_radius=0.25)
DISK = DomainSpec(shape="unit_disk", omega_center=(0.0, 0.0),
                  omega_radius=0.35)

COEFF_PAIRS = [(0.0, 0.0), (0.3, 0.4), (0.5, 0.6)]
LAMBDAS_ID = [2.0, 8.0]
MUS_ID = [1.5, 3.0]


@pytest.fixture(scope="module")
def grid_id():
    return build_grid(SQUARE, 32, 32, 32, 1.0)


@pytest.fixture(scope="module")
def grid_acc():
    return build_grid(SQUARE, 64, 64, 64, 1.0)


@pytest.fixture(scope="module")
def trajectory_suite(grid_acc):
    """Five solved trajectories on the 64^2 x 64 grid (3 Dirichlet, 2 Neumann)."""
    coeffs = derive_coeffs(0.3, 0.4)
    suite = []
    for k in range(5):
        bc = "dirichlet0" if k % 2 == 0 else "neumann0"
        cfg = SolveConfig(b=coeffs.b, c=coeffs.c, bc=bc, scheme="imex_cn")
        y0 = random_initial_field(grid_acc, seed=100 + k, amplitude=1.0, bc=bc)
        suite.append((bc, solve(y0, cfg, grid_acc).Y))
    return coeffs, suite


def test_a1_nonlinear_identity_suite(grid_id):
    worst = 0.0
    for fid in range(10):
        field = random_trig_field(seed=1000 + fid, T=1.0, n_modes=3)
        for b, c in COEFF_PAIRS:
            coeffs = derive_coeffs(b, c)
            for lam in LAMBDAS_ID:
                for mu in MUS_ID:
                    params = CarlemanParams(lam=lam, mu=mu, T=1.0)
                    rep = identity_residuals(field, params, coeffs,
                                             grid_id)["cubic"]
                    worst = max(worst, rep.max_rel)
    assert worst <= 1e-6

    # oracle path: fourth-order transport differences, order >= 3 in h_fd
    field = random_trig_field(seed=1000, T=1.0, n_modes=3)
    params = CarlemanParams(lam=2.0, mu=1.5, T=1.0)
    coeffs = derive_coeffs(0.3, 0.4)
    errs = [identity_residuals(field, params, coeffs, grid_id, transport="fd",
                               h_fd=h)["cubic"].max_rel
            for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.0
    print(f"\nACCEPTANCE 1 (nonlinear identity): PASS "
          f"(worst residual {worst:.3e}, oracle orders {orders[0]:.2f}, "
          f"{orders[1]:.2f})")


def test_a2_linear_identity_suite(grid_id):
    worst = 0.0
    for fid in range(10):
        field = random_trig_field(seed=2000 + fid, T=1.0, n_modes=3)
        for b, c in COEFF_PAIRS:
            coeffs = derive_coeffs(b, c)
            for lam in LAMBDAS_ID:
                for mu in MUS_ID:
                    params = CarlemanParams(lam=lam, mu=mu, T=1.0)
                    rep = identity_residuals(field, params, coeffs,
                                             grid_id)["linear"]
                    worst = max(worst, rep.max_rel)
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 2 (linear identity): PASS (worst residual {worst:.3e})")


def test_a3_coefficient_algebra():
    rng = np.random.default_rng(99)
    accepted = 0
    worst_rel = 0.0
    while accepted < 100:
        b = rng.uniform(-0.7, 0.7)
        c = rng.uniform(-0.7, 0.7)
        coeffs = derive_coeffs(b, c)
        rep = check_condition1(coeffs, r0=0.75, delta0=0.12)
        if not rep.passed:
            continue
        accepted += 1
        worst_rel = max(worst_rel, max(coefficient_relations(coeffs).values()))
        tpos = T_coefficient_positivity(coeffs)
        assert tpos.passed
        assert -1 < coeffs.alpha1 < 0
        assert abs(coeffs.beta1) <= 0.5 + 1e-15
    assert worst_rel < 1e-13

    violations = [
        (derive_coeffs(0.9, 0.0), 0.8, 0.1),    # |b| > r0
        (derive_coeffs(0.0, -2.0), 0.5, 0.1),   # beta2 too large
        (derive_coeffs(0.5, 0.6), 0.6, 0.05),   # delta0 too tight
        (derive_coeffs(0.3, -3.0), 0.5, 0.1),   # alpha2 barely, beta2 off
        (derive_coeffs(-0.8, 0.9), 0.7, 0.01),
        (derive_coeffs(0.99, 0.99), 0.9, 0.1),   # |b| > r0

        (derive_coeffs(0.0, 1.0), 0.5, 0.12),
        (derive_coeffs(0.6, -0.6), 0.7, 0.1),
        (derive_coeffs(-0.5, 0.5), 0.6, 0.05),
        (derive_coeffs(0.2, 1.5), 0.5, 0.12),
    ]
    rejected = sum(not check_condition1(cf, r0, d0).passed
                   for cf, r0, d0 in violations)
    assert rejected == 10
    with pytest.raises(CoeffError):
        check_condition1(derive_coeffs(0.1, 0.1), r0=1.5, delta0=0.1)
    print(f"\nACCEPTANCE 3 (coefficient algebra): PASS "
          f"(100 admissible pairs, worst relation residual {worst_rel:.2e}, "
          f"10/10 violations rejected)")


def test_a4_solver():
    coeffs = derive_coeffs(0.3, 0.4)
    ref = manufactured_reference()
    errs = []
    for n in (32, 64, 128):
        g = build_grid(SQUARE, n, n, n, 0.5)
        cfg = SolveConfig(b=coeffs.b, c=coeffs.c, bc="dirichlet0",
                          scheme="imex_cn", source=grid_source(ref, g, coeffs))
        y0 = ref.sample(g, times=np.array([0.0]))[0]
        Y = solve(y0, cfg, g).Y
        exact = ref.sample(g)
        errs.append(math.sqrt(integrate_q(np.abs(Y - exact) ** 2, g)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= p <= 2.2 for p in orders)

    # constant-data ODE at scheme order (CN+Strang is exact here)
    a = 1.3
    g = build_grid(SQUARE, 16, 16, 100, 1.0)
    res = solve(np.full((17, 17), a, dtype=complex),
                SolveConfig(b=0.7, c=0.0, bc="neumann0", scheme="imex_cn"), g)
    ode_err = abs(res.Y[-1, 8, 8] - a / np.sqrt(1 + 2 * a * a))
    assert ode_err < 1e-12
    be_errs = []
    for nt in (100, 400):
        g = build_grid(SQUARE, 16, 16, nt, 1.0)
        res = solve(np.full((17, 17), a, dtype=complex),
                    SolveConfig(b=0.7, c=0.0, bc="neumann0", scheme="imex_be"), g)
        be_errs.append(abs(res.Y[-1, 8, 8] - a / np.sqrt(1 + 2 * a * a)))
    be_order = math.log2(be_errs[0] / be_errs[1]) / 2
    assert be_order >= 0.9

    # L2 dissipation at the default grid
    g = build_grid(SQUARE, 64, 64, 64, 1.0)
    res = solve(random_initial_field(g, seed=3, amplitude=1.0, bc="dirichlet0"),
                SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn"), g)
    assert np.all(np.diff(res.l2_norms) <= 1e-8 * res.l2_norms[:-1])

    # energy-balance residual order in dt (CN)
    vals = []
    cn = SolveConfig(b=0.0, c=0.0, bc="dirichlet0", scheme="imex_cn")
    for nt in (16, 64):
        g = build_grid(SQUARE, 64, 64, nt, 1.0)
        res = solve(random_initial_field(g, seed=3, amplitude=1.0,
                                         bc="dirichlet0"), cn, g)
        vals.append(energy_balance(res.Y, g, cn).max())
    bal_order = math.log2(vals[0] / vals[1]) / 2
    assert bal_order >= 1.8
    print(f"\nACCEPTANCE 4 (solver): PASS (manufactured orders "
          f"{orders[0]:.2f}/{orders[1]:.2f}, ODE error {ode_err:.1e}, "
          f"BE order {be_order:.2f}, energy order {bal_order:.2f})")


def test_a5_weight_machinery():
    g64 = build_grid(SQUARE, 64, 64, 64, 1.0)
    gd64 = build_grid(DISK, 64, 64, 64, 1.0)
    cases = [(SQUARE, "psi1", g64), (DISK, "psi1", gd64), (SQUARE, "psi2", g64)]
    for spec, which, g in cases:
        clauses = verify_psi_admissibility(which, g)
        assert all(clauses.values()), (which, spec.shape, clauses)

    worst = 0.0
    for spec, which, g in cases:
        family = "j1_interior" if which == "psi1" else "j2_boundary"
        params = CarlemanParams(lam=4, mu=2, T=1.0, family=family)
        if spec.shape == "unit_square":
            pts = np.array([[0.3, 0.4], [0.55, 0.7], [0.8, 0.25]])
        else:
            pts = np.array([[0.2, 0.1], [-0.3, 0.4], [0.1, -0.5]])
        errs = derivative_consistency(params, spec, which,
                                      pts, np.array([0.3, 0.5, 0.66]))
        worst = max(worst, max(errs.values()))
    assert worst <= 1e-6

    for spec, which, g in cases:
        family = "j1_interior" if which == "psi1" else "j2_boundary"
        tables = weight_tables(CarlemanParams(lam=4, mu=2, T=1.0, family=family), g)
        mono = check_time_monotonicity(tables, g)
        assert mono["monotone_first_half"] and mono["symmetric"]
    print(f"\nACCEPTANCE 5 (weight machinery): PASS "
          f"(3 constructions admissible, derivative agreement {worst:.2e}, "
          f"time monotonicity at every node)")


def test_a6_empirical_carleman(trajectory_suite, grid_acc):
    coeffs, suite = trajectory_suite
    lambdas = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    mus = [1.5, 2.0, 3.0]
    variants = ("interior", "boundary", "linear_interior", "linear_boundary")
    suite_scans = {v: [] for v in variants}
    # the boundary family needs a Dirichlet trace
    members = [(Y, [v for v in variants
                    if bc == "dirichlet0" or VARIANT_FAMILY[v] != "j2_boundary"])
               for bc, Y in suite]
    for member in scan_trajectories(members, grid_acc, lambdas, mus, coeffs):
        for v, scan in member.items():
            suite_scans[v].append(scan)
    lines = []
    for variant in variants:
        scans = suite_scans[variant]
        for scan in scans:
            for rep in scan.reports:
                assert rep.ratio > 0, (variant, rep.lam, rep.mu)
                assert np.isfinite(rep.lhs_total) and np.isfinite(rep.rhs_total)
        for mu in mus:
            stabs = [s.stabilization_lambda[mu] for s in scans]
            assert all(s is not None for s in stabs), (variant, mu, stabs)
            c_prev = suite_worst_constant(scans, lambdas[-2], mu)
            c_last = suite_worst_constant(scans, lambdas[-1], mu)
            assert np.isfinite(c_last) and c_last > 0
            drift = abs(c_last - c_prev) / c_prev
            assert drift <= 0.10, (variant, mu, drift)
            lines.append(f"{variant} mu={mu}: stab lambda {max(stabs):g}, "
                         f"C_emp {c_last:.3f}, drift {100 * drift:.1f}%")
    print("\nACCEPTANCE 6 (empirical Carleman): PASS")
    for ln in lines:
        print("   ", ln)


def test_a7_conditional_stability(grid_acc):
    coeffs = derive_coeffs(0.3, 0.4)
    cfg = SolveConfig(b=coeffs.b, c=coeffs.c, bc="dirichlet0", scheme="imex_cn")
    y0 = random_initial_field(grid_acc, seed=11, amplitude=1.0, bc="dirichlet0")
    w = random_initial_field(grid_acc, seed=12, amplitude=1.0, bc="dirichlet0")
    deltas = [1e-3, 1e-2, 1e-1]
    eps_list = [0.05, 0.1, 0.2]
    reports = perturbation_suite(y0, w, deltas, eps_list, cfg, grid_acc,
                                 variants=("interior", "boundary"))
    spreads = {}
    for variant in ("interior", "boundary"):
        for eps in eps_list:
            cs = [r.c_emp for r in reports
                  if r.variant == variant and r.epsilon == eps]
            assert all(np.isfinite(c) for c in cs)
            spreads[(variant, eps)] = max(cs) / min(cs)
            assert spreads[(variant, eps)] <= 10.0
        for delta in deltas:
            ls = [r.lhs for r in reports
                  if r.variant == variant and r.perturbation_scale == delta]
            # eps_list ascending: lhs non-increasing in eps
            assert all(ls[i] >= ls[i + 1] * (1 - 1e-12) for i in range(len(ls) - 1))

    # identical-data pair degenerates to 0 <= 0
    u2 = solve(y0.copy(), cfg, grid_acc).Y
    z = solve(y0, cfg, grid_acc).Y - u2
    d = prepare_difference(z, grid_acc, c_u2=linf_l6_norm(u2, grid_acc) ** 8)
    rep = stability_interior(d, grid_acc, eps=0.1)
    assert rep.degenerate and rep.lhs == 0.0
    worst_spread = max(spreads.values())
    print(f"\nACCEPTANCE 7 (conditional stability): PASS "
          f"(worst c_emp spread {worst_spread:.3f}, degenerate pair 0 <= 0)")


def test_a8_determinism(tmp_path):
    args = ["--grid", "32", "--seed", "5"]
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        cwd = os.getcwd()
        os.chdir(d)
        try:
            assert cli_main(args + ["carleman-scan"]) == 0
            assert cli_main(args + ["stability"]) == 0
            assert cli_main(args + ["verify-identity"]) == 0
        finally:
            os.chdir(cwd)
        dirs.append(d)
    a, b = dirs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel
    print(f"\nACCEPTANCE 8 (determinism): PASS "
          f"({len(files_a)} files byte-identical across reruns)")
