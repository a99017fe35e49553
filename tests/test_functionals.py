import math

import numpy as np
import pytest

from glcarleman.fields import random_initial_field
from glcarleman.functionals import (FLUSH_LOG, TERMS, VARIANT_FAMILY, VARIANTS,
                                    FunctionalError, LogIntegrand, _CellQuadrature,
                                    evaluate_cell, lambda_scan, prepare_trajectory,
                                    suite_worst_constant)
from glcarleman.gloperator import derive_coeffs
from glcarleman.grid import build_grid, normal_derivative
from glcarleman.solver import SolveConfig, solve
from glcarleman.weights import CarlemanParams, eval_psi, weight_tables

COEFFS = derive_coeffs(0.3, 0.4)
LHS_KEYS = {"energy_t", "energy_lap", "w_l2", "w_grad", "sextic", "mixed", "w_l4"}


def report(Y, params, grid, variant="interior"):
    return evaluate_cell(prepare_trajectory(Y, grid, COEFFS),
                         weight_tables(params, grid), grid)[variant]


@pytest.fixture(scope="module")
def dirichlet_traj(grid32):
    cfg = SolveConfig(b=COEFFS.b, c=COEFFS.c, bc="dirichlet0", scheme="imex_cn")
    y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="dirichlet0")
    return solve(y0, cfg, grid32).Y


@pytest.fixture(scope="module")
def neumann_traj(grid32):
    cfg = SolveConfig(b=COEFFS.b, c=COEFFS.c, bc="neumann0", scheme="imex_cn")
    y0 = random_initial_field(grid32, seed=2, amplitude=1.0, bc="neumann0")
    return solve(y0, cfg, grid32).Y


class TestBasics:
    def test_zero_trajectory_degenerate(self, grid32):
        Y = np.zeros((33, 33, 33), dtype=complex)
        rep = report(Y, CarlemanParams(lam=2, mu=2, T=1.0), grid32)
        assert rep.degenerate
        assert rep.lhs_total == 0.0 and rep.rhs_total == 0.0

    def test_breakdown_nonnegative(self, grid32, dirichlet_traj):
        rep = report(dirichlet_traj, CarlemanParams(lam=4, mu=2, T=1.0), grid32)
        for v in rep.lhs_breakdown.values():
            assert v >= 0
        for v in rep.rhs_breakdown.values():
            assert v >= 0
        assert np.isfinite(rep.lhs_total) and rep.lhs_total > 0
        assert rep.ratio > 0

    def test_lhs_rhs_wrappers(self, grid32, dirichlet_traj):
        # the terms of each side of the interior and boundary inequalities
        rep = report(dirichlet_traj, CarlemanParams(lam=4, mu=2, T=1.0), grid32)
        assert set(rep.lhs_breakdown) == LHS_KEYS
        assert set(rep.rhs_breakdown) == {"source", "obs_l2", "obs_l4"}
        assert all(v >= 0 for v in rep.lhs_breakdown.values())
        rep = report(dirichlet_traj, CarlemanParams(
            lam=2, mu=1.5, T=1.0, family="j2_boundary"), grid32, "boundary")
        assert set(rep.lhs_breakdown) == LHS_KEYS
        assert set(rep.rhs_breakdown) == {"source", "obs_boundary"}

    def test_source_dominated_by_observation_for_solved(self, grid32,
                                                        dirichlet_traj):
        # G y = 0 analytically for a solution: the source term is pure
        # discretization residual and the observation dominates it
        rep = report(dirichlet_traj, CarlemanParams(lam=4, mu=2, T=1.0), grid32)
        assert rep.rhs_breakdown["source"] < rep.rhs_breakdown["obs_l2"]

    def test_prepare_trajectory_shape_check(self, grid32):
        with pytest.raises(Exception):
            prepare_trajectory(np.zeros((33, 10, 10), dtype=complex), grid32,
                               COEFFS)

    def test_source_consistency_refinement(self, square_spec):
        # theta^2 |G Y|^2 for an exactly-solved trajectory decreases at
        # order >= 1.8 under joint refinement
        vals = []
        for n in (32, 64):
            g = build_grid(square_spec, n, n, n, 1.0)
            cfg = SolveConfig(b=COEFFS.b, c=COEFFS.c, bc="dirichlet0",
                              scheme="imex_cn")
            y0 = 0.8 * np.sin(np.pi * g.X1) * np.sin(np.pi * g.X2) * (1 + 0.3j)
            Y = solve(y0, cfg, g).Y
            params = CarlemanParams(lam=4, mu=2, T=1.0)
            tables = weight_tables(params, g)
            data = prepare_trajectory(Y, g, COEFFS)
            cell = _CellQuadrature(tables, g)
            vals.append(cell.vol(data.log_G2))
        assert vals[1] <= vals[0] / 2 ** 1.8


CUBIC_LHS = ["energy_t", "energy_lap", "w_l2", "w_grad", "sextic", "mixed", "w_l4"]
BREAKDOWN_ORDER = {
    "interior": (CUBIC_LHS, ["source", "obs_l2", "obs_l4"]),
    "boundary": (CUBIC_LHS, ["source", "obs_boundary"]),
    "linear_interior": (CUBIC_LHS[:4], ["source", "obs_l2"]),
    "linear_boundary": (CUBIC_LHS[:4], ["source", "obs_boundary"]),
}


class TestTermsTable:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_breakdown_order(self, grid32, dirichlet_traj, variant):
        # the totals sum the breakdowns in this order, and the CSV follows it
        rep = report(dirichlet_traj, CarlemanParams(
            lam=4, mu=2, T=1.0, family=VARIANT_FAMILY[variant]), grid32, variant)
        assert (list(rep.lhs_breakdown), list(rep.rhs_breakdown)) \
            == BREAKDOWN_ORDER[variant]

    def test_table_matches_trajectory_data(self, grid32, dirichlet_traj):
        data = vars(prepare_trajectory(dirichlet_traj, grid32, COEFFS))
        logs = {k for k, v in data.items() if isinstance(v, LogIntegrand)}
        # every row reads a prepared integrand, and every one is read
        assert {t.integrand for t in TERMS} == logs
        # the benchmark sums nbytes over the attributes that hold arrays
        assert all(isinstance(v, float) or hasattr(v, "nbytes")
                   for v in data.values())
        for t in TERMS:
            assert t.side in ("lhs", "rhs") and t.variants <= set(VARIANTS)
            assert t.region in ("Q", "Q_omega", "Sigma_0")
            if t.region == "Sigma_0":    # the boundary quadrature's one form
                assert (t.phi_power, t.inv_lam_phi) == (1.0, False)


def boundary_reference(cell, dnu_abs2):
    """The boundary observation on linear values: log |g|, flush, sign of g
    and then the signed factor d psi/d nu, with psi taken at the boundary
    points themselves."""
    g = dnu_abs2[1:-1]
    params, grid = cell.tables.params, cell.grid
    b_exp_mu_psi = np.exp(params.mu * eval_psi(grid.spec, params.which_psi,
                                               grid.boundary_points).psi)
    sig = cell.tables.sigma[:, None]
    two_ell = (2.0 * params.lam * (b_exp_mu_psi - cell.tables.K))[None, :] * sig \
        - cell.log_scale
    bphi = b_exp_mu_psi[None, :] * sig
    mag = np.abs(g)
    logmag = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
    arg = two_ell + logmag + 1.0 * np.log(bphi)
    vals = np.where(arg > FLUSH_LOG, np.exp(np.maximum(arg, FLUSH_LOG)), 0.0)
    vals *= np.sign(g)
    vals = vals * cell.tables.b_dpsi_dnu[None, :]
    per_t = vals @ cell.grid.boundary_weights
    return float(math.fsum((per_t * cell.wt).tolist()))


@pytest.fixture(scope="module")
def edge_field(grid32):
    """A zero-trace field with dy/dnu = 0 on x1 = 1, the one side where
    d psi2/d nu = +1: its unflushed boundary mass lies where the factor is 0
    (a solver trajectory's lies on x1 = 1, where the factor changes nothing)."""
    x1, x2 = grid32.X1, grid32.X2
    space = np.where(x1 < 0.75, np.sin(np.pi * x1 / 0.75), 0.0) * np.sin(np.pi * x2)
    space[grid32.boundary_mask] = 0.0
    t_prof = np.sin(np.pi * grid32.t_nodes / grid32.T) ** 2
    return (t_prof[:, None, None] * space[None]).astype(complex)


@pytest.mark.parametrize("field", ["dirichlet_traj", "edge_field"])
@pytest.mark.parametrize("lam, mu", [(2.0, 1.5), (64.0, 3.0)])
def test_boundary_observation_exact(request, grid32, field, lam, mu):
    # the log-integrand path gives the linear-value path's bits
    Y = request.getfixturevalue(field)
    tables = weight_tables(CarlemanParams(lam=lam, mu=mu, T=1.0,
                                          family="j2_boundary"), grid32)
    rep = evaluate_cell(prepare_trajectory(Y, grid32, COEFFS), tables,
                        grid32)["boundary"]
    expect = boundary_reference(_CellQuadrature(tables, grid32),
                                np.abs(normal_derivative(Y, grid32)) ** 2)
    assert rep.rhs_breakdown["obs_boundary"] == lam * mu * expect


class TestBoundaryVariant:
    def test_dirichlet_trajectory_works(self, grid32, dirichlet_traj):
        rep = report(dirichlet_traj, CarlemanParams(
            lam=2, mu=1.5, T=1.0, family="j2_boundary"), grid32, "boundary")
        assert rep.lhs_total > 0
        assert rep.rhs_total > 0
        assert np.isfinite(rep.ratio)

    def test_neumann_trajectory_rejected(self, grid32, neumann_traj):
        with pytest.raises(FunctionalError):
            report(neumann_traj, CarlemanParams(
                lam=2, mu=1.5, T=1.0, family="j2_boundary"), grid32, "boundary")

    def test_dpsi_dnu_sign_pattern(self, grid32):
        # psi2 = 2 + x1: d psi2/d nu = +1 on x1=1, -1 on x1=0, 0 elsewhere
        tables = weight_tables(CarlemanParams(lam=2, mu=1.5, T=1.0,
                                              family="j2_boundary"), grid32)
        normals = grid32.boundary_normals
        expected = normals[:, 0]
        assert np.abs(tables.b_dpsi_dnu - expected).max() < 1e-14

    def test_observation_positive_in_practice(self, grid32, dirichlet_traj):
        rep = report(dirichlet_traj, CarlemanParams(
            lam=2, mu=1.5, T=1.0, family="j2_boundary"), grid32, "boundary")
        assert not rep.obs_negative


class TestLinearVariants:
    def test_cubic_free_breakdown(self, grid32, dirichlet_traj):
        rep = report(dirichlet_traj, CarlemanParams(lam=2, mu=2, T=1.0),
                     grid32, "linear_interior")
        joined = set(rep.lhs_breakdown) | set(rep.rhs_breakdown)
        assert "sextic" not in joined
        assert "w_l4" not in joined
        assert "obs_l4" not in joined

    def test_boundary_linear(self, grid32, dirichlet_traj):
        rep = report(dirichlet_traj, CarlemanParams(
            lam=2, mu=1.5, T=1.0, family="j2_boundary"), grid32, "linear_boundary")
        assert rep.variant == "linear_boundary"
        assert rep.lhs_total > 0

    @pytest.mark.parametrize("family", ["j1_interior", "j2_boundary"])
    def test_linear_report_shares_cubic_terms(self, grid32, dirichlet_traj,
                                              family):
        # one cell yields both variants of its family; the linear left side
        # is the cubic one's first four terms, the observation is shared
        cell = evaluate_cell(prepare_trajectory(dirichlet_traj, grid32, COEFFS),
                             weight_tables(CarlemanParams(lam=4, mu=2, T=1.0,
                                                          family=family), grid32),
                             grid32)
        assert list(cell) == [v for v, f in VARIANT_FAMILY.items() if f == family]
        cubic, linear = cell.values()
        assert list(linear.lhs_breakdown.items()) \
            == list(cubic.lhs_breakdown.items())[:4]
        obs = {k: v for k, v in linear.rhs_breakdown.items() if k != "source"}
        assert obs and obs == {k: cubic.rhs_breakdown[k] for k in obs}
        assert linear.log_scale == cubic.log_scale
        assert linear.rhs_breakdown["source"] != cubic.rhs_breakdown["source"]

    def test_unknown_variant_rejected(self, grid32, dirichlet_traj):
        with pytest.raises(FunctionalError):
            lambda_scan(dirichlet_traj, grid32, [2, 4], [2.0],
                        ["interior", "bogus"], COEFFS)

    def test_horizon_mismatch_rejected(self, grid32, dirichlet_traj):
        with pytest.raises(FunctionalError):
            report(dirichlet_traj, CarlemanParams(lam=2, mu=2, T=2.0), grid32)

    def test_boundary_family_rejected_on_disk(self, disk_grid):
        Y = np.zeros((33, 65, 65), dtype=complex)
        with pytest.raises(FunctionalError, match="unit_disk"):
            report(Y, CarlemanParams(lam=2, mu=1.5, T=1.0, family="j2_boundary"),
                   disk_grid, "boundary")


class TestScan:
    def test_ratios_positive_and_stabilization(self, grid32, dirichlet_traj):
        scan = lambda_scan(dirichlet_traj, grid32, [2, 4, 8, 16], [2.0],
                           ["interior"], COEFFS)["interior"]
        for rep in scan.reports:
            assert rep.ratio > 0
        assert scan.stabilization_lambda[2.0] is not None

    def test_zero_trajectory_degenerate_cells(self, grid32):
        Y = np.zeros((33, 33, 33), dtype=complex)
        scan = lambda_scan(Y, grid32, [2, 4], [2.0], ["interior"],
                           COEFFS)["interior"]
        assert all(r.degenerate for r in scan.reports)
        assert scan.stabilization_lambda[2.0] is None

    def test_suite_worst_constant(self, grid32, dirichlet_traj, neumann_traj):
        scans = [lambda_scan(Y, grid32, [8, 16], [2.0], ["interior"],
                             COEFFS)["interior"]
                 for Y in (dirichlet_traj, neumann_traj)]
        c16 = suite_worst_constant(scans, 16.0, 2.0)
        assert np.isfinite(c16) and c16 > 0
        per_traj = [s.reports[-1].lhs_total / s.reports[-1].rhs_total
                    for s in scans]
        assert c16 == pytest.approx(max(per_traj))

    def test_empirical_carleman_single_constant(self, grid32, dirichlet_traj,
                                                neumann_traj):
        # one C_emp covers the whole (small) suite past stabilization
        scans = [lambda_scan(Y, grid32, [8, 16, 32], [2.0], ["interior"],
                             COEFFS)["interior"]
                 for Y in (dirichlet_traj, neumann_traj)]
        c_emp = max(suite_worst_constant(scans, lam, 2.0)
                    for lam in (8.0, 16.0, 32.0))
        assert np.isfinite(c_emp)
        for s in scans:
            for rep in s.reports:
                assert rep.lhs_total <= c_emp * rep.rhs_total * (1 + 1e-12)


class TestCellQuadrature:
    @pytest.mark.parametrize("family", ["j1_interior", "j2_boundary"])
    @pytest.mark.parametrize("lam, mu", [(2.0, 1.5), (2.0, 3.0), (64.0, 1.5),
                                         (64.0, 3.0)])
    def test_log_scale_is_node_maximum(self, grid32, family, lam, mu):
        # the square's boundary samples are nodes: the offset is max_Q 2 ell
        tables = weight_tables(CarlemanParams(lam=lam, mu=mu, T=1.0,
                                              family=family), grid32)
        assert _CellQuadrature(tables, grid32).log_scale \
            == tables.log_theta2().max()

    def test_flush_to_zero(self, grid32):
        # log-arguments in (-745, -700] would be subnormal: they flush to 0
        cell = _CellQuadrature(weight_tables(CarlemanParams(lam=2, mu=2, T=1.0),
                                             grid32), grid32)
        g = np.full((33, 33, 33), np.exp(-720.0))
        assert np.exp(-720.0) > 0
        assert cell.vol(LogIntegrand.of(g)) == 0.0
        assert cell.vol(LogIntegrand.of(np.full((33, 33, 33), np.exp(-690.0)))) > 0

    def test_matches_direct_product(self, grid32, rng):
        params = CarlemanParams(lam=2, mu=1.5, T=1.0)
        tables = weight_tables(params, grid32)
        cell = _CellQuadrature(tables, grid32)
        g = rng.random((33, 33, 33)) + 0.1
        theta2 = np.exp(tables.log_theta2() - cell.log_scale)
        for p in (0.0, 2.0):
            direct = theta2 * tables.phi() ** p * g[1:-1]
            expect = np.sum(direct * grid32.space_weights(exclude_corners=True),
                            axis=(1, 2)) @ cell.wt
            assert cell.vol(LogIntegrand.of(g), phi_power=p) \
                == pytest.approx(expect, rel=1e-13)


def flushed_slices(cell, logg, phi_power=0.0, inv_lam_phi=False, mask=None):
    """Weighted sums of every interior time slice, each integrand flushed to
    zero below the window, with no slice skipped."""
    arg = cell.logw + logg.values + phi_power * cell.logphi
    if inv_lam_phi:
        arg = arg - np.log(cell.tables.params.lam) - cell.logphi
    vals = np.where(arg > FLUSH_LOG, np.exp(np.maximum(arg, FLUSH_LOG)), 0.0)
    wsp = cell.wsp if mask is None else cell.wsp * mask
    return np.einsum("tij,ij->t", vals, wsp)


SKIP_CELLS = {"j1-64-3": ("j1_interior", 64.0, 3.0),
              "j2-2-1.5": ("j2_boundary", 2.0, 1.5),
              "j2-64-3": ("j2_boundary", 64.0, 3.0)}


@pytest.fixture(scope="module")
def vol_calls(grid32, dirichlet_traj):
    """{cell: [(quadrature, logg, kwargs, value, (lo, hi))]}: every `vol`
    call of one evaluate_cell per cell, with the slices it integrated."""
    data = prepare_trajectory(dirichlet_traj, grid32, COEFFS)
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        vol, live_slices = _CellQuadrature.vol, _CellQuadrature.live_slices
        ranges, calls = [], []

        def counted_live(self, *args, **kwargs):
            ranges.append(live_slices(self, *args, **kwargs))
            return ranges[-1]

        def counted_vol(self, logg, **kwargs):
            calls.append((self, logg, kwargs, vol(self, logg, **kwargs)))
            return calls[-1][-1]

        mp.setattr(_CellQuadrature, "live_slices", counted_live)
        mp.setattr(_CellQuadrature, "vol", counted_vol)
        for name, (family, lam, mu) in SKIP_CELLS.items():
            ranges.clear()
            calls.clear()
            params = CarlemanParams(lam=lam, mu=mu, T=1.0, family=family)
            evaluate_cell(data, weight_tables(params, grid32), grid32)
            out[name] = [c + (r,) for c, r in zip(calls, ranges, strict=True)]
    return out


@pytest.mark.parametrize("name", SKIP_CELLS)
class TestSliceSkip:
    def test_every_term_called(self, vol_calls, name):
        # 7 left-side terms, the two sources and the Q_omega observations
        assert len(vol_calls[name]) == (11 if name.startswith("j1") else 9)

    def test_equals_sum_over_all_slices(self, vol_calls, name):
        for cell, logg, kwargs, value, _ in vol_calls[name]:
            sums = flushed_slices(cell, logg, **kwargs)
            assert value == math.fsum((sums * cell.wt).tolist()), kwargs

    def test_skipped_slices_hold_exact_zeros(self, vol_calls, name):
        for cell, logg, kwargs, _, (lo, hi) in vol_calls[name]:
            sums = flushed_slices(cell, logg, **kwargs)
            assert not sums[:lo].any() and not sums[hi:].any(), kwargs

    def test_slices_evaluated(self, vol_calls, name):
        counts = [hi - lo for *_, (lo, hi) in vol_calls[name]]
        assert max(counts) < 31          # every cell skips a slice
        if name == "j2-64-3":
            assert max(counts) <= 2

    def test_window_edge_kept(self, grid32, name):
        # log g puts 2 ell + log g 1 below the window at each slice's peak:
        # only the phi power lifts those nodes above it, and the bound must
        # keep their slices
        family, lam, mu = SKIP_CELLS[name]
        cell = _CellQuadrature(weight_tables(CarlemanParams(
            lam=lam, mu=mu, T=1.0, family=family), grid32), grid32)
        values = np.broadcast_to((FLUSH_LOG - 1.0 - cell.logw_max)[:, None, None],
                                 (31, 33, 33))
        logg = LogIntegrand(values, values.max(axis=(1, 2)))
        for p in (1.0, 2.0, 3.0):
            sums = flushed_slices(cell, logg, phi_power=p)
            assert sums.all()
            assert cell.vol(logg, phi_power=p) == math.fsum((sums * cell.wt).tolist())


class TestConcentrationProbe:
    def test_field_supported_outside_omega(self, grid32):
        # a bump away from omega is not a solution: its source term must
        # carry the inequality (the observation alone nearly vanishes)
        bump = np.exp(-((grid32.X1 - 0.15) ** 2
                        + (grid32.X2 - 0.15) ** 2) / 0.004)
        bump[grid32.boundary_mask] = 0.0
        t_prof = np.sin(np.pi * grid32.t_nodes / grid32.T) ** 2
        Y = (t_prof[:, None, None] * bump[None]).astype(complex)
        rep = report(Y, CarlemanParams(lam=8, mu=2, T=1.0), grid32)
        obs = rep.rhs_breakdown["obs_l2"] + rep.rhs_breakdown["obs_l4"]
        assert rep.lhs_total > 0
        assert rep.rhs_breakdown["source"] > obs
        assert rep.ratio > 0


class TestWeightDomination:
    def test_log_weight_ordering_matches_psi(self, grid32):
        # at t = T/2 the log-weight difference between two points equals
        # lam sigma (e^{mu psi_a} - e^{mu psi_b}) and is positive when
        # psi_a > psi_b
        params = CarlemanParams(lam=8, mu=2, T=1.0)
        tables = weight_tables(params, grid32)
        two_ell = tables.log_theta2()
        k_mid = two_ell.shape[0] // 2
        iy_a, ix_a = 16, 16   # center, psi max
        iy_b, ix_b = 2, 2     # near-corner margin
        diff = two_ell[k_mid, iy_a, ix_a] - two_ell[k_mid, iy_b, ix_b]
        sig = tables.sigma[k_mid]
        expect = 2 * params.lam * sig * (tables.exp_mu_psi[iy_a, ix_a]
                                         - tables.exp_mu_psi[iy_b, ix_b])
        assert diff == pytest.approx(expect, rel=1e-12)
        assert diff > 0
