import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from glcarleman import cli, functionals
from glcarleman.config import DEFAULTS
from glcarleman.fields import random_initial_field
from glcarleman.functionals import (DOT_CHUNK, FLUSH_LOG, TERMS, VARIANT_FAMILY,
                                    VARIANTS, FunctionalError, Term, TrajectoryData,
                                    _CellQuadrature, _flush_exp, _slice_sums,
                                    evaluate_cell, lambda_scan, suite_worst_constant)
from glcarleman.gloperator import derive_coeffs
from glcarleman.grid import (GridError, SpaceTimeGrid, build_grid, integrate_slices,
                             normal_derivative, space_sums)
from glcarleman.solver import SolveConfig, solve
from glcarleman.weights import CarlemanParams, eval_psi, weight_tables

from support import (log_theta2, nonzero_trace, phi, prepare_whole,
                     scan_trajectories)

COEFFS = derive_coeffs(0.3, 0.4)
LHS_KEYS = {"energy_t", "energy_lap", "w_l2", "w_grad", "sextic", "mixed", "w_l4"}


def report(Y, params, grid, variant="interior"):
    return evaluate_cell(prepare_whole(Y, grid, COEFFS),
                         weight_tables(params, grid), grid)[variant]


def per_slice(cell, term, g):
    """The sums of one row over its region on each interior slice, from
    `_slice_sums` with one cell and one member; g on every interior time."""
    return np.array([_slice_sums([cell], [term], {term.integrand: g[s:s + 1]}, s)[0, 0, 0]
                     for s in range(len(g))])


def time_integral(per_slice, grid, keep=None):
    """integrate_slices of per-slice sums on the interior times, taken as
    zero at t = 0 and T and on the slices that `keep` drops."""
    sums = np.zeros(grid.nt + 1)
    sums[1:-1] = per_slice if keep is None else np.where(keep, per_slice, 0.0)
    return integrate_slices(sums, grid)


def integral(cell, g, phi_power=0, region="Q"):
    """int theta^2 phi^phi_power g over one region, g on every interior
    time."""
    term = Term("g", "lhs", frozenset(), "g", 0, 0, phi_power, region)
    return time_integral(per_slice(cell, term, g), cell.grid)


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
            data = prepare_whole(Y, g, COEFFS)
            vals.append(integral(_CellQuadrature(tables, g), data.G2))
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
        data = vars(prepare_whole(dirichlet_traj, grid32, COEFFS))
        integrands = {k for k, v in data.items() if isinstance(v, np.ndarray)}
        # every row reads a prepared integrand, and every one is read; the
        # benchmark sums nbytes over the attributes, all of them arrays
        assert {t.integrand for t in TERMS} == integrands == set(data)
        for t in TERMS:
            assert t.side in ("lhs", "rhs") and t.variants <= set(VARIANTS)
            assert t.region in ("Q", "Q_omega", "Sigma_0")
            if t.region == "Sigma_0":    # the boundary quadrature's one form
                assert t.phi_power == 1


def full_tables(cell):
    """2 ell - log_scale and log phi on every interior time slice, from the
    full weight tables, as (nt-1, nodes) arrays."""
    n = cell.tables.sigma.size
    logw = (log_theta2(cell.tables) - cell.log_scale).reshape(n, -1)
    return logw, np.log(phi(cell.tables)).reshape(n, -1)


def flushed(arg):
    return np.where(arg > FLUSH_LOG, np.exp(np.maximum(arg, FLUSH_LOG)), 0.0)


def row_live(cell, phi_power):
    """The slices a row keeps, from full-table extremes: those whose bound
    on the weight's argument exceeds the window."""
    logw, logphi = full_tables(cell)
    ext = logphi.max(axis=1) if phi_power > 0 else logphi.min(axis=1)
    return logw.max(axis=1) + phi_power * ext > FLUSH_LOG


def boundary_reference(cell, dnu_abs2):
    """The boundary observation from linear values: the weight theta^2 phi,
    with psi taken at the boundary points themselves, flushed, times g and
    then the signed factor d psi/d nu, summed over the slices its bound
    keeps."""
    g = dnu_abs2[1:-1]
    params, grid = cell.tables.params, cell.grid
    b_exp_mu_psi = np.exp(params.mu * eval_psi(grid.spec, params.which_psi,
                                               grid.boundary_points).psi)
    sig = cell.tables.sigma[:, None]
    two_ell = (2.0 * params.lam * (b_exp_mu_psi - cell.tables.K))[None, :] * sig \
        - cell.log_scale
    bphi = b_exp_mu_psi[None, :] * sig
    vals = flushed(two_ell + 1 * np.log(bphi)) * g * cell.tables.b_dpsi_dnu
    per_t = space_sums(vals, cell.grid.boundary_weights)
    return time_integral(per_t, cell.grid, row_live(cell, 1))


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
    # the node gather of the weight table gives the boundary points' bits
    Y = request.getfixturevalue(field)
    tables = weight_tables(CarlemanParams(lam=lam, mu=mu, T=1.0,
                                          family="j2_boundary"), grid32)
    rep = evaluate_cell(prepare_whole(Y, grid32, COEFFS), tables,
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
        cell = evaluate_cell(prepare_whole(dirichlet_traj, grid32, COEFFS),
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
            scan_trajectories([(dirichlet_traj, ["interior", "bogus"])], grid32,
                              [2, 4], [2.0], COEFFS)

    def test_horizon_mismatch_rejected(self, grid32, dirichlet_traj):
        with pytest.raises(FunctionalError):
            report(dirichlet_traj, CarlemanParams(lam=2, mu=2, T=2.0), grid32)

    @pytest.mark.parametrize("variant", ["interior", "boundary"])
    def test_cells_refused_on_disk(self, disk_grid, variant, monkeypatch):
        # the Carleman cells run on the unit square only, for either family:
        # both entry points raise before a slice is read or weighed
        def weighed(*_):
            raise AssertionError("a slice was weighed")

        monkeypatch.setattr(functionals, "_slice_sums", weighed)
        slices = iter([np.zeros((1,) + disk_grid.X1.shape, dtype=complex)])
        with pytest.raises(FunctionalError, match="unit_square only"):
            lambda_scan(slices, [[variant]], disk_grid, [2, 4], [2.0], COEFFS)
        assert next(slices, None) is not None
        zeros = np.zeros((disk_grid.nt - 1,) + disk_grid.X1.shape)
        data = TrajectoryData(**{f.name: zeros for f in fields(TrajectoryData)})
        params = CarlemanParams(lam=2, mu=1.5, T=1.0, family=VARIANT_FAMILY[variant])
        with pytest.raises(FunctionalError, match="unit_square only"):
            evaluate_cell(data, weight_tables(params, disk_grid), disk_grid)


class TestScan:
    def test_ratios_positive_and_stabilization(self, grid32, dirichlet_traj):
        (scan,) = scan_trajectories([(dirichlet_traj, ["interior"])], grid32,
                                    [2, 4, 8, 16], [2.0], COEFFS)
        scan = scan["interior"]
        for rep in scan.reports:
            assert rep.ratio > 0
        assert scan.stabilization_lambda[2.0] is not None

    def test_members_without_variants(self, grid32, dirichlet_traj):
        # nothing to scan: no trajectory is prepared
        assert scan_trajectories([], grid32, [2, 4], [2.0], COEFFS) == []
        assert scan_trajectories([(dirichlet_traj, [])], grid32, [2, 4], [2.0],
                                 COEFFS) == [{}]

    def test_rejects_nonzero_dirichlet_trace(self, grid32, dirichlet_traj,
                                             neumann_traj, monkeypatch):
        # a Neumann trajectory's trace is not zero: as a member of the
        # boundary family it is rejected, before any report is built, with
        # the number nonzero_trace reads off the whole trajectory, though
        # the scan sees its slices one at a time; as an interior-only
        # member it passes
        checked, built = [], []
        check, cell_reports = functionals._check_trace, functionals._cell_reports
        monkeypatch.setattr(functionals, "_check_trace",
                            lambda err: checked.append(err) or check(err))
        monkeypatch.setattr(functionals, "_cell_reports",
                            lambda *a: built.append(a) or cell_reports(*a))
        breach = nonzero_trace(neumann_traj, grid32)
        assert breach > 0
        with pytest.raises(FunctionalError, match=re.escape(f"Gamma = {breach:.3e})")):
            scan_trajectories([(dirichlet_traj, ["interior", "boundary"]),
                               (neumann_traj, ["boundary"])],
                              grid32, [2, 4], [2.0], COEFFS)
        assert checked == [0.0, breach]
        assert built == []
        scans = scan_trajectories([(dirichlet_traj, ["interior", "boundary"]),
                                   (neumann_traj, ["interior"])],
                                  grid32, [2, 4], [2.0], COEFFS)
        assert [list(member) for member in scans] \
            == [["interior", "boundary"], ["interior"]]

    @pytest.mark.parametrize("slices", [
        lambda Y: iter(Y[:-1, None]), lambda Y: iter(np.concatenate([Y, Y])[:, None]),
        lambda Y: iter(Y[:, None, 1:])], ids=["too-few", "too-many", "wrong-shape"])
    def test_slices_must_cover_the_grid(self, grid32, dirichlet_traj, slices):
        with pytest.raises(GridError, match="nt\\+1 = 33 arrays"):
            lambda_scan(slices(dirichlet_traj), [["interior"]], grid32, [2, 4], [2.0],
                        COEFFS)

    def test_zero_trajectory_degenerate_cells(self, grid32):
        Y = np.zeros((33, 33, 33), dtype=complex)
        (scan,) = scan_trajectories([(Y, ["interior"])], grid32, [2, 4], [2.0],
                                    COEFFS)
        scan = scan["interior"]
        assert all(r.degenerate for r in scan.reports)
        assert scan.stabilization_lambda[2.0] is None

    def test_suite_worst_constant(self, grid32, dirichlet_traj, neumann_traj):
        scans = [m["interior"] for m in scan_trajectories(
            [(Y, ["interior"]) for Y in (dirichlet_traj, neumann_traj)], grid32,
            [8, 16], [2.0], COEFFS)]
        c16 = suite_worst_constant(scans, 16.0, 2.0)
        assert np.isfinite(c16) and c16 > 0
        per_traj = [s.reports[-1].lhs_total / s.reports[-1].rhs_total
                    for s in scans]
        assert c16 == pytest.approx(max(per_traj))

    def test_empirical_carleman_single_constant(self, grid32, dirichlet_traj,
                                                neumann_traj):
        # one C_emp covers the whole (small) suite past stabilization
        scans = [m["interior"] for m in scan_trajectories(
            [(Y, ["interior"]) for Y in (dirichlet_traj, neumann_traj)], grid32,
            [8, 16, 32], [2.0], COEFFS)]
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
            == log_theta2(tables).max()

    def test_flush_to_zero(self):
        # weight arguments in (-745, -700] would be subnormal: they flush to
        # 0, and so does nan
        assert np.exp(-720.0) > 0
        arg = np.array([-720.0, FLUSH_LOG, -699.5, np.nan, 0.0])
        assert _flush_exp(arg).tolist() == [0.0, 0.0, np.exp(-699.5), 0.0, 1.0]

    def test_zero_slice_adds_nothing(self, grid32, rng):
        # an all-zero slice of g, where the weight is not, sums to exactly 0.0
        cell = _CellQuadrature(weight_tables(CarlemanParams(lam=2, mu=2, T=1.0),
                                             grid32), grid32)
        g = rng.random((31, 33, 33)) + 0.1
        g[15] = 0.0
        for p in (-1, 0, 3):
            term = Term("g", "lhs", frozenset(), "g", 0, 0, p, "Q")
            sums = per_slice(cell, term, g)
            assert row_live(cell, p)[15]
            assert sums[15] == 0.0 and np.all(np.delete(sums, 15) > 0)
            whole = integral(cell, g, p)
            g[15] = 1.0
            assert whole < integral(cell, g, p)
            g[15] = 0.0

    def test_matches_direct_product(self, grid32, rng):
        params = CarlemanParams(lam=2, mu=1.5, T=1.0)
        tables = weight_tables(params, grid32)
        cell = _CellQuadrature(tables, grid32)
        g = rng.random((31, 33, 33)) + 0.1
        theta2 = np.exp(log_theta2(tables) - cell.log_scale)
        for p in (-1, 0, 2):
            direct = theta2 * phi(tables) ** p * g
            expect = time_integral(np.sum(
                direct * grid32.space_weights, axis=(1, 2)), grid32)
            assert integral(cell, g, p) \
                == pytest.approx(expect, rel=1e-13)

    def test_volume_rows_sum_chunked_dots(self, grid32, rng, monkeypatch):
        # a row of at most DOT_CHUNK nodes (33^2 here) is one np.vecdot of
        # the flushed weight with g, bit for bit; a longer one (runs of 100
        # nodes here) sums its chunks in order, within the worst-case bound
        # n eps of a dot of positive terms, for every member and cell of a
        # pass
        quads = [_CellQuadrature(weight_tables(CarlemanParams(lam=lam, mu=2, T=1.0),
                                               grid32), grid32) for lam in (2, 4)]
        term = Term("g", "lhs", frozenset(), "g", 0, 0, 0, "Q")
        g = rng.random((2, 33, 33))
        for chunk in (DOT_CHUNK, 100):
            monkeypatch.setattr(functionals, "DOT_CHUNK", chunk)
            got = _slice_sums(quads, [term], {"g": g}, 15)[..., 0]
            for c, cell in enumerate(quads):
                w = flushed(full_tables(cell)[0][15]) * grid32.space_weights.ravel()
                for k in range(2):
                    gv = g[k].ravel()
                    dots = [np.vecdot(w[a:a + chunk], gv[a:a + chunk])
                            for a in range(0, w.size, chunk)]
                    assert got[k, c] == sum(dots[1:], dots[0])
                    assert got[k, c] == pytest.approx(
                        math.fsum((w * gv).tolist()), rel=w.size * np.finfo(float).eps)


@pytest.fixture(scope="module")
def disk32(disk_spec):
    return build_grid(disk_spec, 32, 32, 32, 1.0)


@pytest.mark.parametrize("lam, mu", [(2.0, 1.5), (64.0, 3.0)])
@pytest.mark.parametrize("grid, family", [("grid32", "j1_interior"),
                                          ("grid32", "j2_boundary"),
                                          ("disk32", "j1_interior")])
def test_slice_extremes_exact(request, grid, family, lam, mu):
    # the closed-form per-slice extremes are the full tables' bit for bit,
    # and each phi power's bound is formed from them
    grid = request.getfixturevalue(grid)
    tables = weight_tables(CarlemanParams(lam=lam, mu=mu, T=1.0, family=family),
                           grid)
    cell = _CellQuadrature(tables, grid)
    two_ell = log_theta2(tables)
    assert cell.log_scale == two_ell.max()
    assert np.array_equal(cell.bound[0], (two_ell - cell.log_scale).max(axis=(1, 2)))
    logphi = np.log(phi(tables))
    logphi_max = np.log(tables.exp_mu_psi.max() * tables.sigma)
    logphi_min = np.log(tables.exp_mu_psi.min() * tables.sigma)
    assert np.array_equal(logphi_max, logphi.max(axis=(1, 2)))
    assert np.array_equal(logphi_min, logphi.min(axis=(1, 2)))
    for p, bound in cell.bound.items():
        extreme = logphi_max if p > 0 else logphi_min
        assert np.array_equal(bound, cell.bound[0] + p * extreme if p else cell.bound[0])


def flushed_slices(cell, term, g):
    """Per-slice sums of one row on every interior time slice, none skipped:
    the weight theta^2 phi^p from the full tables, flushed below the window,
    times g."""
    logw, logphi = full_tables(cell)
    arg = term.phi_power * logphi + logw
    gv = g.reshape(arg.shape[0], -1)
    if term.region == "Sigma_0":
        vals = flushed(np.take(arg, cell.grid.boundary_nodes, axis=1)) * gv * cell.tables.b_dpsi_dnu
        return space_sums(vals, cell.grid.boundary_weights)
    w = flushed(arg) * cell.grid.space_weights.ravel()
    if term.region == "Q_omega":
        omega = np.flatnonzero(cell.grid.omega_mask)
        w, gv = np.take(w, omega, axis=1), np.take(gv, omega, axis=1)
    return np.vecdot(w, gv)


def region_weight(cell, term):
    """Sum of the moduli of a row's quadrature weights over one slice."""
    if term.region == "Sigma_0":
        return float(np.abs(cell.grid.boundary_weights).sum())
    wsp = cell.grid.space_weights.ravel()
    return float(wsp[cell.grid.omega_mask.ravel()].sum()
                 if term.region == "Q_omega" else wsp.sum())


SKIP_CELLS = {"j1-64-3": ("j1_interior", 64.0, 3.0),
              "j2-2-1.5": ("j2_boundary", 2.0, 1.5),
              "j2-64-3": ("j2_boundary", 64.0, 3.0)}


@pytest.fixture(scope="module")
def cell_calls(grid32, dirichlet_traj):
    """{cell: (quadrature, rows, raw integrals, data, per-slice sums,
    flushes)}: the `_slice_sums` calls of one evaluate_cell per cell, one
    per interior slice, with their (rows, slices) sums and the number of
    `_flush_exp` calls of each."""
    data = prepare_whole(dirichlet_traj, grid32, COEFFS)
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        slice_sums, flush = functionals._slice_sums, functionals._flush_exp
        calls, flushes = [], []

        def counted_slice_sums(quads, rows, at, s):
            before = len(flushes)
            sums = slice_sums(quads, rows, at, s)
            calls.append((quads, rows, sums[0, 0], len(flushes) - before))
            return sums

        mp.setattr(functionals, "_slice_sums", counted_slice_sums)
        mp.setattr(functionals, "_flush_exp",
                   lambda arg: flushes.append(arg.shape) or flush(arg))
        for name, (family, lam, mu) in SKIP_CELLS.items():
            calls.clear()
            params = CarlemanParams(lam=lam, mu=mu, T=1.0, family=family)
            evaluate_cell(data, weight_tables(params, grid32), grid32)
            ((cell,), rows), = {(tuple(q), tuple(r)) for q, r, *_ in calls}
            sums = np.stack([call[2] for call in calls], axis=1)
            out[name] = (cell, list(rows), [time_integral(r, grid32) for r in sums],
                         data, sums, [call[3] for call in calls])
    return out


@pytest.mark.parametrize("name", SKIP_CELLS)
class TestSliceSkip:
    def test_every_term_called(self, cell_calls, name):
        # 7 left-side terms, the two sources and the observations, on each
        # interior slice
        cell, rows, values, _, sums, _ = cell_calls[name]
        assert len(rows) == len(values) == (11 if name.startswith("j1") else 10)
        assert sums.shape == (len(rows), 31)

    def test_equals_sum_over_all_slices(self, cell_calls, name):
        # every slice evaluated, then the row's rule: the slices its weight's
        # bound drops add nothing
        cell, rows, values, data, *_ = cell_calls[name]
        for term, value in zip(rows, values):
            sums = flushed_slices(cell, term, getattr(data, term.integrand))
            live = row_live(cell, term.phi_power)
            assert value == time_integral(sums, cell.grid, live), term.name

    def test_skipped_slices_hold_exact_zeros(self, cell_calls, name):
        # a slice whose weight's bound is below the window holds exact
        # zeros, in the quadrature's sums and in every product of its weight
        cell, rows, _, data, got, _ = cell_calls[name]
        for term, row in zip(rows, got):
            dead = ~row_live(cell, term.phi_power)
            assert dead.any() and not row[dead].any(), term.name
            sums = flushed_slices(cell, term, getattr(data, term.integrand))
            assert not sums[dead].any(), term.name

    def test_products_below_the_window_are_summed(self, grid32, name):
        # g = e^-720 on the slice where theta^2 peaks: each product lies below
        # e^-700, but the slice's weight is not all zero, so it is summed
        family, lam, mu = SKIP_CELLS[name]
        cell = _CellQuadrature(weight_tables(CarlemanParams(
            lam=lam, mu=mu, T=1.0, family=family), grid32), grid32)
        k = int(np.argmax(cell.bound[0]))
        g = np.zeros((31, 33, 33))
        g[k] = np.exp(-720.0)
        term = Term("g", "lhs", frozenset(), "g", 0, 0, 0, "Q")
        sums = per_slice(cell, term, g)
        assert np.array_equal(sums, flushed_slices(cell, term, g))
        assert 0 < sums[k] <= np.exp(FLUSH_LOG) * region_weight(cell, term)
        assert not np.delete(sums, k).any()

    def test_one_exp_per_phi_power(self, cell_calls, name):
        # phi^-1 .. phi^3, plus the Sigma_0 weight for j2, on each slice
        assert max(cell_calls[name][-1]) <= (5 if name.startswith("j1") else 6)

    def test_slices_evaluated(self, cell_calls, name):
        weighed = np.count_nonzero(cell_calls[name][-1])
        assert weighed < 31          # every cell skips a slice
        if name == "j2-64-3":
            assert weighed <= 2

    def test_window_edge_kept(self, grid32, name):
        # g puts 2 ell + log g 1 below the window at each slice's peak: only
        # the phi power lifts the bound above it, and it must keep every slice
        # whose weight is not all zero
        family, lam, mu = SKIP_CELLS[name]
        cell = _CellQuadrature(weight_tables(CarlemanParams(
            lam=lam, mu=mu, T=1.0, family=family), grid32), grid32)
        # (0 on the slices whose g would overflow: their weights are all 0)
        log_g = FLUSH_LOG - 1.0 - cell.bound[0]
        g = np.broadcast_to(np.where(log_g < 700.0, np.exp(np.minimum(log_g, 700.0)),
                                     0.0)[:, None, None], (31, 33, 33))
        for p in (1, 2, 3):
            sums = flushed_slices(cell, TERMS[0]._replace(phi_power=p), g)
            assert sums.any()
            assert integral(cell, g, p) == time_integral(sums, cell.grid)


@pytest.mark.parametrize("family", ["j1_interior", "j2_boundary"])
def test_one_exp_per_phi_power_every_group_live(grid32, dirichlet_traj, family,
                                                 monkeypatch):
    # on the middle slice at mu = 1.5 every group of lambda = 2, 4 and 8 is
    # live: 11 and 10 rows, 5 and 6 exps for each pass, whether the three
    # cells are weighed in one pass or one by one
    data = prepare_whole(dirichlet_traj, grid32, COEFFS)
    at = {name: g[15:16] for name, g in vars(data).items()}
    quads = [_CellQuadrature(weight_tables(CarlemanParams(
        lam=lam, mu=1.5, T=1.0, family=family), grid32), grid32) for lam in (2, 4, 8)]
    rows = functionals._cell_rows(quads[0].tables.params, grid32)
    calls = []
    flush = functionals._flush_exp
    monkeypatch.setattr(functionals, "_flush_exp",
                        lambda arg: calls.append(arg.shape) or flush(arg))
    exps = 5 if family == "j1_interior" else 6
    sums = {}
    for cell_pass in (8, 1):
        calls.clear()
        monkeypatch.setattr(functionals, "CELL_PASS", cell_pass)
        sums[cell_pass] = _slice_sums(quads, rows, at, 15)
        # one exp per phi power of each pass, over the pass's cells
        passes = 1 if cell_pass == 8 else 3
        assert len(calls) == exps * passes
        assert {shape[0] for shape in calls} == {3 // passes}
    assert sums[8].all() and np.array_equal(sums[8], sums[1])


def log_form_row(cell, term, g):
    """One row as the log-form path took it: exp(2 ell - log_scale + log g
    + p log phi) flushed below the window as a product, the energy rows'
    1/(lam phi) inside the exponent, times the row's lam and mu powers."""
    logw, logphi = full_tables(cell)
    gv = g.reshape(logw.shape[0], -1)
    with np.errstate(divide="ignore"):
        logg = np.where(gv > 0, np.log(np.where(gv > 0, gv, 1.0)), -np.inf)
    params = cell.tables.params
    lam_power = term.lam_power
    if term.region == "Sigma_0":
        nodes = cell.grid.boundary_nodes
        vals = flushed(logw[:, nodes] + logg + logphi[:, nodes])
        per_t = (vals * cell.tables.b_dpsi_dnu) @ cell.grid.boundary_weights
    else:
        arg = logw + logg
        if term.phi_power > 0:
            arg += term.phi_power * logphi
        elif term.phi_power < 0:            # the 1/(lam phi) flag
            arg -= np.log(params.lam)
            arg -= logphi
            lam_power = 0
        wsp = cell.grid.space_weights.ravel() * (
            cell.grid.omega_mask.ravel() if term.region == "Q_omega" else 1.0)
        per_t = flushed(arg) @ wsp
    value = time_integral(per_t, cell.grid)
    return params.lam ** lam_power * params.mu ** term.mu_power * value


LOG_FORM_CELLS = [("grid32", family, lam, mu) for family, lam, mu in SKIP_CELLS.values()]


@pytest.mark.parametrize("where, family, lam, mu", LOG_FORM_CELLS)
def test_matches_log_form_reference(request, dirichlet_traj, where, family, lam, mu):
    # flushing the weight instead of the product theta^2 phi^p g moves each
    # row by at most 1e-12 relative, and no row gains or loses a zero
    grid, Y = request.getfixturevalue(where), dirichlet_traj
    data = prepare_whole(Y, grid, COEFFS)
    tables = weight_tables(CarlemanParams(lam=lam, mu=mu, T=1.0, family=family),
                           grid)
    reports = evaluate_cell(data, tables, grid)
    cell = _CellQuadrature(tables, grid)
    for variant, rep in reports.items():
        for term in TERMS:
            if variant not in term.variants:
                continue
            side = rep.lhs_breakdown if term.side == "lhs" else rep.rhs_breakdown
            value = side[term.name]
            expect = log_form_row(cell, term, getattr(data, term.integrand))
            assert (value == 0.0) == (expect == 0.0), (variant, term.name)
            assert value == pytest.approx(expect, rel=1e-12, abs=0.0), \
                (variant, term.name)


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
        two_ell = log_theta2(tables)
        k_mid = two_ell.shape[0] // 2
        iy_a, ix_a = 16, 16   # center, psi max
        iy_b, ix_b = 2, 2     # near-corner margin
        diff = two_ell[k_mid, iy_a, ix_a] - two_ell[k_mid, iy_b, ix_b]
        sig = tables.sigma[k_mid]
        expect = 2 * params.lam * sig * (tables.exp_mu_psi[iy_a, ix_a]
                                         - tables.exp_mu_psi[iy_b, ix_b])
        assert diff == pytest.approx(expect, rel=1e-12)
        assert diff > 0


# -- the streamed suite scan ----------------------------------------------------

SCAN_LAMBDAS = DEFAULTS["scan"]["lambdas"]
SCAN_MUS = DEFAULTS["scan"]["mus"]
J1_VARIANTS = [v for v in VARIANTS if VARIANT_FAMILY[v] == "j1_interior"]


def solved(grid, bc, seed):
    cfg = SolveConfig(b=COEFFS.b, c=COEFFS.c, bc=bc, scheme="imex_cn")
    y0 = random_initial_field(grid, seed=seed, amplitude=1.0, bc=bc)
    return solve(y0, cfg, grid).Y


@pytest.fixture(scope="module")
def suites16(square_spec):
    """{domain: (grid, [(Y, variants)])} on 16^3, the scan's one domain: on
    the square, a Dirichlet, a Neumann and a Dirichlet trajectory that is
    zero until T/2, whose rows are dead on slices where the others' are
    live."""
    square = build_grid(square_spec, 16, 16, 16, 1.0)
    y = solved(square, "dirichlet0", 1)
    late = y * (square.t_nodes > 0.5)[:, None, None]
    return {"square": (square, [(y, list(VARIANTS)),
                                (solved(square, "neumann0", 2), J1_VARIANTS),
                                (late, list(VARIANTS))])}


@pytest.mark.parametrize("cell_pass", [1, 3, 8])
@pytest.mark.parametrize("domain", ["square"])
def test_streamed_scan_equals_one_cell_per_trajectory(suites16, domain, cell_pass,
                                                      monkeypatch):
    # the scan, step by step, gives each trajectory the reports of one
    # evaluate_cell per cell on its whole time range, bit for bit, whether
    # the six lambda cells of a (family, mu) are weighed one by one, in
    # passes of three or in one pass
    grid, suite = suites16[domain]
    monkeypatch.setattr(functionals, "CELL_PASS", cell_pass)
    scans = scan_trajectories(suite, grid, SCAN_LAMBDAS, SCAN_MUS, COEFFS)
    assert len(scans) == len(suite)
    for (Y, variants), member in zip(suite, scans):
        assert list(member) == variants
        data = prepare_whole(Y, grid, COEFFS)
        expect = {v: [] for v in variants}
        for family in dict.fromkeys(VARIANT_FAMILY[v] for v in variants):
            for mu in SCAN_MUS:
                for lam in SCAN_LAMBDAS:
                    cell = evaluate_cell(data, weight_tables(CarlemanParams(
                        lam=lam, mu=mu, T=grid.T, family=family), grid), grid)
                    for v in expect.keys() & cell.keys():
                        expect[v].append(json.dumps(cell[v].as_row()))
        for v, scan in member.items():
            assert [json.dumps(r.as_row()) for r in scan.reports] == expect[v], v


@pytest.fixture(scope="module")
def batch_grids(square_spec):
    """Square grids of 16 steps: 17^2 and 97^2 nodes (97^2 is more than
    DOT_CHUNK nodes, so its volume rows sum two runs of dots)."""
    return {"square16": build_grid(square_spec, 16, 16, 16, 1.0),
            "square96": build_grid(square_spec, 96, 96, 16, 1.0)}


@pytest.mark.parametrize("cell_pass", [1, 3, 8])
@pytest.mark.parametrize("where, family", [("square16", "j1_interior"),
                                           ("square16", "j2_boundary"),
                                           ("square96", "j1_interior"),
                                           ("square96", "j2_boundary")])
def test_slice_sums_of_a_batch_are_each_cells_and_members(batch_grids, rng, monkeypatch,
                                                          where, family, cell_pass):
    # on every interior slice, the sums of three members and the six lambda
    # cells of a (family, mu) weighed together, in passes of cell_pass
    # cells, are those of each member and cell weighed alone, bit for bit,
    # dead slices and cells included.  For j1 the second lambda puts a
    # slice between its flush edges for phi^3 and phi^-1, so that the cells
    # live for phi^-1 there are not the first ones the pass weighs for
    # phi^3 (j2's weight is dead off the middle slice for every lambda > 1)
    grid = batch_grids[where]
    monkeypatch.setattr(functionals, "CELL_PASS", cell_pass)

    def quad(lam):
        return _CellQuadrature(weight_tables(CarlemanParams(
            lam=lam, mu=2.0, T=1.0, family=family), grid), grid)

    # 2 ell - log_scale is lam times a table of the slices
    two, edge = quad(2.0), 8.0
    if family == "j1_interior":
        logw = two.bound[0]
        edge, k = max((2.0 * (FLUSH_LOG + 5.0 - (two.bound[3][k] - logw[k])) / logw[k], k)
                      for k in range(grid.nt - 1) if logw[k])
    quads = [quad(lam) for lam in (64.0, edge, 2.0, 32.0, 4.0, 16.0)]
    if family == "j1_interior":
        assert quads[1].bound[3][k] > FLUSH_LOG >= quads[1].bound[-1][k]
    rows = functionals._cell_rows(quads[0].tables.params, grid)
    nodes = (3, 1, grid.ny + 1, grid.nx + 1)
    data = {t.integrand: rng.random((3, 1, len(grid.boundary_nodes))
                                    if t.region == "Sigma_0" else nodes)
            for t in rows}
    for s in range(grid.nt - 1):
        got = _slice_sums(quads, rows, data, s)
        assert got.shape == (3, len(quads), len(rows))
        for k in range(3):
            one = {name: g[k:k + 1] for name, g in data.items()}
            for c, quad in enumerate(quads):
                assert np.array_equal(got[k, c], _slice_sums([quad], rows, one, s)[0, 0])


@pytest.mark.parametrize("nt", [16, 17])
def test_scan_prepares_each_interior_node_once(square_spec, monkeypatch, nt):
    # one call per interior node t = 1 ... nt - 1, in order, with node t of
    # every member and its centred y_t = (y(t+1) - y(t-1)) / (2 dt), bit for
    # bit; the boundary member comes after the interior one
    grid = build_grid(square_spec, 16, 16, nt, 1.0)
    rng = np.random.default_rng(nt)
    Y = rng.random((nt + 1, 2, 17, 17)) + 1j * rng.random((nt + 1, 2, 17, 17))
    Y[:, 0, grid.boundary_mask] = 0.0
    calls = []
    prepare = functionals.prepare_trajectory
    monkeypatch.setattr(functionals, "prepare_trajectory", lambda y, yt, *a: calls.append(
        (y.copy(), yt.copy())) or prepare(y, yt, *a))
    lambda_scan(iter(Y), [["boundary"], ["interior"]], grid, [2, 4], [2.0], COEFFS)
    Y = Y[:, ::-1]
    assert len(calls) == nt - 1
    for t, (y, yt) in enumerate(calls, start=1):
        assert np.array_equal(y, Y[t])
        assert np.array_equal(yt, (Y[t + 1] - Y[t - 1]) / (2 * grid.dt))


def test_scan_checks_each_slice_once(square_spec, monkeypatch):
    # one check per slice as it arrives, nt + 1 in all; prepare_trajectory
    # trusts the nodes taken from them
    grid = build_grid(square_spec, 16, 16, 16, 1.0)
    slices = [t + np.zeros((2, 17, 17), dtype=complex) for t in range(17)]
    checked = []
    check = SpaceTimeGrid.check_field
    monkeypatch.setattr(SpaceTimeGrid, "check_field",
                        lambda g, f, *a: checked.append(f.copy()) or check(g, f, *a))
    lambda_scan(iter(slices), [["interior"], ["interior"]], grid, [2, 4], [2.0],
                COEFFS)
    assert len(checked) == grid.nt + 1
    assert all(np.array_equal(f, S) for f, S in zip(checked, slices))


def test_evaluate_cell_needs_every_interior_time(suites16):
    # the integrands of a run of times would be integrated as the first
    # slices of Q
    grid, ((Y, _), *_) = suites16["square"]
    run = prepare_whole(Y[:6], grid, COEFFS)
    with pytest.raises(FunctionalError, match="every interior time"):
        evaluate_cell(run, weight_tables(CarlemanParams(lam=2, mu=2, T=1.0),
                                            grid), grid)


def scan16_calls(tmp_path, n_trajectories):
    """(weight_tables calls, _flush_exp calls) of a 16^3 seed-7
    carleman-scan of n_trajectories."""
    cfg = tmp_path / f"n{n_trajectories}.json"
    cfg.write_text(json.dumps({"scan": {"n_trajectories": n_trajectories}}))
    tables, flushes = [], []
    weight, flush = functionals.weight_tables, functionals._flush_exp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "weight_tables",
                   lambda *a: tables.append(a) or weight(*a))
        mp.setattr(functionals, "_flush_exp",
                   lambda arg: flushes.append(arg.shape) or flush(arg))
        rc = cli.main(["--config", str(cfg), "--grid", "16", "--seed", "7",
                       "--output-dir", str(tmp_path / f"out{n_trajectories}"),
                       "carleman-scan"])
    assert rc in (0, 1)
    return len(tables), len(flushes)


def test_scan_weights_once_per_family_and_mu_for_the_suite(tmp_path):
    # 2 families x 3 mu: 6 weight tables for the five trajectories and the
    # 6 lambda, not one per cell (36) nor per trajectory and cell (144), and
    # each (family, mu) flushes its weights once per step and pass however
    # many trajectories use them; the preflight (overflowing_cells)
    # tabulates as many again
    one, five = scan16_calls(tmp_path, 1), scan16_calls(tmp_path, 5)
    assert five[0] == one[0] == 2 * (2 * len(SCAN_MUS)) == 12
    assert five[1] == one[1] > 0
