import json
import math

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from glcarleman import solver
from glcarleman.fields import manufactured_reference, random_initial_field
from glcarleman.grid import GridError, build_grid, integrate_q, laplacian
from glcarleman.gloperator import derive_coeffs
from glcarleman.solver import (SolveConfig, _cubic_flow, _factorized, _LinearOps,
                               _stencil_matrix, build_linear_ops, energy_balance,
                               grid_source, load_trajectory, march, save_trajectory,
                               solve)
from support import PolyAtom, apply_F, cubic_flow_formula, stencil_product_substep


def cubic_ode_exact(a, c, t):
    """Exact solution of y' = -(1+ic)|y|^2 y with y(0) = a."""
    m = 1.0 + 2.0 * abs(a) ** 2 * t
    return a * m ** (-0.5) * np.exp(-0.5j * c * np.log(m))


def unknown_field(g, ops, x):
    """The grid fields (m, ny+1, nx+1) of a stack of columns (unknowns, m)."""
    y = np.zeros((x.shape[1],) + g.X1.shape, dtype=complex)
    y[:, ops.unknown_mask] = x.T
    return y


class TestLinearOps:
    @pytest.mark.parametrize("grid_name, bc", [("grid32", "dirichlet0"),
                                               ("grid32", "neumann0"),
                                               ("disk_grid", "dirichlet0")])
    def test_matrix_matches_stencil(self, request, grid_name, bc):
        # the implicit substep inverts I - kappa L for the stencil Laplacian
        # the energy balance and the functionals use, on fields that vanish
        # off the unknowns: spectrally on the square, by its LU on the disk
        g = request.getfixturevalue(grid_name)
        ops = build_linear_ops(g, bc)
        rng = np.random.default_rng(5)
        k = np.count_nonzero(ops.unknown_mask)

        def stack():
            return rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))

        def apply(kappa, sign, x):      # (I + sign kappa laplacian) x
            y = unknown_field(g, ops, x)
            return (y + sign * kappa * laplacian(y, g, bc))[:, ops.unknown_mask].T

        def close(got, want):
            return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        # a whole substep, and the substeps after one and two halvings
        for tau in (g.dt, 0.5 * g.dt, 0.25 * g.dt):
            kappa = tau * 0.5 * (1.0 + 0.4j)
            v = stack()
            # march hands a sourceless substep the source 0.0 at both ends
            for source, f0, f1 in ((None, 0.0, 0.0),
                                   (lambda t: 0.0, stack(), stack())):
                cfg = SolveConfig(b=0.4, bc=bc, source=source)
                x = ops.substep(tau, cfg)(v, f0, f1)
                shift = 0.5 * tau * (f0 + f1)
                assert close(apply(kappa, -1, x), apply(kappa, 1, v) + shift)

    @pytest.mark.parametrize("bc", ["dirichlet0", "neumann0"])
    @pytest.mark.parametrize("sourced", [False, True], ids=["flow", "sourced"])
    def test_exp_strang_is_the_exact_linear_flow(self, square_spec, bc, sourced):
        # exp_strang's substep is the flow of y' = (1+ib) L y + f over tau,
        # exact for a source f linear in time from f0 to f1: with A = (1+ib) L
        # and r = t / tau, the exponential of the augmented matrix
        # [[tau A, tau f0, tau (f1 - f0)], [0, 0, 0], [0, 1, 0]] carries (v, 1, 0)
        # to (y(tau), 1, 1); the neumann0 mode lam = 0 takes phi1 and phi2
        # from their series, as does every mode at the short tau
        import scipy.linalg as sla

        g = build_grid(square_spec, 16, 16, 16, 1.0)
        ops = build_linear_ops(g, bc)
        idx = np.flatnonzero(ops.unknown_mask)
        A = (1.0 + 0.4j) * _stencil_matrix(g, bc)[idx][:, idx].toarray()
        rng = np.random.default_rng(8)
        v, f0, f1 = (rng.standard_normal((len(idx), 1))
                     + 1j * rng.standard_normal((len(idx), 1)) for _ in range(3))
        if not sourced:
            f0 = f1 = np.zeros_like(v)
        cfg = SolveConfig(b=0.4, bc=bc, scheme="exp_strang",
                          source=(lambda t: 0.0) if sourced else None)
        for tau in (g.dt, 1e-6 * g.dt):
            aug = np.zeros((len(idx) + 2,) * 2, dtype=complex)
            aug[:-2, :-2] = tau * A
            aug[:-2, -2:] = tau * np.hstack([f0, f1 - f0])
            aug[-1, -2] = 1.0
            want = (sla.expm(aug) @ np.concatenate([v, [[1.0], [0.0]]]))[:-2]
            got = ops.substep(tau, cfg)(v, f0, f1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_exp_strang_refused_on_the_disk(self, disk_grid, monkeypatch):
        # the disk has no transform basis: the scheme is refused before the
        # LU is built, so march raises before it yields t_0
        def no_lu(*_):
            raise AssertionError("factorised")

        monkeypatch.setattr(solver, "_factorized", no_lu)
        y0 = np.zeros_like(disk_grid.X1, dtype=complex)
        with pytest.raises(GridError, match="unit_square only"):
            next(march(y0[None], SolveConfig(scheme="exp_strang"), disk_grid))


    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("members, sourced", [(1, False), (8, False), (1, True)],
                             ids=["one", "eight", "one-sourced"])
    def test_disk_substep_is_the_stencil_product_map(self, disk_spec, n, members,
                                                     sourced):
        # (I - kappa L)^{-1} (2 v + s) - v is the Crank-Nicolson map with no
        # stencil product; 8 members take over 256 KiB on either grid
        g = build_grid(disk_spec, n, n, 16, 1.0)
        ops = build_linear_ops(g, "dirichlet0")
        v = np.stack([random_initial_field(g, seed=s, amplitude=1.0, bc="dirichlet0")
                      for s in range(members)])[:, ops.unknown_mask].T
        s = 0.0
        if sourced:
            s = g.dt * random_initial_field(g, seed=99, amplitude=1.0,
                                            bc="dirichlet0")[ops.unknown_mask][:, None]
        kappa = 0.5 * g.dt * (1.0 + 0.3j)
        cfg = SolveConfig(b=0.3, source=(lambda t: 0.0) if sourced else None)
        # a source constant over the substep, f0 = f1 = s / dt
        got = ops.substep(g.dt, cfg)(v, s / g.dt, s / g.dt)
        want = stencil_product_substep(ops, kappa)(v, s)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def fresh_grid(request, spec_name, n=32, nt=32):
    return build_grid(request.getfixturevalue(spec_name), n, n, nt, 1.0)


def pivoting_lu_grid(request, monkeypatch, spec_name, bc, nt):
    """A fresh grid whose solver takes scipy's default LU (COLAMD, partial
    pivoting) of the stencil matrix, probed off ``laplacian``, on either
    domain; returns it with the list of the factorised shapes."""
    g = fresh_grid(request, spec_name, nt=nt)
    mask = g.interior_mask if bc == "dirichlet0" else g.active_mask
    idx = np.flatnonzero(mask)
    ops = _LinearOps(mask, L=_stencil_matrix(g, bc)[idx][:, idx])
    default_ops = solver.build_linear_ops

    def pivoting_ops(grid, grid_bc):
        return ops if grid is g and grid_bc == bc else default_ops(grid, grid_bc)

    monkeypatch.setattr(solver, "build_linear_ops", pivoting_ops)
    default_splu, calls = spla.splu, []

    def pivoting_splu(A, **_):
        calls.append(A.shape)
        return default_splu(A)

    monkeypatch.setattr(spla, "splu", pivoting_splu)
    return g, calls


DISK_BC = [("disk_spec", "dirichlet0")]
DOMAIN_BCS = [("square_spec", "dirichlet0"), ("square_spec", "neumann0")] + DISK_BC


class TestFactorization:
    @pytest.mark.parametrize("spec_name, bc", DISK_BC)
    def test_lu_solves_without_row_swaps(self, request, spec_name, bc):
        g = fresh_grid(request, spec_name)
        ops = build_linear_ops(g, bc)
        n = ops.L.shape[0]
        # the rows of L that make I - kappa L diagonally dominant
        d = ops.L.diagonal()
        off = np.asarray(abs(ops.L).sum(axis=1)).ravel() - np.abs(d)
        assert np.all(d < 0) and np.all(off <= (1 + 1e-12) * np.abs(d))
        kb = 1.0 + 0.4j
        rng = np.random.default_rng(11)
        # the substep's kappa, twice it, and its value after one halving
        for kappa in (0.5 * g.dt * kb, g.dt * kb, 0.25 * g.dt * kb):
            A = sps.identity(n, dtype=complex, format="csc") - kappa * ops.L
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = _factorized(ops, kappa)(b)
            assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)
            lu = _factorized(ops, kappa).__self__
            assert np.array_equal(lu.perm_r, lu.perm_c)

    @pytest.mark.parametrize("spec_name, bc", DISK_BC)
    def test_lu_fill_below_default_ordering(self, request, spec_name, bc):
        # minimum degree on A + A^T against COLAMD with partial pivoting; the
        # gap grows with the grid (0.63-0.71 of the default fill at 32^2,
        # 0.53-0.56 at 128^2, the benchmark's size)
        g = fresh_grid(request, spec_name, n=128, nt=16)
        ops = build_linear_ops(g, bc)
        kappa = 0.5 * g.dt * (1.0 + 0.4j)
        lu = _factorized(ops, kappa).__self__
        A = sps.identity(ops.L.shape[0], dtype=complex, format="csc") - kappa * ops.L
        ref = spla.splu(A.tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (ref.L.nnz + ref.U.nnz)

    @pytest.mark.parametrize("spec_name, bc, scheme, amplitude", [
        (spec_name, bc, "imex_cn", 1.0) for spec_name, bc in DOMAIN_BCS] + [
        ("square_spec", "dirichlet0", "imex_cn", 8.0)])
    def test_trajectories_match_pivoting_lu(self, request, monkeypatch,
                                            spec_name, bc, scheme, amplitude):
        # the square's spectral solve and the disk's minimum-degree LU
        # against a pivoting LU of the same stencil matrix
        cfg = SolveConfig(b=0.4, c=-1.3, bc=bc, scheme=scheme)
        g = fresh_grid(request, spec_name, nt=16)
        y0 = random_initial_field(g, seed=4, amplitude=amplitude, bc=bc)
        res = solve(y0, cfg, g)
        assert (res.substeps.max() > 1) == (amplitude > 1)
        ref_grid, calls = pivoting_lu_grid(request, monkeypatch, spec_name, bc, 16)
        ref = solve(y0, cfg, ref_grid)
        assert len(calls) == len(set(res.substeps))
        assert np.array_equal(ref.substeps, res.substeps)
        assert np.abs(res.Y - ref.Y).max() <= 1e-12 * np.abs(ref.Y).max()

    @pytest.mark.parametrize("scheme", ["imex_cn"])
    def test_sourced_trajectory_matches_pivoting_lu(self, request, monkeypatch,
                                                    scheme):
        # the manufactured source takes the square's resolvent on its own,
        # beside the Cayley factor of the state
        coeffs = derive_coeffs(0.3, 0.4)
        field = manufactured_reference()
        g = fresh_grid(request, "square_spec", nt=16)
        y0 = field.sample(g, times=np.array([0.0]))[0]

        def run(grid):
            cfg = SolveConfig(b=coeffs.b, c=coeffs.c, scheme=scheme,
                              source=grid_source(field, grid, coeffs))
            return solve(y0, cfg, grid).Y

        Y = run(g)
        ref_grid, calls = pivoting_lu_grid(request, monkeypatch, "square_spec",
                                           "dirichlet0", 16)
        ref = run(ref_grid)
        assert calls
        assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max()


class TestCubicFlow:
    @pytest.mark.parametrize("c", [0.0, 0.4, -1.3])
    def test_matches_closed_form_and_contracts(self, rng, c):
        y = np.concatenate([
            [0.0],
            rng.standard_normal(500) + 1j * rng.standard_normal(500),
            1e3 * np.exp(2j * np.pi * rng.uniform(size=50)),
        ])
        for tau in (1e-3, 0.05, 0.5):
            want = cubic_ode_exact(y, c, tau)
            got = _cubic_flow(y, tau, c)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
            assert np.all(np.abs(got) <= np.abs(y))

    @pytest.mark.parametrize("c", [0.0, 0.4, -1.3])
    @pytest.mark.parametrize("unknowns", [300, 20000])
    def test_is_the_formula_bit_for_bit(self, rng, c, unknowns):
        # the flow writes its temporaries in place, in the formula's order
        # of operations; 20000 x 4 columns make temporaries of over 256 KiB,
        # which numpy reuses in place when it evaluates the formula
        stack = rng.standard_normal((unknowns, 4)) + 1j * rng.standard_normal((unknowns, 4))
        stack[0] = 0.0
        stack[1] *= 1e3
        for y in (stack, np.asfortranarray(stack), stack[:, 2]):
            for tau in (1e-3, 0.05, 0.5):
                assert np.array_equal(_cubic_flow(y, tau, c),
                                      cubic_flow_formula(y, tau, c))

    def test_f_ordered_stack_equals_its_c_ordered_copy(self, rng):
        # march hands the flow F-ordered (unknowns, m) stacks; the flow's
        # temporaries take y's layout, and the values do not depend on it
        stack = np.asfortranarray(rng.standard_normal((12849, 4))
                                  + 1j * rng.standard_normal((12849, 4)))
        for tau in (1e-3, 0.5):
            assert np.array_equal(_cubic_flow(stack, tau, 0.4),
                                  _cubic_flow(np.ascontiguousarray(stack), tau, 0.4))


class TestStepBasics:
    def test_zero_stays_zero(self, grid32):
        cfg = SolveConfig(b=0.2, c=0.1, bc="dirichlet0", scheme="imex_cn")
        y = solve(np.zeros((33, 33), dtype=complex), cfg, grid32).Y[1]
        assert np.abs(y).max() == 0.0

    def test_nonfinite_state_rejected(self, grid32):
        cfg = SolveConfig(bc="dirichlet0")
        bad = np.full((33, 33), np.nan, dtype=complex)
        with pytest.raises(GridError):
            solve(bad, cfg, grid32)


class TestConstantDataODE:
    @pytest.mark.parametrize("b", [0.0, 0.7])
    def test_cn_matches_exact_flow(self, square_spec, b):
        # spatially constant data: the linear substep is trivial and the
        # Strang cubic flow is exact, so CN reproduces the ODE to round-off
        a = 1.3
        g = build_grid(square_spec, 16, 16, 100, 1.0)
        cfg = SolveConfig(b=b, c=0.0, bc="neumann0", scheme="imex_cn")
        res = solve(np.full((17, 17), a, dtype=complex), cfg, g)
        exact = a / np.sqrt(1 + 2 * a * a)
        assert abs(res.Y[-1, 8, 8] - exact) < 1e-12

    def test_cn_exact_with_phase(self, square_spec):
        a = 0.9 + 0.4j
        c = 0.8
        g = build_grid(square_spec, 16, 16, 64, 1.0)
        cfg = SolveConfig(b=0.3, c=c, bc="neumann0", scheme="imex_cn")
        res = solve(np.full((17, 17), a, dtype=complex), cfg, g)
        assert abs(res.Y[-1, 8, 8] - cubic_ode_exact(a, c, 1.0)) < 1e-12

    def test_exp_strang_matches_exact_flow(self, square_spec):
        # the constant mode lam = 0 takes phi1 and phi2 from their series,
        # and its exact flow is the identity, so the exact cubic flow is all
        a = 0.9 + 0.4j
        g = build_grid(square_spec, 16, 16, 64, 1.0)
        for b, c in ((0.7, 0.0), (0.3, 0.8)):
            cfg = SolveConfig(b=b, c=c, bc="neumann0", scheme="exp_strang")
            res = solve(np.full((17, 17), a, dtype=complex), cfg, g)
            assert abs(res.Y[-1, 8, 8] - cubic_ode_exact(a, c, 1.0)) < 1e-12

    def test_modulus_independent_of_b(self, square_spec):
        a = 1.1
        g = build_grid(square_spec, 16, 16, 50, 1.0)
        mods = []
        for b in (0.0, 0.5, -0.8):
            cfg = SolveConfig(b=b, c=0.3, bc="neumann0", scheme="imex_cn")
            res = solve(np.full((17, 17), a, dtype=complex), cfg, g)
            mods.append(abs(res.Y[-1, 8, 8]))
        assert max(mods) - min(mods) < 1e-12


class TestManufactured:
    def test_spatial_second_order(self, square_spec):
        coeffs = derive_coeffs(0.3, 0.4)
        ref = manufactured_reference()
        errs = []
        for n in (32, 64):
            g = build_grid(square_spec, n, n, n, 0.5)
            cfg = SolveConfig(b=coeffs.b, c=coeffs.c, bc="dirichlet0",
                              scheme="imex_cn", source=grid_source(ref, g, coeffs))
            y0 = ref.sample(g, times=np.array([0.0]))[0]
            Y = solve(y0, cfg, g).Y
            exact = ref.sample(g)
            errs.append(math.sqrt(integrate_q(np.abs(Y - exact) ** 2, g)))
        order = math.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2

    def test_exp_strang_matches_cn_error(self, square_spec):
        # the phi-function rule keeps the manufactured error within 10% of
        # Crank-Nicolson's (3% measured: 2.189e-4 and 5.537e-5 against
        # 2.152e-4 and 5.375e-5), at second order
        coeffs = derive_coeffs(0.3, 0.4)
        ref = manufactured_reference()
        errs = {}
        for scheme in ("imex_cn", "exp_strang"):
            for n in (32, 64):
                g = build_grid(square_spec, n, n, n, 0.5)
                cfg = SolveConfig(b=coeffs.b, c=coeffs.c, scheme=scheme,
                                  source=grid_source(ref, g, coeffs))
                Y = solve(ref.sample(g, times=np.array([0.0]))[0], cfg, g).Y
                err2 = integrate_q(np.abs(Y - ref.sample(g)) ** 2, g)
                errs[scheme, n] = math.sqrt(err2)
        for n in (32, 64):
            assert errs["exp_strang", n] <= 1.1 * errs["imex_cn", n]
        order = math.log2(errs["exp_strang", 32] / errs["exp_strang", 64])
        assert 1.8 <= order <= 2.2

    def test_solver_operator_consistency(self, square_spec):
        # an exactly solved trajectory has small F-residual, decreasing
        # under joint (h, dt) refinement at order >= 1.8
        coeffs = derive_coeffs(0.0, 0.0)
        resid = []
        for n in (32, 64):
            g = build_grid(square_spec, n, n, n, 0.5)
            cfg = SolveConfig(b=0.0, c=0.0, bc="dirichlet0", scheme="imex_cn")
            y0 = 0.8 * np.sin(np.pi * g.X1) * np.sin(np.pi * g.X2) * (1 + 0.5j)
            Y = solve(y0, cfg, g).Y
            F = apply_F(Y, g, coeffs)
            fsq = np.abs(F) ** 2
            fsq[:, ~g.interior_mask] = 0.0
            resid.append(math.sqrt(integrate_q(fsq, g)))
        order = math.log2(resid[0] / resid[1])
        assert order >= 1.8


class TestDissipationAndEnergy:
    def test_l2_monotone_dirichlet(self, grid64):
        cfg = SolveConfig(b=0.0, c=0.0, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid64, seed=3, amplitude=1.0, bc="dirichlet0")
        res = solve(y0, cfg, grid64)
        d = np.diff(res.l2_norms)
        assert np.all(d <= 1e-8 * res.l2_norms[:-1])
        assert res.l2_norms[-1] < res.l2_norms[0]

    def test_l2_monotone_neumann_nonzero_bc(self, grid64):
        cfg = SolveConfig(b=0.3, c=0.4, bc="neumann0", scheme="imex_cn")
        y0 = random_initial_field(grid64, seed=6, amplitude=1.2, bc="neumann0")
        res = solve(y0, cfg, grid64)
        assert np.all(np.diff(res.l2_norms) <= 1e-8 * res.l2_norms[:-1])

    @pytest.mark.parametrize("bc", ["dirichlet0", "neumann0"])
    def test_exp_strang_l2_monotone(self, grid64, bc):
        # |e^{tau (1+ib) lam}| <= 1 for lam <= 0, and the cubic flow contracts
        cfg = SolveConfig(b=0.3, c=0.4, bc=bc, scheme="exp_strang")
        y0 = random_initial_field(grid64, seed=6, amplitude=1.2, bc=bc)
        res = solve(y0, cfg, grid64)
        assert np.all(np.diff(res.l2_norms) <= 1e-8 * res.l2_norms[:-1])
        assert res.l2_norms[-1] < res.l2_norms[0]

    def test_exp_strang_linear_flow_exact_in_time(self, square_spec):
        # at amplitude 1e-8 the cubic term is negligible, so the exact flow
        # leaves no time error: 16 and 256 steps agree at their shared times
        # to 6.4e-18 of the data's peak (Crank-Nicolson's: 0.61; at
        # amplitude 1 the splitting's error shows, 2.9e-4).  Against each
        # time's own peak they drift to 5e-4 by t = 1, through rounding in
        # the slowest mode, which these data do not excite
        cfg = SolveConfig(b=0.3, c=0.4, scheme="exp_strang")
        Y = {}
        for nt in (16, 256):
            g = build_grid(square_spec, 32, 32, nt, 1.0)
            y0 = random_initial_field(g, seed=3, amplitude=1e-8, bc="dirichlet0")
            Y[nt] = solve(y0, cfg, g).Y
        coarse, fine = Y[16], Y[256][::16]
        assert np.abs(coarse - fine).max() <= 1e-10 * np.abs(fine).max()

    def test_zero_trajectory_zero_residual(self, grid32):
        bal = energy_balance(np.zeros((33, 33, 33), dtype=complex), grid32,
                             SolveConfig())
        assert np.abs(bal).max() == 0.0

    def test_energy_residual_small_at_default_grid(self, grid64):
        cfg = SolveConfig(b=0.0, c=0.0, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid64, seed=3, amplitude=1.0, bc="dirichlet0")
        res = solve(y0, cfg, grid64)
        assert energy_balance(res.Y, grid64, cfg).max() <= 1e-2

    @pytest.mark.parametrize("spec_name, n, nts, scheme, least", [
        pytest.param("square_spec", 64, (16, 64), "imex_cn", 1.8,
                     id="square-imex_cn"),
        pytest.param("disk_spec", 32, (32, 128), "imex_cn", 1.8,
                     id="disk-imex_cn"),
        # the midpoint law is not the exact flow's own, and its defect
        # nears order 2 only at finer steps: 0.84 at nt = 16 -> 64, 1.74 at
        # 64 -> 256 (0.74, 0.23, 0.021)
        pytest.param("square_spec", 64, (64, 256), "exp_strang", 1.6,
                     id="square-exp_strang"),
    ])
    def test_energy_residual_dt_order(self, request, spec_name, n, nts, scheme,
                                      least):
        # the residual pairs with the solver's own Laplacian, so it is a pure
        # time error on both domains and falls at the scheme's order
        spec = request.getfixturevalue(spec_name)
        cfg = SolveConfig(b=0.0, c=0.0, bc="dirichlet0", scheme=scheme)
        vals = []
        for nt in nts:
            g = build_grid(spec, n, n, nt, 1.0)
            y0 = random_initial_field(g, seed=3, amplitude=1.0, bc="dirichlet0")
            vals.append(energy_balance(solve(y0, cfg, g).Y, g, cfg).max())
        order = math.log2(vals[0] / vals[1]) / math.log2(nts[1] / nts[0])
        assert order >= least


class TestAdaptivity:
    def test_halving_engages_and_stays_finite(self, square_spec):
        g = build_grid(square_spec, 32, 32, 16, 1.0)
        cfg = SolveConfig(b=0.2, c=0.1, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(g, seed=8, amplitude=8.0, bc="dirichlet0")
        res = solve(y0, cfg, g)
        assert res.substeps.max() > 1
        assert np.all(np.isfinite(res.Y))

    @pytest.mark.parametrize("amplitude", [200.0, 1e200])
    def test_unreachable_stiffness_cap_raises(self, square_spec, amplitude):
        # a peak whose square overflows a double is as out of reach as one
        # whose square is merely large
        g = build_grid(square_spec, 16, 16, 16, 1.0)
        y0 = random_initial_field(g, seed=8, amplitude=amplitude, bc="dirichlet0")
        with pytest.raises(solver.SolverError, match="stiffness cap not reachable"):
            solve(y0, SolveConfig(b=0.2, c=0.1), g)

    def test_source_sampled_once_per_time(self, square_spec):
        # each substep's end value is carried to the next substep
        g = build_grid(square_spec, 32, 32, 16, 1.0)
        times = []

        def source(t):
            times.append(t)
            return np.zeros((33, 33), dtype=complex)

        for scheme in ("imex_cn", "exp_strang"):
            times.clear()
            cfg = SolveConfig(b=0.2, c=0.1, scheme=scheme, source=source)
            y0 = random_initial_field(g, seed=8, amplitude=8.0, bc="dirichlet0")
            res = solve(y0, cfg, g)
            assert res.substeps.max() > 1
            assert len(times) == len(set(times)) == res.substeps.sum() + 1

    def test_conjugation_symmetry(self, square_spec):
        g = build_grid(square_spec, 16, 16, 16, 0.5)
        y0 = random_initial_field(g, seed=9, amplitude=1.0, bc="dirichlet0")
        a = solve(np.conj(y0), SolveConfig(b=0.3, c=0.4, bc="dirichlet0"), g).Y
        b = np.conj(solve(y0, SolveConfig(b=-0.3, c=-0.4, bc="dirichlet0"), g).Y)
        assert np.abs(a - b).max() < 1e-12


def assert_march_is_solo(Y0, cfg, grid):
    """A stack marched in lockstep gives each member its solo solve, bit for
    bit, on a stack whose members split over substep counts."""
    steps = list(march(Y0, cfg, grid))
    subs = np.array([step.substeps for step in steps[1:]])
    assert any(len(set(row)) > 1 for row in subs)
    for i, y0 in enumerate(Y0):
        res = solve(y0, cfg, grid)
        assert np.array_equal(np.stack([step.Y[i] for step in steps]), res.Y)
        assert np.array_equal(subs[:, i], res.substeps)


class TestMarch:
    @pytest.mark.parametrize("spec_name, scheme", [
        ("square_spec", "imex_cn"), ("disk_spec", "imex_cn"),
        ("square_spec", "exp_strang")])
    def test_stack_is_solo_solves(self, request, spec_name, scheme):
        # the amplitude-8 member needs halved substeps where the others do
        # not; the others' columns take over 256 KiB, where numpy starts to
        # reuse temporaries in place
        g = fresh_grid(request, spec_name, n=64, nt=16)
        cfg = SolveConfig(b=0.3, c=0.4, scheme=scheme)
        Y0 = np.stack([random_initial_field(g, seed=s, amplitude=a, bc="dirichlet0")
                       for s, a in enumerate((8.0, 1.0, 0.5, 2.0, 1.0, 0.25, 0.5, 1.5))])
        assert_march_is_solo(Y0, cfg, g)

    def test_dirichlet_slices_are_zero_on_the_boundary(self, square_spec):
        # march steps only the interior unknowns under dirichlet0, so every
        # slice it yields, t_0 included, holds exact zeros on the square's
        # boundary nodes, on members that take different substep counts;
        # the stability suite's boundary variant needs no trace check for it
        g = build_grid(square_spec, 32, 32, 16, 1.0)
        cfg = SolveConfig(b=0.2, c=0.1, bc="dirichlet0", scheme="imex_cn")
        Y0 = np.stack([random_initial_field(g, seed=8, amplitude=a, bc="neumann0")
                       for a in (1.0, 8.0)])
        assert np.abs(Y0[:, ~g.interior_mask]).min() > 0
        steps = list(march(Y0, cfg, g))
        assert any(len(set(step.substeps)) > 1 for step in steps[1:])
        assert all(np.all(step.Y[:, ~g.interior_mask] == 0.0) for step in steps)

    def test_stack_with_source_rejected(self, square_spec):
        # only the manufactured study takes a source, and it marches one
        # member: a sourced stack of more than one is refused before a step
        g = build_grid(square_spec, 32, 32, 16, 0.5)
        coeffs = derive_coeffs(0.3, 0.4)
        ref = manufactured_reference()
        cfg = SolveConfig(b=coeffs.b, c=coeffs.c, source=grid_source(ref, g, coeffs))
        y0 = ref.sample(g, times=np.array([0.0]))[0]
        with pytest.raises(GridError, match="one member only"):
            next(march(np.stack([y0, y0]), cfg, g))


def sample_source(field, grid, coeffs):
    """F y* from the solver's source callable, stacked over the time nodes."""
    src = grid_source(field, grid, coeffs)
    return np.stack([src(t) for t in grid.t_nodes])


class TestManufacturedSource:
    def test_time_independent_sine(self, grid32):
        # y* = sin(pi x1) sin(pi x2), b = c = 0: f = 2 pi^2 y* + |y*|^2 y*
        from glcarleman.fields import AnalyticField, Mode, SinAtom

        ystar = AnalyticField([Mode(1.0, PolyAtom((1.0,)), SinAtom(np.pi),
                                    SinAtom(np.pi))])
        coeffs = derive_coeffs(0.0, 0.0)
        f = sample_source(ystar, grid32, coeffs)
        base = np.sin(np.pi * grid32.X1) * np.sin(np.pi * grid32.X2)
        expect = 2 * np.pi ** 2 * base + base ** 3
        assert np.abs(f - expect[None]).max() < 1e-10

    def test_rotating_constant(self, grid32):
        # y* = a e^{it} (constant in space): f = (ia + (1+ic)|a|^2 a) e^{it}
        from glcarleman.fields import AnalyticField, ExpAtom, Mode

        a = 0.8 - 0.3j
        c = 0.4
        ystar = AnalyticField([Mode(a, ExpAtom(1j), PolyAtom((1.0,)),
                                    PolyAtom((1.0,)))],
                              check_times=(0.2, 0.8))
        coeffs = derive_coeffs(0.0, c)
        f = sample_source(ystar, grid32, coeffs)
        t = grid32.t_nodes[:, None, None]
        expect = (1j * a + (1 + 1j * c) * abs(a) ** 2 * a) * np.exp(1j * t) \
            * np.ones((1, 33, 33))
        assert np.abs(f - expect).max() < 1e-10


class TestZeroAndDisk:
    def test_zero_data_zero_trajectory(self, grid32):
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        res = solve(np.zeros((33, 33), dtype=complex), cfg, grid32)
        assert np.abs(res.Y).max() == 0.0

    def test_disk_dirichlet_dissipative(self, disk_grid):
        cfg = SolveConfig(b=0.2, c=0.3, bc="dirichlet0", scheme="imex_cn")
        y0 = (1 - disk_grid.X1 ** 2 - disk_grid.X2 ** 2) \
            * disk_grid.active_mask * (0.8 + 0.3j)
        res = solve(y0.astype(complex), cfg, disk_grid)
        assert np.all(np.isfinite(res.Y[:, disk_grid.active_mask]))
        assert np.all(np.diff(res.l2_norms) <= 1e-8 * res.l2_norms[:-1])
        assert np.abs(res.Y[:, ~disk_grid.active_mask]).max() == 0.0

    def test_disk_neumann_unsupported(self, disk_grid):
        cfg = SolveConfig(bc="neumann0")
        with pytest.raises(GridError):
            solve(np.zeros_like(disk_grid.X1, dtype=complex), cfg, disk_grid)

    def test_disk_has_no_neumann_rule(self, disk_grid):
        # the disk Laplacian has no neumann0 rule, so every caller fails
        Y = np.zeros((disk_grid.nt + 1,) + disk_grid.X1.shape, dtype=complex)
        calls = (lambda: laplacian(Y[0], disk_grid, "neumann0"),
                 lambda: apply_F(Y, disk_grid, derive_coeffs(0.3, 0.4), bc="neumann0"),
                 lambda: energy_balance(Y, disk_grid, SolveConfig(bc="neumann0")))
        for call in calls:
            with pytest.raises(GridError, match="neumann0"):
                call()
        # nor the one-sided ghost_from_field rule: dirichlet0 is its only one
        with pytest.raises(GridError, match="ghost_from_field"):
            laplacian(Y[0], disk_grid, "ghost_from_field")

    def test_failed_factorization_raises(self, disk_spec, monkeypatch,
                                         tmp_path, capsys):
        # I - kappa L is nonsingular on every admitted grid: a failing LU is
        # an error, not a switch to another solver
        from glcarleman.cli import main

        def broken_splu(*a, **k):
            raise RuntimeError("factorization disabled")

        monkeypatch.setattr(spla, "splu", broken_splu)
        g = build_grid(disk_spec, 16, 16, 16, 0.5)
        y0 = random_initial_field(g, seed=3, amplitude=0.5, bc="dirichlet0")
        with pytest.raises(RuntimeError, match="factorization disabled"):
            solve(y0, SolveConfig(b=0.1, c=0.2, bc="dirichlet0"), g)
        path = tmp_path / "disk.json"
        path.write_text(json.dumps({"domain": {
            "shape": "unit_disk", "omega_center": [0.0, 0.0], "omega_radius": 0.35}}))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--grid", "16", "--output-dir", str(out),
                     "solve"]) == 1
        err = capsys.readouterr().err
        assert "error: factorization disabled" in err
        assert "Traceback" not in err


class TestSerialization:
    def test_round_trip(self, square_spec, tmp_path):
        g = build_grid(square_spec, 16, 16, 16, 1.0)
        cfg = SolveConfig(bc="dirichlet0")
        y0 = random_initial_field(g, seed=1, amplitude=0.5, bc="dirichlet0")
        Y = solve(y0, cfg, g).Y
        path = tmp_path / "traj.bin"
        save_trajectory(path, Y, g)
        Y2, meta = load_trajectory(path)
        assert np.array_equal(Y, Y2)
        assert meta == {"shape": "unit_square", "nx": 16, "ny": 16,
                        "nt": 16, "T": 1.0}
