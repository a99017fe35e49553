import tracemalloc

import numpy as np
import pytest

from glcarleman.fields import random_initial_field
from glcarleman.grid import build_grid, integrate_q
from glcarleman.solver import SolveConfig, solve
from glcarleman.stability import (StabilityError, linf_l6_norm,
                                  perturbation_suite, prepare_difference,
                                  stability_boundary, stability_interior)


def c8(u, grid):
    """The conditional constant ||u||_{L^inf L^6}^8."""
    return linf_l6_norm(u, grid) ** 8


@pytest.fixture(scope="module")
def pair32(grid32):
    cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
    y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="dirichlet0")
    w = random_initial_field(grid32, seed=2, amplitude=1.0, bc="dirichlet0")
    u1 = solve(y0 + 1e-2 * w, cfg, grid32).Y
    u2 = solve(y0, cfg, grid32).Y
    return u1, u2, u1 - u2


class TestL6Norm:
    def test_constant_one(self, grid32):
        U = np.ones((33, 33, 33), dtype=complex)
        assert linf_l6_norm(U, grid32) == pytest.approx(1.0)

    def test_constant_two(self, grid32):
        U = 2 * np.ones((33, 33, 33), dtype=complex)
        assert linf_l6_norm(U, grid32) == pytest.approx(2.0)

    def test_sine_mode_closed_form(self, grid64):
        # int_0^1 sin^6(pi s) ds = 5/16, so the norm is (25/256)^(1/6)
        U = (np.sin(np.pi * grid64.X1) * np.sin(np.pi * grid64.X2)
             * np.ones((65, 1, 1))).astype(complex)
        expect = (25 / 256) ** (1 / 6)
        assert linf_l6_norm(U, grid64) == pytest.approx(expect, rel=1e-6)


class TestRunPair:
    def test_identical_data_zero_difference(self, grid32):
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0")
        y0 = random_initial_field(grid32, seed=3, amplitude=0.8, bc="dirichlet0")
        z = solve(y0, cfg, grid32).Y - solve(y0.copy(), cfg, grid32).Y
        assert np.abs(z).max() == 0.0

    def test_growth_is_controlled(self, grid32, pair32):
        # continuity in data: ||z(t)|| stays within a bounded factor of ||z(0)||
        _, _, z = pair32
        wsp = grid32.quad_weights_space
        norms = np.sqrt(np.einsum("tij,ij->t", np.abs(z) ** 2, wsp))
        assert norms[0] > 0
        assert norms.max() <= norms[0] * np.exp(10.0)

    def test_conjugate_pair_symmetry(self, grid32):
        y0a = random_initial_field(grid32, seed=4, amplitude=0.7, bc="dirichlet0")
        y0b = random_initial_field(grid32, seed=5, amplitude=0.7, bc="dirichlet0")
        cfgp = SolveConfig(b=0.3, c=0.4, bc="dirichlet0")
        cfgm = SolveConfig(b=-0.3, c=-0.4, bc="dirichlet0")
        z1 = solve(np.conj(y0a), cfgm, grid32).Y - solve(np.conj(y0b), cfgm, grid32).Y
        z2 = solve(y0a, cfgp, grid32).Y - solve(y0b, cfgp, grid32).Y
        assert np.abs(z1 - np.conj(z2)).max() < 1e-12


class TestInteriorReport:
    def test_degenerate(self, grid32):
        z = np.zeros((33, 33, 33), dtype=complex)
        u2 = np.ones((33, 33, 33), dtype=complex)
        d = prepare_difference(z, grid32, c_u2=c8(u2, grid32))
        rep = stability_interior(d, grid32, eps=0.1)
        assert rep.degenerate
        assert rep.lhs == 0.0

    def test_eps_monotone(self, grid32, pair32):
        u1, u2, z = pair32
        d = prepare_difference(z, grid32, c_u2=c8(u2, grid32))
        vals = [stability_interior(d, grid32, eps).lhs
                for eps in (0.05, 0.1, 0.2, 0.4)]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_scaling_audit(self, grid32, pair32):
        u1, u2, z = pair32
        s = 3.0
        c_u2 = c8(u2, grid32)
        r1 = stability_interior(prepare_difference(z, grid32, c_u2=c_u2), grid32,
                                0.1)
        r2 = stability_interior(prepare_difference(s * z, grid32, c_u2=c_u2),
                                grid32, 0.1)
        assert r2.lhs == pytest.approx(s ** 2 * r1.lhs, rel=1e-12)
        az2 = np.abs(z) ** 2
        obs2 = integrate_q(az2, grid32, "Q_omega")
        obs4 = integrate_q(az2 ** 2, grid32, "Q_omega")
        assert r1.rhs_obs == pytest.approx(obs2 + obs4, rel=1e-12)
        assert r2.rhs_obs == pytest.approx(s ** 2 * obs2 + s ** 4 * obs4,
                                           rel=1e-12)

    def test_reports_both_normalizations(self, grid32, pair32):
        u1, u2, z = pair32
        d = prepare_difference(z, grid32, c_u2=c8(u2, grid32),
                               c_u1=c8(u1, grid32))
        rep = stability_interior(d, grid32, 0.1)
        assert np.isfinite(rep.c_emp)
        assert np.isfinite(rep.c_emp_u1)
        assert rep.c_u1 == pytest.approx(rep.c_u2, rel=0.2)

    def test_eps_validation(self, grid32, pair32):
        u1, u2, z = pair32
        with pytest.raises(StabilityError):
            stability_interior(prepare_difference(z, grid32, c_u2=c8(u2, grid32)),
                               grid32, eps=0.6)


class TestBoundaryReport:
    def test_works_on_dirichlet_difference(self, grid32, pair32):
        _, _, z = pair32
        rep = stability_boundary(prepare_difference(z, grid32), grid32, eps=0.1)
        assert np.isfinite(rep.c_emp)
        assert rep.rhs_obs > 0

    def test_rejects_nonzero_trace(self, grid32):
        z = np.ones((33, 33, 33), dtype=complex)
        with pytest.raises(StabilityError):
            stability_boundary(prepare_difference(z, grid32), grid32, eps=0.1)


class TestSuite:
    def test_spread_and_interleaving(self, grid32):
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(grid32, seed=9, amplitude=1.0, bc="dirichlet0")
        reports = perturbation_suite(y0, w, [1e-3, 1e-2], [0.1], cfg, grid32,
                                     variants=("interior",))
        cs = [r.c_emp for r in reports]
        assert all(np.isfinite(c) for c in cs)
        assert max(cs) / min(cs) <= 10.0

    @pytest.mark.parametrize("spec,variants", [
        ("disk_spec", ("interior",)),
        ("square_spec", ("interior", "boundary")),
    ], ids=["disk-interior", "square-both"])
    def test_peak_memory(self, request, spec, variants):
        # The peak is about 7.05 complex space-time trajectories; holding the
        # previous delta's prepared difference and u1 while the next delta
        # is solved raises it to about 7.55.  A fresh grid, so that building
        # the solver's operators counts as in a CLI run.
        grid = build_grid(request.getfixturevalue(spec), 32, 32, 32, 1.0)
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid, seed=7, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(grid, seed=84, amplitude=1.0, bc="dirichlet0")
        tracemalloc.start()
        try:
            perturbation_suite(y0, w, [1e-3, 1e-2, 1e-1], [0.05, 0.1, 0.2],
                               cfg, grid, variants=variants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trajectory = (grid.nt + 1) * (grid.ny + 1) * (grid.nx + 1) * 16
        assert peak <= 7.25 * trajectory
