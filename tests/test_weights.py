import numpy as np
import pytest

from glcarleman.grid import DomainSpec, build_grid
from glcarleman.weights import (CarlemanParams, WeightError,
                                critical_point_in_omega, eval_psi, eval_weight,
                                verify_psi_admissibility, weight_tables)
from support import check_time_monotonicity, derivative_consistency, log_theta2


class TestEvalPsi:
    def test_square_psi1_at_center(self, square_spec):
        s = eval_psi(square_spec, "psi1", np.array([0.5, 0.5]))
        assert s.psi == pytest.approx(1 / 16)
        assert np.abs(s.grad_psi).max() < 1e-15
        assert s.sup == 1 / 16

    def test_disk_psi1_boundary(self, disk_spec):
        x = np.array([[1.0, 0.0], [0.0, -1.0]])
        s = eval_psi(disk_spec, "psi1", x)
        assert np.abs(s.psi).max() < 1e-15
        # outward normal is x itself on the unit circle
        dn = np.einsum("bi,bi->b", s.grad_psi, x)
        assert dn == pytest.approx([-2.0, -2.0])

    def test_psi2_values(self, square_spec):
        s = eval_psi(square_spec, "psi2", np.array([0.0, 0.0]))
        assert s.psi == pytest.approx(2.0)
        assert s.grad_psi[0] == pytest.approx(1.0)
        assert s.grad_psi[1] == pytest.approx(0.0)
        assert s.lap_psi == pytest.approx(0.0)
        assert s.sup == 3.0

    def test_lap_matches_hessian_trace(self, square_spec, rng):
        x = rng.uniform(0.05, 0.95, size=(40, 2))
        s = eval_psi(square_spec, "psi1", x)
        tr = s.hess_psi[..., 0, 0] + s.hess_psi[..., 1, 1]
        assert np.abs(tr - s.lap_psi).max() < 1e-14



class TestAdmissibility:
    def test_square_psi1_passes(self, grid32):
        clauses = verify_psi_admissibility("psi1", grid32)
        assert all(clauses.values())
        assert clauses["grad_nonvanishing_outside_omega"]

    def test_disk_psi1_passes(self, disk_grid):
        assert all(verify_psi_admissibility("psi1", disk_grid).values())

    def test_psi2_passes_with_vacuous_boundary(self, grid32):
        clauses = verify_psi_admissibility("psi2", grid32)
        assert all(clauses.values())
        assert clauses["boundary_clauses_vacuous"]

    def test_misplaced_omega_fails_not_raises(self):
        spec = DomainSpec(omega_center=(0.2, 0.2), omega_radius=0.05)
        g = build_grid(spec, 32, 32, 32, 1.0)
        clauses = verify_psi_admissibility("psi1", g)
        assert not all(clauses.values())
        assert not clauses["critical_point_in_omega"]
        # the critical point, where grad psi1 = 0, is a node outside omega
        assert not clauses["grad_nonvanishing_outside_omega"]

    def test_critical_point_outside_omega_detected(self, square_spec, disk_spec):
        assert critical_point_in_omega(square_spec)
        assert critical_point_in_omega(disk_spec)
        for spec in (DomainSpec(omega_center=(0.2, 0.2), omega_radius=0.05),
                     DomainSpec(omega_center=(0.3, 0.3), omega_radius=0.1),
                     DomainSpec(shape="unit_disk", omega_center=(0.5, 0.0),
                                omega_radius=0.2)):
            assert not critical_point_in_omega(spec)


class TestEvalWeight:
    def test_phi_at_zero_psi(self, square_spec):
        s = eval_psi(square_spec, "psi1", np.array([0.0, 0.5]))
        w = eval_weight(CarlemanParams(lam=2, mu=2, T=1.0), s, 0.5)
        assert w.phi == pytest.approx(4.0)

    def test_disk_center_values(self, disk_spec):
        s = eval_psi(disk_spec, "psi1", np.array([0.0, 0.0]))
        w = eval_weight(CarlemanParams(lam=2, mu=2, T=1.0), s, 0.5)
        assert w.phi == pytest.approx(4 * np.e ** 2)
        # ell = lam rho, rho = (e^{mu psi} - e^{2 mu |psi|_sup}) / (t (T - t))
        assert w.ell == pytest.approx(2 * 4 * (np.e ** 2 - np.e ** 4))

    def test_t_outside_open_interval(self, square_spec):
        s = eval_psi(square_spec, "psi1", np.array([0.5, 0.5]))
        params = CarlemanParams(lam=2, mu=2, T=1.0)
        for t in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(WeightError):
                eval_weight(params, s, t)

    def test_parameter_validation(self):
        with pytest.raises(WeightError):
            CarlemanParams(lam=0.5, mu=2, T=1.0)
        with pytest.raises(WeightError):
            CarlemanParams(lam=2, mu=1.0, T=1.0)

    def test_rho_negative_interior(self, square_spec, rng):
        x = rng.uniform(0.0, 1.0, size=(50, 2))
        s = eval_psi(square_spec, "psi1", x)
        t = rng.uniform(0.01, 0.99, size=50)
        w = eval_weight(CarlemanParams(lam=4, mu=3, T=1.0), s, t)
        assert np.all(w.ell < 0)      # ell = lam rho, lam > 0
        assert np.all(w.phi > 0)

    def test_grad_ell_formula(self, square_spec, rng):
        # grad ell = lam mu phi grad psi; lap ell = lam mu^2 phi |grad psi|^2
        #            + lam mu phi lap psi
        x = rng.uniform(0.1, 0.9, size=(20, 2))
        s = eval_psi(square_spec, "psi1", x)
        params = CarlemanParams(lam=3, mu=2.5, T=1.0)
        w = eval_weight(params, s, 0.4)
        lhs = w.grad_ell
        rhs = params.lam * params.mu * w.phi[..., None] * s.grad_psi
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()
        g2 = np.einsum("...i,...i->...", s.grad_psi, s.grad_psi)
        lap_rhs = params.lam * params.mu ** 2 * w.phi * g2 \
            + params.lam * params.mu * w.phi * s.lap_psi
        assert np.abs(w.lap_ell - lap_rhs).max() < 1e-12 * np.abs(lap_rhs).max()

    def test_rho_t_pointwise_bound(self, square_spec, rng):
        # |rho_t| <= T exp(2 mu |psi|_sup) phi^2, so with ell_t = lam rho_t
        # and lam = 2, |ell_t| <= 2 T exp(2 mu |psi|_sup) phi^2
        T = 1.3
        x = rng.uniform(0.0, 1.0, size=(60, 2))
        s = eval_psi(square_spec, "psi1", x)
        t = rng.uniform(0.02, T - 0.02, size=60)
        for mu in (1.5, 3.0):
            w = eval_weight(CarlemanParams(lam=2, mu=mu, T=T), s, t)
            bound = 2 * T * np.exp(2 * mu * s.sup) * w.phi ** 2
            assert np.all(np.abs(w.ell_t) <= bound * (1 + 1e-12))

    def test_ell_tt_envelope_bound(self, square_spec, rng):
        # |ell_tt| <= C lam phi^3 exp(3 mu |psi|_sup) with a moderate C
        T = 1.0
        x = rng.uniform(0.0, 1.0, size=(60, 2))
        s = eval_psi(square_spec, "psi1", x)
        t = rng.uniform(0.02, 0.98, size=60)
        params = CarlemanParams(lam=5, mu=2, T=T)
        w = eval_weight(params, s, t)
        bound = 10.0 * params.lam * w.phi ** 3 * np.exp(3 * params.mu * s.sup)
        assert np.all(np.abs(w.ell_tt) <= bound)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("which,family", [("psi1", "j1_interior"),
                                              ("psi2", "j2_boundary")])
    def test_analytic_vs_fd(self, square_spec, which, family):
        params = CarlemanParams(lam=4, mu=2, T=1.0, family=family)
        pts = np.array([[0.3, 0.4], [0.55, 0.7], [0.8, 0.25]])
        times = np.array([0.3, 0.5, 0.66])
        errs = derivative_consistency(params, square_spec, which, pts, times)
        assert max(errs.values()) <= 1e-6


class TestEnvelope:
    def test_lambda_linearity(self, square_spec, grid32):
        t1 = weight_tables(CarlemanParams(lam=2, mu=2, T=1.0), grid32)
        t2 = weight_tables(CarlemanParams(lam=4, mu=2, T=1.0), grid32)
        assert np.allclose(log_theta2(t2), 2 * log_theta2(t1), rtol=1e-13)

    def test_time_symmetry_and_monotonicity(self, square_spec, grid32):
        tables = weight_tables(CarlemanParams(lam=3, mu=2, T=1.0), grid32)
        rep = check_time_monotonicity(tables, grid32)
        assert rep["monotone_first_half"]
        assert rep["symmetric"]

    def test_strict_increase_first_half(self, square_spec, grid32):
        tables = weight_tables(CarlemanParams(lam=3, mu=2, T=1.0), grid32)
        mid = grid32.nt // 2
        lt = 0.5 * log_theta2(tables)[:mid][:, grid32.active_mask]
        assert np.all(np.diff(lt, axis=0) > 0)

    def test_mu_monotonicity_of_phi(self, square_spec):
        # phi strictly increasing in mu where psi > 0
        s = eval_psi(square_spec, "psi1", np.array([0.5, 0.5]))
        phis = [eval_weight(CarlemanParams(lam=2, mu=mu, T=1.0), s, 0.5).phi
                for mu in (1.5, 2.0, 3.0)]
        assert phis[0] < phis[1] < phis[2]
