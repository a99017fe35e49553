import math

import numpy as np
import pytest

from glcarleman.fields import (AnalyticField, ExpAtom, Mode, SinAtom,
                               random_trig_field)
from glcarleman.gloperator import derive_coeffs
from glcarleman.identity import (IdentityError, PhiPsiSample,
                                 T_coefficient_positivity, _theta_neg2,
                                 default_samples, eval_terms,
                                 identity_residuals, step_one_choice)
from glcarleman.weights import CarlemanParams, eval_psi, eval_weight
from support import PolyAtom


def bubble_sine_field(T: float) -> AnalyticField:
    """v = (1+i) t (T-t) sin(pi x1) sin(pi x2)."""
    return AnalyticField([Mode(1 + 1j, PolyAtom((0.0, T, -1.0)),
                               SinAtom(np.pi), SinAtom(np.pi))],
                         check_times=(0.2 * T, 0.8 * T))


def oscillating_bubble_field() -> AnalyticField:
    """v = exp(i t) x1 (1-x1) x2 (1-x2)."""
    bubble = PolyAtom((0.0, 1.0, -1.0))
    return AnalyticField([Mode(1.0, ExpAtom(1j), bubble, bubble)])


def scaled(field: AnalyticField, s: complex) -> AnalyticField:
    return AnalyticField([Mode(m.coef * s, m.t_atom, m.x1_atom, m.x2_atom)
                          for m in field.modes], self_check=False)


def j_split_residual(terms, jet, w, coeffs) -> float:
    """Relative error of J1 + J2 = I1 + I2 - (alpha2 + i beta2) theta^{-2}|v|^2 v."""
    w2m = _theta_neg2(w)
    rhs = terms.I1 + terms.I2 - coeffs.gamma2 * w2m * np.abs(jet.v) ** 2 * jet.v
    lhs = terms.J1 + terms.J2
    scale = np.abs(rhs).max() + 1e-300
    return float(np.abs(lhs - rhs).max() / scale)

COEFF_PAIRS = [(0.0, 0.0), (0.3, 0.4), (0.5, 0.6)]


def _setup(grid, lam=2.0, mu=1.5, n=40):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.15, 0.85, size=(n, 2))
    t = rng.uniform(0.25, 0.75, size=n)
    params = CarlemanParams(lam=lam, mu=mu, T=grid.T)
    psi = eval_psi(grid.spec, "psi1", x)
    w = eval_weight(params, psi, t)
    pp = step_one_choice(params, psi, w)
    return params, psi, w, pp, t, x


class TestEvalTerms:
    def test_zero_field_terms(self, grid32):
        field = scaled(bubble_sine_field(1.0), 0.0)
        params, psi, w, pp, t, x = _setup(grid32)
        jet = field.jet(t, x)
        terms = eval_terms(jet, w, derive_coeffs(0.3, 0.4), pp)
        for name in ("I1", "I2", "J1", "J2", "M", "U"):
            assert np.abs(getattr(terms, name)).max() == 0.0
        for name in ("B", "E", "Phi", "Psi"):
            vals = np.asarray(getattr(terms, name))
            assert np.all(np.isfinite(vals))
            assert np.abs(vals).max() > 0

    def test_psi_phi_sum_is_minus_lap_ell(self, grid32):
        params, psi, w, pp, t, x = _setup(grid32)
        err = np.abs(pp.Psi + pp.Phi + w.lap_ell).max()
        assert err <= 1e-12 * np.abs(w.lap_ell).max()

    def test_invalid_phi_psi_rejected(self, grid32):
        field = bubble_sine_field(1.0)
        params, psi, w, pp, t, x = _setup(grid32)
        bad = PhiPsiSample(Phi=pp.Phi + 1.0, Psi=pp.Psi, grad_Psi=pp.grad_Psi)
        with pytest.raises(IdentityError):
            eval_terms(field.jet(t, x), w, derive_coeffs(0, 0), bad)

    def test_b_c_zero_specialization(self, grid32):
        # beta1 = 0: I1 loses its i v_t part entirely
        field = random_trig_field(seed=3, T=1.0)
        params, psi, w, pp, t, x = _setup(grid32)
        jet = field.jet(t, x)
        coeffs = derive_coeffs(0.0, 0.0)
        terms = eval_terms(jet, w, coeffs, pp)
        gl2 = np.einsum("...i,...i->...", w.grad_ell, w.grad_ell)
        expected = -coeffs.alpha1 * w.ell_t * jet.v + jet.lap + gl2 * jet.v
        assert np.abs(terms.I1 - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_j_split_reconstruction(self, grid32):
        field = random_trig_field(seed=4, T=1.0)
        params, psi, w, pp, t, x = _setup(grid32)
        jet = field.jet(t, x)
        coeffs = derive_coeffs(0.3, 0.4)
        terms = eval_terms(jet, w, coeffs, pp)
        assert j_split_residual(terms, jet, w, coeffs) <= 1e-12


class TestNonlinearIdentity:
    def test_zero_field_residual_zero(self, grid32):
        field = scaled(bubble_sine_field(1.0), 0.0)
        rep = identity_residuals(
            field, CarlemanParams(lam=2, mu=1.5, T=1.0),
            derive_coeffs(0.3, 0.4), grid32)["cubic"]
        assert rep.max_rel == 0.0

    def test_bubble_field_b_c_zero(self, grid32):
        rep = identity_residuals(
            bubble_sine_field(1.0), CarlemanParams(lam=2, mu=1.5, T=1.0),
            derive_coeffs(0.0, 0.0), grid32)["cubic"]
        assert rep.max_rel <= 1e-6

    @pytest.mark.parametrize("b,c", COEFF_PAIRS)
    def test_random_fields(self, grid32, b, c):
        coeffs = derive_coeffs(b, c)
        for seed in range(4):
            rep = identity_residuals(
                random_trig_field(seed=seed, T=1.0),
                CarlemanParams(lam=8, mu=3, T=1.0), coeffs, grid32)["cubic"]
            assert rep.max_rel <= 1e-6

    def test_scaling_covariance(self, grid32):
        base = random_trig_field(seed=7, T=1.0)
        params = CarlemanParams(lam=2, mu=1.5, T=1.0)
        coeffs = derive_coeffs(0.3, 0.4)
        for s in (1e-2, 1.0, 1e2):
            rep = identity_residuals(scaled(base, s), params, coeffs,
                                     grid32)["cubic"]
            assert rep.max_rel <= 1e-6

    def test_fd_oracle_agrees(self, grid32):
        rep = identity_residuals(
            random_trig_field(seed=5, T=1.0),
            CarlemanParams(lam=2, mu=1.5, T=1.0), derive_coeffs(0.3, 0.4),
            grid32, transport="fd", h_fd=1e-4)["cubic"]
        assert rep.max_rel <= 1e-6

    def test_fd_oracle_order_at_least_three(self, grid32):
        field = random_trig_field(seed=5, T=1.0)
        params = CarlemanParams(lam=2, mu=1.5, T=1.0)
        coeffs = derive_coeffs(0.3, 0.4)
        errs = [identity_residuals(field, params, coeffs, grid32, transport="fd",
                                   h_fd=h)["cubic"].max_rel
                for h in (0.04, 0.02, 0.01)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.0

    @pytest.mark.parametrize("term", ["B", "E", "U", "M", "H"])
    def test_corruption_detected(self, grid32, term):
        rep = identity_residuals(
            random_trig_field(seed=6, T=1.0),
            CarlemanParams(lam=2, mu=1.5, T=1.0), derive_coeffs(0.3, 0.4),
            grid32, corrupt=term)["cubic"]
        assert rep.max_rel > 1e-6


class TestLinearIdentity:
    def test_oscillating_bubble(self, grid32):
        rep = identity_residuals(
            oscillating_bubble_field(), CarlemanParams(lam=2, mu=1.5, T=1.0),
            derive_coeffs(0.3, 0.4), grid32)["linear"]
        assert rep.max_rel <= 1e-6

    @pytest.mark.parametrize("b,c", COEFF_PAIRS)
    def test_random_fields(self, grid32, b, c):
        coeffs = derive_coeffs(b, c)
        for seed in range(4):
            rep = identity_residuals(
                random_trig_field(seed=seed + 10, T=1.0),
                CarlemanParams(lam=8, mu=1.5, T=1.0), coeffs, grid32)["linear"]
            assert rep.max_rel <= 1e-6

    def test_both_identities_same_field(self, grid32):
        field = random_trig_field(seed=20, T=1.0)
        params = CarlemanParams(lam=4, mu=2, T=1.0)
        coeffs = derive_coeffs(0.3, 0.4)
        res = identity_residuals(field, params, coeffs, grid32)
        nl, lin = res["cubic"], res["linear"]
        assert nl.max_rel <= 1e-6
        assert lin.max_rel <= 1e-6


class TestDiskDomain:
    def test_nonlinear_identity_on_disk(self, disk_grid):
        # disk psi1 = 1 - |x|^2 exercises a different weight geometry; its
        # sup norm is 16x the square's, so the admissible (lambda, mu)
        # envelope is correspondingly tighter
        field = random_trig_field(seed=8, T=1.0)
        rng = np.random.default_rng(0)
        r = rng.uniform(0.05, 0.5, 60)
        a = rng.uniform(0, 2 * np.pi, 60)
        samples = (rng.uniform(0.25, 0.75, 60),
                   np.column_stack([r * np.cos(a), r * np.sin(a)]))
        rep = identity_residuals(
            field, CarlemanParams(lam=1.5, mu=1.05, T=1.0),
            derive_coeffs(0.3, 0.4), disk_grid, samples=samples)["cubic"]
        assert rep.max_rel <= 1e-6

    def test_j2_family_overflows_cleanly(self, grid32):
        # theta^{-2} for the boundary family exceeds double range at any
        # lambda > 1; the identity lab reports that instead of emitting inf
        field = bubble_sine_field(1.0)
        params = CarlemanParams(lam=2, mu=1.5, T=1.0, family="j2_boundary")
        with pytest.raises(IdentityError):
            identity_residuals(field, params, derive_coeffs(0, 0), grid32)


class TestTCoefficient:
    def test_zero_dispersion_value(self):
        rep = T_coefficient_positivity(derive_coeffs(0.0, 0.0))
        assert rep.t_value == pytest.approx(5 / 16)
        assert rep.lower_bound == pytest.approx(5 / 32)
        assert rep.passed

    def test_reference_pair(self):
        rep = T_coefficient_positivity(derive_coeffs(0.5, 0.6))
        assert rep.t_value > 0
        assert rep.passed

    def test_near_unit_b_margin_shrinks(self):
        rep = T_coefficient_positivity(derive_coeffs(0.99, 0.0))
        # |gamma1|^2 = 1.9801: the bound factor 2 - |gamma1|^2 nearly closes
        assert 0 < rep.lower_bound < 1e-2
        assert np.isfinite(rep.t_value - rep.lower_bound)


class TestFluxDivergenceTheorem:
    def test_volume_divergence_matches_boundary_flux(self, square_spec):
        # for v vanishing on Gamma, grad v = (dv/dnu) nu there and the flux
        # trace collapses to V . nu = 2 (d ell/d nu) |dv/dnu|^2, so
        # int_Omega div V dx = 2 lam mu  oint phi (d psi/d nu) |dv/dnu|^2
        from glcarleman.grid import build_grid
        from test_grid import integrate_space
        from glcarleman.identity import _transport_analytic

        field = bubble_sine_field(1.0)
        coeffs = derive_coeffs(0.3, 0.4)
        params = CarlemanParams(lam=2, mu=1.5, T=1.0)
        t0 = 0.4
        vals = []
        for n in (32, 64):
            g = build_grid(square_spec, n, n, 16, 1.0)
            pts = np.stack([g.X1, g.X2], axis=-1)
            psi = eval_psi(square_spec, "psi1", pts)
            w = eval_weight(params, psi, t0)
            pp = step_one_choice(params, psi, w)
            jet = field.jet(np.full(pts.shape[:-1], t0), pts)
            _, divV = _transport_analytic(jet, w, coeffs, pp)["linear"]
            vol = integrate_space(divV, g)

            bpts = g.boundary_points
            bpsi = eval_psi(square_spec, "psi1", bpts)
            bw = eval_weight(params, bpsi, t0)
            dnu_psi = np.einsum("bi,bi->b", bpsi.grad_psi, g.boundary_normals)
            gv = field.jet(np.full(len(bpts), t0), bpts).gv
            dnu_v = np.einsum("bi,bi->b", gv, g.boundary_normals.astype(complex))
            srf = 2 * params.lam * params.mu * float(np.sum(
                bw.phi * dnu_psi * np.abs(dnu_v) ** 2 * g.boundary_weights))
            vals.append((vol, srf))
        for vol, srf in vals:
            assert srf < 0  # d psi1/d nu <= 0 on Gamma
            assert vol == pytest.approx(srf, rel=0.05)
        # quadrature defect shrinks under refinement
        assert abs(vals[1][0] - vals[1][1]) < abs(vals[0][0] - vals[0][1])


class TestSampleSets:
    def test_default_samples_respect_margins(self, grid32):
        t, x = default_samples(grid32.spec, grid32.T)
        assert t.min() >= 0.2 and t.max() <= 0.8
        assert x.min() >= 0.1 and x.max() <= 0.9

    def test_disk_samples_inside(self, disk_grid):
        t, x = default_samples(disk_grid.spec, disk_grid.T)
        assert np.hypot(x[:, 0], x[:, 1]).max() < 0.9
