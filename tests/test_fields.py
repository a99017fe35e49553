import numpy as np
import pytest

from glcarleman.fields import (AnalyticField, Atom, FieldError, Mode, SinAtom,
                               manufactured_reference, random_initial_field,
                               random_trig_field)
from glcarleman.grid import grad, normal_derivative
from test_identity import bubble_sine_field, oscillating_bubble_field, scaled


class BrokenAtom(Atom):
    def ev(self, s):
        s = np.asarray(s, dtype=float)
        return np.sin(s), 2.0 * np.cos(s), -np.sin(s)  # wrong first derivative


class TestSelfCheck:
    def test_valid_fields_pass(self):
        bubble_sine_field(1.0)
        oscillating_bubble_field()
        manufactured_reference()
        random_trig_field(seed=0, T=1.0)

    def test_broken_derivative_detected(self):
        with pytest.raises(FieldError):
            AnalyticField([Mode(1.0, BrokenAtom(), SinAtom(np.pi), SinAtom(np.pi))])


class TestJets:
    def test_bubble_values(self):
        f = bubble_sine_field(1.0)
        jet = f.jet(0.5, np.array([0.5, 0.5]))
        assert jet.v == pytest.approx((1 + 1j) * 0.25)
        assert jet.lap == pytest.approx(-(2 * np.pi ** 2) * (1 + 1j) * 0.25)

    def test_hessian_symmetry(self, rng):
        f = random_trig_field(seed=1, T=1.0)
        x = rng.uniform(0.1, 0.9, size=(7, 2))
        h = f.jet(np.full(7, 0.4), x).hess
        assert np.abs(h[..., 0, 1] - h[..., 1, 0]).max() == 0.0

    def test_scaled(self):
        f = bubble_sine_field(1.0)
        g = scaled(f, 3.0)
        x = np.array([0.3, 0.7])
        assert g.jet(0.4, x).v == pytest.approx(3.0 * f.jet(0.4, x).v)

    @pytest.mark.parametrize("grid_name", ["grid32", "disk_grid"])
    def test_sample_is_jet_value(self, request, grid_name):
        # the value-only walk sums the modes in the jet's order, bit for bit
        g = request.getfixturevalue(grid_name)
        pts = np.stack([g.X1, g.X2], axis=-1)
        for f in (random_trig_field(seed=2, T=1.0), bubble_sine_field(1.0)):
            got = f.sample(g)
            for k, t in enumerate(g.t_nodes):
                want = f.jet(t, pts).v
                want[~g.active_mask] = 0.0
                assert np.array_equal(got[k], want)


class TestInitialData:
    def test_dirichlet_trace_zero(self, grid32):
        y0 = random_initial_field(grid32, seed=2, amplitude=1.5, bc="dirichlet0")
        assert np.abs(y0[grid32.boundary_mask]).max() < 1e-13
        assert np.abs(y0).max() == pytest.approx(1.5)

    def test_neumann_normal_derivative_small(self, grid32):
        # cos modes have exactly zero normal derivative; the one-sided
        # stencil sees it at O(h^2) with third-derivative constants
        y0 = random_initial_field(grid32, seed=2, amplitude=1.0, bc="neumann0")
        nd = normal_derivative(y0, grid32)
        g1, g2 = grad(y0, grid32)
        scale = max(np.abs(g1).max(), np.abs(g2).max())
        assert np.abs(nd).max() < 1e-2 * scale

    def test_mode_cap(self, grid32):
        with pytest.raises(FieldError):
            random_initial_field(grid32, seed=0, n_modes=9)

    def test_seed_determinism(self, grid32):
        a = random_initial_field(grid32, seed=5)
        b = random_initial_field(grid32, seed=5)
        assert np.array_equal(a, b)
