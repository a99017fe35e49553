import numpy as np
import pytest

from glcarleman.gloperator import (CoeffError, GLCoeffs, apply_G,
                                   check_condition1, derive_coeffs)
from glcarleman.grid import laplacian
from support import apply_F, whole_time_derivative


def least_delta0(coeffs: GLCoeffs) -> float | None:
    """Smallest feasible delta0 = |beta2| / alpha2, or None when alpha2 <= 0."""
    if coeffs.alpha2 <= 0:
        return None
    return abs(coeffs.beta2) / coeffs.alpha2


def coefficient_relations(coeffs: GLCoeffs) -> dict:
    """Round-off-level residuals of the coefficient identities.

    Returns absolute errors of:
      (alpha1^2 + beta1^2)(1 + b^2) = 1
      |gamma1|^2 = 1 + b^2
      Im(gamma1 gamma2) = (alpha1 beta2 - alpha2 beta1) |gamma1|^2
      1 - beta1^2 |gamma1|^2 = -alpha1
      1 - alpha1^2 |gamma1|^2 = -alpha1 b^2
      1 - beta1^2 |gamma1|^2 + beta1 alpha1 |gamma1|^2 = (1 - b)/(1 + b^2)
    """
    a1, b1, a2, b2 = coeffs.alpha1, coeffs.beta1, coeffs.alpha2, coeffs.beta2
    g1sq = abs(coeffs.gamma1) ** 2
    b = coeffs.b
    return {
        "norm_identity": abs((a1 * a1 + b1 * b1) * (1 + b * b) - 1.0),
        "gamma1_modulus": abs(g1sq - (1 + b * b)),
        "im_gamma1_gamma2": abs((coeffs.gamma1 * coeffs.gamma2).imag
                                - (a1 * b2 - a2 * b1) * g1sq),
        "one_minus_beta1sq": abs(1 - b1 * b1 * g1sq + a1),
        "one_minus_alpha1sq": abs(1 - a1 * a1 * g1sq + a1 * b * b),
        "mixed_relation": abs(1 - b1 * b1 * g1sq + b1 * a1 * g1sq
                              - (1 - b) / (1 + b * b)),
    }


def G_of(Y, grid, coeffs, bc="ghost_from_field"):
    """G y of a whole trajectory from the stencils y_t and Lap y."""
    return apply_G(Y, whole_time_derivative(Y, grid.dt), laplacian(Y, grid, bc), coeffs)


class TestDeriveCoeffs:
    def test_zero_dispersion_limit(self):
        c = derive_coeffs(0.0, 0.0)
        assert (c.alpha1, c.beta1, c.alpha2, c.beta2) == (-1.0, 0.0, 1.0, 0.0)

    def test_reference_pair(self):
        c = derive_coeffs(0.5, 0.6)
        assert c.alpha2 == pytest.approx(1.04)
        assert c.beta2 == pytest.approx(0.08)

    def test_equal_dispersion(self):
        c = derive_coeffs(1.0, 1.0)
        assert c.alpha2 == pytest.approx(1.0)
        assert c.beta2 == pytest.approx(0.0)

    def test_relations_roundoff(self, rng):
        for _ in range(50):
            b, cc = rng.uniform(-0.9, 0.9, 2)
            rels = coefficient_relations(derive_coeffs(b, cc))
            assert max(rels.values()) < 1e-13

    def test_alpha1_beta1_ranges_in_regime(self, rng):
        # -1 < alpha1 < 0 and |beta1| <= 1/2 whenever |b| <= r0 < 1
        for _ in range(50):
            b = rng.uniform(-0.99, 0.99)
            c = derive_coeffs(b, 0.0)
            assert -1 < c.alpha1 < 0
            assert abs(c.beta1) <= 0.5 + 1e-15


class TestCondition1:
    def test_pass_case(self):
        rep = check_condition1(derive_coeffs(0.5, 0.6), r0=0.6, delta0=0.1)
        assert rep.passed
        assert rep.margins["beta2_bounded"] == pytest.approx(0.104 - 0.08)

    def test_fail_tight_delta0(self):
        rep = check_condition1(derive_coeffs(0.5, 0.6), r0=0.6, delta0=0.05)
        assert not rep.passed
        assert rep.margins["beta2_bounded"] < 0

    def test_fail_large_c(self):
        rep = check_condition1(derive_coeffs(0.0, -2.0), r0=0.5, delta0=0.1)
        assert not rep.passed

    def test_witness_validation(self):
        c = derive_coeffs(0.1, 0.1)
        with pytest.raises(CoeffError):
            check_condition1(c, r0=1.2, delta0=0.1)
        with pytest.raises(CoeffError):
            check_condition1(c, r0=0.5, delta0=0.2)

    def test_least_delta0(self):
        c = derive_coeffs(0.5, 0.6)
        d = least_delta0(c)
        assert d == pytest.approx(0.08 / 1.04)
        assert check_condition1(c, 0.6, d * 1.01).passed


class TestOperators:
    def test_zero_field(self, grid32):
        Y = np.zeros((33, 33, 33), dtype=complex)
        c = derive_coeffs(0.3, 0.4)
        assert np.abs(apply_F(Y, grid32, c)).max() == 0.0
        assert np.abs(G_of(Y, grid32, c)).max() == 0.0

    def test_constant_field(self, grid32):
        # y = k constant: y_t = 0, Lap y = 0 (neumann rule) -> F y = |k|^2 k
        k = 0.7 + 0.2j
        Y = np.full((33, 33, 33), k)
        c = derive_coeffs(0.0, 0.0)
        out = apply_F(Y, grid32, c, bc="neumann0")
        assert np.abs(out - abs(k) ** 2 * k).max() < 1e-12

    def test_f_equals_minus_one_plus_ib_g(self, grid32, rng):
        Y = (rng.normal(size=(33, 33, 33)) + 1j * rng.normal(size=(33, 33, 33)))
        for b, cc in ((0.0, 0.0), (0.3, 0.4), (0.5, 0.6)):
            c = derive_coeffs(b, cc)
            F = apply_F(Y, grid32, c)
            G = G_of(Y, grid32, c)
            err = np.abs(F + (1 + 1j * b) * G).max()
            assert err <= 1e-12 * np.abs(F).max()

    def test_linear_time_ramp(self, grid32):
        # y = t (constant in space), b = c = 0:
        # G y = alpha1 y_t - alpha2 |y|^2 y = -1 - t^3
        t = grid32.t_nodes
        Y = (t[:, None, None] * np.ones((33, 33))).astype(complex)
        c = derive_coeffs(0.0, 0.0)
        out = G_of(Y, grid32, c, bc="neumann0")
        expect = (-1.0 - t ** 3)[:, None, None]
        assert np.abs(out - expect).max() < 1e-10

    def test_conjugation_symmetry(self, grid32, rng):
        # F_{b,c}(conj Y) = conj(F_{-b,-c}(Y))
        Y = rng.normal(size=(33, 33, 33)) + 1j * rng.normal(size=(33, 33, 33))
        a = apply_F(np.conj(Y), grid32, derive_coeffs(0.3, 0.4))
        b = np.conj(apply_F(Y, grid32, derive_coeffs(-0.3, -0.4)))
        assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()
