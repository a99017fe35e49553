"""Coefficient algebra and discrete Ginzburg-Landau operators.

The cubic complex Ginzburg-Landau operator is

    F y = y_t - (1 + i b) Lap y + (1 + i c) |y|^2 y.

Dividing by -(1+ib) normalizes the Laplacian:

    P y = (alpha1 + i beta1) y_t + Lap y,
    G y = P y - (alpha2 + i beta2) |y|^2 y,          F = -(1 + i b) G,

with alpha1 = -1/(1+b^2), beta1 = b/(1+b^2), alpha2 = (1+bc)/(1+b^2),
beta2 = (c-b)/(1+b^2).  The admissible coefficient regime is certified by a
witness pair (r0, delta0): |b| <= r0 < 1, alpha2 > 0, |beta2| <= delta0 alpha2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CoeffError(ValueError):
    pass


@dataclass(frozen=True)
class GLCoeffs:
    b: float
    c: float
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    gamma1: complex
    gamma2: complex


def derive_coeffs(b: float, c: float) -> GLCoeffs:
    d = 1.0 + b * b
    alpha1 = -1.0 / d
    beta1 = b / d
    alpha2 = (1.0 + b * c) / d
    beta2 = (c - b) / d
    return GLCoeffs(
        b=b, c=c, alpha1=alpha1, beta1=beta1, alpha2=alpha2, beta2=beta2,
        gamma1=1.0 / (alpha1 + 1j * beta1),
        gamma2=alpha2 + 1j * beta2,
    )


@dataclass
class Condition1Report:
    margins: dict
    passed: bool


def check_condition1(coeffs: GLCoeffs, r0: float, delta0: float) -> Condition1Report:
    """Does the witness pair (r0, delta0) certify the admissible regime?"""
    if not 0 < r0 < 1:
        raise CoeffError("r0 must lie in (0, 1)")
    if not 0 < delta0 < 0.125:
        raise CoeffError("delta0 must lie in (0, 1/8)")
    clauses = {
        "abs_b_le_r0": abs(coeffs.b) <= r0,
        "alpha2_positive": coeffs.alpha2 > 0,
        "beta2_bounded": abs(coeffs.beta2) <= delta0 * coeffs.alpha2,
    }
    margins = {
        "abs_b_le_r0": r0 - abs(coeffs.b),
        "alpha2_positive": coeffs.alpha2,
        "beta2_bounded": delta0 * coeffs.alpha2 - abs(coeffs.beta2),
    }
    return Condition1Report(margins=margins, passed=all(clauses.values()))


def linear_source(yt: np.ndarray, lap: np.ndarray, coeffs: GLCoeffs) -> np.ndarray:
    """y_t - (1+ib) Lap y, the linear part of F y, from the stencils y_t, Lap y."""
    return yt - (1 + 1j * coeffs.b) * lap


def apply_G(Y: np.ndarray, yt: np.ndarray, lap: np.ndarray,
            coeffs: GLCoeffs) -> np.ndarray:
    """G y = (alpha1 + i beta1) y_t + Lap y - (alpha2 + i beta2) |y|^2 y, from
    the stencils y_t and Lap y of the trajectory Y."""
    out = (coeffs.alpha1 + 1j * coeffs.beta1) * yt + lap
    out -= coeffs.gamma2 * np.abs(Y) ** 2 * Y
    return out

