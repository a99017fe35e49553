"""Pointwise weighted identity laboratory.

For theta = exp(ell), v = theta y, the normalized operator splits as

    theta P y = I1 + I2,
    I1 = i beta1 v_t - alpha1 ell_t v + Lap v + |grad ell|^2 v,
    I2 = alpha1 v_t - i beta1 ell_t v - 2 grad ell . grad v - Lap ell v,

    theta G y = I1 + I2 - (alpha2 + i beta2) theta^{-2} |v|^2 v = J1 + J2,
    J1 = I1 - (3 alpha2 / 4) theta^{-2} |v|^2 v.

With auxiliary Psi + Phi = -Lap ell, the linear identity reads

    2 Re(theta P y conj(I1)) + dM/dt + div V
      = |I1|^2 + |I1 + Phi v|^2 + B |v|^2
        + 4 Re sum ell_jk v_j conj(v)_k + 2 Phi |grad v|^2
        - 2 Re(grad Psi . grad v conj(v))
        - 4 beta1 Im(grad ell_t . grad conj(v) v) + 2 beta1 Phi Im(conj(v) v_t)

and the cubic identity adds the quartic/sextic bookkeeping (terms E, U, the
flux corrections in H, and the time bracket (3/8) alpha1 alpha2
theta^{-2}|v|^4).

The flux transcriptions below were certified against the identity by exact
symbolic computation on generic polynomial jets; the marked coefficients
are load-bearing and easy to get wrong:

    V = 4 Re((grad ell . grad conj v) grad v) - 2 |grad v|^2 grad ell
        - 2 alpha1 Re(conj(v_t) grad v) + 2 beta1 Im(conj(v_t) v) grad ell
        + 2 beta1 ell_t Im(conj v grad v)                  # beta1 factor
        - 2 Psi Re(conj v grad v)
        + 2 (|grad ell|^2 - alpha1 ell_t) grad ell |v|^2   # alpha1 (not 2 alpha1)

    H = V - (alpha2/2) theta^{-2} |v|^4 grad ell           # alpha2/2 (not /4)
        + (alpha2/2) theta^{-2} |v|^2 Re(conj v grad v)

With these forms both identities hold to round-off for every C^2 field; the
fourth-order finite-difference oracle on the transport terms provides the
independent cross-check.

Everything here is pointwise and analytic: no grid stencils are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldJet
from .gloperator import GLCoeffs
from .weights import CarlemanParams, PsiSample, WeightSample, eval_psi, eval_weight


class IdentityError(ValueError):
    pass


CORRUPTIBLE = ("B", "E", "U", "M", "H")


@dataclass
class PhiPsiSample:
    Phi: np.ndarray
    Psi: np.ndarray
    grad_Psi: np.ndarray  # (..., 2)


def step_one_choice(params: CarlemanParams, psi: PsiSample,
                    w: WeightSample) -> PhiPsiSample:
    """Psi = -2 lam mu^2 phi |grad psi|^2, Phi = -Lap ell - Psi."""
    lam, mu = params.lam, params.mu
    gpsi = psi.grad_psi
    gpsi2 = np.einsum("...i,...i->...", gpsi, gpsi)
    Psi = -2.0 * lam * mu ** 2 * w.phi * gpsi2
    Phi = lam * mu ** 2 * w.phi * gpsi2 - lam * mu * w.phi * psi.lap_psi
    hess_g = np.einsum("...ij,...j->...i", psi.hess_psi, gpsi)
    grad_Psi = -2.0 * lam * mu ** 2 * w.phi[..., None] * (
        mu * gpsi2[..., None] * gpsi + 2.0 * hess_g)
    return PhiPsiSample(Phi=Phi, Psi=Psi, grad_Psi=grad_Psi)


@dataclass
class IdentityTerms:
    I1: np.ndarray
    I2: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    M: np.ndarray
    V: np.ndarray          # (..., 2)
    B: np.ndarray
    H: np.ndarray          # (..., 2)
    E: np.ndarray
    U: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _check_phipsi(pp: PhiPsiSample, w: WeightSample):
    lhs = pp.Psi + pp.Phi + w.lap_ell
    scale = np.maximum(np.abs(w.lap_ell), 1.0)
    bad = np.abs(lhs) > 1e-10 * scale
    if np.any(bad):
        raise IdentityError("Phi/Psi choice violates Psi + Phi = -Lap ell")


def _theta_neg4_overflows(ell) -> bool:
    # the sextic term carries theta^{-4}, so the admissible envelope is
    # -4 ell <= 700, i.e. lambda |rho| <= 175 over the sample set
    return bool(np.any(-4.0 * ell > 700))


def _theta_neg2(w: WeightSample):
    if _theta_neg4_overflows(w.ell):
        raise IdentityError(
            "theta^{-4} overflows at a sample point (lambda |rho| > 175); "
            "shrink the sample window or the weight parameters")
    return np.exp(-2.0 * w.ell)


def eval_terms(jet: FieldJet, w: WeightSample, coeffs: GLCoeffs,
               pp: PhiPsiSample) -> IdentityTerms:
    """All named expressions of the identity at a batch of points."""
    _check_phipsi(pp, w)
    a1, b1, a2, b2 = coeffs.alpha1, coeffs.beta1, coeffs.alpha2, coeffs.beta2
    v, vt, gv = jet.v, jet.vt, jet.gv
    vb = np.conj(v)
    gvb = np.conj(gv)
    gl = w.grad_ell
    gl2 = _dot(gl, gl)
    av2 = np.abs(v) ** 2
    gv2 = _dot(gv, gvb).real
    w2m = _theta_neg2(w)

    I1 = 1j * b1 * vt - a1 * w.ell_t * v + jet.lap + gl2 * v
    I2 = a1 * vt - 1j * b1 * w.ell_t * v - 2 * _dot(gl, gv) - w.lap_ell * v
    J1 = I1 - 0.75 * a2 * w2m * av2 * v
    J2 = I2 - 0.25 * a2 * w2m * av2 * v - 1j * b2 * w2m * av2 * v

    M = (((a1 ** 2 + b1 ** 2) * w.ell_t - a1 * gl2) * av2 + a1 * gv2
         - 2 * b1 * (_dot(gl, gvb) * v).imag)

    re_vb_gv = (vb[..., None] * gv).real
    V = (4 * (_dot(gl, gvb)[..., None] * gv).real
         - 2 * gv2[..., None] * gl
         - 2 * a1 * (np.conj(vt)[..., None] * gv).real
         + 2 * b1 * (np.conj(vt) * v).imag[..., None] * gl
         + 2 * b1 * w.ell_t[..., None] * (vb[..., None] * gv).imag
         - 2 * pp.Psi[..., None] * re_vb_gv
         + 2 * ((gl2 - a1 * w.ell_t) * av2)[..., None] * gl)

    B = ((a1 ** 2 + b1 ** 2) * w.ell_tt + 2 * a1 * pp.Phi * w.ell_t
         - 4 * a1 * _dot(gl, w.grad_ell_t)
         + 4 * np.einsum("...jk,...j,...k->...", w.hess_ell, gl, gl)
         - 2 * pp.Phi * gl2 - pp.Phi ** 2)

    H = (V - 0.5 * a2 * (w2m * av2 ** 2)[..., None] * gl
         + 0.5 * a2 * (w2m * av2)[..., None] * re_vb_gv)

    E = (0.5 * a2 * gl2 + a2 * w.lap_ell - 0.25 * a1 * a2 * w.ell_t
         + 1.5 * a2 * pp.Phi)
    U = (-4 * b1 * (_dot(w.grad_ell_t, gvb) * v).imag
         - 2 * (_dot(pp.grad_Psi, gv) * vb).real
         - 2 * (1j * b2 * np.conj(J1) * w2m * av2 * v).real)

    return IdentityTerms(I1=I1, I2=I2, J1=J1, J2=J2, M=M, V=V, B=B, H=H,
                         E=E, U=U, Phi=pp.Phi, Psi=pp.Psi)


# ---------------------------------------------------------------------------
# transport terms: analytic chain rule and finite-difference oracle
# ---------------------------------------------------------------------------

def _transport_analytic(jet: FieldJet, w: WeightSample, coeffs: GLCoeffs,
                        pp: PhiPsiSample) -> dict:
    """form -> (d/dt of the time bracket, div of the flux) by exact chain rule."""
    a1, b1, a2 = coeffs.alpha1, coeffs.beta1, coeffs.alpha2
    v, vt, gv, gvt, hv = jet.v, jet.vt, jet.gv, jet.gvt, jet.hess
    vb, gvb, hvb = np.conj(v), np.conj(gv), np.conj(jet.hess)
    gvbt = np.conj(gvt)
    gl, glt = w.grad_ell, w.grad_ell_t
    hl = w.hess_ell
    gl2 = _dot(gl, gl)
    av2 = np.abs(v) ** 2
    gv2 = _dot(gv, gvb).real
    re_vb_gv = (vb[..., None] * gv).real
    lap_v = jet.lap

    # dM/dt
    c_a = (a1 ** 2 + b1 ** 2) * w.ell_t - a1 * gl2
    dc_a = (a1 ** 2 + b1 ** 2) * w.ell_tt - 2 * a1 * _dot(gl, glt)
    d_av2 = 2 * (vb * vt).real
    d_gv2 = 2 * _dot(gvb, gvt).real
    d_im = ((_dot(glt, gvb) * v).imag + (_dot(gl, gvbt) * v).imag
            + (_dot(gl, gvb) * vt).imag)
    dM = dc_a * av2 + c_a * d_av2 + a1 * d_gv2 - 2 * b1 * d_im
    w2m = _theta_neg2(w)
    d_bracket = w2m * (-2 * w.ell_t * av2 ** 2 + 2 * av2 * d_av2)

    # div V, term by term
    grad_av2 = 2 * re_vb_gv                       # grad |v|^2
    grad_gv2 = 2 * np.einsum("...jk,...k->...j", hv, gvb).real   # grad |grad v|^2
    hl_gl = np.einsum("...jk,...k->...j", hl, gl)

    div1 = 4 * (np.einsum("...jk,...j,...k->...", hl, gv, gvb)
                + np.einsum("...k,...kj,...j->...", gl, hvb, gv)
                + _dot(gl, gvb) * lap_v).real
    div2 = -2 * _dot(grad_gv2, gl) - 2 * gv2 * w.lap_ell
    div3 = -2 * a1 * (_dot(gvbt, gv) + np.conj(vt) * lap_v).real
    im_vtb_v = (np.conj(vt) * v).imag
    grad_im_vtb_v = (gvbt * v[..., None] + np.conj(vt)[..., None] * gv).imag
    div4 = 2 * b1 * (_dot(grad_im_vtb_v, gl) + im_vtb_v * w.lap_ell)
    im_vb_gv = (vb[..., None] * gv).imag
    div5 = 2 * b1 * (_dot(glt, im_vb_gv) + w.ell_t * (vb * lap_v).imag)
    div6 = -2 * _dot(pp.grad_Psi, re_vb_gv) - 2 * pp.Psi * (gv2 + (vb * lap_v).real)
    scal7 = gl2 - a1 * w.ell_t
    grad_scal7 = 2 * hl_gl - a1 * glt
    div7 = 2 * (_dot(grad_scal7, gl) * av2
                + scal7 * (_dot(grad_av2, gl) + av2 * w.lap_ell))
    divV = div1 + div2 + div3 + div4 + div5 + div6 + div7

    # the two cubic flux corrections in H
    div8 = -0.5 * a2 * w2m * ((w.lap_ell - 2 * gl2) * av2 ** 2
                              + 2 * av2 * _dot(grad_av2, gl))
    div9 = 0.5 * a2 * w2m * (0.5 * _dot(grad_av2, grad_av2)
                             - av2 * _dot(gl, grad_av2)
                             + av2 * (gv2 + (vb * lap_v).real))
    return {"cubic": (dM + 0.375 * a1 * a2 * d_bracket, divV + div8 + div9),
            "linear": (dM, divV)}


def _evaluate(field, params: CarlemanParams, coeffs: GLCoeffs, spec, t, x):
    """Weights, jet, Phi/Psi and every named term at the points (t, x)."""
    psi = eval_psi(spec, params.which_psi, x)
    w = eval_weight(params, psi, t)
    jet = field.jet(t, x)
    pp = step_one_choice(params, psi, w)
    return w, jet, pp, eval_terms(jet, w, coeffs, pp)


def _transport_fd(field, params, coeffs, spec, t, x, h_fd: float) -> dict:
    """form -> 4th-order central differences of the assembled M and H."""
    c = np.array([-1.0, 8.0, -8.0, 1.0]) / (12.0 * h_fd)
    shifts = np.array([2.0, 1.0, -1.0, -2.0]) * h_fd
    dM = {"cubic": 0, "linear": 0}
    for ck, sk in zip(c, shifts):
        w, jet, _, terms = _evaluate(field, params, coeffs, spec, t + sk, x)
        dM["cubic"] = dM["cubic"] + ck * (terms.M + 0.375 * coeffs.alpha1
                                          * coeffs.alpha2 * _theta_neg2(w)
                                          * np.abs(jet.v) ** 4)
        dM["linear"] = dM["linear"] + ck * terms.M
    divH = {"cubic": 0.0, "linear": 0.0}
    for j in range(2):
        dxa = np.zeros((1, 2))
        dxa[0, j] = 1.0
        comp = {"cubic": 0, "linear": 0}
        for ck, sk in zip(c, shifts):
            terms = _evaluate(field, params, coeffs, spec, t, x + sk * dxa)[3]
            comp["cubic"] = comp["cubic"] + ck * terms.H[..., j]
            comp["linear"] = comp["linear"] + ck * terms.V[..., j]
        divH = {form: divH[form] + comp[form] for form in divH}
    return {form: (dM[form], divH[form]) for form in dM}


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    max_rel: float
    l2_rel: float
    term_magnitudes: dict


def default_samples(spec, T: float):
    """Deterministic interior sample set away from the boundary and endpoints:
    7 times on [0.2 T, 0.8 T], and 6 points per axis (the disk: 4 radii by
    12 angles) at least 1/8 from the boundary."""
    ts = np.linspace(0.2 * T, 0.8 * T, 7)
    if spec.shape == "unit_square":
        s = np.linspace(0.125, 0.875, 6)
        X1, X2 = np.meshgrid(s, s)
        pts = np.column_stack([X1.ravel(), X2.ravel()])
    else:
        radii = np.linspace(0.15, 0.875, 4)
        ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        R, A = np.meshgrid(radii, ang)
        pts = np.column_stack([(R * np.cos(A)).ravel(), (R * np.sin(A)).ravel()])
    tt = np.repeat(ts, pts.shape[0])
    xx = np.tile(pts, (len(ts), 1))
    return tt, xx


def overflowing_pairs(spec, T: float, lambdas, mus) -> list:
    """The (lambda, mu) of the interior family whose theta^{-4} overflows on
    the default sample set of (spec, T): `identity_residuals` rejects them."""
    t, x = default_samples(spec, T)
    psi = eval_psi(spec, "psi1", x)
    return [(lam, mu) for lam in lambdas for mu in mus if _theta_neg4_overflows(
        eval_weight(CarlemanParams(lam=lam, mu=mu, T=T), psi, t).ell)]


def _report(lhs_op, dM, divH, rhs_terms: dict, sgn: dict) -> ResidualReport:
    lhs = lhs_op + sgn["M"] * dM + sgn["H"] * divH
    rhs = sum(rhs_terms.values())
    res = lhs - rhs

    mags = np.stack([np.abs(lhs_op), np.abs(dM), np.abs(divH)]
                    + [np.abs(tv) for tv in rhs_terms.values()])
    scale_pt = mags.max(axis=0)
    floor = max(float(scale_pt.max()) * 1e-12, 1e-300)
    rel = np.abs(res) / np.maximum(scale_pt, floor)
    return ResidualReport(
        max_rel=float(rel.max()),
        l2_rel=float(np.sqrt(np.mean(rel ** 2))),
        term_magnitudes={k: float(np.abs(val).max()) for k, val in rhs_terms.items()},
    )


def identity_residuals(field, params: CarlemanParams, coeffs: GLCoeffs, grid,
                       transport: str = "analytic", h_fd: float = 1e-4,
                       samples=None, corrupt: str | None = None) -> dict:
    """{"cubic": ..., "linear": ...} residuals of the weighted identity.

    The weights, the jet, Phi/Psi, the named terms and the transport terms
    are evaluated once over the sample set and shared by both forms.
    """
    if corrupt is not None and corrupt not in CORRUPTIBLE:
        raise IdentityError(f"corrupt must be one of {CORRUPTIBLE}")
    if transport not in ("analytic", "fd"):
        raise IdentityError("transport must be 'analytic' or 'fd'")
    t, x = default_samples(grid.spec, grid.T) if samples is None else samples
    w, jet, pp, terms = _evaluate(field, params, coeffs, grid.spec, t, x)
    if transport == "analytic":
        flux = _transport_analytic(jet, w, coeffs, pp)
    else:
        flux = _transport_fd(field, params, coeffs, grid.spec, t, x, h_fd)

    a2, b1 = coeffs.alpha2, coeffs.beta1
    v, vt, gv = jet.v, jet.vt, jet.gv
    vb, gvb = np.conj(v), np.conj(gv)
    av2 = np.abs(v) ** 2
    gv2 = _dot(gv, gvb).real
    w2m = _theta_neg2(w)
    sgn = dict((k, -1.0 if corrupt == k else 1.0) for k in CORRUPTIBLE)

    # the terms both forms share, in the place each takes in its sum
    B = sgn["B"] * terms.B * av2
    hq = 4 * np.einsum("...jk,...j,...k->...", w.hess_ell, gv, gvb).real
    phi_grad = 2 * terms.Phi * gv2
    grad_av2 = 2 * (vb[..., None] * gv).real
    cubic = {
        "J1_sq": np.abs(terms.J1) ** 2,
        "J1_Phi_sq": np.abs(terms.J1 + terms.Phi * v) ** 2,
        "B": B,
        "hess_quad": hq,
        "Phi_grad": phi_grad,
        "E": sgn["E"] * terms.E * w2m * av2 ** 2,
        "sextic": 0.375 * a2 ** 2 * w2m ** 2 * av2 ** 3,
        "grad_mod_sq": 0.25 * a2 * w2m * _dot(grad_av2, grad_av2),
        "mixed": 0.5 * a2 * w2m * av2 * gv2,
        "U": sgn["U"] * terms.U,
        "vt_term": 2 * b1 * (terms.Phi + 0.25 * a2 * w2m * av2)
                   * (vb * vt).imag,
    }
    linear = {
        "I1_sq": np.abs(terms.I1) ** 2,
        "I1_Phi_sq": np.abs(terms.I1 + terms.Phi * v) ** 2,
        "B": B,
        "hess_quad": hq,
        "Phi_grad": phi_grad,
        "Psi_grad": -2 * (_dot(pp.grad_Psi, gv) * vb).real,
        "lt_grad": -4 * b1 * (_dot(w.grad_ell_t, gvb) * v).imag,
        "vt_term": 2 * b1 * terms.Phi * (vb * vt).imag,
    }
    # theta G y = J1 + J2 and theta P y = I1 + I2, each paired with its first part
    return {
        "cubic": _report(2 * ((terms.J1 + terms.J2) * np.conj(terms.J1)).real,
                         *flux["cubic"], cubic, sgn),
        "linear": _report(2 * ((terms.I1 + terms.I2) * np.conj(terms.I1)).real,
                          *flux["linear"], linear, sgn),
    }


# ---------------------------------------------------------------------------
# coefficient positivity
# ---------------------------------------------------------------------------

@dataclass
class TPositivityReport:
    t_value: float
    lower_bound: float
    passed: bool


def T_coefficient_positivity(coeffs: GLCoeffs) -> TPositivityReport:
    """T = (5/16 - beta1^2 |gamma1|^2 / 2) alpha2^2
           + (1/2) beta1 alpha2 alpha1 beta2 |gamma1|^2,
    with the admissible-regime bound T >= (5/32) alpha2^2 (2 - |gamma1|^2) > 0.
    """
    a1, b1, a2, b2 = coeffs.alpha1, coeffs.beta1, coeffs.alpha2, coeffs.beta2
    g1sq = abs(coeffs.gamma1) ** 2
    t_val = (5.0 / 16.0 - 0.5 * b1 ** 2 * g1sq) * a2 ** 2 \
        + 0.5 * b1 * a2 * a1 * b2 * g1sq
    bound = (5.0 / 32.0) * a2 ** 2 * (2.0 - g1sq)
    passed = bool(t_val >= bound - 1e-14 and bound > 0)
    return TPositivityReport(t_value=float(t_val), lower_bound=float(bound),
                             passed=passed)
