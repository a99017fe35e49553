"""Closed-form space-time test fields with full analytic jets.

A field is a finite sum of separable modes

    v(t, x) = sum_m  c_m * tau_m(t) * f_m(x1) * g_m(x2),

where each 1-D factor carries its value and first two derivatives in closed
form.  One walk over the modes (`AnalyticField.jet`) gives v_t, grad v,
Hess v, Lap v and grad v_t exactly, which the identity laboratory consumes
(its pointwise checks use no stencils), and which the method of manufactured
solutions uses to generate sources.

Every constructed field self-checks its supplied derivatives against central
finite differences at a few random points (relative error <= 1e-6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(ValueError):
    pass


class Atom:
    """1-D factor with derivatives: ev(s) -> (f, f', f'')."""

    def ev(self, s: np.ndarray):
        raise NotImplementedError


@dataclass(frozen=True)
class SinAtom(Atom):
    freq: float
    phase: float = 0.0

    def ev(self, s):
        arg = self.freq * s + self.phase
        f = np.sin(arg)
        return f, self.freq * np.cos(arg), -self.freq ** 2 * f


@dataclass(frozen=True)
class ExpAtom(Atom):
    """exp(a s) with complex rate a."""

    rate: complex

    def ev(self, s):
        f = np.exp(self.rate * np.asarray(s, dtype=complex))
        return f, self.rate * f, self.rate ** 2 * f


@dataclass
class FieldJet:
    """A field and its derivatives up to second order at a batch of points."""

    v: np.ndarray
    vt: np.ndarray
    gv: np.ndarray       # (..., 2)
    gvt: np.ndarray      # (..., 2)
    hess: np.ndarray     # (..., 2, 2)
    lap: np.ndarray


@dataclass(frozen=True)
class Mode:
    coef: complex
    t_atom: Atom
    x1_atom: Atom
    x2_atom: Atom


class AnalyticField:
    """Sum of separable modes with exact derivatives up to second order."""

    def __init__(self, modes, self_check: bool = True, check_times=(0.3, 0.6)):
        if not modes:
            raise FieldError("at least one mode required")
        self.modes = list(modes)
        if self_check:
            self._self_check(check_times)

    # -- jet evaluation ----------------------------------------------------
    def _parts(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return t, x[..., 0], x[..., 1]

    def jet(self, t, x) -> FieldJet:
        """v, v_t, grad v, grad v_t, Hess v and Lap v in one walk over the modes."""
        t, x1, x2 = self._parts(t, x)
        v = vt = g1 = g2 = gt1 = gt2 = h11 = h12 = h22 = 0
        for m in self.modes:
            tau, taup, _ = m.t_atom.ev(t)
            f, fp, fpp = m.x1_atom.ev(x1)
            g, gp, gpp = m.x2_atom.ev(x2)
            v = v + m.coef * tau * f * g
            vt = vt + m.coef * taup * f * g
            g1 = g1 + m.coef * tau * fp * g
            g2 = g2 + m.coef * tau * f * gp
            gt1 = gt1 + m.coef * taup * fp * g
            gt2 = gt2 + m.coef * taup * f * gp
            h11 = h11 + m.coef * tau * fpp * g
            h12 = h12 + m.coef * tau * fp * gp
            h22 = h22 + m.coef * tau * f * gpp
        v, vt, g1, g2, gt1, gt2, h11, h12, h22 = (
            np.asarray(a, dtype=complex)
            for a in (v, vt, g1, g2, gt1, gt2, h11, h12, h22))
        hess = np.empty(h11.shape + (2, 2), dtype=complex)
        hess[..., 0, 0] = h11
        hess[..., 0, 1] = h12
        hess[..., 1, 0] = h12
        hess[..., 1, 1] = h22
        return FieldJet(v=v, vt=vt, gv=np.stack([g1, g2], axis=-1),
                        gvt=np.stack([gt1, gt2], axis=-1), hess=hess,
                        lap=h11 + h22)

    # -- validation ---------------------------------------------------------
    def _self_check(self, times):
        # 5 random points of [0.1, 0.9]^2 at 5 random times in `times`
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0.1, 0.9, 5), rng.uniform(0.1, 0.9, 5)])
        ts = np.asarray(rng.uniform(times[0], times[1], 5))
        eps = 1e-6
        jet = self.jet(ts, pts)
        scale = np.abs(jet.v).max() + 1.0

        vt_fd = (self.jet(ts + eps, pts).v - self.jet(ts - eps, pts).v) / (2 * eps)
        if np.abs(vt_fd - jet.vt).max() > 1e-6 * (np.abs(vt_fd).max() + scale):
            raise FieldError("dt inconsistent with finite differences")
        for j in range(2):
            dx = np.zeros((1, 2))
            dx[0, j] = eps
            plus, minus = self.jet(ts, pts + dx), self.jet(ts, pts - dx)
            g_fd = (plus.v - minus.v) / (2 * eps)
            g_an = jet.gv[..., j]
            if np.abs(g_fd - g_an).max() > 1e-6 * (np.abs(g_fd).max() + scale):
                raise FieldError("grad inconsistent with finite differences")
            h_fd = (plus.gv - minus.gv) / (2 * eps)
            h_an = jet.hess[..., j, :]
            if np.abs(h_fd - h_an).max() > 1e-4 * (np.abs(h_an).max() + scale):
                raise FieldError("hess inconsistent with finite differences")

    # -- sampling helpers ----------------------------------------------------
    def sample(self, grid, times=None) -> np.ndarray:
        """Sample values on all grid nodes for the given times (default all)."""
        times = grid.t_nodes if times is None else times
        times, x1, x2 = self._parts(times, np.stack([grid.X1, grid.X2], axis=-1))
        # the spatial factors once per call, then v per time summed as in jet
        space = [(m, m.x1_atom.ev(x1)[0], m.x2_atom.ev(x2)[0]) for m in self.modes]
        out = np.empty((times.size, grid.ny + 1, grid.nx + 1), dtype=complex)
        for k, t in enumerate(times):
            v = 0
            for m, f, g in space:
                v = v + m.coef * m.t_atom.ev(np.asarray(t))[0] * f * g
            out[k] = v
        out[:, ~grid.active_mask] = 0.0
        return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def random_trig_field(seed: int, T: float, n_modes: int = 4) -> AnalyticField:
    """Random trigonometric sum: modes exp((s+iw)t) sin(k1 pi x1 + p1) sin(...)."""
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(n_modes):
        coef = (rng.normal() + 1j * rng.normal()) / np.sqrt(n_modes)
        rate = complex(rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0))
        k1 = rng.integers(1, 4) * np.pi
        k2 = rng.integers(1, 4) * np.pi
        modes.append(Mode(coef, ExpAtom(rate),
                          SinAtom(k1, rng.uniform(0, np.pi)),
                          SinAtom(k2, rng.uniform(0, np.pi))))
    return AnalyticField(modes, check_times=(0.2 * T, 0.8 * T))


def manufactured_reference() -> AnalyticField:
    """y* = exp(-t) sin(pi x1) sin(pi x2): Dirichlet-compatible reference."""
    return AnalyticField([Mode(1.0, ExpAtom(-1.0), SinAtom(np.pi), SinAtom(np.pi))])


def random_initial_field(grid, seed: int, amplitude: float = 1.0,
                         bc: str = "dirichlet0", n_modes: int = 4) -> np.ndarray:
    """Random smooth initial data compatible with the boundary condition.

    Dirichlet data uses sine modes (zero trace); Neumann data uses cosine
    modes (zero normal derivative).  At most 8 modes.
    """
    if n_modes > 8:
        raise FieldError("at most 8 modes")
    rng = np.random.default_rng(seed)
    X1, X2 = grid.X1, grid.X2
    out = np.zeros_like(X1, dtype=complex)
    for _ in range(n_modes):
        c = (rng.normal() + 1j * rng.normal()) / np.sqrt(2 * n_modes)
        k1, k2 = rng.integers(1, 4), rng.integers(1, 4)
        if bc.startswith("dirichlet"):
            out += c * np.sin(k1 * np.pi * X1) * np.sin(k2 * np.pi * X2)
        else:
            out += c * np.cos(k1 * np.pi * X1) * np.cos(k2 * np.pi * X2)
    peak = np.abs(out).max()
    if peak > 0:
        out *= amplitude / peak
    out[~grid.active_mask] = 0.0
    return out
