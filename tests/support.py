"""Reference helpers that only the tests use.

Each one checks or builds something in closed form beside the package:
the finite-difference and time-monotonicity checks of the weight family,
its whole tables of 2 ell and phi, the operator F y from a whole
trajectory, the volume sums as one np.einsum takes them, the scan of whole
stored trajectories, the Dirichlet-trace rule on a whole trajectory, the
stability suite's reductions of a whole stored difference and its L^inf L^6
norm, the cubic subflow as its formula reads, and polynomial field factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from glcarleman.fields import Atom
from glcarleman.functionals import lambda_scan
from glcarleman.gloperator import GLCoeffs, linear_source
from glcarleman.grid import (DomainSpec, SpaceTimeGrid, boundary_values, laplacian,
                             time_derivative, trace_breach)
from glcarleman.stability import (PreparedDifference, _linf_l6, _prepare,
                                  _difference_sums, l6_slice_sums)
from glcarleman.weights import CarlemanParams, WeightTables, eval_psi, eval_weight


@dataclass(frozen=True)
class PolyAtom(Atom):
    """Polynomial sum_k coeffs[k] * s**k."""

    coeffs: tuple

    def ev(self, s):
        s = np.asarray(s, dtype=float)
        c = self.coeffs
        n = len(c)
        f = sum(c[k] * s ** k for k in range(n))
        d1 = sum(k * c[k] * s ** (k - 1) for k in range(1, n))
        d2 = sum(k * (k - 1) * c[k] * s ** (k - 2) for k in range(2, n))
        zero = np.zeros_like(s)
        return f + zero, d1 + zero, d2 + zero


def log_theta2(tables: WeightTables) -> np.ndarray:
    """2 ell on interior times, shape (nt-1, ny+1, nx+1), formed as the
    quadrature forms it."""
    return 2.0 * tables.params.lam * (tables.exp_mu_psi - tables.K)[None] \
        * tables.sigma[:, None, None]


def phi(tables: WeightTables) -> np.ndarray:
    """phi on interior times, shape (nt-1, ny+1, nx+1)."""
    return tables.exp_mu_psi[None] * tables.sigma[:, None, None]


def einsum_space_sums(g: np.ndarray, wsp: np.ndarray) -> np.ndarray:
    """The volume sums of a C-contiguous stack of two or more slices as one
    np.einsum takes them: the reference for grid.space_sums."""
    return np.einsum("...ij,ij->...", g, wsp)


def scan_trajectories(suite, grid: SpaceTimeGrid, lambdas, mus,
                      coeffs: GLCoeffs) -> list:
    """lambda_scan of a suite [(Y, variants)] of whole stored trajectories,
    fed to it slice by slice."""
    Ys = [Y for Y, _ in suite]
    slices = iter(np.stack(Ys, axis=1)) if Ys else iter(())
    return lambda_scan(slices, [variants for _, variants in suite], grid,
                       lambdas, mus, coeffs)


def nonzero_trace(f: np.ndarray, grid: SpaceTimeGrid) -> float:
    """max |f| on Gamma if the whole trajectory f breaks the homogeneous
    Dirichlet trace, else 0.0: the reference for the scan's running maxima."""
    return trace_breach(float(np.abs(boundary_values(f, grid)).max()),
                        float(np.abs(f).max()))


def linf_l6_norm(U: np.ndarray, grid: SpaceTimeGrid) -> float:
    """max over time slices of (int |u|^6 dx)^(1/6) of a whole trajectory U:
    the reference for the stability suite's conditional constants."""
    U = grid.check_field(np.asarray(U, dtype=complex), "field")
    return _linf_l6(l6_slice_sums(U, grid))


def prepare_difference(z: np.ndarray, grid: SpaceTimeGrid,
                       c_u2: float = float("nan"), c_u1: float = float("nan"),
                       variants=("interior", "boundary")) -> PreparedDifference:
    """One gradient and the observations of ``variants`` of a whole
    difference z, with the conditional constants c_u = ||u||_{L^inf L^6}^8
    passed in (nan when the solution is not at hand): the reference for the
    stability suite's step-by-step reductions.

    For "boundary", z must carry a zero Dirichlet trace.
    """
    z = grid.check_field(np.asarray(z, dtype=complex), "difference")
    return _prepare([_difference_sums(z, grid, variants)], grid, c_u2, c_u1, variants)


def apply_F(Y: np.ndarray, grid: SpaceTimeGrid, coeffs: GLCoeffs,
            bc: str = "ghost_from_field") -> np.ndarray:
    """F y = y_t - (1+ib) Lap y + (1+ic) |y|^2 y."""
    Y = grid.check_field(np.asarray(Y, dtype=np.complex128), "trajectory")
    out = linear_source(time_derivative(Y, grid.dt), laplacian(Y, grid, bc), coeffs)
    out += (1 + 1j * coeffs.c) * np.abs(Y) ** 2 * Y
    return out


def cubic_flow_formula(y: np.ndarray, tau: float, c: float) -> np.ndarray:
    """The exact cubic subflow as its formula reads,
    y (1 + 2 tau |y|^2)^(-1/2) (cos theta + i sin theta) with
    theta = -c/2 log(1 + 2 tau |y|^2), each operation on a new array."""
    m = 1.0 + 2.0 * tau * np.abs(y) ** 2
    theta = (-0.5 * c) * np.log(m)
    return y * m ** (-0.5) * (np.cos(theta) + 1j * np.sin(theta))


def derivative_consistency(params: CarlemanParams, spec: DomainSpec,
                           which: str, points: np.ndarray,
                           times: np.ndarray) -> dict:
    """Max relative disagreement of each analytic derivative with central
    finite differences, at the given sample batch.

    Spatial differences act on the K-free part lam exp(mu psi) sigma(t);
    the dropped term lam (-K) sigma(t) is constant in x, so the spatial
    derivatives are identical while the catastrophic cancellation against
    exp(2 mu |psi|_sup) is avoided (the j2 family has K ~ e^{6 mu}).
    """
    pts = np.asarray(points, dtype=float)
    ts = np.asarray(times, dtype=float)

    def ell_at(t, x):
        psi = eval_psi(spec, which, x)
        return eval_weight(params, psi, t)

    def ell_spatial(t, x):
        # lam exp(mu psi) / (t (T - t)): the x-dependent part of ell
        psi = eval_psi(spec, which, x)
        sig = 1.0 / (t * (params.T - t))
        return params.lam * np.exp(params.mu * psi.psi) * sig

    def ell_t_spatial(t, x):
        psi = eval_psi(spec, which, x)
        sig = 1.0 / (t * (params.T - t))
        return params.lam * np.exp(params.mu * psi.psi) * (2 * t - params.T) * sig ** 2

    w = ell_at(ts, pts)
    dt = 1e-5 * params.T
    dx = 1e-4

    def rel(err, ref):
        return float(np.max(np.abs(err) / (np.abs(ref).max() + 1e-300)))

    out = {}
    wp = ell_at(ts + dt, pts)
    wm = ell_at(ts - dt, pts)
    out["ell_t"] = rel((wp.ell - wm.ell) / (2 * dt) - w.ell_t, w.ell_t)
    out["ell_tt"] = rel((wp.ell - 2 * w.ell + wm.ell) / dt ** 2 - w.ell_tt, w.ell_tt)

    f0 = ell_spatial(ts, pts)
    lap_fd = np.zeros_like(f0)
    for j in range(2):
        e = np.zeros((1, 2))
        e[0, j] = dx
        fp = ell_spatial(ts, pts + e)
        fm = ell_spatial(ts, pts - e)
        out[f"grad_ell_{j}"] = rel((fp - fm) / (2 * dx) - w.grad_ell[..., j],
                                   w.grad_ell)
        tp = ell_t_spatial(ts, pts + e)
        tm = ell_t_spatial(ts, pts - e)
        out[f"grad_ell_t_{j}"] = rel((tp - tm) / (2 * dx) - w.grad_ell_t[..., j],
                                     w.grad_ell_t)
        lap_fd += (fp - 2 * f0 + fm) / dx ** 2
    out["lap_ell"] = rel(lap_fd - w.lap_ell, w.lap_ell)
    return out


def check_time_monotonicity(tables: WeightTables, grid: SpaceTimeGrid) -> dict:
    """theta(eps,x) <= theta(t,x) <= theta(T/2,x) on [eps, T-eps], every node.

    Checked as: log_theta nondecreasing up to the middle time node and
    symmetric about T/2, at every active node.
    """
    lt = 0.5 * log_theta2(tables)[:, grid.active_mask]  # interior times only
    mid = (lt.shape[0] - 1) // 2
    inc = np.diff(lt[:mid + 1], axis=0)
    sym = lt - lt[::-1]
    return {
        "monotone_first_half": bool(np.all(inc >= -1e-12 * np.abs(lt[:mid]))),
        "symmetric": bool(np.abs(sym).max() <= 1e-9 * np.abs(lt).max()),
        "max_symmetry_defect": float(np.abs(sym).max()),
    }
