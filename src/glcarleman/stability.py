"""State observation experiments: conditional stability of the difference map.

Two forward solves with identical boundary data and differing initial data
produce u1, u2 and z = u1 - u2 (which then satisfies homogeneous boundary
conditions by construction).  The interior-observation estimate compares

    lhs      = int_{Q_eps} (|z|^2 + |grad z|^2)
    rhs_obs  = int_{Q_omega} (|z|^2 + |z|^4)

through the conditional constant C(u2) = C ||u2||_{L^inf L^6}^8; the
empirical constant c_emp = lhs / (||u2||^8 rhs_obs) is reported (and its
u1-normalized twin).  The boundary variant observes the normal derivative:

    rhs_obs  = int_{Sigma_0} |d z / d nu|^2,     c_emp = lhs / rhs_obs.

The difference z is always computed from the two solves; no difference
equation is ever formed.  `perturbation_suite` marches u2 and every u1 in
lockstep (`solver.march`), and `grid.windows` tiles their time slices.
Each window is reduced, then dropped: to the space integrals of |u|^6 of
every member and of |z|^2 + |grad z|^2 and |z|^2 + |z|^4 on omega of every
difference, with one gradient per window; to the running maxima of the
Dirichlet-trace check; and to the boundary samples |dz/dnu|^2, which are
kept, since one slice of them is a boundary's worth of nodes.  A
`PreparedDifference` holds the nt+1 per-slice integrals and the
observations, and every eps report takes its Q_eps integral from them by
`grid.integrate_slices`.  The per-slice integrals and time integrals are
those of the whole-trajectory reductions, bit for bit, whatever the window
length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (SpaceTimeGrid, boundary_values, grad, integrate_sigma,
                   integrate_slices, normal_derivative, space_sums, trace_breach,
                   windows)
from .solver import SolveConfig, march


class StabilityError(ValueError):
    pass


@dataclass
class StabilityReport:
    variant: str
    epsilon: float
    lhs: float
    rhs_obs: float
    c_u2: float
    c_u1: float
    c_emp: float
    c_emp_u1: float
    degenerate: bool
    perturbation_scale: float = float("nan")

    def as_row(self) -> dict:
        return {"variant": self.variant, "epsilon": self.epsilon,
                "delta": self.perturbation_scale, "lhs": self.lhs,
                "rhs_obs": self.rhs_obs, "c_u2": self.c_u2, "c_u1": self.c_u1,
                "c_emp": self.c_emp, "c_emp_u1": self.c_emp_u1,
                "degenerate": int(self.degenerate)}


def l6_slice_sums(U: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """int |u|^6 dx of each slice of U (..., ny+1, nx+1)."""
    return space_sums(np.abs(U) ** 6, grid.quad_weights_space)


def _linf_l6(slice_sums) -> float:
    return float(np.max(slice_sums) ** (1.0 / 6.0))


def linf_l6_norm(U: np.ndarray, grid: SpaceTimeGrid) -> float:
    """max over time slices of (int |u|^6 dx)^(1/6) via spatial quadrature."""
    U = grid.check_field(np.asarray(U, dtype=complex), "field")
    return _linf_l6(l6_slice_sums(U, grid))


def _grad_sq(Z: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    g1, g2 = grad(Z, grid)
    return np.abs(g1) ** 2 + np.abs(g2) ** 2


@dataclass
class PreparedDifference:
    """The eps-independent parts of every report on one difference z."""

    energy: np.ndarray   # (nt+1,): int (|z|^2 + |grad z|^2) dx per time slice
    obs: dict            # variant -> observation integral
    c_u2: float          # ||u2||_{L^inf L^6}^8 (nan without u2)
    c_u1: float          # ||u1||_{L^inf L^6}^8 (nan without u1)


def _window_sums(Z: np.ndarray, grid: SpaceTimeGrid, variants) -> dict:
    """The reductions of a window Z (m, w, ny+1, nx+1) of m differences:
    (m, w) space integrals, (m,) maxima and (m, w, nb) boundary samples."""
    wsp = grid.quad_weights_space
    az2 = np.abs(Z) ** 2
    out = {"energy": space_sums(az2 + _grad_sq(Z, grid), wsp)}
    if "interior" in variants:
        out["interior"] = space_sums(az2 + az2 ** 2, wsp * grid.omega_mask)
    if "boundary" in variants:
        out["trace"] = np.abs(boundary_values(Z, grid)).max(axis=(1, 2))
        out["peak"] = np.abs(Z).max(axis=(1, 2, 3))
        out["boundary"] = np.abs(normal_derivative(Z, grid)) ** 2
    return out


def _prepare(reductions: list, grid: SpaceTimeGrid, c_u2: float, c_u1s,
             variants) -> list:
    """A PreparedDifference for each difference, from the reductions of the
    windows that tile its time slices in order.

    For "boundary", each difference must carry a zero Dirichlet trace.
    """
    cat = {key: np.concatenate([w[key] for w in reductions], axis=1)
           for key in ("energy", *variants)}
    if "boundary" in variants:
        traces = np.max([w["trace"] for w in reductions], axis=0)
        peaks = np.max([w["peak"] for w in reductions], axis=0)
        for trace, peak in zip(traces, peaks):
            if breach := trace_breach(float(trace), float(peak)):
                raise StabilityError(
                    f"difference trace on Gamma is {breach:.3e}; the pair was not "
                    "solved with identical Dirichlet data")
    out = []
    for i, c_u1 in enumerate(c_u1s):
        obs = {}
        if "interior" in variants:
            obs["interior"] = integrate_slices(cat["interior"][i], grid, "Q_omega")
        if "boundary" in variants:
            # laid out as normal_derivative lays out a whole trajectory's
            # samples, time fastest: BLAS sums each time's row in the order
            # that the layout gives
            obs["boundary"] = integrate_sigma(
                np.asfortranarray(cat["boundary"][i]), grid)
        out.append(PreparedDifference(energy=cat["energy"][i], obs=obs,
                                      c_u2=c_u2, c_u1=c_u1))
    return out


def prepare_difference(z: np.ndarray, grid: SpaceTimeGrid,
                       c_u2: float = float("nan"), c_u1: float = float("nan"),
                       variants=("interior", "boundary")) -> PreparedDifference:
    """One gradient and the observations of ``variants`` of a whole
    difference z, with the conditional constants c_u = ||u||_{L^inf L^6}^8
    passed in (nan when the solution is not at hand).

    For "boundary", z must carry a zero Dirichlet trace.
    """
    z = grid.check_field(np.asarray(z, dtype=complex), "difference")
    (d,) = _prepare([_window_sums(z[None], grid, variants)], grid, c_u2,
                    [c_u1], variants)
    return d


def _lhs(d: PreparedDifference, grid: SpaceTimeGrid, eps: float) -> float:
    """int_{Q_eps} (|z|^2 + |grad z|^2)."""
    if not 0 < eps < grid.T / 2:
        raise StabilityError("eps must lie in (0, T/2)")
    return integrate_slices(d.energy, grid, "Q_eps", eps=eps)


def stability_interior(d: PreparedDifference, grid: SpaceTimeGrid, eps: float,
                       delta: float = float("nan")) -> StabilityReport:
    """Interior-observation report for a prepared difference."""
    lhs = _lhs(d, grid, eps)
    rhs = d.obs["interior"]
    c_u2, c_u1 = d.c_u2, d.c_u1
    degenerate = rhs == 0.0
    c_emp = lhs / (c_u2 * rhs) if (rhs > 0 and c_u2 > 0) else float("nan")
    c_emp_u1 = lhs / (c_u1 * rhs) if (rhs > 0 and c_u1 > 0) else float("nan")
    return StabilityReport(variant="interior", epsilon=eps, lhs=lhs, rhs_obs=rhs,
                           c_u2=c_u2, c_u1=c_u1, c_emp=c_emp, c_emp_u1=c_emp_u1,
                           degenerate=degenerate, perturbation_scale=delta)


def stability_boundary(d: PreparedDifference, grid: SpaceTimeGrid, eps: float,
                       delta: float = float("nan")) -> StabilityReport:
    """Boundary-observation report for a prepared difference."""
    lhs = _lhs(d, grid, eps)
    rhs = d.obs["boundary"]
    degenerate = rhs == 0.0
    c_emp = lhs / rhs if rhs > 0 else float("nan")
    return StabilityReport(variant="boundary", epsilon=eps, lhs=lhs, rhs_obs=rhs,
                           c_u2=float("nan"), c_u1=float("nan"), c_emp=c_emp,
                           c_emp_u1=float("nan"), degenerate=degenerate,
                           perturbation_scale=delta)


def perturbation_suite(y0: np.ndarray, w: np.ndarray, deltas, eps_list,
                       cfg: SolveConfig, grid: SpaceTimeGrid,
                       variants=("interior", "boundary")) -> list:
    """Reports for u2 from y0 and u1 from y0 + delta w, over deltas x eps.

    u2 and every u1 are marched together; each window of their time slices
    is reduced and dropped, so that no trajectory is held.
    """
    Y0 = np.stack([y0] + [y0 + delta * np.asarray(w) for delta in deltas])
    sixth, sums = [], []
    for _, U in windows((step.Y for step in march(Y0, cfg, grid)), grid,
                        Y0.shape, halo=0):
        # U: (u2 and each u1, slices, ny+1, nx+1)
        sixth.append(l6_slice_sums(U, grid))
        sums.append(_window_sums(U[1:] - U[:1], grid, variants))
    c_u = [_linf_l6(member) ** 8 for member in np.concatenate(sixth, axis=1)]
    reports = []
    for delta, d in zip(deltas, _prepare(sums, grid, c_u[0], c_u[1:], variants)):
        for eps in eps_list:
            if "interior" in variants:
                reports.append(stability_interior(d, grid, eps, delta=delta))
            if "boundary" in variants:
                reports.append(stability_boundary(d, grid, eps, delta=delta))
    return reports
