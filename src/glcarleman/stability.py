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
equation is ever formed.  Each difference is prepared once
(`prepare_difference`: one gradient, the observations) and every eps
report reads from it; the L^inf L^6 constant of u2 is taken once per suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (SpaceTimeGrid, grad, integrate_q, integrate_sigma, nonzero_trace,
                   normal_derivative)
from .solver import SolveConfig, solve


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


def linf_l6_norm(U: np.ndarray, grid: SpaceTimeGrid) -> float:
    """max over time slices of (int |u|^6 dx)^(1/6) via spatial quadrature."""
    U = grid.check_field(np.asarray(U, dtype=complex), "field")
    wsp = grid.quad_weights_space
    vals = np.einsum("tij,ij->t", np.abs(U) ** 6, wsp)
    return float(np.max(vals) ** (1.0 / 6.0))


def _grad_sq(Z: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    g1, g2 = grad(Z, grid)
    return np.abs(g1) ** 2 + np.abs(g2) ** 2


@dataclass
class PreparedDifference:
    """The eps-independent parts of every report on one difference z."""

    energy: np.ndarray   # |z|^2 + |grad z|^2, integrated over Q_eps per report
    obs: dict            # variant -> observation integral
    c_u2: float          # ||u2||_{L^inf L^6}^8 (nan without u2)
    c_u1: float          # ||u1||_{L^inf L^6}^8 (nan without u1)


def prepare_difference(z: np.ndarray, grid: SpaceTimeGrid,
                       c_u2: float = float("nan"), c_u1: float = float("nan"),
                       variants=("interior", "boundary")) -> PreparedDifference:
    """One gradient and the observations of ``variants``, with the
    conditional constants c_u = ||u||_{L^inf L^6}^8 passed in (nan when the
    solution is not at hand): u2 is shared by a whole suite, so its
    constant is computed once there.

    For "boundary", z must carry a zero Dirichlet trace.
    """
    z = grid.check_field(np.asarray(z, dtype=complex), "difference")
    az2 = np.abs(z) ** 2
    energy = az2 + _grad_sq(z, grid)
    obs = {}
    if "interior" in variants:
        obs["interior"] = integrate_q(az2 + az2 ** 2, grid, "Q_omega")
    if "boundary" in variants:
        trace = nonzero_trace(z, grid)
        if trace:
            raise StabilityError(
                f"difference trace on Gamma is {trace:.3e}; the pair was not "
                "solved with identical Dirichlet data")
        dnu = normal_derivative(z, grid)
        obs["boundary"] = integrate_sigma(np.abs(dnu) ** 2, grid)
    return PreparedDifference(energy=energy, obs=obs, c_u2=c_u2, c_u1=c_u1)


def _lhs(d: PreparedDifference, grid: SpaceTimeGrid, eps: float) -> float:
    """int_{Q_eps} (|z|^2 + |grad z|^2)."""
    if not 0 < eps < grid.T / 2:
        raise StabilityError("eps must lie in (0, T/2)")
    return integrate_q(d.energy, grid, "Q_eps", eps=eps)


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
    """Reports for u2 from y0 and u1 from y0 + delta w, over deltas x eps."""
    reports = []
    u2 = solve(y0, cfg, grid).Y
    c_u2 = linf_l6_norm(u2, grid) ** 8
    for delta in deltas:
        u1 = solve(y0 + delta * np.asarray(w), cfg, grid).Y
        d = prepare_difference(u1 - u2, grid, c_u2=c_u2,
                               c_u1=linf_l6_norm(u1, grid) ** 8,
                               variants=variants)
        for eps in eps_list:
            if "interior" in variants:
                reports.append(stability_interior(d, grid, eps, delta=delta))
            if "boundary" in variants:
                reports.append(stability_boundary(d, grid, eps, delta=delta))
        # the next delta is solved without this difference and its u1 held
        del u1, d
    return reports
