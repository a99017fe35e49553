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
lockstep (`solver.march`) and reduces each march step as it is yielded,
one member and one difference at a time, then drops it before the next
step is asked for: to the space integrals of |u|^6 of each member and of
|z|^2 + |grad z|^2 and |z|^2 + |z|^4 on omega of each difference, whose
slice takes one gradient; to the running maxima of the Dirichlet-trace
check; and to the Gamma integrals of |dz/dnu|^2.  So the suite holds one
time slice of its members, and the temporaries beside it are one
difference's.  A `PreparedDifference` holds the nt+1 per-slice integrals
and the observations, every observation's time integral is
`grid.integrate_slices` of its per-slice integrals, and every eps report
takes its Q_eps integral from them the same way.  The per-slice integrals
and time integrals are those of the whole-trajectory reductions, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (SpaceTimeGrid, boundary_values, grad_sq, integrate_slices,
                   normal_derivative, space_sums, trace_breach)
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


@dataclass
class PreparedDifference:
    """The eps-independent parts of every report on one difference z."""

    energy: np.ndarray   # (nt+1,): int (|z|^2 + |grad z|^2) dx per time slice
    obs: dict            # variant -> observation integral
    c_u2: float          # ||u2||_{L^inf L^6}^8 (nan without u2)
    c_u1: float          # ||u1||_{L^inf L^6}^8 (nan without u1)


def _difference_sums(Z: np.ndarray, grid: SpaceTimeGrid, variants) -> dict:
    """The reductions of time slices Z (k, ny+1, nx+1) of one difference:
    (k,) space integrals (on Gamma for "boundary") and maxima.  One real
    buffer takes each integrand in turn."""
    az2 = np.abs(Z)
    np.square(az2, out=az2)
    buf = grad_sq(Z, grid)
    out = {"energy": space_sums(np.add(az2, buf, out=buf), grid.quad_weights_space)}
    if "interior" in variants:
        np.square(az2, out=buf)
        out["interior"] = space_sums(np.add(az2, buf, out=buf), grid.omega_weights)
    if "boundary" in variants:
        out["trace"] = np.abs(boundary_values(Z, grid)).max()
        out["peak"] = np.abs(Z, out=buf).max()
        out["boundary"] = space_sums(np.abs(normal_derivative(Z, grid)) ** 2,
                                     grid.boundary_weights)
    return out


def _prepare(reductions: list, grid: SpaceTimeGrid, c_u2: float, c_u1: float,
             variants) -> PreparedDifference:
    """A PreparedDifference from the reductions of a difference's time
    slices, in order.

    For "boundary", the difference must carry a zero Dirichlet trace.
    """
    cat = {key: np.concatenate([w[key] for w in reductions])
           for key in ("energy", *variants)}
    obs = {v: integrate_slices(cat[v], grid) for v in variants}
    if "boundary" in variants:
        trace = np.max([w["trace"] for w in reductions])
        peak = np.max([w["peak"] for w in reductions])
        if breach := trace_breach(float(trace), float(peak)):
            raise StabilityError(
                f"difference trace on Gamma is {breach:.3e}; the pair was not "
                "solved with identical Dirichlet data")
    return PreparedDifference(energy=cat["energy"], obs=obs, c_u2=c_u2, c_u1=c_u1)


def stability_interior(d: PreparedDifference, grid: SpaceTimeGrid, eps: float,
                       delta: float = float("nan")) -> StabilityReport:
    """Interior-observation report for a prepared difference."""
    lhs = integrate_slices(d.energy, grid, eps)
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
    lhs = integrate_slices(d.energy, grid, eps)
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

    u2 and every u1 are marched together; each march step is reduced one
    member and one difference at a time, each as a one-slice stack, and
    dropped before the next step is asked for, so that no trajectory, and
    no second step, is held.  ``grid.space_sums`` sums each slice alike
    however it is stacked, so the reports are those of reducing the whole
    stack at once, bit for bit.
    """
    # the stack of initial data is handed over, not held
    steps = march(np.stack([y0] + [y0 + delta * np.asarray(w) for delta in deltas]),
                  cfg, grid)
    sixth, sums = [], [[] for _ in deltas]
    for step in steps:
        U = step.Y           # u2 and each u1 at one time node
        sixth.append([l6_slice_sums(u[None], grid) for u in U])
        for i, diff_sums in enumerate(sums, 1):
            diff_sums.append(_difference_sums((U[i] - U[0])[None], grid, variants))
        # so that this step is not alive while march forms the next one
        del step, U
    c_u = [_linf_l6(np.concatenate(member)) ** 8 for member in zip(*sixth)]
    prepared = [_prepare(diff_sums, grid, c_u[0], c_u1, variants)
                for diff_sums, c_u1 in zip(sums, c_u[1:])]
    reports = []
    for delta, d in zip(deltas, prepared):
        for eps in eps_list:
            if "interior" in variants:
                reports.append(stability_interior(d, grid, eps, delta=delta))
            if "boundary" in variants:
                reports.append(stability_boundary(d, grid, eps, delta=delta))
    return reports
