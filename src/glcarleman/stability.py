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
one member and one difference at a time, into column k of (nt+1,) rows:
int |u|^6 of each member, and int |z|^2 + |grad z|^2 (one gradient) and
each observed variant's integral of each difference.  So it holds one time
slice of its members and one difference's temporaries, plus the rows, 8
bytes per time node each.  A `PreparedDifference` holds a difference's
energy row and the time integrals of its observation rows, and every eps
report takes its Q_eps integral from that row (`grid.integrate_slices`, as
the observations do).  Rows and integrals are those of the
whole-trajectory reductions, bit for bit.  The boundary variant needs z to
have a zero Dirichlet trace, which a pair solved with ``dirichlet0`` has
exactly (`march` writes zeros on Gamma), on the square, so the suite checks
``cfg.bc`` and the grid's shape before it marches, and samples no trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (SpaceTimeGrid, grad_sq, integrate_slices, normal_derivative,
                   space_sums)
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


@dataclass
class PreparedDifference:
    """The eps-independent parts of every report on one difference z."""

    energy: np.ndarray   # (nt+1,): int (|z|^2 + |grad z|^2) dx per time slice
    obs: dict            # variant -> observation integral
    c_u2: float          # ||u2||_{L^inf L^6}^8 (nan without u2)
    c_u1: float          # ||u1||_{L^inf L^6}^8 (nan without u1)


def _difference_sums(z: np.ndarray, grid: SpaceTimeGrid, variants) -> dict:
    """The space integrals of one time slice z (ny+1, nx+1) of a difference:
    "energy" and one per variant (on Gamma for "boundary").  One real
    buffer takes each integrand in turn."""
    az2 = np.abs(z)
    np.square(az2, out=az2)
    buf = grad_sq(z, grid)
    out = {"energy": space_sums(np.add(az2, buf, out=buf), grid.quad_weights_space)}
    if "interior" in variants:
        np.square(az2, out=buf)
        out["interior"] = space_sums(np.add(az2, buf, out=buf), grid.omega_weights)
    if "boundary" in variants:
        out["boundary"] = space_sums(np.abs(normal_derivative(z, grid)) ** 2,
                                     grid.boundary_weights)
    return out


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
    member and one difference at a time into column k of the rows, keyed
    by variant, and dropped before the next step is asked for, so that no
    trajectory, and no second step, is held.  ``grid.space_sums`` sums a
    slice alike however it is stacked, so the reports are those of whole
    trajectories, bit for bit.  The boundary variant observes a difference
    with zero Dirichlet trace on the square: unless the pair is solved with
    ``dirichlet0`` on ``unit_square``, it raises StabilityError before
    anything is marched.
    """
    if "boundary" in variants and cfg.bc != "dirichlet0":
        raise StabilityError("the boundary variant needs a pair solved with "
                             f"dirichlet0, not {cfg.bc}")
    if "boundary" in variants and grid.spec.shape != "unit_square":
        raise StabilityError("the boundary variant observes the normal derivative, "
                             f"defined on unit_square only, not {grid.spec.shape}")
    # the stack of initial data is handed over, not held
    steps = march(np.stack([y0] + [y0 + delta * np.asarray(w) for delta in deltas]),
                  cfg, grid)
    sixth = np.empty((len(deltas) + 1, grid.nt + 1))
    rows = {key: np.empty((len(deltas), grid.nt + 1)) for key in ("energy", *variants)}
    k = 0      # not enumerate, whose last result would hold the last step
    for step in steps:
        U = step.Y           # u2 and each u1 at time node k
        sixth[:, k] = [l6_slice_sums(u, grid) for u in U]
        for i in range(len(deltas)):
            sums = _difference_sums(U[i + 1] - U[0], grid, variants)
            for key, row in rows.items():
                row[i, k] = sums[key]
        k += 1
        # so that this step is not alive while march forms the next one
        del step, U
    c_u = [float(row.max() ** (1.0 / 6.0)) ** 8 for row in sixth]
    reports = []
    for i, delta in enumerate(deltas):
        d = PreparedDifference(
            energy=rows["energy"][i], c_u2=c_u[0], c_u1=c_u[i + 1],
            obs={v: integrate_slices(rows[v][i], grid) for v in variants})
        for eps in eps_list:
            if "interior" in variants:
                reports.append(stability_interior(d, grid, eps, delta=delta))
            if "boundary" in variants:
                reports.append(stability_boundary(d, grid, eps, delta=delta))
    return reports
