"""Carleman weight machinery.

Auxiliary functions psi are built analytically per domain:

* unit square, interior family:  psi1 = x1(1-x1) x2(1-x2), sup norm 1/16,
  critical point (1/2, 1/2) (must lie inside omega);
* unit disk, interior family:    psi1 = 1 - |x|^2, sup norm 1, critical
  point at the origin;
* boundary family (Gamma_0 = Gamma): psi2 = 2 + x1, sup norm 3, positive
  with |grad psi2| = 1 everywhere; the boundary clauses on Gamma \\ Gamma_0
  are vacuous.

From psi the weight family is

    phi  = exp(mu psi) / (t (T - t)),
    rho  = (exp(mu psi) - exp(2 mu |psi|_sup)) / (t (T - t))  < 0,
    ell  = lambda rho,      theta = exp(ell),

with all derivatives needed by the pointwise identity evaluated in closed
form.  theta spans hundreds of orders of magnitude, so only log(theta) = ell
is ever stored: :func:`weight_tables` tabulates exp(mu psi), K and sigma over
the grid, and the cell quadrature in :mod:`glcarleman.functionals` assembles
the weights theta^2 phi^p from them in log space, flushing each to exact zero
once its log-argument drops below FLUSH_LOG = -700.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, SpaceTimeGrid

PSI_SUP = {
    ("unit_square", "psi1"): 1.0 / 16.0,
    ("unit_disk", "psi1"): 1.0,
    ("unit_square", "psi2"): 3.0,
    ("unit_disk", "psi2"): 3.0,
}

CRITICAL_POINT = {
    ("unit_square", "psi1"): (0.5, 0.5),
    ("unit_disk", "psi1"): (0.0, 0.0),
}


class WeightError(ValueError):
    pass


@dataclass
class PsiSample:
    """psi and its derivatives at a batch of points; sup is analytic."""

    psi: np.ndarray
    grad_psi: np.ndarray   # (..., 2)
    hess_psi: np.ndarray   # (..., 2, 2)
    lap_psi: np.ndarray
    sup: float


@dataclass(frozen=True)
class CarlemanParams:
    lam: float
    mu: float
    T: float
    family: str = "j1_interior"

    def __post_init__(self):
        if not self.lam > 1:
            raise WeightError("lambda must exceed 1")
        if not self.mu > 1:
            raise WeightError("mu must exceed 1")
        if not self.T > 0:
            raise WeightError("T must be positive")
        if self.family not in ("j1_interior", "j2_boundary"):
            raise WeightError(f"unknown weight family {self.family!r}")

    @property
    def which_psi(self) -> str:
        return "psi1" if self.family == "j1_interior" else "psi2"


@dataclass
class WeightSample:
    """Weight family evaluated at a batch of (t, x) with analytic derivatives."""

    phi: np.ndarray
    rho: np.ndarray
    ell: np.ndarray
    ell_t: np.ndarray
    ell_tt: np.ndarray
    grad_ell: np.ndarray      # (..., 2)
    hess_ell: np.ndarray      # (..., 2, 2)
    lap_ell: np.ndarray
    grad_ell_t: np.ndarray    # (..., 2)
    phi_t: np.ndarray
    rho_t: np.ndarray


def critical_point_in_omega(spec: DomainSpec) -> bool:
    """Whether psi1's critical point lies inside omega, as admissibility asks."""
    cx, cy = CRITICAL_POINT[(spec.shape, "psi1")]
    ox, oy = spec.omega_center
    return (cx - ox) ** 2 + (cy - oy) ** 2 < spec.omega_radius ** 2


def eval_psi(spec: DomainSpec, which: str, x: np.ndarray) -> PsiSample:
    """Evaluate the analytic auxiliary function at points x (shape (..., 2))."""
    if which not in ("psi1", "psi2"):
        raise WeightError(f"which must be 'psi1' or 'psi2', got {which!r}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise WeightError("points must have trailing dimension 2")
    x1, x2 = x[..., 0], x[..., 1]
    base = np.zeros_like(x1)

    if which == "psi1" and spec.shape == "unit_square":
        psi = x1 * (1 - x1) * x2 * (1 - x2)
        g1 = (1 - 2 * x1) * x2 * (1 - x2)
        g2 = x1 * (1 - x1) * (1 - 2 * x2)
        h11 = -2 * x2 * (1 - x2) + base
        h22 = -2 * x1 * (1 - x1) + base
        h12 = (1 - 2 * x1) * (1 - 2 * x2)
    elif which == "psi1" and spec.shape == "unit_disk":
        psi = 1 - x1 * x1 - x2 * x2
        g1 = -2 * x1
        g2 = -2 * x2
        h11 = -2 + base
        h22 = -2 + base
        h12 = base
    else:  # psi2, any domain, Gamma_0 = Gamma
        psi = 2 + x1
        g1 = np.ones_like(x1)
        g2 = base
        h11 = h22 = h12 = base

    grad_psi = np.stack([g1, g2], axis=-1)
    hess = np.empty(x1.shape + (2, 2))
    hess[..., 0, 0] = h11
    hess[..., 0, 1] = h12
    hess[..., 1, 0] = h12
    hess[..., 1, 1] = h22
    return PsiSample(psi=psi, grad_psi=grad_psi, hess_psi=hess,
                     lap_psi=h11 + h22, sup=PSI_SUP[(spec.shape, which)])


def eval_weight(params: CarlemanParams, psi: PsiSample, t) -> WeightSample:
    """Evaluate the weight family and its derivatives at times t.

    t must broadcast against the psi batch and satisfy 0 < t < T.
    """
    lam, mu, T = params.lam, params.mu, params.T
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) or np.any(t >= T):
        raise WeightError("eval_weight requires t strictly inside (0, T)")

    sig = 1.0 / (t * (T - t))
    sig_p = (2 * t - T) * sig ** 2
    sig_pp = 2 * sig ** 2 + 2 * (2 * t - T) ** 2 * sig ** 3

    E = np.exp(mu * psi.psi)
    K = np.exp(2 * mu * psi.sup)
    phi = E * sig
    rho = (E - K) * sig
    ell = lam * rho

    gpsi = psi.grad_psi
    gpsi2 = np.einsum("...i,...i->...", gpsi, gpsi)
    grad_ell = lam * mu * phi[..., None] * gpsi
    outer = np.einsum("...i,...j->...ij", gpsi, gpsi)
    hess_ell = lam * mu * phi[..., None, None] * (mu * outer + psi.hess_psi)
    lap_ell = lam * mu * phi * (mu * gpsi2 + psi.lap_psi)
    grad_ell_t = (lam * mu * E * sig_p)[..., None] * gpsi

    return WeightSample(
        phi=phi, rho=rho, ell=ell,
        ell_t=lam * (E - K) * sig_p,
        ell_tt=lam * (E - K) * sig_pp,
        grad_ell=grad_ell, hess_ell=hess_ell, lap_ell=lap_ell,
        grad_ell_t=grad_ell_t,
        phi_t=E * sig_p,
        rho_t=(E - K) * sig_p,
    )


@dataclass
class WeightTables:
    """Per-(family, mu): spatial and temporal factors of the weight family."""

    params: CarlemanParams
    exp_mu_psi: np.ndarray       # grid nodes
    K: float
    sigma: np.ndarray            # interior time nodes (1..nt-1)
    b_dpsi_dnu: np.ndarray       # d psi / d nu at boundary samples

    def log_theta2(self):
        """2 ell on interior times, shape (nt-1, ny+1, nx+1)."""
        return 2.0 * self.params.lam * (self.exp_mu_psi - self.K)[None] \
            * self.sigma[:, None, None]

    def phi(self):
        return self.exp_mu_psi[None] * self.sigma[:, None, None]


def weight_tables(params: CarlemanParams, grid: SpaceTimeGrid) -> WeightTables:
    """Tabulate exp(mu psi), K and sigma on the grid, and d psi/d nu at its
    boundary samples.

    sigma uses the grid horizon grid.T; callers that integrate against the
    tables check that params.T agrees with it.
    """
    pts = np.stack([grid.X1, grid.X2], axis=-1)
    psi = eval_psi(grid.spec, params.which_psi, pts)
    t_int = grid.t_nodes[1:-1]
    bpsi = eval_psi(grid.spec, params.which_psi, grid.boundary_points)
    dnu = np.einsum("bi,bi->b", bpsi.grad_psi, grid.boundary_normals)
    return WeightTables(
        params=params,
        exp_mu_psi=np.exp(params.mu * psi.psi),
        K=float(np.exp(2 * params.mu * psi.sup)),
        sigma=1.0 / (t_int * (grid.T - t_int)),
        b_dpsi_dnu=dnu,
    )


def export_envelope_csv(tables: WeightTables, grid: SpaceTimeGrid, path) -> None:
    """Write log(theta) and phi at interior times and active nodes as CSV:
    t, x1, x2, log_theta, phi."""
    import csv

    log_theta = 0.5 * tables.log_theta2()    # halving is exact
    phi = tables.phi()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x1", "x2", "log_theta", "phi"])
        for k in range(1, grid.nt):
            t = grid.t_nodes[k]
            for iy in range(grid.ny + 1):
                for ix in range(grid.nx + 1):
                    if not grid.active_mask[iy, ix]:
                        continue
                    w.writerow([format(t, ".17g"),
                                format(grid.X1[iy, ix], ".17g"),
                                format(grid.X2[iy, ix], ".17g"),
                                format(log_theta[k - 1, iy, ix], ".17g"),
                                format(phi[k - 1, iy, ix], ".17g")])


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
    out["phi_t"] = rel((wp.phi - wm.phi) / (2 * dt) - w.phi_t, w.phi_t)

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
    lt = 0.5 * tables.log_theta2()[:, grid.active_mask]  # interior times only
    mid = (lt.shape[0] - 1) // 2
    inc = np.diff(lt[:mid + 1], axis=0)
    sym = lt - lt[::-1]
    return {
        "monotone_first_half": bool(np.all(inc >= -1e-12 * np.abs(lt[:mid]))),
        "symmetric": bool(np.abs(sym).max() <= 1e-9 * np.abs(lt).max()),
        "max_symmetry_defect": float(np.abs(sym).max()),
    }


@dataclass
class AdmissibilityReport:
    which: str
    clauses: dict
    min_grad_outside_omega: float
    passed: bool


def verify_psi_admissibility(which: str, grid: SpaceTimeGrid) -> AdmissibilityReport:
    """Scan all grid nodes against the admissibility clauses for psi, with
    the domain and omega of ``grid.spec``.

    Failures are reported, never raised.  Square corner nodes are excluded
    from the gradient scan (the corner points are excluded from all weighted
    integrals; see the grid module).
    """
    spec = grid.spec
    pts = np.stack([grid.X1, grid.X2], axis=-1)
    psi = eval_psi(spec, which, pts)
    gnorm = np.sqrt(np.einsum("...i,...i->...", psi.grad_psi, psi.grad_psi))

    min_psi = float(psi.psi[grid.interior_mask].min())
    scan = grid.active_mask & ~grid.omega_mask & ~grid.corner_mask
    min_grad = float(gnorm[scan].min())

    clauses = {"psi_positive_in_interior": min_psi > 0}
    if which == "psi1":
        trace = eval_psi(spec, which, grid.boundary_points).psi
        clauses["psi_zero_on_boundary"] = float(np.abs(trace).max()) <= 1e-12
        clauses["grad_nonvanishing_outside_omega"] = min_grad > 0
        clauses["critical_point_in_omega"] = critical_point_in_omega(spec)
    else:
        clauses["grad_nonvanishing_in_interior"] = min_grad > 0
        # Gamma_0 = Gamma: Gamma \ Gamma_0 is empty, its clauses hold vacuously
        clauses["boundary_clauses_vacuous"] = True

    return AdmissibilityReport(
        which=which, clauses=clauses, min_grad_outside_omega=min_grad,
        passed=all(clauses.values()),
    )
