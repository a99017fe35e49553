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
the grid, once per (family, mu), and the cell quadrature in
:mod:`glcarleman.functionals` assembles the weights theta^2 phi^p of each
lambda from them in log space, flushing each to exact zero once its
log-argument drops below FLUSH_LOG = -700.
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
    ell: np.ndarray
    ell_t: np.ndarray
    ell_tt: np.ndarray
    grad_ell: np.ndarray      # (..., 2)
    hess_ell: np.ndarray      # (..., 2, 2)
    lap_ell: np.ndarray
    grad_ell_t: np.ndarray    # (..., 2)


def time_factor(t, T: float):
    """sigma(t) = 1 / (t (T - t)), the time factor of phi and rho."""
    return 1.0 / (t * (T - t))


def horizon_representable(T: float, times) -> bool:
    """Whether sigma is a finite positive double at each of `times`: a
    horizon so large or so small that it overflows or vanishes leaves no
    weight to check."""
    with np.errstate(over="ignore", divide="ignore"):
        sig = time_factor(np.asarray(times, dtype=float), T)
    return bool(np.all(np.isfinite(sig) & (sig > 0)))


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

    sig = time_factor(t, T)
    sig_p = (2 * t - T) * sig ** 2
    sig_pp = 2 * sig ** 2 + 2 * (2 * t - T) ** 2 * sig ** 3

    E = np.exp(mu * psi.psi)
    K = np.exp(2 * mu * psi.sup)
    phi = E * sig
    ell = lam * ((E - K) * sig)

    gpsi = psi.grad_psi
    gpsi2 = np.einsum("...i,...i->...", gpsi, gpsi)
    grad_ell = lam * mu * phi[..., None] * gpsi
    outer = np.einsum("...i,...j->...ij", gpsi, gpsi)
    hess_ell = lam * mu * phi[..., None, None] * (mu * outer + psi.hess_psi)
    lap_ell = lam * mu * phi * (mu * gpsi2 + psi.lap_psi)
    grad_ell_t = (lam * mu * E * sig_p)[..., None] * gpsi

    return WeightSample(
        phi=phi, ell=ell,
        ell_t=lam * (E - K) * sig_p,
        ell_tt=lam * (E - K) * sig_pp,
        grad_ell=grad_ell, hess_ell=hess_ell, lap_ell=lap_ell,
        grad_ell_t=grad_ell_t,
    )


@dataclass
class WeightTables:
    """Per-(family, mu): spatial and temporal factors of the weight family.

    None of the arrays depends on lambda, so a scan tabulates them once per
    (family, mu) and each lambda cell shares them; params carries the
    cell's lambda (`dataclasses.replace(tables, params=...)`)."""

    params: CarlemanParams
    exp_mu_psi: np.ndarray       # grid nodes
    K: float
    sigma: np.ndarray            # interior time nodes (1..nt-1)
    b_dpsi_dnu: np.ndarray       # d psi / d nu at boundary samples


def weight_tables(params: CarlemanParams, grid: SpaceTimeGrid) -> WeightTables:
    """Tabulate exp(mu psi), K and sigma on the grid, and d psi/d nu at its
    boundary samples: one tabulation per (family, mu), whatever params.lam.

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
        sigma=time_factor(t_int, grid.T),
        b_dpsi_dnu=dnu,
    )


def verify_psi_admissibility(which: str, grid: SpaceTimeGrid) -> dict:
    """Scan all grid nodes against the admissibility clauses for psi, with
    the domain and omega of ``grid.spec``: {clause: whether it holds}.

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
    return clauses
