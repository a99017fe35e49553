"""Both sides of the global Carleman inequalities, with lambda/mu scans.

Interior variant (weight family j1, observation on Q_omega):

    LHS = int_Q (lam phi)^{-1} theta^2 (|y_t|^2 + |Lap y|^2)
        + int_Q theta^2 (|y|^6 + |y|^2 |grad y|^2)
        + lam mu^2 int_Q theta^2 phi (lam^2 mu^2 phi^2 |y|^2 + |grad y|^2
                                      + lam phi |y|^4)
    RHS = int_Q theta^2 |G y|^2
        + lam^2 mu^2 int_{Q_omega} theta^2 phi^2 (lam mu^2 phi |y|^2 + |y|^4)

Boundary variant (family j2, Dirichlet trace, observation through the
normal derivative on Sigma_0):

    RHS = int_Q theta^2 |G y|^2
        + lam mu int_{Sigma_0} phi theta^2 (d psi2 / d nu) |dy/dnu|^2

Linear variants drop every cubic term and use |y_t - (1+ib) Lap y|^2 as the
source.  The table `TERMS` holds every term once, with its side, variants,
integrand, powers of lambda, mu and phi, and region; one cell, (trajectory,
weight family, lambda, mu), loops over it, yields the cubic and the linear
variant of its family and takes each shared integral once.

The inequality constants are existential, so every report carries the raw
bracket values of both sides and the ratio rhs/lhs; scans flag the smallest
lambda past which the ratio is stable (successive change <= 10%).

Numerics: theta^2 spans hundreds of orders of magnitude (for family j2 it
underflows doubles for every lambda > 1), so each (lambda, mu) cell is
evaluated with a common log-offset: weights exp(2 ell - log_scale) with
log_scale = max_Q 2 ell.  Both sides share the offset, leaving the ratio
exact; reported totals are the raw bracket times exp(-log_scale).
`prepare_trajectory` takes log g of every integrand once per trajectory, the
boundary one |dy/dnu|^2 too (square only), on interior times and with
log 0 = -inf, so a cell only adds logs.  Integrands are exp(2 ell + log g - log_scale), flushed
to exact zero wherever the argument is <= -700; on Sigma_0 the sign of
d psi/d nu is applied after the flush.  Per time slice, the maxima of 2 ell and
log g and the extremes of log phi bound the argument from above, summed in
its own order; rounding is monotone, so a slice whose bound is <= -700 holds
only exact zeros and is skipped.  Quadrature sums are compensated.  Square
corner nodes are excluded from all weighted integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gloperator import GLCoeffs, apply_G, linear_source, time_derivative
from .grid import SpaceTimeGrid, grad, laplacian, nonzero_trace, normal_derivative
from .weights import CarlemanParams, WeightTables, weight_tables

FLUSH_LOG = -700.0
STABILIZATION_TOL = 0.10

# variant -> weight family; each family's cubic variant comes before its linear one
VARIANT_FAMILY = {"interior": "j1_interior", "boundary": "j2_boundary",
                  "linear_interior": "j1_interior", "linear_boundary": "j2_boundary"}
VARIANTS = tuple(VARIANT_FAMILY)


class Term(NamedTuple):
    """One weighted term lam^lam_power mu^mu_power int theta^2 phi^phi_power g
    (times 1/(lam phi) if inv_lam_phi) over Q, Q_omega or Sigma_0."""

    name: str             # breakdown key
    side: str             # "lhs" or "rhs"
    variants: frozenset   # the variants whose inequality holds the term
    integrand: str        # the LogIntegrand attribute of TrajectoryData
    lam_power: int
    mu_power: int
    phi_power: float      # Sigma_0 quadrature takes phi^1 only
    inv_lam_phi: bool
    region: str           # "Q", "Q_omega" or "Sigma_0"


_ALL, _CUBIC = frozenset(VARIANTS), frozenset({"interior", "boundary"})
_J1 = frozenset({"interior", "linear_interior"})
_LINEAR, _J2 = _ALL - _CUBIC, _ALL - _J1
# every total is sum(breakdown.values()), so the row order is the summation
# order; the linear left side is the rows shared with the cubic one
TERMS = (
    Term("energy_t", "lhs", _ALL, "log_yt2", 0, 0, 0.0, True, "Q"),
    Term("energy_lap", "lhs", _ALL, "log_lap2", 0, 0, 0.0, True, "Q"),
    Term("w_l2", "lhs", _ALL, "log_y2", 3, 4, 3.0, False, "Q"),
    Term("w_grad", "lhs", _ALL, "log_grad2", 1, 2, 1.0, False, "Q"),
    Term("sextic", "lhs", _CUBIC, "log_y6", 0, 0, 0.0, False, "Q"),
    Term("mixed", "lhs", _CUBIC, "log_y2_grad2", 0, 0, 0.0, False, "Q"),
    Term("w_l4", "lhs", _CUBIC, "log_y4", 2, 2, 2.0, False, "Q"),
    Term("source", "rhs", _CUBIC, "log_G2", 0, 0, 0.0, False, "Q"),
    Term("source", "rhs", _LINEAR, "log_lin_src2", 0, 0, 0.0, False, "Q"),
    Term("obs_l2", "rhs", _J1, "log_y2", 3, 4, 3.0, False, "Q_omega"),
    Term("obs_boundary", "rhs", _J2, "log_dnu2", 1, 1, 1.0, False, "Sigma_0"),
    Term("obs_l4", "rhs", _J1 & _CUBIC, "log_y4", 2, 2, 2.0, False, "Q_omega"),
)


class FunctionalError(ValueError):
    pass


@dataclass
class CarlemanReport:
    variant: str
    lam: float
    mu: float
    lhs_total: float
    rhs_total: float
    lhs_breakdown: dict
    rhs_breakdown: dict
    ratio: float                 # rhs_total / lhs_total
    log_scale: float             # raw value = reported * exp(log_scale)
    degenerate: bool = False
    obs_negative: bool = False

    def as_row(self) -> dict:
        row = {"variant": self.variant, "lambda": self.lam, "mu": self.mu,
               "lhs_total": self.lhs_total, "rhs_total": self.rhs_total,
               "ratio": self.ratio, "log_scale": self.log_scale,
               "degenerate": int(self.degenerate),
               "obs_negative": int(self.obs_negative)}
        for k, v in self.lhs_breakdown.items():
            row[f"lhs_{k}"] = v
        for k, v in self.rhs_breakdown.items():
            row[f"rhs_{k}"] = v
        return row


@dataclass
class LogIntegrand:
    """log g of one integrand g >= 0 on the interior times, with log 0 = -inf,
    and its maximum over each time slice."""

    values: np.ndarray
    slice_max: np.ndarray

    @classmethod
    def of(cls, g: np.ndarray) -> LogIntegrand:
        """From g on every time node."""
        g = g[1:-1]
        values = np.where(g > 0, np.log(np.where(g > 0, g, 1.0)), -np.inf)
        return cls(values, values.max(axis=tuple(range(1, values.ndim))))

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.slice_max.nbytes


@dataclass
class TrajectoryData:
    """Stencil quantities of one trajectory, precomputed once per scan: every
    integrand of `TERMS` in log form."""

    log_yt2: LogIntegrand         # |y_t|^2
    log_lap2: LogIntegrand        # |Lap y|^2
    log_y2: LogIntegrand          # |y|^2
    log_grad2: LogIntegrand       # |grad y|^2
    log_G2: LogIntegrand          # |G y|^2
    log_lin_src2: LogIntegrand    # |y_t - (1+ib) Lap y|^2
    log_y6: LogIntegrand          # |y|^6
    log_y2_grad2: LogIntegrand    # |y|^2 |grad y|^2
    log_y4: LogIntegrand          # |y|^4
    # the square only (None on the disk, where j2 is rejected):
    log_dnu2: LogIntegrand | None  # |dy/dnu|^2 at boundary samples
    trace_error: float | None      # max |y| on Gamma if the trace is not zero, else 0


def prepare_trajectory(Y: np.ndarray, grid: SpaceTimeGrid,
                       coeffs: GLCoeffs) -> TrajectoryData:
    Y = grid.check_field(np.asarray(Y, dtype=complex), "trajectory")
    yt = time_derivative(Y, grid.dt)
    lap = laplacian(Y, grid, "ghost_from_field")
    g1, g2 = grad(Y, grid)
    grad_abs2 = np.abs(g1) ** 2 + np.abs(g2) ** 2
    del g1, g2
    abs2 = np.abs(Y) ** 2
    square = grid.spec.shape == "unit_square"
    return TrajectoryData(
        log_yt2=LogIntegrand.of(np.abs(yt) ** 2),
        log_lap2=LogIntegrand.of(np.abs(lap) ** 2),
        log_y2=LogIntegrand.of(abs2),
        log_grad2=LogIntegrand.of(grad_abs2),
        log_G2=LogIntegrand.of(np.abs(apply_G(Y, yt, lap, coeffs)) ** 2),
        log_lin_src2=LogIntegrand.of(np.abs(linear_source(yt, lap, coeffs)) ** 2),
        log_y6=LogIntegrand.of(abs2 ** 3),
        log_y2_grad2=LogIntegrand.of(abs2 * grad_abs2),
        log_y4=LogIntegrand.of(abs2 ** 2),
        log_dnu2=LogIntegrand.of(np.abs(normal_derivative(Y, grid)) ** 2)
        if square else None,
        trace_error=nonzero_trace(Y, grid) if square else None,
    )


def _flush_exp(arg: np.ndarray) -> np.ndarray:
    """exp(arg) in place, flushed to exact zero wherever arg <= FLUSH_LOG
    or is nan.

    The arguments are clamped to FLUSH_LOG before exp: exp is many times
    slower where its result underflows, and those entries are zeroed anyway.
    """
    live = arg > FLUSH_LOG
    np.fmax(arg, FLUSH_LOG, out=arg)
    np.exp(arg, out=arg)
    arg *= live
    return arg


class _CellQuadrature:
    """Weighted integrals for one (lambda, mu) cell with a shared log offset."""

    def __init__(self, tables: WeightTables, grid: SpaceTimeGrid):
        self.grid = grid
        self.tables = tables
        two_ell = tables.log_theta2()
        lam = tables.params.lam
        # the square's boundary samples are grid nodes, and only j1 runs on
        # the disk, where psi1 = 0 on the circle: the nodes hold the maximum
        self.log_scale = float(two_ell.max())
        self.logw = two_ell - self.log_scale
        with np.errstate(divide="ignore"):
            self.logphi = np.log(tables.phi())
        self.log_lam = np.log(lam)
        # per-slice extremes, for the bound in live_slices
        self.logw_max = self.logw.max(axis=(1, 2))
        self.logphi_max = self.logphi.max(axis=(1, 2))
        self.logphi_min = self.logphi.min(axis=(1, 2))
        self.wsp = grid.space_weights(exclude_corners=True)
        _, wt_full = grid.time_weights("Q")
        self.wt = wt_full[1:-1]          # endpoint integrands vanish (theta -> 0)

    def live_slices(self, logg: LogIntegrand, phi_power: float = 0.0,
                    inv_lam_phi: bool = False) -> tuple:
        """[lo, hi): the interior time slices that may hold a nonzero integrand.

        A slice's bound is the argument of `vol` taken in its own order on
        per-slice maxima (minima where subtracted); rounding is monotone, so
        the slices outside hold only arguments <= FLUSH_LOG: exact zeros.
        """
        bound = self.logw_max + logg.slice_max
        if phi_power:
            bound += phi_power * (self.logphi_max if phi_power > 0
                                  else self.logphi_min)
        if inv_lam_phi:
            bound -= self.log_lam
            bound -= self.logphi_min
        live = np.flatnonzero(~(bound <= FLUSH_LOG))
        if not live.size:
            return 0, 0
        lo, hi = int(live[0]), int(live[-1]) + 1
        # einsum may sum a lone slice in another order than a stack of them
        # (seen on 129^2 slices), so the range keeps at least two
        if hi - lo < 2:
            lo = max(min(lo, bound.size - 2), 0)
            hi = min(lo + 2, bound.size)
        return lo, hi

    def vol(self, logg: LogIntegrand, phi_power: float = 0.0,
            inv_lam_phi: bool = False, mask=None) -> float:
        """Integral over Q of theta^2 phi^power g (optionally 1/(lam phi))."""
        lo, hi = self.live_slices(logg, phi_power, inv_lam_phi)
        if lo == hi:
            return 0.0
        live = slice(lo, hi)
        arg = self.logw[live] + logg.values[live]
        if phi_power:
            arg += phi_power * self.logphi[live]
        if inv_lam_phi:
            arg -= self.log_lam
            arg -= self.logphi[live]
        vals = _flush_exp(arg)
        wsp = self.wsp if mask is None else self.wsp * mask
        slice_sums = np.einsum("tij,ij->t", vals, wsp)
        return float(math.fsum((slice_sums * self.wt[live]).tolist()))

    def boundary(self, logg: LogIntegrand) -> float:
        """Integral over Sigma_0 of theta^2 phi (d psi/d nu) g; the sign of
        d psi/d nu, which may make the integrand negative, follows the flush."""
        nodes = np.ravel_multi_index((self.grid._b_iy, self.grid._b_ix),
                                     self.logw.shape[1:])

        def at_nodes(a):
            # a C-contiguous gather: the product with the boundary weights
            # below rounds as it does on any (nt-1, nb) table
            return np.take(a.reshape(a.shape[0], -1), nodes, axis=1)

        vals = _flush_exp(at_nodes(self.logw) + logg.values
                          + at_nodes(self.logphi))
        vals *= self.tables.b_dpsi_dnu[None, :]
        per_t = vals @ self.grid.boundary_weights
        return float(math.fsum((per_t * self.wt).tolist()))

    def term(self, data: TrajectoryData, term: Term) -> float:
        """The value of one row of `TERMS` for one trajectory."""
        logg = getattr(data, term.integrand)
        if term.region == "Sigma_0":
            value = self.boundary(logg)
        else:
            mask = self.grid.omega_mask if term.region == "Q_omega" else None
            value = self.vol(logg, phi_power=term.phi_power,
                             inv_lam_phi=term.inv_lam_phi, mask=mask)
        params = self.tables.params
        return params.lam ** term.lam_power * params.mu ** term.mu_power * value


def evaluate_cell(data: TrajectoryData, tables: WeightTables,
                  grid: SpaceTimeGrid) -> dict:
    """Both sides of the two inequalities of one weight family, for one
    trajectory and one (lambda, mu): {variant: CarlemanReport}, cubic first.

    The single entry point for every variant; the scans call it per cell.
    Each row of `TERMS` that a variant of the family holds is integrated
    once and shared by both variants.
    """
    params = tables.params
    if abs(params.T - grid.T) > 1e-12 * grid.T:
        raise FunctionalError(
            f"weight horizon T={params.T} disagrees with grid T={grid.T}")
    if params.family == "j2_boundary":
        if grid.spec.shape != "unit_square":
            raise FunctionalError("boundary family j2 is unsupported on unit_disk "
                                  "(no normal derivative on the circle)")
        if data.trace_error:
            raise FunctionalError(
                f"trajectory violates the homogeneous Dirichlet trace "
                f"(max |y| on Gamma = {data.trace_error:.3e})")

    variants = [v for v, fam in VARIANT_FAMILY.items() if fam == params.family]
    cell = _CellQuadrature(tables, grid)
    values = [(t, cell.term(data, t)) for t in TERMS
              if not t.variants.isdisjoint(variants)]
    reports = {}
    for variant in variants:
        held = [(t, value) for t, value in values if variant in t.variants]
        v_lhs = {t.name: value for t, value in held if t.side == "lhs"}
        v_rhs = {t.name: value for t, value in held if t.side == "rhs"}
        lhs_total = float(sum(v_lhs.values()))
        rhs_total = float(sum(v_rhs.values()))
        reports[variant] = CarlemanReport(
            variant=variant, lam=params.lam, mu=params.mu, lhs_total=lhs_total,
            rhs_total=rhs_total, lhs_breakdown=v_lhs, rhs_breakdown=v_rhs,
            ratio=rhs_total / lhs_total if lhs_total > 0 else float("nan"),
            log_scale=cell.log_scale,
            degenerate=lhs_total == 0.0 and rhs_total == 0.0,
            obs_negative=v_rhs.get("obs_boundary", 0.0) < 0)
    return reports


# -- scans -------------------------------------------------------------------

@dataclass
class ScanResult:
    reports: list
    stabilization_lambda: dict   # mu -> least stable lambda (or None)


def _stabilization(lams, ratios) -> float | None:
    """Least lambda beyond which successive ratio changes stay <= 10%."""
    order = np.argsort(lams)
    lams = np.asarray(lams)[order]
    ratios = np.asarray(ratios)[order]
    ok = np.zeros(lams.size, dtype=bool)
    for i in range(lams.size):
        later = ratios[i:]
        if later.size < 2 or np.any(~np.isfinite(later)) or np.any(later <= 0):
            continue
        changes = np.abs(np.diff(later)) / later[:-1]
        ok[i] = bool(np.all(changes <= STABILIZATION_TOL))
    hits = np.nonzero(ok)[0]
    return float(lams[hits[0]]) if hits.size else None


def lambda_scan(Y, grid: SpaceTimeGrid, lambdas, mus, variants,
                coeffs: GLCoeffs) -> dict:
    """{variant: ScanResult} for one trajectory: a CarlemanReport per
    (lambda, mu), plus stabilization.

    The trajectory is prepared once, and each (family, mu, lambda) cell is
    evaluated once for every requested variant of its family.
    """
    if not set(variants) <= VARIANT_FAMILY.keys():
        raise FunctionalError(f"variants must be among {VARIANTS}, got {variants}")
    data = prepare_trajectory(Y, grid, coeffs)
    reports = {v: [] for v in variants}
    for family in dict.fromkeys(VARIANT_FAMILY[v] for v in variants):
        for mu in mus:
            for lam in lambdas:
                params = CarlemanParams(lam=float(lam), mu=float(mu), T=grid.T,
                                        family=family)
                cell = evaluate_cell(data, weight_tables(params, grid), grid)
                for v in reports.keys() & cell.keys():
                    reports[v].append(cell[v])
    lams = list(map(float, lambdas))
    out = {}
    for v, reps in reports.items():
        ratios = np.reshape([r.ratio for r in reps], (len(mus), len(lams)))
        stab = {float(mu): _stabilization(lams, row) for mu, row in zip(mus, ratios)}
        out[v] = ScanResult(reports=reps, stabilization_lambda=stab)
    return out


def suite_worst_constant(scans: list, lam: float, mu: float) -> float:
    """C_emp = max over a suite of reports of lhs/rhs at one (lambda, mu)."""
    vals = []
    for scan in scans:
        for rep in scan.reports:
            if rep.lam == lam and rep.mu == mu and not rep.degenerate:
                if rep.rhs_total > 0:
                    vals.append(rep.lhs_total / rep.rhs_total)
                else:
                    vals.append(float("inf"))
    if not vals:
        return float("nan")
    return float(max(vals))
