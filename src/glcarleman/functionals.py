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
integrand, powers of lambda, mu and phi, and region; one cell, (weight
family, lambda, mu), loops over it, yields the cubic and the linear variant
of its family for each trajectory and takes each shared integral once.

The inequality constants are existential, so every report carries the raw
bracket values of both sides and the ratio rhs/lhs; scans flag the smallest
lambda past which the ratio is stable (successive change <= 10%).

Numerics: theta^2 spans hundreds of orders of magnitude (for family j2 it
underflows doubles for every lambda > 1), so each (lambda, mu) cell is
evaluated with a common log-offset: weights exp(2 ell - log_scale) with
log_scale = max_Q 2 ell.  Both sides share the offset, leaving the ratio
exact; reported totals are the raw bracket times exp(-log_scale).
`prepare_trajectory` computes every integrand g of a trajectory on a run of
interior times, the boundary one |dy/dnu|^2 too (square only), with the log
of its maximum over each time slice.  The weights do not depend on the
trajectory: `lambda_scan` streams the interior times of a whole suite in
windows of WINDOW slices, prepares each trajectory once per window, and
stacks the windows, so that no integrand is held on all times at once.  A
cell groups the rows of `TERMS` by their power p of phi and exponentiates
one weight per group and window, W_p = exp(2 ell - log_scale + p log phi),
flushed to exact zero wherever the argument is <= -700 and multiplied by the
space quadrature weights; each row is then one dot product of W_p with g per
time slice and trajectory.  On Sigma_0 the
weight is flushed at the boundary nodes and multiplied by g and then by the
signed d psi/d nu.  Per time slice, the extremes of 2 ell and log phi follow
from the spatial extremes of e^{mu psi} (2 ell = (2 lam (e^{mu psi} - K)) sigma
with sigma > 0, and rounding is monotone, so they are exact) and bound the
weight's argument from above, summed in its own order: a slice whose bound is
<= -700 holds only zero weights and is not tabulated, and a row drops the
slices where the bound plus log max g is <= -700, whose products lie below
the window.  Time sums are compensated, over the kept per-slice sums of
every window at once, so the window length does not move a bit.  Square
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
WINDOW = 4                # interior time slices per window of a streamed scan
STABILIZATION_TOL = 0.10

# variant -> weight family; each family's cubic variant comes before its linear one
VARIANT_FAMILY = {"interior": "j1_interior", "boundary": "j2_boundary",
                  "linear_interior": "j1_interior", "linear_boundary": "j2_boundary"}
VARIANTS = tuple(VARIANT_FAMILY)
_FAMILY_VARIANTS = {fam: [v for v, f in VARIANT_FAMILY.items() if f == fam]
                    for fam in dict.fromkeys(VARIANT_FAMILY.values())}


class Term(NamedTuple):
    """One weighted term lam^lam_power mu^mu_power int theta^2 phi^phi_power g
    over Q, Q_omega or Sigma_0."""

    name: str             # breakdown key
    side: str             # "lhs" or "rhs"
    variants: frozenset   # the variants whose inequality holds the term
    integrand: str        # the Integrand attribute of TrajectoryData
    lam_power: int
    mu_power: int
    phi_power: int        # Sigma_0 quadrature takes phi^1 only
    region: str           # "Q", "Q_omega" or "Sigma_0"


_ALL, _CUBIC = frozenset(VARIANTS), frozenset({"interior", "boundary"})
_J1 = frozenset({"interior", "linear_interior"})
_LINEAR, _J2 = _ALL - _CUBIC, _ALL - _J1
# every total is sum(breakdown.values()), so the row order is the summation
# order; the linear left side is the rows shared with the cubic one
TERMS = (
    Term("energy_t", "lhs", _ALL, "yt2", -1, 0, -1, "Q"),
    Term("energy_lap", "lhs", _ALL, "lap2", -1, 0, -1, "Q"),
    Term("w_l2", "lhs", _ALL, "y2", 3, 4, 3, "Q"),
    Term("w_grad", "lhs", _ALL, "grad2", 1, 2, 1, "Q"),
    Term("sextic", "lhs", _CUBIC, "y6", 0, 0, 0, "Q"),
    Term("mixed", "lhs", _CUBIC, "y2_grad2", 0, 0, 0, "Q"),
    Term("w_l4", "lhs", _CUBIC, "y4", 2, 2, 2, "Q"),
    Term("source", "rhs", _CUBIC, "G2", 0, 0, 0, "Q"),
    Term("source", "rhs", _LINEAR, "lin_src2", 0, 0, 0, "Q"),
    Term("obs_l2", "rhs", _J1, "y2", 3, 4, 3, "Q_omega"),
    Term("obs_boundary", "rhs", _J2, "dnu2", 1, 1, 1, "Sigma_0"),
    Term("obs_l4", "rhs", _J1 & _CUBIC, "y4", 2, 2, 2, "Q_omega"),
)
_INTEGRANDS = tuple(dict.fromkeys(t.integrand for t in TERMS))


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
class Integrand:
    """One integrand g >= 0 on a run of interior times, with the log of its
    maximum over each time slice (-inf on a slice where g is 0); stacked
    windows put a trajectory axis in front of both."""

    values: np.ndarray
    log_slice_max: np.ndarray

    @classmethod
    def of(cls, g: np.ndarray) -> Integrand:
        with np.errstate(divide="ignore"):
            return cls(g, np.log(g.max(axis=tuple(range(1, g.ndim)))))

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.log_slice_max.nbytes


@dataclass
class TrajectoryData:
    """Stencil quantities of one trajectory on a run of interior times: every
    integrand of `TERMS`."""

    yt2: Integrand            # |y_t|^2
    lap2: Integrand           # |Lap y|^2
    y2: Integrand             # |y|^2
    grad2: Integrand          # |grad y|^2
    G2: Integrand             # |G y|^2
    lin_src2: Integrand       # |y_t - (1+ib) Lap y|^2
    y6: Integrand             # |y|^6
    y2_grad2: Integrand       # |y|^2 |grad y|^2
    y4: Integrand             # |y|^4
    # the square only (None on the disk, where j2 is rejected):
    dnu2: Integrand | None         # |dy/dnu|^2 at boundary samples
    trace_error: float | None      # max |y| on Gamma if the trace is not zero, else 0


def prepare_trajectory(Y: np.ndarray, grid: SpaceTimeGrid,
                       coeffs: GLCoeffs) -> TrajectoryData:
    """The integrands of a trajectory given on consecutive time nodes: the
    whole horizon, or a window with one halo node on each side.  They are
    kept on the nodes inside the halo; the trace error is that of Y."""
    Y = grid.check_field(np.asarray(Y, dtype=complex), "trajectory")
    square = grid.spec.shape == "unit_square"
    trace_error = nonzero_trace(Y, grid) if square else None
    # theta vanishes at t = 0 and T, and y_t is centred inside the halo
    yt = time_derivative(Y, grid.dt)[1:-1]
    Y = Y[1:-1]
    lap = laplacian(Y, grid, "ghost_from_field")
    g1, g2 = grad(Y, grid)
    grad_abs2 = np.abs(g1) ** 2 + np.abs(g2) ** 2
    del g1, g2
    abs2 = np.abs(Y) ** 2
    return TrajectoryData(
        yt2=Integrand.of(np.abs(yt) ** 2),
        lap2=Integrand.of(np.abs(lap) ** 2),
        y2=Integrand.of(abs2),
        grad2=Integrand.of(grad_abs2),
        G2=Integrand.of(np.abs(apply_G(Y, yt, lap, coeffs)) ** 2),
        lin_src2=Integrand.of(np.abs(linear_source(yt, lap, coeffs)) ** 2),
        y6=Integrand.of(abs2 ** 3),
        y2_grad2=Integrand.of(abs2 * grad_abs2),
        y4=Integrand.of(abs2 ** 2),
        dnu2=Integrand.of(np.abs(normal_derivative(Y, grid)) ** 2)
        if square else None,
        trace_error=trace_error,
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
    """Weighted integrals for one (lambda, mu) cell with a shared log offset.

    2 ell = r sigma(t) with r = 2 lam (e^{mu psi} - K) and sigma > 0, and
    phi = e^{mu psi} sigma(t): rounding is monotone, so the per-slice
    extremes of 2 ell and log phi are those of the full tables, bit for bit.
    """

    def __init__(self, tables: WeightTables, grid: SpaceTimeGrid):
        self.grid = grid
        self.tables = tables
        # 2 ell and phi are formed as WeightTables forms them, so the bits agree
        self.exp_mu_psi = tables.exp_mu_psi.ravel()
        self.r = 2.0 * tables.params.lam * (self.exp_mu_psi - tables.K)
        two_ell_max = self.r.max() * tables.sigma
        # the square's boundary samples are grid nodes, and only j1 runs on
        # the disk, where psi1 = 0 on the circle: the nodes hold the maximum
        self.log_scale = float(two_ell_max.max())
        self.logw_max = two_ell_max - self.log_scale
        with np.errstate(divide="ignore"):
            self.logphi_max = np.log(self.exp_mu_psi.max() * tables.sigma)
            self.logphi_min = np.log(self.exp_mu_psi.min() * tables.sigma)
        # per phi power, the bound on the weight's argument of each slice
        self.bound = {p: self.logw_max + p * (self.logphi_max if p > 0
                                              else self.logphi_min) if p
                      else self.logw_max
                      for p in {t.phi_power for t in TERMS}}
        self.wsp = grid.space_weights(exclude_corners=True).ravel()
        _, wt_full = grid.time_weights("Q")
        self.wt = wt_full[1:-1]          # endpoint integrands vanish (theta -> 0)
        self.omega = np.flatnonzero(grid.omega_mask)

    def live(self, data, rows: list, start: int) -> np.ndarray:
        """(trajectories, rows, slices): the slices of each trajectory's
        window, whose first is interior slice `start`, that each row
        integrates.

        A slice's bound on the weight's argument 2 ell - log_scale + p log phi
        is taken in the argument's own order on per-slice maxima (minima where
        p < 0).  A slice is dropped where the bound is <= FLUSH_LOG (its
        weights are exact zeros) or where the bound plus log max g is (its
        products lie below the window).
        """
        log_gmax = np.stack([getattr(data, t.integrand).log_slice_max for t in rows],
                            axis=-2)
        m = log_gmax.shape[-1]
        bound = np.stack([self.bound[t.phi_power][start:start + m] for t in rows])
        return ~(bound <= FLUSH_LOG) & ~(bound + log_gmax <= FLUSH_LOG)

    def integrals(self, data, rows: list, start: int) -> tuple:
        """Per-slice sums of each row of `TERMS` over its region, without its
        lam and mu powers, for the stacked windows `data` of several
        trajectories, which begin at interior slice `start`: (sums, live),
        both (trajectories, rows, slices), where sums holds the time-weighted
        dot products on the slices that `live` marks.

        One flushed weight per phi power, on the slices of the window where
        it is not all zero, is shared by the rows of that power and by every
        trajectory.
        """
        live = self.live(data, rows, start)
        m = live.shape[-1]
        sums = np.zeros(live.shape)
        weighted = {p: np.flatnonzero(~(self.bound[p][start:start + m] <= FLUSH_LOG))
                    for p in dict.fromkeys(t.phi_power for t in rows)}
        kept = np.concatenate(list(weighted.values()))
        if not kept.size:
            return sums, live
        # 2 ell - log_scale and log phi on the slices some weight covers
        lo, hi = int(kept.min()), int(kept.max()) + 1
        sigma = self.tables.sigma[start + lo:start + hi, None]
        logw = self.r[None] * sigma
        logw -= self.log_scale
        logphi = self.exp_mu_psi[None] * sigma
        with np.errstate(divide="ignore"):
            np.log(logphi, out=logphi)
        wt = self.wt[start:start + m]
        for p, kept in weighted.items():
            if not kept.size:
                continue
            a, b = int(kept[0]), int(kept[-1]) + 1
            if p:
                w = p * logphi[a - lo:b - lo]
                w += logw[a - lo:b - lo]
            else:
                w = logw[a - lo:b - lo].copy()
            group = [i for i, t in enumerate(rows) if t.phi_power == p]
            regions = {rows[i].region for i in group}
            weights = {}
            if "Sigma_0" in regions:
                nodes = np.ravel_multi_index((self.grid._b_iy, self.grid._b_ix),
                                             self.grid.X1.shape)
                weights["Sigma_0"] = _flush_exp(np.take(w, nodes, axis=1))
            _flush_exp(w)
            w *= self.wsp
            weights["Q"] = w
            if "Q_omega" in regions:
                # C-contiguous gathers: a strided dot rounds differently
                weights["Q_omega"] = np.take(w, self.omega, axis=1)
            for i in group:
                idx = np.flatnonzero(live[:, i].any(axis=0))
                if not idx.size:
                    continue
                r0, r1 = int(idx[0]), int(idx[-1]) + 1
                term = rows[i]
                sums[:, i, r0:r1] = self._row(
                    term, getattr(data, term.integrand).values[:, r0:r1],
                    weights[term.region][r0 - a:r1 - a]) * wt[r0:r1]
            del w, weights        # one weight table alive at a time
        return sums, live

    def _row(self, term: Term, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(trajectories, slices): the dot products of one row's flushed
        weight w with each trajectory's integrand g on the same slices."""
        gv = g.reshape(g.shape[0], g.shape[1], -1)
        if term.region == "Sigma_0":
            vals = w * gv
            vals *= self.tables.b_dpsi_dnu
            return np.vecdot(vals, self.grid.boundary_weights)
        if term.region == "Q_omega":
            gv = np.take(gv, self.omega, axis=-1)
        return np.vecdot(w, gv)


def _stack(datas, n: int) -> TrajectoryData:
    """The integrands of n trajectories' windows, taken one at a time from
    the iterable `datas`, with a leading trajectory axis."""
    out = {}
    for j, data in enumerate(datas):
        for name in _INTEGRANDS:
            g = getattr(data, name)
            if g is None:                # dnu2 on the disk
                out[name] = None
                continue
            if j == 0:
                out[name] = Integrand(np.empty((n,) + g.values.shape),
                                      np.empty((n,) + g.log_slice_max.shape))
            out[name].values[j] = g.values
            out[name].log_slice_max[j] = g.log_slice_max
    return TrajectoryData(**out, trace_error=None)


def _take(data: TrajectoryData, run: slice) -> TrajectoryData:
    """The trajectories `run` of stacked windows, as views."""
    views = {}
    for name in _INTEGRANDS:
        g = getattr(data, name)
        views[name] = None if g is None else Integrand(g.values[run],
                                                       g.log_slice_max[run])
    return TrajectoryData(**views, trace_error=None)


def _cell_rows(params: CarlemanParams, grid: SpaceTimeGrid) -> list:
    """The rows of `TERMS` that the variants of the family of `params` hold,
    once the cell is checked against the grid."""
    if abs(params.T - grid.T) > 1e-12 * grid.T:
        raise FunctionalError(
            f"weight horizon T={params.T} disagrees with grid T={grid.T}")
    if params.family == "j2_boundary" and grid.spec.shape != "unit_square":
        raise FunctionalError("boundary family j2 is unsupported on unit_disk "
                              "(no normal derivative on the circle)")
    return [t for t in TERMS
            if not t.variants.isdisjoint(_FAMILY_VARIANTS[params.family])]


def _check_trace(trace_error: float) -> None:
    """The boundary family needs a homogeneous Dirichlet trace."""
    if trace_error:
        raise FunctionalError(
            f"trajectory violates the homogeneous Dirichlet trace "
            f"(max |y| on Gamma = {trace_error:.3e})")


def _cell_reports(params: CarlemanParams, rows: list, integrals: list,
                  log_scale: float) -> dict:
    """{variant: CarlemanReport} of one cell, cubic first, from the integral
    of each row."""
    values = [(t, params.lam ** t.lam_power * params.mu ** t.mu_power * value)
              for t, value in zip(rows, integrals)]
    reports = {}
    for variant in _FAMILY_VARIANTS[params.family]:
        held = [(t, value) for t, value in values if variant in t.variants]
        v_lhs = {t.name: value for t, value in held if t.side == "lhs"}
        v_rhs = {t.name: value for t, value in held if t.side == "rhs"}
        lhs_total = float(sum(v_lhs.values()))
        rhs_total = float(sum(v_rhs.values()))
        reports[variant] = CarlemanReport(
            variant=variant, lam=params.lam, mu=params.mu, lhs_total=lhs_total,
            rhs_total=rhs_total, lhs_breakdown=v_lhs, rhs_breakdown=v_rhs,
            ratio=rhs_total / lhs_total if lhs_total > 0 else float("nan"),
            log_scale=log_scale,
            degenerate=lhs_total == 0.0 and rhs_total == 0.0,
            obs_negative=v_rhs.get("obs_boundary", 0.0) < 0)
    return reports


def _time_sums(sums: np.ndarray, live: np.ndarray) -> list:
    """The compensated time sum of each row's live slices."""
    return [math.fsum(s[l].tolist()) for s, l in zip(sums, live)]


def evaluate_cell(data: TrajectoryData, tables: WeightTables,
                  grid: SpaceTimeGrid) -> dict:
    """Both sides of the two inequalities of one weight family, for one
    trajectory and one (lambda, mu): {variant: CarlemanReport}, cubic first.

    `data` holds the whole trajectory: this is the scan's quadrature with one
    trajectory and one window.  Each row of `TERMS` that a variant of the
    family holds is integrated once and shared by both variants.
    """
    if data.yt2.log_slice_max.size != grid.nt - 1:
        raise FunctionalError("evaluate_cell needs the integrands on every "
                              "interior time")
    rows = _cell_rows(tables.params, grid)
    if tables.params.family == "j2_boundary":
        _check_trace(data.trace_error)
    cell = _CellQuadrature(tables, grid)
    sums, live = cell.integrals(_stack([data], 1), rows, 0)
    return _cell_reports(tables.params, rows, _time_sums(sums[0], live[0]),
                         cell.log_scale)


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


def lambda_scan(suite, grid: SpaceTimeGrid, lambdas, mus, coeffs: GLCoeffs) -> list:
    """[{variant: ScanResult}] for a suite [(Y, variants)] of trajectories,
    each with the variants requested of it: a CarlemanReport per
    (lambda, mu), plus stabilization.

    The weights depend on the cell (family, mu, lambda) only, so each cell
    tabulates them once for the whole suite.  The interior times are streamed
    in windows of WINDOW slices: per window every trajectory is prepared
    once, and each cell forms each flushed weight once and dots it with the
    integrands of every trajectory that requests a variant of its family.
    The per-slice sums of each (trajectory, cell, row) are kept, and each time
    sum is taken over all of them at the end, so that every report is
    evaluate_cell's for that trajectory and cell, bit for bit.
    """
    families = []
    for _, variants in suite:
        if not set(variants) <= VARIANT_FAMILY.keys():
            raise FunctionalError(f"variants must be among {VARIANTS}, got {variants}")
        families.append({VARIANT_FAMILY[v] for v in variants})
    # the trajectories that request j1 only, both families, then j2 only, so
    # that each family's are one run of the stacked windows
    order = sorted((k for k, fams in enumerate(families) if fams),
                   key=lambda k: ("j2_boundary" in families[k])
                   - ("j1_interior" in families[k]))
    if not order:
        return [{} for _ in suite]
    runs = {}
    for family in dict.fromkeys(VARIANT_FAMILY[v] for _, vs in suite for v in vs):
        users = [j for j, k in enumerate(order) if family in families[k]]
        runs[family] = slice(users[0], users[-1] + 1)
    n = grid.nt - 1
    cells = []                   # (params, rows, quadrature, sums, live)
    for family, run in runs.items():
        for mu in mus:
            for lam in lambdas:
                params = CarlemanParams(lam=float(lam), mu=float(mu), T=grid.T,
                                        family=family)
                rows = _cell_rows(params, grid)
                shape = (run.stop - run.start, len(rows), n)
                cells.append((params, rows,
                              _CellQuadrature(weight_tables(params, grid), grid),
                              np.zeros(shape), np.zeros(shape, dtype=bool)))
    for k in order:
        if "j2_boundary" in families[k]:
            _check_trace(nonzero_trace(suite[k][0], grid))
    for start in range(0, n, WINDOW):
        stop = min(start + WINDOW, n)
        # interior slices start..stop-1 are nodes start+1..stop: one halo each side
        data = _stack((prepare_trajectory(suite[k][0][start:stop + 2], grid, coeffs)
                       for k in order), len(order))
        users = {family: _take(data, run) for family, run in runs.items()}
        for params, rows, quad, sums, live in cells:
            sums[..., start:stop], live[..., start:stop] = \
                quad.integrals(users[params.family], rows, start)
        del data, users          # before the next window's are stacked
    reports = [{v: [] for v in variants} for _, variants in suite]
    for params, rows, quad, sums, live in cells:
        for i, k in enumerate(order[runs[params.family]]):
            cell = _cell_reports(params, rows, _time_sums(sums[i], live[i]),
                                 quad.log_scale)
            for v in reports[k].keys() & cell.keys():
                reports[k][v].append(cell[v])
    lams = list(map(float, lambdas))
    out = []
    for member in reports:
        out.append({})
        for v, reps in member.items():
            ratios = np.reshape([r.ratio for r in reps], (len(mus), len(lams)))
            stab = {float(mu): _stabilization(lams, row) for mu, row in zip(mus, ratios)}
            out[-1][v] = ScanResult(reports=reps, stabilization_lambda=stab)
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
