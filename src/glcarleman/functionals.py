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
interior times, the boundary one |dy/dnu|^2 too (square only).  The weights
do not depend on the trajectory: `lambda_scan` takes a suite slice by slice
as it is solved, tiled by `grid.windows` with one halo slice on each side,
prepares each trajectory once per window into stacked buffers made once per
scan, and drops the window, so that no trajectory is held and no integrand
on all times.  A cell groups the rows of `TERMS` by their power p of phi and
exponentiates one weight per group and window,
W_p = exp(2 ell - log_scale + p log phi), flushed to exact zero wherever the
argument is <= -700 and multiplied by the space quadrature weights; each row
is then one dot product (np.vecdot) of W_p with g per time slice and
trajectory, the in-order sum of dots over runs of DOT_CHUNK nodes, so that
no BLAS call splits it across threads.  A cell holds only its log offset,
its (nt-1)-long per-slice bounds and its rows' per-slice sums: e^{mu psi},
sigma and d psi/d nu are tabulated once per (family, mu) and shared by every
lambda, r = 2 lam (e^{mu psi} - K) is formed in each window that uses it,
and the volume weights and omega nodes are the grid's.  On Sigma_0 the
weight is flushed at the boundary nodes and multiplied by g and then by the
signed d psi/d nu, and each slice is summed against the boundary weights by
`grid.space_sums`.  Per time slice, the
extremes of 2 ell and log phi follow from the spatial extremes of
e^{mu psi} (2 ell = (2 lam (e^{mu psi} - K)) sigma with sigma > 0, and
rounding is monotone, so they are exact) and bound the weight's argument
from above, summed in its own order: a slice whose bound is <= -700 holds
only zero weights, is not tabulated, and its sum is zero.  Each row keeps
its per-slice sums on all nt+1 nodes, zero at t = 0 and T, and its time
integral is `grid.integrate_slices` of them, so the window length does not
move a bit.
Square corner nodes are excluded from all weighted integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .gloperator import GLCoeffs, apply_G, linear_source
from .grid import (SpaceTimeGrid, boundary_values, grad_sq, integrate_slices,
                   laplacian, normal_derivative, space_sums, time_derivative,
                   trace_breach, windows)
from .weights import CarlemanParams, WeightTables, weight_tables

FLUSH_LOG = -700.0
# nodes per dot product of a weighted volume row: OpenBLAS splits a dot
# product of more than 10,000 elements across threads, which rounds it
# differently, so a row is the in-order sum of dots of at most this many
DOT_CHUNK = 8192
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
    integrand: str        # the attribute of TrajectoryData
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
class TrajectoryData:
    """Stencil quantities of one trajectory on a run of interior times: every
    integrand of `TERMS`."""

    yt2: np.ndarray           # |y_t|^2
    lap2: np.ndarray          # |Lap y|^2
    y2: np.ndarray            # |y|^2
    grad2: np.ndarray         # |grad y|^2
    G2: np.ndarray            # |G y|^2
    lin_src2: np.ndarray      # |y_t - (1+ib) Lap y|^2
    y6: np.ndarray            # |y|^6
    y2_grad2: np.ndarray      # |y|^2 |grad y|^2
    y4: np.ndarray            # |y|^4
    dnu2: np.ndarray | None   # |dy/dnu|^2 at boundary samples (None on the disk)


def prepare_trajectory(Y: np.ndarray, grid: SpaceTimeGrid,
                       coeffs: GLCoeffs) -> TrajectoryData:
    """The integrands of a trajectory given on consecutive time nodes: the
    whole horizon, or a window with one halo node on each side.  They are
    kept on the nodes inside the halo."""
    Y = grid.check_field(np.asarray(Y, dtype=complex), "trajectory")
    square = grid.spec.shape == "unit_square"
    # theta vanishes at t = 0 and T, and y_t is centred inside the halo
    yt = time_derivative(Y, grid.dt)[1:-1]
    Y = Y[1:-1]
    lap = laplacian(Y, grid, "ghost_from_field")
    grad_abs2 = grad_sq(Y, grid)
    abs2 = np.abs(Y) ** 2
    return TrajectoryData(
        yt2=np.abs(yt) ** 2,
        lap2=np.abs(lap) ** 2,
        y2=abs2,
        grad2=grad_abs2,
        G2=np.abs(apply_G(Y, yt, lap, coeffs)) ** 2,
        lin_src2=np.abs(linear_source(yt, lap, coeffs)) ** 2,
        y6=abs2 ** 3,
        y2_grad2=abs2 * grad_abs2,
        y4=abs2 ** 2,
        dnu2=np.abs(normal_derivative(Y, grid)) ** 2 if square else None,
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

    A cell holds its log offset and the per-slice bounds of its weights'
    arguments; e^{mu psi}, K, sigma and d psi/d nu are the tables of its
    (family, mu), shared by every lambda, and the volume weights and omega
    nodes are the grid's.  2 ell = r sigma(t) with r = 2 lam (e^{mu psi} - K)
    and sigma > 0, and phi = e^{mu psi} sigma(t): rounding is monotone, so
    the per-slice extremes of 2 ell and log phi are those of the full
    tables, bit for bit.
    """

    def __init__(self, tables: WeightTables, grid: SpaceTimeGrid):
        self.grid = grid
        self.tables = tables
        two_ell_max = self._r().max() * tables.sigma
        # the square's boundary samples are grid nodes, and only j1 runs on
        # the disk, where psi1 = 0 on the circle: the nodes hold the maximum
        self.log_scale = float(two_ell_max.max())
        self.logw_max = two_ell_max - self.log_scale
        with np.errstate(divide="ignore"):
            self.logphi_max = np.log(tables.exp_mu_psi.max() * tables.sigma)
            self.logphi_min = np.log(tables.exp_mu_psi.min() * tables.sigma)
        # per phi power, the bound on the weight's argument of each slice
        self.bound = {p: self.logw_max + p * (self.logphi_max if p > 0
                                              else self.logphi_min) if p
                      else self.logw_max
                      for p in {t.phi_power for t in TERMS}}

    def _r(self) -> np.ndarray:
        """r = 2 lam (e^{mu psi} - K) on the flattened nodes, formed as
        WeightTables forms 2 ell, so the bits agree."""
        t = self.tables
        return 2.0 * t.params.lam * (t.exp_mu_psi.ravel() - t.K)

    def integrals(self, data, rows: list, start: int) -> np.ndarray:
        """Per-slice sums of each row of `TERMS` over its region, without its
        lam and mu powers, for the stacked windows `data` of several
        trajectories, which begin at interior slice `start`: (trajectories,
        rows, slices), zero on the slices where the row's weight is all zero.

        A slice's bound on the weight's argument 2 ell - log_scale + p log phi
        is taken in the argument's own order on per-slice maxima (minima where
        p < 0).  One flushed weight per phi power, on the slices of the window
        whose bound exceeds FLUSH_LOG, is shared by the rows of that power and
        by every trajectory.
        """
        n, m = getattr(data, rows[0].integrand).shape[:2]
        sums = np.zeros((n, len(rows), m))
        weighted = {p: np.flatnonzero(~(self.bound[p][start:start + m] <= FLUSH_LOG))
                    for p in dict.fromkeys(t.phi_power for t in rows)}
        kept = np.concatenate(list(weighted.values()))
        if not kept.size:
            return sums
        # 2 ell - log_scale and log phi on the slices some weight covers
        lo, hi = int(kept.min()), int(kept.max()) + 1
        sigma = self.tables.sigma[start + lo:start + hi, None]
        logw = self._r()[None] * sigma
        logw -= self.log_scale
        logphi = self.tables.exp_mu_psi.ravel()[None] * sigma
        with np.errstate(divide="ignore"):
            np.log(logphi, out=logphi)
        grid = self.grid
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
                weights["Sigma_0"] = _flush_exp(np.take(w, grid.boundary_nodes, axis=1))
            _flush_exp(w)
            w *= grid.space_weights.ravel()
            weights["Q"] = w
            if "Q_omega" in regions:
                # C-contiguous gathers: a strided dot rounds differently
                weights["Q_omega"] = np.take(w, grid.omega_nodes, axis=1)
            for i in group:
                term = rows[i]
                sums[:, i, a:b] = self._row(term, getattr(data, term.integrand)[:, a:b],
                                            weights[term.region])
            del w, weights        # one weight table alive at a time
        return sums

    def _row(self, term: Term, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(trajectories, slices): the dot products of one row's flushed
        weight w with each trajectory's integrand g on the same slices, the
        volume ones summed over runs of DOT_CHUNK nodes in order."""
        gv = g.reshape(g.shape[0], g.shape[1], -1)
        if term.region == "Sigma_0":
            vals = w * gv
            vals *= self.tables.b_dpsi_dnu
            return space_sums(vals, self.grid.boundary_weights)
        if term.region == "Q_omega":
            gv = np.take(gv, self.grid.omega_nodes, axis=-1)
        dots = [np.vecdot(w[:, a:a + DOT_CHUNK], gv[..., a:a + DOT_CHUNK])
                for a in range(0, w.shape[-1], DOT_CHUNK)]
        return sum(dots[1:], dots[0])


def _stacked(data: TrajectoryData, n: int) -> TrajectoryData:
    """Empty stacked windows of n trajectories, each shaped as `data`'s."""
    return TrajectoryData(**{name: None if g is None       # dnu2 on the disk
                             else np.empty((n,) + g.shape)
                             for name, g in vars(data).items()})


def _fill(out: TrajectoryData, j: int, data: TrajectoryData) -> None:
    """Copy one trajectory's window into slot j of the stacked windows `out`,
    on its first slices."""
    for name, g in vars(data).items():
        if g is not None:
            getattr(out, name)[j, :len(g)] = g


def _take(data: TrajectoryData, *index) -> TrajectoryData:
    """The stacked windows indexed by `index` (basic indices only), as views;
    `_take(data, None)` puts one trajectory's integrands in front of a
    trajectory axis."""
    return TrajectoryData(**{name: None if g is None else g[index]
                             for name, g in vars(data).items()})


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


def _powers(params: CarlemanParams, rows: list) -> list:
    """lam^lam_power mu^mu_power of each row (OverflowError if one overflows)."""
    return [params.lam ** t.lam_power * params.mu ** t.mu_power for t in rows]


def _cell_reports(params: CarlemanParams, rows: list, integrals: list,
                  log_scale: float) -> dict:
    """{variant: CarlemanReport} of one cell, cubic first, from the integral
    of each row."""
    values = [(t, power * value)
              for t, power, value in zip(rows, _powers(params, rows), integrals)]
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


def evaluate_cell(data: TrajectoryData, tables: WeightTables,
                  grid: SpaceTimeGrid) -> dict:
    """Both sides of the two inequalities of one weight family, for one
    trajectory and one (lambda, mu): {variant: CarlemanReport}, cubic first.

    `data` holds the whole trajectory: this is the scan's quadrature with one
    trajectory and one window.  Each row of `TERMS` that a variant of the
    family holds is integrated once and shared by both variants.  The zero
    Dirichlet trace the boundary family needs is not checked here;
    `lambda_scan` checks it.
    """
    if len(data.yt2) != grid.nt - 1:
        raise FunctionalError("evaluate_cell needs the integrands on every "
                              "interior time")
    rows = _cell_rows(tables.params, grid)
    cell = _CellQuadrature(tables, grid)
    sums = np.zeros((len(rows), grid.nt + 1))       # zero at t = 0 and T
    sums[:, 1:-1] = cell.integrals(_take(data, None), rows, 0)[0]
    return _cell_reports(tables.params, rows,
                         [integrate_slices(s, grid) for s in sums], cell.log_scale)


def _cells(families, lambdas, mus, grid: SpaceTimeGrid):
    """(params, tables) of each cell, by family, then mu, then lambda: one
    tabulation per (family, mu), which its lambda cells share."""
    for family in families:
        for mu in mus:
            tables = None
            for lam in lambdas:
                params = CarlemanParams(lam=float(lam), mu=float(mu), T=grid.T,
                                        family=family)
                tables = (replace(tables, params=params) if tables
                          else weight_tables(params, grid))
                yield params, tables


def overflowing_cells(grid: SpaceTimeGrid, variants, lambdas, mus) -> list:
    """The (family, lambda, mu) cells of a scan of `variants` on `grid` whose
    log offset max 2 ell is not a finite double, or one of whose rows'
    powers lam^lam_power mu^mu_power (at most lam^3 mu^4) is not:
    `lambda_scan` would report nan or inf for them, or raise."""
    bad = []
    families = dict.fromkeys(VARIANT_FAMILY[v] for v in variants)
    with np.errstate(all="ignore"):
        for params, tables in _cells(families, lambdas, mus, grid):
            try:
                powers = _powers(params, _cell_rows(params, grid))
            except OverflowError:
                powers = [float("inf")]
            if not np.all(np.isfinite([_CellQuadrature(tables, grid).log_scale,
                                       *powers])):
                bad.append((params.family, params.lam, params.mu))
    return bad


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


def lambda_scan(slices, variants, grid: SpaceTimeGrid, lambdas, mus,
                coeffs: GLCoeffs) -> list:
    """[{variant: ScanResult}] for a suite of m trajectories, given as an
    iterable of its time slices (m, ny+1, nx+1) on t_0, ..., t_nt, and
    `variants`, the variants requested of each member: a CarlemanReport per
    (lambda, mu), plus stabilization.

    The weight tables depend on (family, mu) only, so each pair is
    tabulated once for the whole suite and shared by its lambda cells.
    `grid.windows` tiles the interior times, with one halo slice on each
    side for y_t: as each window arrives, every member that requests a
    variant is prepared on it once, each cell forms each flushed weight once
    and dots it with the integrands of every member that requests a variant
    of its family, and the window is dropped.  The per-slice sums of each (member, cell, row)
    are kept on all nt+1 nodes, and each time integral is taken over them
    at the end, so that every report is evaluate_cell's for that trajectory
    and cell, bit for bit.  A member of the boundary family is checked for
    a zero Dirichlet trace from running maxima of |y| on Gamma and of |y|
    over every slice, before any report is built.  With no variant
    requested, no slice is read.
    """
    families = []
    for vs in variants:
        if not set(vs) <= VARIANT_FAMILY.keys():
            raise FunctionalError(f"variants must be among {VARIANTS}, got {vs}")
        families.append({VARIANT_FAMILY[v] for v in vs})
    # the members that request j1 only, both families, then j2 only, so
    # that each family's are one run of the stacked windows
    order = sorted((k for k, fams in enumerate(families) if fams),
                   key=lambda k: ("j2_boundary" in families[k])
                   - ("j1_interior" in families[k]))
    if not order:
        return [{} for _ in variants]
    runs = {}
    for family in dict.fromkeys(VARIANT_FAMILY[v] for vs in variants for v in vs):
        users = [j for j, k in enumerate(order) if family in families[k]]
        runs[family] = slice(users[0], users[-1] + 1)
    cells = []                   # (params, rows, quadrature, per-slice sums)
    for params, tables in _cells(runs, lambdas, mus, grid):
        run, rows = runs[params.family], _cell_rows(params, grid)
        cells.append((params, rows, _CellQuadrature(tables, grid),
                      np.zeros((run.stop - run.start, len(rows), grid.nt + 1))))
    stacked = None               # the window's integrands, shaped at the first
    j2 = runs.get("j2_boundary")
    # the running maxima of |y| on Gamma and of |y| of each j2 member
    maxima = dict.fromkeys(order[j2] if j2 is not None else [], (0.0, 0.0))
    shape = (len(variants), grid.ny + 1, grid.nx + 1)
    for first, block in windows(slices, grid, shape):
        for j, k in enumerate(order):
            Y = block[k]
            if k in maxima:
                maxima[k] = (max(maxima[k][0], np.abs(boundary_values(Y, grid)).max()),
                             max(maxima[k][1], np.abs(Y).max()))
            data = prepare_trajectory(Y, grid, coeffs)
            if stacked is None:
                stacked = _stacked(data, len(order))
            _fill(stacked, j, data)
        del data                 # before the cells form their weights
        # interior slice first - 1 is node first
        w = block.shape[1] - 2
        for params, rows, quad, sums in cells:
            sums[..., first:first + w] = quad.integrals(
                _take(stacked, runs[params.family], slice(w)), rows, first - 1)
    for trace_max, field_max in maxima.values():
        _check_trace(trace_breach(float(trace_max), float(field_max)))
    reports = [{v: [] for v in vs} for vs in variants]
    for params, rows, quad, sums in cells:
        for i, k in enumerate(order[runs[params.family]]):
            cell = _cell_reports(params, rows,
                                 [integrate_slices(s, grid) for s in sums[i]],
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
