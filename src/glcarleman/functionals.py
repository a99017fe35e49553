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
family, lambda, mu), yields the cubic and the linear variant of its family
for each trajectory from it and takes each shared integral once.

The inequality constants are existential, so every report carries the raw
bracket values of both sides and the ratio rhs/lhs; scans flag the smallest
lambda past which the ratio is stable (successive change <= 10%).

Numerics: theta^2 spans hundreds of orders of magnitude (for family j2 it
underflows doubles for every lambda > 1), so each (lambda, mu) cell is
evaluated with a common log-offset: weights exp(2 ell - log_scale) with
log_scale = max_Q 2 ell.  Both sides share the offset, leaving the ratio
exact; reported totals are the raw bracket times exp(-log_scale).
`prepare_trajectory` computes every integrand g of a trajectory, or of a
stack of them, on interior times from y and its centred y_t there, the
boundary one |dy/dnu|^2 too (square only).  The weights do not depend on
the trajectory: `lambda_scan` takes a suite slice by slice as it is solved,
holds the two slices before the incoming one, prepares the node between
them for every member in one call and weighs it, so that no trajectory is
held and no integrand on more than one time.  One slice is weighed by
`_slice_sums` for all the lambda cells of a (family, mu) and every member
of the family at once: e^{mu psi}, sigma and d psi/d nu are tabulated once
per (family, mu), log phi is formed once per slice, and a cell holds only
its log offset and its (nt-1)-long per-slice bounds.  The rows of `TERMS`
are grouped by their power p of phi; in each pass of at most CELL_PASS
cells, one weight per group and cell, W_p = exp(2 ell - log_scale + p log
phi) with 2 ell = r sigma and r = 2 lam (e^{mu psi} - K), is flushed to
exact zero wherever the argument is <= -700 and multiplied by the space
quadrature weights; each row is then one dot product (np.vecdot) of W_p
with g per member and cell, the in-order sum of dots over runs of DOT_CHUNK
nodes, so that no BLAS call splits it across threads.  On Sigma_0 the
weight is flushed at the boundary nodes and multiplied by g and then by the
signed d psi/d nu, and each sum is taken against the boundary weights by
`grid.space_sums`.  Per time slice, the extremes of 2 ell and log phi
follow from the spatial extremes of e^{mu psi} (sigma > 0, and rounding is
monotone, so they are exact) and bound the weight's argument from above,
summed in its own order: a cell whose bound on a slice is <= -700 has only
zero weights there, is not weighed, and its sum is zero.  Each row keeps
its per-slice sums on all nt+1 nodes, zero at t = 0 and T, and its time
integral is `grid.integrate_slices` of them, so how cells and members are
batched does not move a bit.
Square corner nodes are excluded from all weighted integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .gloperator import GLCoeffs, apply_G, linear_source
from .grid import (GridError, SpaceTimeGrid, boundary_values, grad_sq, integrate_slices,
                   laplacian, normal_derivative, space_sums, trace_breach)
from .weights import CarlemanParams, WeightTables, weight_tables

FLUSH_LOG = -700.0
# nodes per dot product of a weighted volume row: OpenBLAS splits a dot
# product of more than 10,000 elements across threads, which rounds it
# differently, so a row is the in-order sum of dots of at most this many
DOT_CHUNK = 8192
# lambda cells weighed together on a slice: each adds a weight of the
# slice's nodes to a pass, so the pass is capped, not the number of cells
CELL_PASS = 8
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
    """Stencil quantities of a trajectory, or of a stack of them, on a run of
    interior times: every integrand of `TERMS`."""

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


def prepare_trajectory(Y: np.ndarray, yt: np.ndarray, grid: SpaceTimeGrid,
                       coeffs: GLCoeffs) -> TrajectoryData:
    """The integrands of a trajectory, or of a stack of them, at interior
    time nodes, from Y there and its centred y_t: a whole trajectory's
    interior, or the scan's one node of every member.  Y is trusted, as
    the scan checks each slice."""
    square = grid.spec.shape == "unit_square"
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
    """The log offset and the per-slice bounds of one (lambda, mu) cell.

    e^{mu psi}, K, sigma and d psi/d nu are the tables of its (family, mu),
    shared by every lambda, and the volume weights and omega nodes are the
    grid's.  2 ell = r sigma(t) with r = 2 lam (e^{mu psi} - K) and
    sigma > 0, and phi = e^{mu psi} sigma(t): rounding is monotone, so the
    per-slice extremes of 2 ell and log phi are those of the full tables,
    bit for bit.
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


def _slice_sums(quads: list, rows: list, data: dict, s: int) -> np.ndarray:
    """(members, cells, rows): the sums over its region of each row of
    `TERMS`, without its lam and mu powers, on interior slice s, for the
    lambda cells `quads` of one (family, mu) and the integrands `data` of
    several members on that slice, each (members, ...); zero where the
    row's weight is all zero.

    A cell's bound on the weight's argument 2 ell - log_scale + p log phi
    is taken in the argument's own order on the slice's maxima (minima
    where p < 0).  log phi is formed once.  In each pass of at most
    CELL_PASS cells, one flushed weight per phi power and live cell is
    stacked and shared by the rows of that power and by every member.
    """
    tables, grid = quads[0].tables, quads[0].grid
    n = len(data[rows[0].integrand])
    sums = np.zeros((n, len(quads), len(rows)))
    # the cells whose weight of each phi power is not all zero on the slice
    live = {p: [c for c, q in enumerate(quads) if not q.bound[p][s] <= FLUSH_LOG]
            for p in dict.fromkeys(t.phi_power for t in rows)}
    if not any(live.values()):
        return sums
    sigma = tables.sigma[s]
    with np.errstate(divide="ignore"):
        logphi = np.log(tables.exp_mu_psi.ravel() * sigma)
    for a in range(0, len(quads), CELL_PASS):
        passed = {p: [c for c in cells if a <= c < a + CELL_PASS]
                  for p, cells in live.items()}
        kept = sorted(set().union(*passed.values()))
        if not kept:
            continue
        # 2 ell - log_scale of each cell that some weight of the pass covers
        logw = np.empty((len(kept), logphi.size))
        for j, c in enumerate(kept):
            np.multiply(quads[c]._r(), sigma, out=logw[j])
            logw[j] -= quads[c].log_scale
        for p, cells in passed.items():
            if not cells:
                continue
            w = logw[[kept.index(c) for c in cells]]
            if p:
                w += p * logphi
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
                g, wr = data[term.integrand].reshape(n, 1, -1), weights[term.region]
                if term.region == "Sigma_0":
                    vals = wr * g
                    vals *= tables.b_dpsi_dnu
                    sums[:, cells, i] = space_sums(vals, grid.boundary_weights)
                    continue
                if term.region == "Q_omega":
                    g = np.take(g, grid.omega_nodes, axis=-1)
                # the in-order sum of dots over runs of DOT_CHUNK nodes
                dots = [np.vecdot(wr[:, b:b + DOT_CHUNK], g[..., b:b + DOT_CHUNK])
                        for b in range(0, wr.shape[-1], DOT_CHUNK)]
                sums[:, cells, i] = sum(dots[1:], dots[0])
            del w, weights        # one weight stack alive at a time
    return sums


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

    `data` holds the whole trajectory, and each interior slice of it is
    weighed as the scan weighs a step, by `_slice_sums` with this one cell
    and this one member: this is the whole-trajectory reference of
    `lambda_scan`.  Each row of `TERMS` that a variant of the family holds
    is integrated once and shared by both variants.  The zero Dirichlet
    trace the boundary family needs is not checked here; `lambda_scan`
    checks it.
    """
    if len(data.yt2) != grid.nt - 1:
        raise FunctionalError("evaluate_cell needs the integrands on every "
                              "interior time")
    rows = _cell_rows(tables.params, grid)
    cell = _CellQuadrature(tables, grid)
    sums = np.zeros((len(rows), grid.nt + 1))       # zero at t = 0 and T
    for s in range(grid.nt - 1):
        at = {name: g[s:s + 1] for name, g in vars(data).items() if g is not None}
        sums[:, s + 1] = _slice_sums([cell], rows, at, s)[0, 0]
    return _cell_reports(tables.params, rows,
                         [integrate_slices(row, grid) for row in sums], cell.log_scale)


def _cells(families, lambdas, mus, grid: SpaceTimeGrid):
    """[(params, tables) of each lambda cell] of each (family, mu), by
    family, then mu: one tabulation per (family, mu), which its lambda
    cells share."""
    for family in families:
        for mu in mus:
            cells, tables = [], None
            for lam in lambdas:
                params = CarlemanParams(lam=float(lam), mu=float(mu), T=grid.T,
                                        family=family)
                tables = (replace(tables, params=params) if tables
                          else weight_tables(params, grid))
                cells.append((params, tables))
            yield cells


def overflowing_cells(grid: SpaceTimeGrid, variants, lambdas, mus) -> list:
    """The (family, lambda, mu) cells of a scan of `variants` on `grid` whose
    log offset max 2 ell is not a finite double, or one of whose rows'
    powers lam^lam_power mu^mu_power (at most lam^3 mu^4) is not:
    `lambda_scan` would report nan or inf for them, or raise."""
    bad = []
    families = dict.fromkeys(VARIANT_FAMILY[v] for v in variants)
    with np.errstate(all="ignore"):
        for cells in _cells(families, lambdas, mus, grid):
            for params, tables in cells:
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
    The scan holds the two slices before the incoming one of every member
    that requests a variant: as slice t + 1 arrives, node t is prepared
    once for all of them, with y_t = (y(t+1) - y(t-1)) / (2 dt), each
    (family, mu) weighs it for all its lambda cells and every member
    of the family at once (`_slice_sums`), and the step is dropped.  The
    per-slice sums of each (member, cell, row) are kept on all nt+1 nodes,
    and each time integral is taken over them at the end, so that every
    report is evaluate_cell's for that trajectory and cell, bit for bit.
    A member of the boundary family is checked for a zero Dirichlet trace
    from running maxima of |y| on Gamma and of |y| over every slice, before
    any report is built.  With no variant requested, no slice is read;
    GridError unless exactly nt+1 slices of shape (m, ny+1, nx+1) arrive,
    each checked once as it arrives, by grid.check_field on the members read.
    """
    families = []
    for vs in variants:
        if not set(vs) <= VARIANT_FAMILY.keys():
            raise FunctionalError(f"variants must be among {VARIANTS}, got {vs}")
        families.append({VARIANT_FAMILY[v] for v in vs})
    # the members that request j1 only, both families, then j2 only, so
    # that each family's members are one run of each slice
    order = sorted((k for k, fams in enumerate(families) if fams),
                   key=lambda k: ("j2_boundary" in families[k])
                   - ("j1_interior" in families[k]))
    if not order:
        return [{} for _ in variants]
    runs = {}
    for family in dict.fromkeys(VARIANT_FAMILY[v] for vs in variants for v in vs):
        users = [j for j, k in enumerate(order) if family in families[k]]
        runs[family] = slice(users[0], users[-1] + 1)
    groups = []      # (run, rows, quadratures, per-slice sums) of each (family, mu)
    for cells in _cells(runs, lambdas, mus, grid):
        if cells:
            run, rows = runs[cells[0][0].family], _cell_rows(cells[0][0], grid)
            groups.append((run, rows, [_CellQuadrature(t, grid) for _, t in cells],
                           np.zeros((run.stop - run.start, len(cells), len(rows),
                                     grid.nt + 1))))
    shape = (len(variants), grid.ny + 1, grid.nx + 1)
    want = f"the suite's slices must be nt+1 = {grid.nt + 1} arrays of shape {shape}"
    j2 = runs.get("j2_boundary", slice(0))
    maxima = np.zeros((len(order[j2]), 2))      # max |y| on Gamma, max |y|
    prev = node = None
    t = 0
    for S in slices:
        if t > grid.nt or S.shape != shape:
            raise GridError(want)
        Y = grid.check_field(S[order], "trajectory")
        if len(maxima):
            y = Y[j2]
            np.maximum(maxima, np.stack([np.abs(boundary_values(y, grid)).max(axis=-1),
                                         np.abs(y).max(axis=(-2, -1))], axis=-1),
                       out=maxima)
        if t >= 2:
            # node t - 1 (interior slice t - 2), with its centred y_t
            data = vars(prepare_trajectory(node, (Y - prev) / (2 * grid.dt), grid,
                                           coeffs))
            for run, rows, quads, sums in groups:
                sums[..., t - 1] = _slice_sums(
                    quads, rows, {name: g[run] for name, g in data.items()
                                  if g is not None}, t - 2)
            del data
        prev, node = node, Y
        t += 1
    if t != grid.nt + 1:
        raise GridError(want)
    for trace_max, field_max in maxima:
        _check_trace(trace_breach(float(trace_max), float(field_max)))
    reports = [{v: [] for v in vs} for vs in variants]
    for run, rows, quads, sums in groups:
        for c, quad in enumerate(quads):
            for i, k in enumerate(order[run]):
                reps = _cell_reports(quad.tables.params, rows,
                                     [integrate_slices(row, grid) for row in sums[i, c]],
                                     quad.log_scale)
                for v in reports[k].keys() & reps.keys():
                    reports[k][v].append(reps[v])
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
