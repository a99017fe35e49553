"""Spatial domain, space-time grid, discrete operators and quadrature.

Conventions used throughout the package:

* A spatial field ("ComplexField") is a complex128 array of shape
  (ny+1, nx+1), indexed [iy, ix] with x1 = X1[iy, ix], x2 = X2[iy, ix].
* A space-time field ("SpaceTimeField") stacks nt+1 such slices along a
  leading time axis, shape (nt+1, ny+1, nx+1), t_k = k*dt.
* All stencil operators broadcast over leading axes, so they apply to a
  single slice, a whole trajectory or a stack of members alike.

Two domains are supported: the unit square (0,1)^2 on its natural node
grid, and the unit disk embedded in the Cartesian box [-1,1]^2 with
cut-cell quadrature weights.  Nodes outside the disk are inactive and carry
zero weight; fields are expected to be zero there.  Each domain supplies
only its geometry (masks, node weights, boundary samples, cut nodes);
``build_grid`` lays out the nodes, the time grid and the omega mask for
both and is the one place a SpaceTimeGrid is constructed.

The disk's cut nodes, the active nodes that miss a neighbour along an
axis, are one table per axis (`CutNodes`): the direction d of the active
neighbours, the node with its next three along d, and the Shortley-Weller
distance to the circle along -d.  Each disk stencil applies one rule from
it: `grad` the two-point one-sided difference, `laplacian` the two-term
Shortley-Weller row (dirichlet0, the disk's only rule).  The table's
builder raises GridError where a cut node lacks three active neighbours
inward, which no disk grid of n = 16...1985 (all that the config accepts)
does.

Quadrature reductions use a fixed summation order: every space integral,
over Omega, omega or Gamma, is ``space_sums`` of a slice against one of the
grid's weight tables (one np.einsum, alike in any stack or layout of
slices), and every time integral is ``integrate_slices``, the trapezoid
rule on [0, T] or on the nodes of [eps, T-eps], one math.fsum of per-slice
sums, so repeated runs give bit-identical results.  ``build_grid`` forms
every weight table once per grid: the volume weights, the omega weights
beside them, the volume weights with the square's corners at zero
(``space_weights``, which the Carleman cells weigh with) and the flat
indices of the omega nodes (``omega_nodes``) and of the square's boundary
samples (``boundary_nodes``).

A SpaceTimeGrid is plain geometry: it holds no solver state, and its
private fields and the private stencils are read in this module only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

VALID_SHAPES = ("unit_square", "unit_disk")
VALID_BC = ("dirichlet0", "neumann0", "ghost_from_field")


class GridError(ValueError):
    """Invalid domain specification or grid construction request."""


class CutNodes(NamedTuple):
    """The cut nodes of one axis, each with three active neighbours inward."""

    d: np.ndarray         # +1. or -1.: the direction of the active neighbours
    iy: np.ndarray        # (4, k) node indices: each cut node, then its next
    ix: np.ndarray        # three along d
    a: np.ndarray         # distance to the circle along -d, in units of h


@dataclass(frozen=True)
class DomainSpec:
    """Domain geometry: shape of Omega and observation ball omega; the
    boundary observation is on the whole of Gamma."""

    shape: str = "unit_square"
    omega_center: tuple[float, float] = (0.5, 0.5)
    omega_radius: float = 0.25

    def __post_init__(self):
        if self.shape not in VALID_SHAPES:
            raise GridError(f"shape must be one of {VALID_SHAPES}, got {self.shape!r}")
        if not self.omega_radius > 0:
            raise GridError("omega_radius must be positive")


@dataclass
class SpaceTimeGrid:
    """Discretization of Q = (0,T) x Omega with masks and quadrature weights."""

    spec: DomainSpec
    nx: int
    ny: int
    nt: int
    T: float
    h: float
    dt: float
    t_nodes: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    active_mask: np.ndarray
    interior_mask: np.ndarray
    boundary_mask: np.ndarray
    corner_mask: np.ndarray
    omega_mask: np.ndarray
    quad_weights_space: np.ndarray
    omega_weights: np.ndarray         # quad_weights_space on omega, 0 elsewhere
    space_weights: np.ndarray         # quad_weights_space, square corners at 0
    omega_nodes: np.ndarray           # flat indices of the omega nodes
    boundary_nodes: np.ndarray        # square: flat indices of the boundary
                                      # samples (empty on the disk)
    boundary_points: np.ndarray
    boundary_normals: np.ndarray
    boundary_weights: np.ndarray
    # disk only: the cut-node tables of the x1 and the x2 axis
    _cut: tuple = ()

    def check_field(self, f: np.ndarray, name: str = "field") -> np.ndarray:
        """Reject a wrong spatial shape or a non-finite active node.  The
        entry points call it once; the stencils trust their input."""
        f = np.asarray(f)
        if f.shape[-2:] != (self.ny + 1, self.nx + 1):
            raise GridError(
                f"{name} has spatial shape {f.shape[-2:]}, expected "
                f"({self.ny + 1}, {self.nx + 1})")
        if not np.all(np.isfinite(f[..., self.active_mask])):
            raise GridError(f"{name} contains non-finite entries on active nodes")
        return f


def _disk_cell_areas(X1, X2, h):
    """Area of (cell centered on each node) intersected with the unit disk.

    Cells fully inside/outside are resolved exactly; cut cells by a 24x24
    midpoint subsample (error well below the 2% area tolerance).
    """
    r_node = np.hypot(X1, X2)
    half_diag = h * math.sqrt(0.5)
    areas = np.zeros(X1.shape)
    areas[r_node <= 1.0 - half_diag - 1e-12] = h * h
    cut = (np.abs(r_node - 1.0) <= half_diag + 1e-12)
    m = 24
    off = (np.arange(m) + 0.5) / m - 0.5
    sx, sy = np.meshgrid(off * h, off * h)
    for iy, ix in zip(*np.nonzero(cut)):
        px = X1[iy, ix] + sx
        py = X2[iy, ix] + sy
        frac = np.count_nonzero(px * px + py * py < 1.0) / (m * m)
        areas[iy, ix] = frac * h * h
    return areas


def _square_geometry(n, h, x):
    """Masks, weights and boundary samples of the unit square's n x n grid."""
    active = np.ones((n + 1, n + 1), dtype=bool)
    boundary = np.zeros_like(active)
    boundary[[0, -1], :] = boundary[:, [0, -1]] = True
    corner = np.zeros_like(active)
    corner[::n, ::n] = True
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2
    # boundary samples: the faces x1 = 0, x1 = 1, x2 = 0, x2 = 1 in turn,
    # corners duplicated per face, each sample carrying its face normal and
    # 1-D trapezoid arc weight
    k, lo, hi = np.arange(n + 1), np.zeros(n + 1, int), np.full(n + 1, n)
    b_ix = np.concatenate([lo, hi, k, k])
    b_iy = np.concatenate([k, k, lo, hi])
    normals = np.repeat([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], n + 1, axis=0)
    return dict(active_mask=active, boundary_mask=boundary, corner_mask=corner,
                quad_weights_space=np.outer(w, w),
                boundary_points=np.stack([x[b_ix], x[b_iy]], axis=1),
                boundary_normals=normals, boundary_weights=np.tile(w, 4),
                boundary_nodes=b_iy * (n + 1) + b_ix)


def _cut_table(active, x, h, axis):
    """The cut-node table of one axis (-1: x1, -2: x2) of the disk's active
    mask on the nodes x; GridError where a cut node lacks three active
    neighbours inward."""
    act = active if axis == -1 else active.T
    # neighbour presence along the axis, off-grid neighbours absent
    pad = np.pad(act, ((0, 0), (3, 3)))
    has_p = pad[:, 4:-2]
    row, col = np.nonzero(act & ~(pad[:, 2:-4] & has_p))
    d = np.where(has_p[row, col], 1, -1)
    along = col + d * np.arange(4)[:, None]
    if not pad[row, along + 3].all():
        raise GridError("a disk cut node lacks three active neighbours inward")
    # the circle along -d: the Shortley-Weller distance, clipped to [1e-3, 1]
    root = np.sqrt(np.maximum(1.0 - x[row] * x[row], 0.0))
    a = np.clip((root + d * x[col]) / h, 1e-3, 1.0)
    across = np.broadcast_to(row, along.shape)
    iy, ix = (across, along) if axis == -1 else (along, across)
    return CutNodes(d.astype(float), iy, ix, a)


def _disk_geometry(n, h, x, X1, X2):
    """Masks, cut-cell weights, circle samples and cut-node tables of the
    unit disk embedded in the n x n grid of [-1,1]^2."""
    # the disk's solver takes a sparse LU: load SciPy for it here, so that a
    # disk run pays the import in set-up and a square run never does
    import scipy.sparse.linalg  # noqa: F401

    active = np.hypot(X1, X2) < 1.0 - 1e-12
    areas = _disk_cell_areas(X1, X2, h)
    wsp = np.zeros_like(areas)
    wsp[active] = areas[active]
    # reassign area owned by inactive nodes to the nearest active node, so
    # the weights sum to |Omega| up to the subsample error
    act_iy, act_ix = np.nonzero(active)
    for iy, ix in zip(*np.nonzero(~active & (areas > 0))):
        d2 = (act_ix - ix) ** 2 + (act_iy - iy) ** 2
        k = int(np.argmin(d2))
        wsp[act_iy[k], act_ix[k]] += areas[iy, ix]

    nb = max(4 * n, 64)
    theta = (np.arange(nb) + 0.5) * (2 * np.pi / nb)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return dict(active_mask=active,
                # the curved boundary holds no nodes
                boundary_mask=np.zeros_like(active), corner_mask=np.zeros_like(active),
                quad_weights_space=wsp, boundary_points=pts,
                boundary_normals=pts.copy(), boundary_weights=np.full(nb, 2 * np.pi / nb),
                boundary_nodes=np.zeros(0, dtype=int),
                _cut=(_cut_table(active, x, h, -1), _cut_table(active, x, h, -2)))


def build_grid(spec: DomainSpec, nx: int, ny: int, nt: int, T: float) -> SpaceTimeGrid:
    """Build the space-time grid with masks and quadrature weights."""
    if nx < 16 or ny < 16 or nt < 16:
        raise GridError("nx, ny, nt must all be >= 16")
    if not T > 0:
        raise GridError("T must be positive")
    if nx != ny:
        raise GridError(f"{spec.shape} requires nx == ny (uniform spacing)")
    square = spec.shape == "unit_square"
    lo = 0.0 if square else -1.0
    h = (1.0 - lo) / nx

    cx, cy = spec.omega_center
    rad = spec.omega_radius
    # omega must stay strictly interior with at least one cell of margin
    if square:
        dist_to_gamma = min(cx, 1.0 - cx, cy, 1.0 - cy)
    else:
        dist_to_gamma = 1.0 - math.hypot(cx, cy)
    if rad + h > dist_to_gamma:
        raise GridError(
            f"omega ball B(({cx},{cy}), {rad}) is not strictly interior "
            f"(needs margin >= h = {h:.4g})")

    x = np.linspace(lo, 1.0, nx + 1)
    X1, X2 = np.meshgrid(x, x)
    geo = _square_geometry(nx, h, x) if square else _disk_geometry(nx, h, x, X1, X2)
    interior = geo["active_mask"] & ~geo["boundary_mask"]
    omega = ((X1 - cx) ** 2 + (X2 - cy) ** 2 < rad * rad) & interior
    if not omega.any():
        raise GridError("omega mask is empty on this grid")
    return SpaceTimeGrid(
        spec=spec, nx=nx, ny=ny, nt=nt, T=T, h=h, dt=T / nt,
        t_nodes=np.linspace(0.0, float(T), nt + 1),
        X1=X1, X2=X2, interior_mask=interior, omega_mask=omega,
        omega_weights=geo["quad_weights_space"] * omega,
        space_weights=np.where(geo["corner_mask"], 0.0, geo["quad_weights_space"]),
        omega_nodes=np.flatnonzero(omega), **geo)


# ---------------------------------------------------------------------------
# stencil operators
# ---------------------------------------------------------------------------

def _d1(f, h, axis):
    """First derivative: centered interior, one-sided second order at ends."""
    f = np.moveaxis(f, axis, -1)
    out = np.empty_like(f)
    r = 1 / (2 * h)      # complex f * r is f / (2 h) bit for bit, but for a zero's sign
    inner = np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    inner *= r
    out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) * r
    out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) * r
    return np.moveaxis(out, -1, axis)


def _d2(f, h, axis, bc):
    """Second derivative along one axis with the selected end rule."""
    f = np.moveaxis(f, axis, -1)
    out = np.empty_like(f)
    h2 = h * h
    out[..., 1:-1] = (f[..., 2:] - 2 * f[..., 1:-1] + f[..., :-2]) / h2
    if bc == "ghost_from_field":
        out[..., 0] = (2 * f[..., 0] - 5 * f[..., 1] + 4 * f[..., 2] - f[..., 3]) / h2
        out[..., -1] = (2 * f[..., -1] - 5 * f[..., -2] + 4 * f[..., -3] - f[..., -4]) / h2
    elif bc == "dirichlet0":
        # odd ghost through the boundary node value
        out[..., 0] = 0.0
        out[..., -1] = 0.0
    elif bc == "neumann0":
        out[..., 0] = 2 * (f[..., 1] - f[..., 0]) / h2
        out[..., -1] = 2 * (f[..., -2] - f[..., -1]) / h2
    else:
        raise GridError(f"unknown bc {bc!r}")
    return np.moveaxis(out, -1, axis)


def grad(f: np.ndarray, grid: SpaceTimeGrid):
    """Discrete gradient (d/dx1, d/dx2), second order, broadcasting over time."""
    g1 = _d1(f, grid.h, axis=-1)
    g2 = _d1(f, grid.h, axis=-2)
    if grid.spec.shape == "unit_disk":
        # one-sided second order at the cut nodes
        for g, cut in zip((g1, g2), grid._cut):
            v = f[..., cut.iy, cut.ix]
            g[..., cut.iy[0], cut.ix[0]] = cut.d * (
                -3 * v[..., 0, :] + 4 * v[..., 1, :] - v[..., 2, :]) / (2 * grid.h)
        inactive = ~grid.active_mask
        g1[..., inactive] = 0.0
        g2[..., inactive] = 0.0
    return g1, g2


def grad_sq(f: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """|grad f|^2, each temporary written in place."""
    g1, g2 = grad(f, grid)
    out = np.abs(g1)
    np.square(out, out=out)
    sq = np.abs(g2)
    np.square(sq, out=sq)
    return np.add(out, sq, out=out)


def laplacian(f: np.ndarray, grid: SpaceTimeGrid, bc: str = "ghost_from_field"):
    """Discrete Laplacian (5-point, second order) with the selected bc rule."""
    if bc not in VALID_BC:
        raise GridError(f"bc must be one of {VALID_BC}")
    if grid.spec.shape == "unit_square":
        return _d2(f, grid.h, -1, bc) + _d2(f, grid.h, -2, bc)
    if bc != "dirichlet0":
        raise GridError(f"unit_disk has no {bc} rule")
    # per-axis cut rules, then one sum: the solver reads its matrix off this
    cut_x, cut_y = grid._cut
    out = _disk_d2(f, grid.h, cut_x, -1) + _disk_d2(f, grid.h, cut_y, -2)
    out[..., ~grid.active_mask] = 0.0
    return out


def _disk_d2(f, h, cut, axis):
    """Second derivative along one axis: centered, and at the cut nodes
    Shortley-Weller toward the circle (its value 0 at distance a h); the
    box's end nodes lie outside the disk."""
    out = _d2(f, h, axis, "dirichlet0")
    v = f[..., cut.iy, cut.ix]
    row = 2.0 / (h * h) * (v[..., 1, :] / (1 + cut.a) - v[..., 0, :] / cut.a)
    out[..., cut.iy[0], cut.ix[0]] = row
    return out


def _square_only(grid: SpaceTimeGrid, what: str) -> None:
    # the circle holds no nodes: a disk trace would be sampled inside it
    if grid.spec.shape != "unit_square":
        raise GridError(f"{what} is defined on unit_square only")


def normal_derivative(f: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Outward normal derivative at grid.boundary_points (square only):
    one-sided second-order differences along the outward normal."""
    _square_only(grid, "the normal derivative")
    # the inward neighbours of node b are b - s and b - 2 s, s = n1 + (nx+1) n2
    b, s = grid.boundary_nodes, grid.boundary_normals.astype(int) @ [1, grid.nx + 1]
    f = f.reshape(f.shape[:-2] + (-1,))
    return (3 * f[..., b] - 4 * f[..., b - s] + f[..., b - 2 * s]) * (1 / (2 * grid.h))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def space_sums(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """int g against the weight table w (the grid's volume, omega or Sigma_0
    table) for each slice of g, its trailing w.ndim axes.

    np.einsum sums the C-contiguous rows of a stack of two or more slices
    each in one pass, but a lone row in buffered chunks and other layouts in
    their memory order, so every slice is summed from C-contiguous rows, a
    lone slice beside a copy of itself: a slice's sum does not depend on how
    it is stacked or laid out.
    """
    rows = np.ascontiguousarray(g).reshape(-1, w.size)
    pair = np.broadcast_to(rows, (2, w.size)) if len(rows) == 1 else rows
    sums = np.einsum("ij,j->i", pair, w.ravel())[:len(rows)]
    return sums.reshape(g.shape[:g.ndim - w.ndim])


def integrate_q(g: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Space-time integral of real samples g over Q: the trapezoid in time
    of the volume integral of each slice."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.nt + 1, grid.ny + 1, grid.nx + 1):
        raise GridError(f"expected samples of shape (nt+1, ny+1, nx+1), got {g.shape}")
    if not np.all(np.isfinite(g[:, grid.active_mask])):
        raise GridError("integrand contains non-finite entries")
    return integrate_slices(space_sums(g, grid.quad_weights_space), grid)


def integrate_slices(slice_sums: np.ndarray, grid: SpaceTimeGrid,
                     eps: float | None = None) -> float:
    """Time integral from the space integrals of the nt+1 time slices (over
    Omega, omega or Gamma): the trapezoid rule on [0, T], or on the nodes
    of [eps, T-eps] (Q_eps) if eps is given, summed by math.fsum."""
    sums = np.asarray(slice_sums)
    if sums.shape != (grid.nt + 1,):
        raise GridError(f"expected nt+1 = {grid.nt + 1} slice sums, "
                        f"got shape {sums.shape}")
    if eps is not None:
        sums = sums[eps_window(grid.t_nodes, grid.T, eps)]
    wt = np.full(sums.size, grid.dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return float(math.fsum((sums * wt).tolist()))


def eps_window(t_nodes: np.ndarray, T: float, eps: float) -> np.ndarray:
    """The mask of the time nodes t_nodes of [0, T] that lie in [eps, T-eps]
    (Q_eps), to 1e-12 T; GridError unless eps is in (0, T/2) and the
    window holds two nodes or more."""
    if not 0.0 < eps < T / 2:
        raise GridError("Q_eps requires eps in (0, T/2)")
    tol = 1e-12 * T
    mask = (t_nodes >= eps - tol) & (t_nodes <= T - eps + tol)
    if np.count_nonzero(mask) < 2:
        raise GridError("Q_eps window contains fewer than two time nodes")
    return mask


def boundary_values(f: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Field values at the boundary sample points (trace; square only)."""
    _square_only(grid, "the boundary trace")
    return np.reshape(f, np.shape(f)[:-2] + (-1,))[..., grid.boundary_nodes]


def trace_breach(trace_max: float, field_max: float) -> float:
    """The homogeneous Dirichlet trace rule, from the maxima of |f| on Gamma
    and of |f|: max |f| on Gamma if it is above 1e-10 (1 + max |f|), else
    0.0 (the trace is zero).  The scan applies it to the slices it is
    handed; the stability suite marches its pairs itself, so it needs none."""
    return trace_max if trace_max > 1e-10 * (1.0 + field_max) else 0.0
