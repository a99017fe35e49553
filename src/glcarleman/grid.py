"""Spatial domain, space-time grid, discrete operators and quadrature.

Conventions used throughout the package:

* A spatial field ("ComplexField") is a complex128 array of shape
  (ny+1, nx+1), indexed [iy, ix] with x1 = x1_nodes[ix], x2 = x2_nodes[iy].
* A space-time field ("SpaceTimeField") stacks nt+1 such slices along a
  leading time axis, shape (nt+1, ny+1, nx+1), t_k = k*dt.
* All stencil operators broadcast over leading axes, so they apply to a
  single slice or a whole trajectory alike.

Two domains are supported: the unit square (0,1)^2 on its natural node
grid, and the unit disk embedded in the Cartesian box [-1,1]^2 with
cut-cell quadrature weights and one-sided / Shortley-Weller stencils at
the curved boundary.  Nodes outside the disk are inactive and carry zero
weight; fields are expected to be zero there.

Quadrature reductions use a fixed summation order (per-slice pairwise sums
combined with math.fsum), so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

VALID_SHAPES = ("unit_square", "unit_disk")
VALID_BC = ("dirichlet0", "neumann0", "ghost_from_field")


class GridError(ValueError):
    """Invalid domain specification or grid construction request."""


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
    x1_nodes: np.ndarray
    x2_nodes: np.ndarray
    t_nodes: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    active_mask: np.ndarray
    interior_mask: np.ndarray
    boundary_mask: np.ndarray
    corner_mask: np.ndarray
    omega_mask: np.ndarray
    quad_weights_space: np.ndarray
    boundary_points: np.ndarray
    boundary_normals: np.ndarray
    boundary_weights: np.ndarray
    # square only: node indices of the boundary samples (per face, corners
    # duplicated)
    _b_iy: np.ndarray | None = None
    _b_ix: np.ndarray | None = None
    _cut_x: list = field(default_factory=list)
    _cut_y: list = field(default_factory=list)
    # solver linear operators per boundary condition, built on first use
    _linear_ops: dict = field(default_factory=dict)

    def space_weights(self, exclude_corners: bool = False) -> np.ndarray:
        w = self.quad_weights_space
        if exclude_corners and self.corner_mask.any():
            w = w.copy()
            w[self.corner_mask] = 0.0
        return w

    def time_weights(self, region: str = "Q", eps: float | None = None):
        """Trapezoid weights in time, restricted to [eps, T-eps] for Q_eps."""
        if region in ("Q", "Q_omega"):
            idx = np.arange(self.nt + 1)
        elif region == "Q_eps":
            if eps is None or not (0.0 < eps < self.T / 2):
                raise GridError("Q_eps requires eps in (0, T/2)")
            tol = 1e-12 * self.T
            idx = np.nonzero((self.t_nodes >= eps - tol)
                             & (self.t_nodes <= self.T - eps + tol))[0]
            if idx.size < 2:
                raise GridError("Q_eps window contains fewer than two time nodes")
        else:
            raise GridError(f"unknown region {region!r}")
        w = np.full(idx.size, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return idx, w

    def check_field(self, f: np.ndarray, name: str = "field") -> np.ndarray:
        f = np.asarray(f)
        if f.shape[-2:] != (self.ny + 1, self.nx + 1):
            raise GridError(
                f"{name} has spatial shape {f.shape[-2:]}, expected "
                f"({self.ny + 1}, {self.nx + 1})")
        if not np.all(np.isfinite(f[..., self.active_mask])):
            raise GridError(f"{name} contains non-finite entries on active nodes")
        return f


def _disk_cell_areas(x1, x2, h):
    """Area of (cell centered on each node) intersected with the unit disk.

    Cells fully inside/outside are resolved exactly; cut cells by a 24x24
    midpoint subsample (error well below the 2% area tolerance).
    """
    ny1, nx1 = x2.size, x1.size
    X1, X2 = np.meshgrid(x1, x2)
    r_node = np.hypot(X1, X2)
    half_diag = h * math.sqrt(0.5)
    areas = np.zeros((ny1, nx1))
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


def _build_square(spec, nx, ny, nt, T):
    h = 1.0 / nx
    if nx != ny:
        raise GridError("unit_square requires nx == ny (uniform spacing)")
    x1 = np.linspace(0.0, 1.0, nx + 1)
    x2 = np.linspace(0.0, 1.0, ny + 1)
    X1, X2 = np.meshgrid(x1, x2)

    active = np.ones((ny + 1, nx + 1), dtype=bool)
    boundary = np.zeros_like(active)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    interior = active & ~boundary
    corner = np.zeros_like(active)
    corner[0, 0] = corner[0, -1] = corner[-1, 0] = corner[-1, -1] = True

    w1 = np.full(nx + 1, h)
    w1[0] = w1[-1] = h / 2
    w2 = np.full(ny + 1, h)
    w2[0] = w2[-1] = h / 2
    wsp = np.outer(w2, w1)

    # boundary samples: four faces, corners duplicated per face, each sample
    # carrying its face normal and 1-D trapezoid arc weight.
    pts, nrm, wts, biy, bix = [], [], [], [], []
    faces = (
        (np.zeros(ny + 1, int), np.arange(ny + 1), (-1.0, 0.0)),   # x1 = 0
        (np.full(ny + 1, nx), np.arange(ny + 1), (1.0, 0.0)),      # x1 = 1
        (np.arange(nx + 1), np.zeros(nx + 1, int), (0.0, -1.0)),   # x2 = 0
        (np.arange(nx + 1), np.full(nx + 1, ny), (0.0, 1.0)),      # x2 = 1
    )
    for ixs, iys, normal in faces:
        n = ixs.size
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        for k in range(n):
            pts.append((x1[ixs[k]], x2[iys[k]]))
            nrm.append(normal)
            wts.append(w[k])
            biy.append(iys[k])
            bix.append(ixs[k])

    return SpaceTimeGrid(
        spec=spec, nx=nx, ny=ny, nt=nt, T=T, h=h, dt=T / nt,
        x1_nodes=x1, x2_nodes=x2, t_nodes=np.linspace(0.0, T, nt + 1),
        X1=X1, X2=X2, active_mask=active, interior_mask=interior,
        boundary_mask=boundary, corner_mask=corner,
        omega_mask=np.zeros_like(active),
        quad_weights_space=wsp,
        boundary_points=np.array(pts), boundary_normals=np.array(nrm, float),
        boundary_weights=np.array(wts),
        _b_iy=np.array(biy), _b_ix=np.array(bix),
    )


def _build_disk(spec, nx, ny, nt, T):
    if nx != ny:
        raise GridError("unit_disk requires nx == ny")
    h = 2.0 / nx
    x1 = np.linspace(-1.0, 1.0, nx + 1)
    x2 = np.linspace(-1.0, 1.0, ny + 1)
    X1, X2 = np.meshgrid(x1, x2)
    r = np.hypot(X1, X2)
    active = r < 1.0 - 1e-12
    boundary = np.zeros_like(active)  # the curved boundary holds no nodes
    interior = active.copy()
    corner = np.zeros_like(active)

    areas = _disk_cell_areas(x1, x2, h)
    wsp = np.zeros_like(areas)
    wsp[active] = areas[active]
    # reassign area owned by inactive nodes to the nearest active node, so
    # the weights sum to |Omega| up to the subsample error
    act_iy, act_ix = np.nonzero(active)
    for iy, ix in zip(*np.nonzero(~active & (areas > 0))):
        d2 = (act_ix - ix) ** 2 + (act_iy - iy) ** 2
        k = int(np.argmin(d2))
        wsp[act_iy[k], act_ix[k]] += areas[iy, ix]

    nb = max(4 * nx, 64)
    theta = (np.arange(nb) + 0.5) * (2 * np.pi / nb)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nrm = pts.copy()
    wts = np.full(nb, 2 * np.pi / nb)

    grid = SpaceTimeGrid(
        spec=spec, nx=nx, ny=ny, nt=nt, T=T, h=h, dt=T / nt,
        x1_nodes=x1, x2_nodes=x2, t_nodes=np.linspace(0.0, T, nt + 1),
        X1=X1, X2=X2, active_mask=active, interior_mask=interior,
        boundary_mask=boundary, corner_mask=corner,
        omega_mask=np.zeros_like(active),
        quad_weights_space=wsp,
        boundary_points=pts, boundary_normals=nrm, boundary_weights=wts,
    )
    _classify_disk_cut_nodes(grid)
    return grid


def _classify_disk_cut_nodes(grid):
    """Precompute, per axis, the active nodes missing a stencil neighbor."""
    act = grid.active_mask
    ny1, nx1 = act.shape
    for iy, ix in zip(*np.nonzero(act)):
        xm = ix > 0 and act[iy, ix - 1]
        xp = ix < nx1 - 1 and act[iy, ix + 1]
        ym = iy > 0 and act[iy - 1, ix]
        yp = iy < ny1 - 1 and act[iy + 1, ix]
        if not (xm and xp):
            grid._cut_x.append((iy, ix, bool(xm), bool(xp)))
        if not (ym and yp):
            grid._cut_y.append((iy, ix, bool(ym), bool(yp)))


def build_grid(spec: DomainSpec, nx: int, ny: int, nt: int, T: float) -> SpaceTimeGrid:
    """Build the space-time grid with masks and quadrature weights."""
    if nx < 16 or ny < 16 or nt < 16:
        raise GridError("nx, ny, nt must all be >= 16")
    if not T > 0:
        raise GridError("T must be positive")
    if spec.shape == "unit_square":
        grid = _build_square(spec, nx, ny, nt, T)
    else:
        grid = _build_disk(spec, nx, ny, nt, T)

    cx, cy = spec.omega_center
    rad = spec.omega_radius
    # omega must stay strictly interior with at least one cell of margin
    margin = grid.h
    if spec.shape == "unit_square":
        dist_to_gamma = min(cx, 1.0 - cx, cy, 1.0 - cy)
    else:
        dist_to_gamma = 1.0 - math.hypot(cx, cy)
    if rad + margin > dist_to_gamma:
        raise GridError(
            f"omega ball B(({cx},{cy}), {rad}) is not strictly interior "
            f"(needs margin >= h = {grid.h:.4g})")

    om = (grid.X1 - cx) ** 2 + (grid.X2 - cy) ** 2 < rad * rad
    grid.omega_mask = om & grid.interior_mask
    if not grid.omega_mask.any():
        raise GridError("omega mask is empty on this grid")
    return grid


# ---------------------------------------------------------------------------
# stencil operators
# ---------------------------------------------------------------------------

def _d1(f, h, axis):
    """First derivative: centered interior, one-sided second order at ends."""
    f = np.moveaxis(f, axis, -1)
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * h)
    out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
    out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
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
    f = grid.check_field(f)
    g1 = _d1(f, grid.h, axis=-1)
    g2 = _d1(f, grid.h, axis=-2)
    if grid.spec.shape == "unit_disk":
        _fix_disk_grad(f, grid, g1, grid._cut_x, axis=-1)
        _fix_disk_grad(f, grid, g2, grid._cut_y, axis=-2)
        inactive = ~grid.active_mask
        g1[..., inactive] = 0.0
        g2[..., inactive] = 0.0
    return g1, g2


def _fix_disk_grad(f, grid, g, cut_list, axis):
    h = grid.h
    for iy, ix, has_m, has_p in cut_list:
        d = 1 if has_p else -1
        i0 = ix if axis == -1 else iy
        n = grid.nx if axis == -1 else grid.ny

        def val(i):
            return f[..., iy, i] if axis == -1 else f[..., i, ix]

        def ok(i):
            return 0 <= i <= n and grid.active_mask[(iy, i) if axis == -1 else (i, ix)]

        if ok(i0 + d) and ok(i0 + 2 * d):
            g[..., iy, ix] = d * (-3 * val(i0) + 4 * val(i0 + d) - val(i0 + 2 * d)) / (2 * h)
        elif ok(i0 + d):
            g[..., iy, ix] = d * (val(i0 + d) - val(i0)) / h
        else:
            g[..., iy, ix] = 0.0


def laplacian(f: np.ndarray, grid: SpaceTimeGrid, bc: str = "ghost_from_field"):
    """Discrete Laplacian (5-point, second order) with the selected bc rule."""
    if bc not in VALID_BC:
        raise GridError(f"bc must be one of {VALID_BC}")
    f = grid.check_field(f)
    if grid.spec.shape == "unit_square":
        return _d2(f, grid.h, -1, bc) + _d2(f, grid.h, -2, bc)
    # per-axis cut rules, then one sum: the solver reads its matrix off this
    out = _disk_d2(f, grid, grid._cut_x, -1, bc) + _disk_d2(f, grid, grid._cut_y, -2, bc)
    out[..., ~grid.active_mask] = 0.0
    return out


def _sw_second(val, i0, d, a, h, ok):
    """One-sided second derivative at a disk cut node.

    Shortley-Weller toward the circle (boundary value 0 at distance a*h) when
    a is given; otherwise one-sided differences into the domain.
    """
    if a is not None:
        inner = val(i0 - d) if ok(i0 - d) else None
        if inner is not None:
            return 2.0 / (h * h) * (inner / (1 + a) - val(i0) / a)
        return -2.0 * val(i0) / (a * h * h)
    if ok(i0 + d) and ok(i0 + 2 * d) and ok(i0 + 3 * d):
        return (2 * val(i0) - 5 * val(i0 + d) + 4 * val(i0 + 2 * d) - val(i0 + 3 * d)) / (h * h)
    if ok(i0 + d) and ok(i0 + 2 * d):
        return (val(i0) - 2 * val(i0 + d) + val(i0 + 2 * d)) / (h * h)
    return np.zeros_like(val(i0))


def _disk_d2(f, grid, cut_list, axis, bc):
    """Second derivative along one axis: centered, cut-node rule at cut nodes."""
    h = grid.h
    out = _d2(f, h, axis, "ghost_from_field")
    for iy, ix, has_m, has_p in cut_list:
        i0 = ix if axis == -1 else iy
        n = grid.nx if axis == -1 else grid.ny
        coord = (grid.x1_nodes[ix], grid.x2_nodes[iy])

        def val(i):
            return f[..., iy, i] if axis == -1 else f[..., i, ix]

        def ok(i):
            return 0 <= i <= n and grid.active_mask[(iy, i) if axis == -1 else (i, ix)]

        # direction toward the missing neighbor
        d_out = 1 if not has_p else -1
        if bc == "dirichlet0":
            c_par = coord[0] if axis == -1 else coord[1]
            c_perp = coord[1] if axis == -1 else coord[0]
            root = math.sqrt(max(1.0 - c_perp * c_perp, 0.0))
            a = (root - d_out * c_par) / h
            a = min(max(a, 1e-3), 1.0)
            out[..., iy, ix] = _sw_second(val, i0, d_out, a, h, ok)
        else:
            out[..., iy, ix] = _sw_second(val, i0, -d_out, None, h, ok)
    return out


def _square_only(grid: SpaceTimeGrid, what: str) -> None:
    # the circle holds no nodes: a disk trace would be sampled inside it
    if grid.spec.shape != "unit_square":
        raise GridError(f"{what} is defined on unit_square only")


def normal_derivative(f: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Outward normal derivative at grid.boundary_points (square only):
    one-sided second-order differences along the outward normal."""
    _square_only(grid, "the normal derivative")
    f = grid.check_field(f)
    iy, ix = grid._b_iy, grid._b_ix
    n1 = grid.boundary_normals[:, 0].astype(int)
    n2 = grid.boundary_normals[:, 1].astype(int)
    iy1, ix1 = iy - n2, ix - n1
    iy2, ix2 = iy - 2 * n2, ix - 2 * n1
    return (3 * f[..., iy, ix] - 4 * f[..., iy1, ix1] + f[..., iy2, ix2]) / (2 * grid.h)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _space_sum(g, wsp):
    return np.einsum("...ij,ij->...", g, wsp)


def integrate_q(g: np.ndarray, grid: SpaceTimeGrid, region: str = "Q",
                eps: float | None = None) -> float:
    """Space-time integral of real samples g over Q, Q_omega, or Q_eps.

    Tensor-product quadrature: trapezoid in time times the spatial weights,
    restricted to the region mask / time window.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.nt + 1, grid.ny + 1, grid.nx + 1):
        raise GridError(f"expected samples of shape (nt+1, ny+1, nx+1), got {g.shape}")
    if not np.all(np.isfinite(g[:, grid.active_mask])):
        raise GridError("integrand contains non-finite entries")
    wsp = grid.quad_weights_space
    if region == "Q_omega":
        wsp = wsp * grid.omega_mask
    idx, wt = grid.time_weights(region, eps)
    slice_sums = _space_sum(g[idx], wsp)
    return float(math.fsum((slice_sums * wt).tolist()))


def integrate_sigma(g: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Integral over Sigma_0 = (0,T) x Gamma of boundary samples g.

    g has shape (nt+1, nb) for boundary samples at all time nodes, or (nb,)
    for a time-independent integrand (then only the boundary integral is
    returned).
    """
    g = np.asarray(g, dtype=float)
    nb = grid.boundary_weights.size
    if g.shape == (nb,):
        return float(math.fsum((g * grid.boundary_weights).tolist()))
    if g.shape != (grid.nt + 1, nb):
        raise GridError(f"expected boundary samples of shape (nt+1, {nb}), got {g.shape}")
    _, wt = grid.time_weights("Q")
    per_t = g @ grid.boundary_weights
    return float(math.fsum((per_t * wt).tolist()))


def boundary_values(f: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Field values at the boundary sample points (trace; square only)."""
    _square_only(grid, "the boundary trace")
    return np.asarray(f)[..., grid._b_iy, grid._b_ix]


def nonzero_trace(f: np.ndarray, grid: SpaceTimeGrid) -> float:
    """max |f| on Gamma if f breaks the homogeneous Dirichlet trace,
    max |f| on Gamma <= 1e-10 (1 + max |f|), else 0.0."""
    trace = float(np.abs(boundary_values(f, grid)).max())
    return trace if trace > 1e-10 * (1.0 + float(np.abs(f).max())) else 0.0
