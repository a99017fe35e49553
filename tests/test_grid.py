import math

import numpy as np
import pytest

from glcarleman.functionals import lambda_scan
from glcarleman.gloperator import derive_coeffs
from glcarleman.grid import (DomainSpec, GridError, _cut_table, _d1, _d2,
                             boundary_values, build_grid, grad, integrate_q,
                             integrate_slices, laplacian, normal_derivative,
                             space_sums)
from glcarleman.solver import SolveConfig, energy_balance, march
from support import einsum_space_sums, linf_l6_norm, prepare_difference


def integrate_space(g: np.ndarray, grid) -> float:
    """Spatial integral of one real slice."""
    g = np.asarray(g, dtype=float)
    return float(math.fsum((g * grid.quad_weights_space).ravel().tolist()))


def observed_order(errs):
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


class TestBuild:
    def test_square_weights_sum_to_one_exactly(self, grid32):
        assert grid32.quad_weights_space.sum() == pytest.approx(1.0, abs=1e-14)

    def test_disk_area_within_two_percent(self, disk_spec):
        g = build_grid(disk_spec, 128, 128, 16, 1.0)
        area = g.quad_weights_space.sum()
        assert 0.98 * np.pi <= area <= 1.02 * np.pi

    def test_omega_touching_boundary_rejected(self):
        spec = DomainSpec(omega_center=(0.5, 0.5), omega_radius=0.5)
        with pytest.raises(GridError):
            build_grid(spec, 32, 32, 32, 1.0)

    def test_degenerate_sizes_rejected(self, square_spec):
        with pytest.raises(GridError):
            build_grid(square_spec, 8, 8, 32, 1.0)
        with pytest.raises(GridError):
            build_grid(square_spec, 32, 32, 32, -1.0)

    @pytest.mark.parametrize("shape", ["unit_square", "unit_disk"])
    def test_unequal_nx_ny_rejected(self, shape):
        center = (0.5, 0.5) if shape == "unit_square" else (0.0, 0.0)
        with pytest.raises(GridError, match="nx == ny"):
            build_grid(DomainSpec(shape, center, 0.25), 32, 64, 32, 1.0)

    def test_square_boundary_sample_layout(self, grid32):
        g, n = grid32, grid32.nx
        b_iy, b_ix = np.unravel_index(g.boundary_nodes, g.X1.shape)
        pts = np.stack([g.X1, g.X2], axis=-1)[b_iy, b_ix]
        assert np.array_equal(g.boundary_points, pts)
        # faces x1 = 0, x1 = 1, x2 = 0, x2 = 1, in that order
        faces = [(0, 0.0, (-1, 0)), (0, 1.0, (1, 0)), (1, 0.0, (0, -1)), (1, 1.0, (0, 1))]
        for f, (axis, value, normal) in enumerate(faces):
            face = slice(f * (n + 1), (f + 1) * (n + 1))
            assert np.all(g.boundary_points[face, axis] == value)
            assert np.all(g.boundary_normals[face] == normal)
        trapezoid = np.full(n + 1, g.h)
        trapezoid[[0, -1]] = g.h / 2
        assert np.array_equal(g.boundary_weights, np.tile(trapezoid, 4))
        # each corner twice, every other boundary node once
        nodes, count = np.unique(np.stack([b_iy, b_ix]), axis=1,
                                 return_counts=True)
        assert np.array_equal(g.corner_mask[tuple(nodes)], count == 2)
        assert np.all(count <= 2) and g.corner_mask.sum() == 4
        assert np.array_equal(np.sort(np.ravel_multi_index(nodes, g.X1.shape)),
                              np.flatnonzero(g.boundary_mask))

    def test_boundary_nodes(self, grid32, disk_grid):
        # the flat index of the square's boundary samples; the circle holds
        # no nodes
        pts = np.stack([grid32.X1.ravel(), grid32.X2.ravel()], axis=-1)
        assert np.array_equal(pts[grid32.boundary_nodes], grid32.boundary_points)
        assert disk_grid.boundary_nodes.size == 0

    def test_mask_partition(self, grid32, disk_grid):
        for g in (grid32, disk_grid):
            assert not np.any(g.interior_mask & g.boundary_mask)
            assert np.all(~g.omega_mask | g.interior_mask)


class TestGrad:
    def test_constant_is_zero(self, grid32):
        f = np.full((33, 33), 2.0 + 1.0j)
        g1, g2 = grad(f, grid32)
        assert np.abs(g1).max() < 1e-13
        assert np.abs(g2).max() < 1e-13

    def test_linear_is_exact(self, grid32):
        f = grid32.X1 + 0j
        g1, g2 = grad(f, grid32)
        assert np.abs(g1 - 1).max() < 1e-12
        assert np.abs(g2).max() < 1e-12

    def test_second_order_on_trig(self, square_spec):
        errs = []
        for n in (32, 64, 128):
            g = build_grid(square_spec, n, n, 16, 1.0)
            f = np.sin(np.pi * g.X1) * np.sin(np.pi * g.X2) + 0j
            g1, _ = grad(f, g)
            exact = np.pi * np.cos(np.pi * g.X1) * np.sin(np.pi * g.X2)
            errs.append(np.abs(g1 - exact).max())
        for p in observed_order(errs):
            assert 1.8 <= p <= 2.2

    @pytest.mark.parametrize("n", [20, 48, 96, 100, 1000])
    def test_complex_quotient_is_the_product_with_the_reciprocal(self, n):
        # _d1 and normal_derivative multiply a complex field by 1/(2h) for
        # the quotient by 2h: numpy divides by (s + 0j) as the product with
        # 1/s, so the bits agree even where 2h is not a power of two, where
        # a real quotient and product differ in the last bit.  Contiguous
        # and strided operands, binary and in place, as _d1 meets them.
        h = 1.0 / n
        r = 1 / (2 * h)
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        for view in (lambda a: a, lambda a: a.T, lambda a: a.T[:, 1:-1]):
            assert (view(z) / (2 * h)).tobytes() == (view(z) * r).tobytes()
            quotient, product = z.copy(), z.copy()
            view(quotient)[...] /= 2 * h
            view(product)[...] *= r
            assert quotient.tobytes() == product.tobytes()
        # a zero part may change its sign, which |.| in every caller erases
        zeros = np.array([complex(a, b) for a in (0.0, -0.0, 1.5) for b in (0.0, -0.0, -2.5)])
        assert np.abs(zeros / (2 * h)).tobytes() == np.abs(zeros * r).tobytes()


def disk_mask(n):
    """The nodes and the active mask of the unit disk on the n x n grid of
    [-1, 1]^2, made as build_grid makes them."""
    x = np.linspace(-1.0, 1.0, n + 1)
    X1, X2 = np.meshgrid(x, x)
    return x, np.hypot(X1, X2) < 1.0 - 1e-12


def cut_list(active, axis):
    """Active nodes missing a stencil neighbour along one axis, in row-major
    order, with which neighbours (-, +) they have: the loops' cut nodes."""
    pad = np.pad(active, 1)
    has_m, has_p = ((pad[1:-1, :-2], pad[1:-1, 2:]) if axis == -1
                    else (pad[:-2, 1:-1], pad[2:, 1:-1]))
    return [(iy, ix, bool(has_m[iy, ix]), bool(has_p[iy, ix]))
            for iy, ix in zip(*np.nonzero(active & ~(has_m & has_p)))]


def fix_disk_grad_loop(f, active, h, g, cut_list, axis):
    """The cut-node rules node by node, as grid.grad once applied them: the
    reference for the cut-node table."""
    n = active.shape[axis] - 1
    for iy, ix, _, has_p in cut_list:
        d = 1 if has_p else -1
        i0 = ix if axis == -1 else iy

        def val(i):
            return f[..., iy, i] if axis == -1 else f[..., i, ix]

        def ok(i):
            return 0 <= i <= n and active[(iy, i) if axis == -1 else (i, ix)]

        if ok(i0 + d) and ok(i0 + 2 * d):
            g[..., iy, ix] = d * (-3 * val(i0) + 4 * val(i0 + d) - val(i0 + 2 * d)) / (2 * h)
        elif ok(i0 + d):
            g[..., iy, ix] = d * (val(i0 + d) - val(i0)) / h
        else:
            g[..., iy, ix] = 0.0


def sw_second(val, i0, d, a, h, ok):
    """One-sided second derivative at a disk cut node, as grid.laplacian
    once took it.

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


def disk_d2_loop(f, grid, cut_list, axis, bc):
    """Second derivative along one axis, centered, with the cut-node rules
    node by node, as grid.laplacian once applied them: the reference for
    the cut-node table."""
    h = grid.h
    out = _d2(f, h, axis, "ghost_from_field")
    for iy, ix, has_m, has_p in cut_list:
        i0 = ix if axis == -1 else iy
        n = grid.nx if axis == -1 else grid.ny
        coord = (grid.X1[iy, ix], grid.X2[iy, ix])

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
            out[..., iy, ix] = sw_second(val, i0, d_out, a, h, ok)
        else:
            out[..., iy, ix] = sw_second(val, i0, -d_out, None, h, ok)
    return out


class TestDiskCutNodes:
    @pytest.fixture(scope="class", params=[16, 32, 128])
    def disk(self, request, disk_spec):
        n = request.param
        return build_grid(disk_spec, n, n, 16, 1.0)

    @pytest.fixture(params=["slice", "stack"])
    def field(self, request, disk):
        lead = () if request.param == "slice" else (3, 4)
        rng = np.random.default_rng(5)
        return rng.standard_normal(lead + disk.X1.shape), \
            rng.standard_normal(lead + disk.X1.shape)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_grad_matches_the_loop(self, disk, field, dtype):
        f = field[0] if dtype is float else field[0] + 1j * field[1]
        active = disk.active_mask
        want = []
        for axis in (-1, -2):
            g = _d1(f, disk.h, axis)
            fix_disk_grad_loop(f, active, disk.h, g, cut_list(active, axis), axis)
            g[..., ~active] = 0.0
            want.append(g)
        for got, ref in zip(grad(f, disk), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("bc", ["dirichlet0", "ghost_from_field"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_laplacian_matches_the_loop(self, disk, field, dtype, bc):
        f = field[0] if dtype is float else field[0] + 1j * field[1]
        active = disk.active_mask
        want = disk_d2_loop(f, disk, cut_list(active, -1), -1, bc) \
            + disk_d2_loop(f, disk, cut_list(active, -2), -2, bc)
        want[..., ~active] = 0.0
        got = laplacian(f, disk, bc)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_guard_rejects_a_short_run(self, axis):
        # a run of three active nodes, a pair at the edge and a lone node in
        # row 3 (column 3, for axis -2): the cut nodes that took the removed
        # rules lack three active neighbours inward
        for run in (slice(1, 4), slice(5, 7), slice(3, 4)):
            active = np.zeros((7, 7), dtype=bool)
            active[3, run] = True
            if axis == -2:
                active = active.T.copy()
            with pytest.raises(GridError, match="three active neighbours"):
                _cut_table(active, np.linspace(-1.0, 1.0, 7), 1 / 3, axis)

    def test_mask_is_the_grids(self, disk_grid):
        assert np.array_equal(disk_mask(disk_grid.nx)[1], disk_grid.active_mask)

    def test_no_disk_grid_trips_the_guard(self):
        # every n from 16 to 256, and up to 1985, the largest the config accepts
        for n in [*range(16, 257), 512, 1024, 1985]:
            x, active = disk_mask(n)
            for axis in (-1, -2):
                cut = _cut_table(active, x, 2.0 / n, axis)
                assert cut.d.size == len(cut_list(active, axis))


class TestLaplacian:
    def test_quadratic_exact_interior(self, grid32):
        f = grid32.X1 ** 2 + grid32.X2 ** 2 + 0j
        lap = laplacian(f, grid32, "ghost_from_field")
        assert np.abs(lap - 4).max() < 1e-10

    def test_trig_dirichlet_second_order(self, square_spec):
        errs = []
        for n in (32, 64, 128):
            g = build_grid(square_spec, n, n, 16, 1.0)
            f = np.sin(np.pi * g.X1) * np.sin(np.pi * g.X2) + 0j
            lap = laplacian(f, g, "dirichlet0")
            errs.append(np.abs(lap + 2 * np.pi ** 2 * f).max())
        for p in observed_order(errs):
            assert 1.8 <= p <= 2.2

    def test_constant_neumann_zero(self, grid32):
        f = np.ones((33, 33), dtype=complex)
        assert np.abs(laplacian(f, grid32, "neumann0")).max() < 1e-12

    def test_disk_quadratic(self, disk_grid):
        f = (disk_grid.X1 ** 2 + disk_grid.X2 ** 2) * disk_grid.active_mask + 0j
        lap = laplacian(f, disk_grid, "ghost_from_field")
        assert np.abs(lap[disk_grid.active_mask] - 4).max() < 1e-9

    def test_bad_bc_rejected(self, grid32):
        with pytest.raises(GridError):
            laplacian(np.zeros((33, 33)), grid32, "robin")


class TestIntegrateQ:
    def test_unit_integrand(self, grid32):
        g = np.ones((33, 33, 33))
        assert integrate_q(g, grid32) == pytest.approx(1.0, abs=1e-13)

    def test_eps_window(self, grid32):
        g = np.ones((33, 33, 33))
        val = integrate_slices(space_sums(g, grid32.quad_weights_space), grid32, 0.25)
        assert abs(val - 0.5) <= grid32.dt + 1e-12

    def test_linear_in_time_and_space_exact(self, grid32):
        # closed form: int_0^1 t dt * int x1 dx = 1/4
        g = grid32.t_nodes[:, None, None] * grid32.X1[None] * np.ones((33, 33, 33))
        assert integrate_q(g, grid32) == pytest.approx(0.25, abs=1e-13)

    def test_omega_region_subset(self, grid32):
        g = np.ones((33, 33, 33))
        om = integrate_slices(space_sums(g, grid32.omega_weights), grid32)
        # omega is an open ball of radius 0.25: area strictly below pi r^2
        assert 0 < om < np.pi * 0.25 ** 2 * 1.05

    def test_slice_count_checked(self, grid32):
        # one sum per time node: a row of another length is not integrated
        for n in (32, 34):
            with pytest.raises(GridError, match="nt\\+1"):
                integrate_slices(np.ones(n), grid32)

    def test_eps_out_of_range(self, grid32):
        with pytest.raises(GridError):
            integrate_slices(np.ones(33), grid32, 0.6)


def sigma_integral(g: np.ndarray, grid) -> float:
    """Integral over Sigma_0 = (0,T) x Gamma of boundary samples (nt+1, nb):
    each slice against the boundary weights, then the time rule."""
    return integrate_slices(space_sums(g, grid.boundary_weights), grid)


class TestIntegrateSigma:
    # every grid here has T = 1, so the integrals over Sigma equal those over Gamma
    def test_square_perimeter(self, grid32):
        g = np.ones((grid32.nt + 1, grid32.boundary_weights.size))
        assert sigma_integral(g, grid32) == pytest.approx(4.0 * grid32.T, abs=1e-13)

    def test_disk_perimeter(self, disk_grid):
        g = np.ones((disk_grid.nt + 1, disk_grid.boundary_weights.size))
        val = sigma_integral(g, disk_grid)
        assert abs(val - 2 * np.pi * disk_grid.T) <= 0.02 * 2 * np.pi * disk_grid.T

    def test_x1_moment_on_square(self, grid32):
        g = np.tile(grid32.boundary_points[:, 0], (grid32.nt + 1, 1))
        assert sigma_integral(g, grid32) == pytest.approx(2.0 * grid32.T, abs=1e-12)

    def test_spacetime_boundary_integral(self, grid32):
        nb = grid32.boundary_weights.size
        g = np.ones((33, nb))
        assert sigma_integral(g, grid32) == pytest.approx(4.0, abs=1e-12)


def weight_table(grid, table):
    return {"volume": grid.quad_weights_space, "omega": grid.omega_weights,
            "sigma": grid.boundary_weights}[table]


class TestSpaceSums:
    # 129^2 and 257^2 nodes are above np.einsum's 8,192-element buffer, so
    # that a lone slice of them is summed in chunks unless it is paired
    @pytest.mark.parametrize("n", [16, 128, 256])
    @pytest.mark.parametrize("table", ["volume", "sigma"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_slice_sum_independent_of_stacking(self, square_spec, n, table, order):
        grid = build_grid(square_spec, n, n, 16, 1.0)
        w = weight_table(grid, table)
        rng = np.random.default_rng(n)
        stack = np.asarray(rng.standard_normal((3, 5) + w.shape), order=order)
        whole = space_sums(stack, w)
        assert whole.shape == (3, 5)
        for m, member in enumerate(stack):
            windowed = space_sums(np.asarray(member, order=order), w)
            assert np.array_equal(windowed, whole[m])
            for k, piece in enumerate(member):
                lone = space_sums(np.asarray(piece, order=order), w)
                assert lone.shape == ()
                assert lone == whole[m, k]

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    @pytest.mark.parametrize("table", ["volume", "omega"])
    def test_volume_sums_are_the_einsum_of_each_slice(self, square_spec, n, table):
        grid = build_grid(square_spec, n, n, 16, 1.0)
        w = weight_table(grid, table)
        stack = np.random.default_rng(n).standard_normal((4,) + w.shape)
        assert np.array_equal(space_sums(stack, w), einsum_space_sums(stack, w))

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_windowed_sigma_sums_are_the_whole_trajectory_sums(self, square_spec, n):
        # normal_derivative lays out a whole trajectory's samples time
        # fastest; a window's are laid out otherwise
        grid = build_grid(square_spec, n, n, 16, 1.0)
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((17, n + 1, n + 1)) \
            + 1j * rng.standard_normal((17, n + 1, n + 1))

        def sigma_sums(f):
            return space_sums(np.abs(normal_derivative(f, grid)) ** 2,
                              grid.boundary_weights)

        whole = sigma_sums(Y)
        for window in range(1, 8):
            parts = [sigma_sums(Y[a:a + window]) for a in range(0, 17, window)]
            assert np.array_equal(np.concatenate(parts), whole), window


class TestNormalDerivative:
    def test_x1_on_square_faces(self, grid32):
        nd = normal_derivative(grid32.X1 + 0j, grid32).real
        normals = grid32.boundary_normals
        assert np.abs(nd - normals[:, 0]).max() < 1e-11

    def test_constant_zero(self, grid32):
        nd = normal_derivative(np.full((33, 33), 3.0 + 0j), grid32)
        assert np.abs(nd).max() < 1e-11

    def test_no_trace_on_disk(self, disk_grid):
        # the circle holds no nodes: the disk has no trace and no d/dnu
        f = (disk_grid.X1 ** 2 + disk_grid.X2 ** 2) * disk_grid.active_mask + 0j
        with pytest.raises(GridError, match="unit_square only"):
            normal_derivative(f, disk_grid)
        with pytest.raises(GridError, match="unit_square only"):
            boundary_values(f, disk_grid)


class TestGreenIdentity:
    def test_first_order_compatibility(self, square_spec):
        defects = []
        for n in (32, 64):
            g = build_grid(square_spec, n, n, 16, 1.0)
            f = np.exp(g.X1) * np.sin(2 * g.X2 + 0.3) + 0j
            w = np.cos(1.7 * g.X1 + 0.2) * (g.X2 ** 2 + 0.5) + 0j
            lap = laplacian(f, g, "ghost_from_field")
            g1f, g2f = grad(f, g)
            g1w, g2w = grad(w, g)
            vol = integrate_space((lap * np.conj(w)).real, g) \
                + integrate_space((g1f * np.conj(g1w) + g2f * np.conj(g2w)).real, g)
            nd = normal_derivative(f, g)
            wb = w[np.unravel_index(g.boundary_nodes, g.X1.shape)]
            srf = float(np.sum((nd * np.conj(wb)).real * g.boundary_weights))
            defects.append(abs(vol - srf))
        assert defects[1] <= max(defects[0] / 2 ** 0.8, 1e-12)


# The stencils trust their input: each entry point checks its field once
# (the scan each slice as it arrives), and so does each whole-trajectory
# reference of the stability suite.
ENTRY_POINTS = {
    "lambda_scan": lambda Y, g: lambda_scan(iter(Y[:, None]), [["interior"]], g, [2],
                                            [2.0], derive_coeffs(0.3, 0.4)),
    "march": lambda Y, g: next(march(Y[:1], SolveConfig(bc="dirichlet0"), g)),
    "energy_balance": lambda Y, g: energy_balance(Y, g, SolveConfig(bc="dirichlet0")),
    "prepare_difference": prepare_difference,
    "linf_l6_norm": linf_l6_norm,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("defect, message", [("nan", "non-finite"),
                                             ("shape", "spatial shape")])
def test_entry_point_rejects_bad_field(grid32, entry, defect, message):
    Y = np.zeros((grid32.nt + 1,) + grid32.X1.shape, dtype=complex)
    if defect == "nan":
        Y[:, 16, 16] = np.nan            # an active node at every time
    else:
        Y = Y[..., :-1]
    if (entry, defect) == ("lambda_scan", "shape"):
        message = "arrays of shape"      # the scan's own check comes first
    with pytest.raises(GridError, match=message):
        ENTRY_POINTS[entry](Y, grid32)
