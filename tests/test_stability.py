import tracemalloc
import weakref

import numpy as np
import pytest

from glcarleman import stability
from glcarleman.fields import random_initial_field
from glcarleman.grid import GridError, build_grid, integrate_slices, space_sums
from glcarleman.solver import SolveConfig, solve
from glcarleman.stability import (StabilityError, perturbation_suite,
                                  stability_boundary, stability_interior)

from support import linf_l6_norm, prepare_difference


def c8(u, grid):
    """The conditional constant ||u||_{L^inf L^6}^8."""
    return linf_l6_norm(u, grid) ** 8


@pytest.fixture(scope="module")
def pair32(grid32):
    cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
    y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="dirichlet0")
    w = random_initial_field(grid32, seed=2, amplitude=1.0, bc="dirichlet0")
    u1 = solve(y0 + 1e-2 * w, cfg, grid32).Y
    u2 = solve(y0, cfg, grid32).Y
    return u1, u2, u1 - u2


def nan_as_str(row):
    """``row`` with each nan written "nan", which compares equal to itself."""
    return tuple("nan" if isinstance(x, float) and np.isnan(x) else x for x in row)


def reference_suite(y0, w, deltas, eps_list, cfg, grid, variants):
    """The suite's reports, as (variant, delta, eps, lhs, rhs_obs, c_u2,
    c_u1), from whole stored trajectories and whole-trajectory quadrature:
    interior before boundary, whatever the order of ``variants``."""
    nan = float("nan")
    u2 = solve(y0, cfg, grid).Y
    c_u2 = c8(u2, grid)
    rows = []
    for delta in deltas:
        u1 = solve(y0 + delta * w, cfg, grid).Y
        d = prepare_difference(u1 - u2, grid, c_u2, c8(u1, grid), variants)
        for eps in eps_list:
            lhs = integrate_slices(d.energy, grid, eps)
            rows += [(v, delta, eps, lhs, d.obs[v]) + ((d.c_u2, d.c_u1) if v == "interior"
                                                       else (nan, nan))
                     for v in ("interior", "boundary") if v in variants]
    return rows


PEAK_CASES = [("disk_spec", ("interior",)), ("square_spec", ("interior", "boundary"))]
PEAK_IDS = ["disk-interior", "square-both"]
PEAK_DELTAS = [1e-3, 1e-2, 1e-1]


def suite_peak(grid, variants) -> int:
    """The traced peak, in bytes, of a suite of three deltas and three eps."""
    cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
    y0 = random_initial_field(grid, seed=7, amplitude=1.0, bc="dirichlet0")
    w = random_initial_field(grid, seed=84, amplitude=1.0, bc="dirichlet0")
    tracemalloc.start()
    try:
        perturbation_suite(y0, w, PEAK_DELTAS, [0.05, 0.1, 0.2], cfg, grid,
                           variants=variants)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestL6Norm:
    def test_constant_one(self, grid32):
        U = np.ones((33, 33, 33), dtype=complex)
        assert linf_l6_norm(U, grid32) == pytest.approx(1.0)

    def test_constant_two(self, grid32):
        U = 2 * np.ones((33, 33, 33), dtype=complex)
        assert linf_l6_norm(U, grid32) == pytest.approx(2.0)

    def test_sine_mode_closed_form(self, grid64):
        # int_0^1 sin^6(pi s) ds = 5/16, so the norm is (25/256)^(1/6)
        U = (np.sin(np.pi * grid64.X1) * np.sin(np.pi * grid64.X2)
             * np.ones((65, 1, 1))).astype(complex)
        expect = (25 / 256) ** (1 / 6)
        assert linf_l6_norm(U, grid64) == pytest.approx(expect, rel=1e-6)


class TestRunPair:
    def test_identical_data_zero_difference(self, grid32):
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0")
        y0 = random_initial_field(grid32, seed=3, amplitude=0.8, bc="dirichlet0")
        z = solve(y0, cfg, grid32).Y - solve(y0.copy(), cfg, grid32).Y
        assert np.abs(z).max() == 0.0

    def test_growth_is_controlled(self, grid32, pair32):
        # continuity in data: ||z(t)|| stays within a bounded factor of ||z(0)||
        _, _, z = pair32
        wsp = grid32.quad_weights_space
        norms = np.sqrt(np.einsum("tij,ij->t", np.abs(z) ** 2, wsp))
        assert norms[0] > 0
        assert norms.max() <= norms[0] * np.exp(10.0)

    def test_conjugate_pair_symmetry(self, grid32):
        y0a = random_initial_field(grid32, seed=4, amplitude=0.7, bc="dirichlet0")
        y0b = random_initial_field(grid32, seed=5, amplitude=0.7, bc="dirichlet0")
        cfgp = SolveConfig(b=0.3, c=0.4, bc="dirichlet0")
        cfgm = SolveConfig(b=-0.3, c=-0.4, bc="dirichlet0")
        z1 = solve(np.conj(y0a), cfgm, grid32).Y - solve(np.conj(y0b), cfgm, grid32).Y
        z2 = solve(y0a, cfgp, grid32).Y - solve(y0b, cfgp, grid32).Y
        assert np.abs(z1 - np.conj(z2)).max() < 1e-12


class TestInteriorReport:
    def test_degenerate(self, grid32):
        z = np.zeros((33, 33, 33), dtype=complex)
        u2 = np.ones((33, 33, 33), dtype=complex)
        d = prepare_difference(z, grid32, c_u2=c8(u2, grid32))
        rep = stability_interior(d, grid32, eps=0.1)
        assert rep.degenerate
        assert rep.lhs == 0.0

    def test_eps_monotone(self, grid32, pair32):
        u1, u2, z = pair32
        d = prepare_difference(z, grid32, c_u2=c8(u2, grid32))
        vals = [stability_interior(d, grid32, eps).lhs
                for eps in (0.05, 0.1, 0.2, 0.4)]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_scaling_audit(self, grid32, pair32):
        u1, u2, z = pair32
        s = 3.0
        c_u2 = c8(u2, grid32)
        r1 = stability_interior(prepare_difference(z, grid32, c_u2=c_u2), grid32,
                                0.1)
        r2 = stability_interior(prepare_difference(s * z, grid32, c_u2=c_u2),
                                grid32, 0.1)
        assert r2.lhs == pytest.approx(s ** 2 * r1.lhs, rel=1e-12)
        az2 = np.abs(z) ** 2
        obs2 = integrate_slices(space_sums(az2, grid32.omega_weights), grid32)
        obs4 = integrate_slices(space_sums(az2 ** 2, grid32.omega_weights), grid32)
        assert r1.rhs_obs == pytest.approx(obs2 + obs4, rel=1e-12)
        assert r2.rhs_obs == pytest.approx(s ** 2 * obs2 + s ** 4 * obs4,
                                           rel=1e-12)

    def test_reports_both_normalizations(self, grid32, pair32):
        u1, u2, z = pair32
        d = prepare_difference(z, grid32, c_u2=c8(u2, grid32),
                               c_u1=c8(u1, grid32))
        rep = stability_interior(d, grid32, 0.1)
        assert np.isfinite(rep.c_emp)
        assert np.isfinite(rep.c_emp_u1)
        assert rep.c_u1 == pytest.approx(rep.c_u2, rel=0.2)

    def test_eps_validation(self, grid32, pair32):
        u1, u2, z = pair32
        with pytest.raises(GridError, match="Q_eps requires eps"):
            stability_interior(prepare_difference(z, grid32, c_u2=c8(u2, grid32)),
                               grid32, eps=0.6)


class TestBoundaryReport:
    def test_works_on_dirichlet_difference(self, grid32, pair32):
        _, _, z = pair32
        rep = stability_boundary(prepare_difference(z, grid32), grid32, eps=0.1)
        assert np.isfinite(rep.c_emp)
        assert rep.rhs_obs > 0

    def test_rejects_nonzero_trace(self, grid32):
        z = np.ones((33, 33, 33), dtype=complex)
        with pytest.raises(StabilityError):
            stability_boundary(prepare_difference(z, grid32), grid32, eps=0.1)

    def test_suite_rejects_nonzero_trace_before_reports(self, grid32, monkeypatch):
        # neumann0 solves leave the boundary nodes free, so z has a trace:
        # the boundary variant is refused from cfg.bc, before the march
        reports, marches = [], []
        monkeypatch.setattr(stability, "stability_interior",
                            lambda *a, **k: reports.append(a))
        monkeypatch.setattr(stability, "march", lambda *a, **k: marches.append(a))
        cfg = SolveConfig(b=0.3, c=0.4, bc="neumann0")
        y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="neumann0")
        w = random_initial_field(grid32, seed=2, amplitude=1.0, bc="neumann0")
        with pytest.raises(StabilityError, match="dirichlet0, not neumann0"):
            perturbation_suite(y0, w, [1e-2], [0.1], cfg, grid32)
        assert reports == [] and marches == []

    def test_suite_rejects_the_disk_boundary_before_marching(self, disk_spec,
                                                               monkeypatch):
        # the disk has no normal derivative: the boundary variant is refused
        # from the grid's shape, before march builds the disk's LU
        def no_march(*a, **k):
            raise AssertionError("marched")

        monkeypatch.setattr(stability, "march", no_march)
        g = build_grid(disk_spec, 32, 32, 16, 1.0)
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0")
        y0 = random_initial_field(g, seed=1, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(g, seed=2, amplitude=1.0, bc="dirichlet0")
        with pytest.raises(StabilityError, match="unit_square only, not unit_disk"):
            perturbation_suite(y0, w, [1e-2], [0.1], cfg, g)

    def test_suite_observes_the_interior_of_a_neumann_pair(self, grid32):
        # the interior variant needs no Dirichlet trace
        cfg = SolveConfig(b=0.3, c=0.4, bc="neumann0")
        y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="neumann0")
        w = random_initial_field(grid32, seed=2, amplitude=1.0, bc="neumann0")
        reports = perturbation_suite(y0, w, [1e-2], [0.1], cfg, grid32,
                                     variants=("interior",))
        assert [r.variant for r in reports] == ["interior"]
        assert np.isfinite(reports[0].c_emp) and reports[0].rhs_obs > 0


class TestSuite:
    def test_spread_and_interleaving(self, grid32):
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid32, seed=1, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(grid32, seed=9, amplitude=1.0, bc="dirichlet0")
        reports = perturbation_suite(y0, w, [1e-3, 1e-2], [0.1], cfg, grid32,
                                     variants=("interior",))
        cs = [r.c_emp for r in reports]
        assert all(np.isfinite(c) for c in cs)
        assert max(cs) / min(cs) <= 10.0

    @pytest.mark.parametrize("spec,n,deltas,variants", [
        ("square_spec", 32, [1e-3, 1e-1], ("interior", "boundary")),
        # the rows are keyed by variant: listed boundary first, the reports
        # are the same, interior first
        ("square_spec", 32, [1e-3, 1e-1], ("boundary", "interior")),
        ("disk_spec", 32, [1e-3, 1e-2, 1e-1], ("interior",)),
        # 97^2 nodes: np.einsum sums a lone slice of them otherwise than a
        # stack, and the suite sums every slice as a lone one
        ("square_spec", 96, [1e-2], ("interior",)),
    ], ids=["square-both", "square-boundary-first", "disk-interior",
            "square96-one-delta"])
    def test_streamed_suite_matches_stored_trajectories(
            self, request, spec, n, deltas, variants):
        # the suite, reduced step by step as it is marched, gives the
        # reports of its whole stored trajectories
        grid = build_grid(request.getfixturevalue(spec), n, n, 16, 1.0)
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid, seed=7, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(grid, seed=84, amplitude=1.0, bc="dirichlet0")
        eps_list = [0.05, 0.1, 0.2]
        got = [(r.variant, r.perturbation_scale, r.epsilon, r.lhs, r.rhs_obs,
                r.c_u2, r.c_u1)
               for r in perturbation_suite(y0, w, deltas, eps_list, cfg, grid,
                                           variants=variants)]
        want = reference_suite(y0, w, deltas, eps_list, cfg, grid, variants)
        assert list(map(nan_as_str, got)) == list(map(nan_as_str, want))

    def test_peak_memory_does_not_grow_with_nt(self, square_spec):
        # each march step is reduced and dropped; what grows with nt is the
        # (nt+1)-long rows
        peaks = []
        for nt in (16, 64):
            grid = build_grid(square_spec, 32, 32, nt, 1.0)
            cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
            y0 = random_initial_field(grid, seed=7, amplitude=1.0, bc="dirichlet0")
            w = random_initial_field(grid, seed=84, amplitude=1.0, bc="dirichlet0")
            tracemalloc.start()
            try:
                perturbation_suite(y0, w, [1e-3, 1e-2, 1e-1], [0.05, 0.1, 0.2],
                                   cfg, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 17 * 33 * 33 * 16

    @pytest.mark.parametrize("spec,variants", PEAK_CASES, ids=PEAK_IDS)
    def test_peak_memory(self, request, spec, variants):
        # The peak is about 0.8 (disk) and 1.1 (square) complex space-time
        # trajectories: u2 and every u1 are marched together and reduced
        # step by step, so the solver's operators and the temporaries of
        # one step make it up.  Holding whole trajectories, as the suite
        # once did, peaked at about 7.05.  A fresh grid, so that building
        # the solver's operators counts as in a CLI run.
        grid = build_grid(request.getfixturevalue(spec), 32, 32, 32, 1.0)
        peak = suite_peak(grid, variants)
        trajectory = (grid.nt + 1) * (grid.ny + 1) * (grid.nx + 1) * 16
        assert peak <= 7.25 * trajectory

    @pytest.mark.parametrize("spec,variants", PEAK_CASES, ids=PEAK_IDS)
    def test_peak_memory_in_window_buffers(self, request, spec, variants):
        # A window buffer holds 4 slices of every member, 16 B per node.
        # The suite holds no window: it reduces each march step one member
        # and one difference at a time, and the peak is about 1.6 (disk) and
        # 2.3 (square) window buffers.  Streaming through such a buffer
        # peaked at about 3.5, and reducing the whole stack of differences
        # at once at about 6.3 and 6.5.
        grid = build_grid(request.getfixturevalue(spec), 32, 32, 32, 1.0)
        peak = suite_peak(grid, variants)
        window = (1 + len(PEAK_DELTAS)) * 4 * (grid.ny + 1) * (grid.nx + 1) * 16
        assert peak <= 5.0 * window

    @pytest.mark.parametrize("spec,variants", PEAK_CASES, ids=PEAK_IDS)
    def test_peak_memory_in_member_slices(self, request, spec, variants):
        # A member slice is one time slice of every member, 16 B per node.
        # Each march step is reduced as it is yielded and dropped before the
        # next one is formed, so the march's state and operators and one
        # step's temporaries make up the peak: about 6.3 (disk) and 9.2
        # (square) member slices.  Streaming through a buffer of 4 slices
        # peaked at about 13.9 and 14.2.
        grid = build_grid(request.getfixturevalue(spec), 32, 32, 32, 1.0)
        peak = suite_peak(grid, variants)
        member_slice = (1 + len(PEAK_DELTAS)) * (grid.ny + 1) * (grid.nx + 1) * 16
        assert peak <= 12 * member_slice

    def test_peak_memory_of_a_long_suite(self, square_spec):
        # 20 deltas at 16^2 and nt = 256: each step's reductions go into
        # (nt+1)-long rows, 0.17 MB in all, and the peak reads about 1.1 MB.
        # Keeping them as per-step lists of dicts, joined after the march,
        # peaked at about 7 MB.
        grid = build_grid(square_spec, 16, 16, 256, 1.0)
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid, seed=7, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(grid, seed=84, amplitude=1.0, bc="dirichlet0")
        deltas = [1e-3 * (k + 1) for k in range(20)]
        tracemalloc.start()
        try:
            perturbation_suite(y0, w, deltas, [0.1], cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_suite_releases_each_step(self, monkeypatch, square_spec):
        # once the suite asks march for the next step, it holds nothing of
        # the last one, so no two steps are alive while march forms one
        grid = build_grid(square_spec, 16, 16, 16, 1.0)
        march, alive = stability.march, []

        def watched(*args, **kwargs):
            for step in march(*args, **kwargs):
                last = weakref.ref(step.Y)
                yield step
                del step
                alive.append(last() is not None)

        monkeypatch.setattr(stability, "march", watched)
        cfg = SolveConfig(b=0.3, c=0.4, bc="dirichlet0", scheme="imex_cn")
        y0 = random_initial_field(grid, seed=7, amplitude=1.0, bc="dirichlet0")
        w = random_initial_field(grid, seed=84, amplitude=1.0, bc="dirichlet0")
        perturbation_suite(y0, w, PEAK_DELTAS, [0.1], cfg, grid)
        assert alive == [False] * (grid.nt + 1)
