"""Semi-implicit time stepping for the Ginzburg-Landau equation.

The equation y_t = (1+ib) Lap y - (1+ic)|y|^2 y + f is advanced with the
stiff dispersion treated implicitly, by exact solves with I - kappa L, and
the cubic term handled explicitly:

* ``imex_be``: backward Euler on the linear part, cubic frozen at the old
  state (first order);
* ``imex_cn``: Crank-Nicolson on the linear part with Strang splitting
  around the cubic flow (second order).  The cubic subflow
  y' = -(1+ic)|y|^2 y is integrated exactly:
  y -> y (1 + 2 tau |y|^2)^(-(1+ic)/2),
  which is an unconditional contraction of |y|.

A stiffness cap dt_sub * max|y|^2 <= 1/2 is enforced adaptively by halving
the internal substep (macro slices stay on the uniform time grid).

``march`` is the one time loop: it steps a stack of members in lockstep and
yields their slices time by time, so that a caller may reduce them as they
come; ``solve`` marches one member and keeps its trajectory.

On the square, L is diagonal in a sine basis (``dirichlet0``) or a cosine
basis (``neumann0``), so each solve is a fast transform on ``numpy.fft``
(the fast Poisson solver of Buzbee, Golub and Nielson, 1970), and a square
run never imports SciPy.  On the disk, I - kappa L takes a sparse LU once
per kappa and march, reused every step; it orders by minimum degree on the
structure of A + A^T and does not pivot: for Re kappa > 0, I - kappa L is
strictly diagonally dominant by rows, so the diagonal pivots are safe (see
``_factorized``).  The solver keeps no state on the grid: each march builds
its operators once, and forms each substep count's implicit map once.

Boundary data are homogeneous, as for the difference of two solutions with
the same boundary data: ``dirichlet0`` (square or disk) holds zero at every
node that is not an unknown, and ``neumann0`` (square only) mirrors a ghost
node across the edge.  The manufactured study runs ``dirichlet0``, since its
reference vanishes on the square's boundary.

On the square the L2 norm over the quadrature weights is non-increasing for
these boundary conditions and zero source: the (mirrored-ghost) discrete
Laplacian is self-adjoint and nonpositive in the trapezoid-weighted inner
product, the Crank-Nicolson amplification of each mode has modulus <= 1, and
the cubic flow shrinks |y| pointwise.  The disk's Shortley-Weller Laplacian
is not self-adjoint in its cut-cell inner product, so there the argument
does not apply; ``energy_balance`` pairs with the Laplacian itself and needs
no symmetry.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gloperator import linear_source
from .grid import GridError, SpaceTimeGrid, laplacian, space_sums

VALID_SOLVER_BC = ("dirichlet0", "neumann0")
SCHEMES = ("imex_be", "imex_cn")
STIFFNESS_CAP = 0.5
MAX_HALVINGS = 10


class SolverError(RuntimeError):
    pass


@dataclass
class SolveConfig:
    b: float = 0.0
    c: float = 0.0
    bc: str = "dirichlet0"
    scheme: str = "imex_cn"
    source: object | None = None      # callable t -> (ny+1, nx+1) complex array

    def __post_init__(self):
        if self.bc not in VALID_SOLVER_BC:
            raise GridError(f"bc must be one of {VALID_SOLVER_BC}")
        if self.scheme not in SCHEMES:
            raise GridError(f"scheme must be {' or '.join(map(repr, SCHEMES))}")


# ---------------------------------------------------------------------------
# the implicit substep
# ---------------------------------------------------------------------------

@dataclass
class _LinearOps:
    """The solver's Laplacian L on the unknown nodes; every other node holds
    zero, so L (unknowns x unknowns) is the whole operator.

    On the square L is diagonal in the sine basis of the interior nodes
    (``dirichlet0``) or the cosine basis of all nodes (mirrored-ghost
    ``neumann0``), and ``lam`` holds its eigenvalues.  On the disk ``L`` is
    its stencil matrix, factorised per kappa by ``_factorized``.
    """

    unknown_mask: np.ndarray        # bool over grid nodes
    lam: np.ndarray | None = None   # square: (k, k) eigenvalues, lam_i + lam_j
    n: int = 0                      # square: cells per side
    sine: bool = False              # square: the sine (else cosine) basis
    L: object = None                # disk: scipy.sparse csr, unknowns x unknowns

    def substep(self, kappa: complex, cfg: SolveConfig):
        """The implicit part of a substep, on stacks of columns (unknowns, m):
        (v, s) -> (I - kappa L)^{-1} ((I + kappa L) v + s) under ``imex_cn``,
        rhs -> (I - kappa L)^{-1} rhs under ``imex_be``.

        On the square it is the symbol of that map in L's eigenbasis: the
        Cayley factor (1 + kappa lam) / (1 - kappa lam) without a source, and
        1 / (1 - kappa lam) applied to any other right-hand side.
        """
        if self.L is not None:
            lu = _factorized(self, kappa)
            if cfg.scheme == "imex_be":
                return lu

            def crank_nicolson(v, s):
                # named, as numpy multiplies a temporary of 256 KiB or more in
                # place with the factors swapped, which moves the last bit of
                # a complex product: a stack would round otherwise than each
                # of its members marched alone
                Lv = self.L @ v
                rhs = v + kappa * Lv
                if cfg.source is not None:
                    rhs += s
                return lu(rhs)
            return crank_nicolson
        # the transform applied twice is 4 n^2 times the identity
        res = 1.0 / (4 * self.n ** 2 * (1.0 - kappa * self.lam))
        if cfg.scheme == "imex_be":
            return lambda rhs: _spectral(self, (rhs, res))
        cayley = (1.0 + kappa * self.lam) * res
        if cfg.source is None:
            return lambda v, s: _spectral(self, (v, cayley))
        return lambda v, s: _spectral(self, (v, cayley), (s, res))


def _transform(x: np.ndarray, sine: bool, work: np.ndarray) -> np.ndarray:
    """The DST-I (sine) or DCT-I of a stack (m, k, k) along its last axis,
    then along its other: each the length-2n FFT of the odd or the even
    extension of every line, which is transformed alone, so that a member of
    a stack gets its solo values.  The passes fill work[0] and work[1], each
    (m, k, 2n), and the result is a view of work[1].

    The result is transposed, [kx, ky] for [iy, ix].  Unnormalised, each
    transform is its own inverse up to a factor per axis (n/2 and -2i twice
    over, or 2n), so this applied twice gives 4 n^2 x.
    """
    n = work.shape[-1] // 2
    for axis, e in enumerate(work):
        if axis:
            x = x.swapaxes(-1, -2)
        # x is read once (strided, as a transpose in the second pass), and
        # its reversal copied from that
        if sine:
            # [0, x, 0, -x reversed]: its FFT is -2i times the DST
            e[..., 0] = e[..., n] = 0.0
            e[..., 1:n] = x
            np.negative(e[..., n - 1:0:-1], out=e[..., n + 1:])
        else:
            # [x, x reversed without its ends]: its FFT is the DCT
            e[..., :n + 1] = x
            e[..., n + 1:] = e[..., n - 1:0:-1]
        np.fft.fft(e, out=e)
        x = e[..., 1:n] if sine else e[..., :n + 1]
    return x


def _spectral(ops: _LinearOps, *terms) -> np.ndarray:
    """The sum of sym(L) x over the (x, sym) terms, each x a stack of columns
    (unknowns, m) and sym a symbol over ``ops.lam`` that absorbs the 4 n^2 of
    the transform pair."""
    k = len(ops.lam)

    def forward(x, sym):
        # the first term's two buffers serve the inverse transform too
        work = np.empty((2, x.shape[1], k, 2 * ops.n), dtype=complex)
        xh = _transform(x.T.reshape(x.shape[1], k, k), ops.sine, work)
        return np.multiply(xh, sym, out=xh), work

    xh, work = forward(*terms[0])
    for term in terms[1:]:
        np.add(xh, forward(*term)[0], out=xh)
    return _transform(xh, ops.sine, work).reshape(len(xh), -1).T


def _stencil_matrix(grid: SpaceTimeGrid, bc: str):
    """Sparse matrix of ``laplacian(., grid, bc)`` over all grid nodes.

    Valid only for rules whose stencil at every node lies in its 5-point plus.
    The colour (ix + 2 iy) mod 5 differs on the five nodes of any plus, so the
    response to the indicator of one colour holds one entry per row, and the
    gap (colour - row colour) mod 5 names its column offset.
    """
    import scipy.sparse as sps

    ny1, nx1 = grid.ny + 1, grid.nx + 1
    iy, ix = np.indices((ny1, nx1))
    colour = (ix + 2 * iy) % 5
    offset = np.array([0, 1, nx1, -nx1, -1])
    parts = []
    for c in range(5):
        resp = laplacian((colour == c).astype(float), grid, bc).ravel()
        row = np.flatnonzero(resp)
        parts.append((resp[row], row, row + offset[(c - colour.ravel()[row]) % 5]))
    vals, rows, cols = (np.concatenate(p) for p in zip(*parts))
    return sps.csr_matrix((vals, (rows, cols)), shape=(ny1 * nx1, ny1 * nx1))


def build_linear_ops(grid: SpaceTimeGrid, bc: str) -> _LinearOps:
    """The solver's Laplacian for the boundary condition bc on the grid."""
    unknown = grid.interior_mask if bc == "dirichlet0" else grid.active_mask
    if grid.spec.shape == "unit_square":
        sine = bc == "dirichlet0"
        j = np.arange(1, grid.nx) if sine else np.arange(grid.nx + 1)
        lam = -4.0 / grid.h ** 2 * np.sin(np.pi * j / (2 * grid.nx)) ** 2
        return _LinearOps(unknown, lam=lam[:, None] + lam, n=grid.nx, sine=sine)
    idx = np.flatnonzero(unknown)
    return _LinearOps(unknown, L=_stencil_matrix(grid, bc)[idx][:, idx])


def _factorized(ops: _LinearOps, kappa: complex):
    """The disk's LU solve with (I - kappa L).

    The columns are ordered by minimum degree on the structure of A + A^T,
    and the rows take the same order with no pivoting: on the 5-point plus
    this keeps about half the fill of scipy's default COLAMD ordering with
    partial pivoting.  Pivoting is not needed, since for Re kappa > 0 the
    matrix is strictly diagonally dominant by rows: every row of the disk's
    Shortley-Weller L has a negative diagonal d and off-diagonal entries with
    sum |off| <= |d|, so |1 + kappa |d|| > |kappa| |d| >= |kappa| sum |off|.
    Elimination keeps that dominance, so every pivot is nonzero; a failing
    factorization raises RuntimeError.  SciPy is imported here and in the
    disk's grid build only: a square run never loads it.
    """
    import scipy.sparse as sps
    import scipy.sparse.linalg as spla

    n = ops.L.shape[0]
    A = (sps.identity(n, dtype=complex, format="csr") - kappa * ops.L).tocsc()
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).solve


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _cubic_flow(y: np.ndarray, tau: float, c: float) -> np.ndarray:
    """Exact flow of y' = -(1+ic)|y|^2 y over time tau >= 0:
    y (1 + 2 tau |y|^2)^(-1/2) (cos theta + i sin theta), theta =
    -c/2 log(1 + 2 tau |y|^2), each temporary written in place."""
    m = np.abs(y)
    np.square(m, out=m)
    m *= 2.0 * tau
    m += 1.0
    # the unit phase exp(-ic/2 log m) from real cos and sin, which numpy
    # vectorises and its complex exp does not; rot is laid out as y (an
    # F-ordered (unknowns, m) stack from march), so that no product mixes
    # layouts, and each part is filled from a contiguous array, as cos and
    # sin slow down on a strided output
    theta = np.log(m)
    theta *= -0.5 * c
    rot = np.empty_like(theta, dtype=complex)
    rot.real = np.cos(theta)
    rot.imag = np.sin(theta, out=theta)
    out = y * np.power(m, -0.5, out=m)
    out *= rot
    return out


def required_substeps(state: np.ndarray, dt: float) -> int:
    """Smallest power-of-two substep count meeting dt_sub * max|y|^2 <= 1/2."""
    n_sub = 1
    try:
        peak = float(np.abs(state).max()) ** 2
    except OverflowError:        # a peak of about 1.34e154 or more
        peak = float("inf")
    for _ in range(MAX_HALVINGS + 1):
        if (dt / n_sub) * peak <= STIFFNESS_CAP:
            return n_sub
        n_sub *= 2
    raise SolverError(f"stiffness cap not reachable within {MAX_HALVINGS} halvings")


@dataclass
class SolveResult:
    Y: np.ndarray                 # (nt+1, ny+1, nx+1)
    l2_norms: np.ndarray          # (nt+1,)
    substeps: np.ndarray          # (nt,)


class MarchStep(NamedTuple):
    Y: np.ndarray                 # (m, ny+1, nx+1): every member at t_k
    substeps: np.ndarray          # (m,): substeps taken to reach t_k (0 at k = 0)


def march(Y0: np.ndarray, cfg: SolveConfig, grid: SpaceTimeGrid):
    """Step a stack of m initial data (m, ny+1, nx+1) in lockstep, yielding
    a MarchStep for each of t_0, ..., t_nt.

    The state is stepped on the unknown nodes only, one column per member;
    every other node of a yielded slice holds zero.  At each macro step the
    members are grouped by the fewest power-of-two substeps that meet the
    stiffness cap, and each group shares one cubic flow and one implicit
    solve per substep: batched transforms on the square, a stencil product
    and a multi-column LU solve on the disk.  Those act column by column, so
    each member gets exactly the values and substep schedule it would get
    marched alone.  A source is taken for a stack of one member only (the
    manufactured study's).  NaN/Inf after any substep aborts.

    The first step's implicit operators are formed before t_0 is yielded,
    so the disk's LU factorisation, the march's largest transient, comes
    before the caller has allocated anything for the slices.  The stack Y0
    is not held once its unknowns are copied out.
    """
    Y0 = grid.check_field(np.asarray(Y0, dtype=complex), "initial data")
    if Y0.ndim != 3:
        raise GridError("march takes a stack of initial data (m, ny+1, nx+1)")
    if cfg.source is not None and len(Y0) > 1:
        raise GridError("march takes a source for a stack of one member only")
    ops = build_linear_ops(grid, cfg.bc)
    # flat indices of the unknowns: scattering by them is 3x faster than by
    # the boolean mask
    unknown = np.flatnonzero(ops.unknown_mask)
    m = len(Y0)
    # kappa = dt_sub (1 + ib), halved under Crank-Nicolson
    kb = (0.5 if cfg.scheme == "imex_cn" else 1.0) * (1.0 + 1j * cfg.b)
    # each substep count's symbols (the disk's LU) are formed once per march
    implicit = functools.cache(
        lambda n_sub: ops.substep(grid.dt / n_sub * kb, cfg))

    def src(t):
        return 0.0 if cfg.source is None \
            else np.asarray(cfg.source(t), dtype=complex).ravel()[unknown][:, None]

    shape = Y0.shape

    def slices(u, subs):
        Y = np.zeros(shape, dtype=complex)
        Y.reshape(m, -1)[:, unknown] = u.T
        return MarchStep(Y, subs)

    def schedule(u):
        return [required_substeps(u[:, i], grid.dt) for i in range(m)]

    u = Y0.reshape(m, -1)[:, unknown].T      # (unknowns, m)
    del Y0
    subs = schedule(u)
    for n_sub in set(subs):
        implicit(n_sub)
    yield slices(u, np.zeros(m, dtype=int))
    # the source at the end of each substep is carried to the next one, so
    # every time is sampled once
    f = src(grid.t_nodes[0])
    for k in range(grid.nt):
        if k:
            subs = schedule(u)
        for n_sub in sorted(set(subs)):
            idx = [i for i in range(m) if subs[i] == n_sub]
            v = u if len(idx) == m else u[:, idx]
            dt_sub = grid.dt / n_sub
            for j in range(n_sub):
                tj = grid.t_nodes[k] + j * dt_sub
                f_start, f = f, src(tj + dt_sub)
                if cfg.scheme == "imex_cn":
                    v = _cubic_flow(v, 0.5 * dt_sub, cfg.c)
                    v = implicit(n_sub)(v, 0.5 * dt_sub * (f_start + f))
                    v = _cubic_flow(v, 0.5 * dt_sub, cfg.c)
                else:
                    cubic = -(1 + 1j * cfg.c) * np.abs(v) ** 2 * v
                    rhs = v + dt_sub * cubic + dt_sub * f
                    v = implicit(n_sub)(rhs)
                if not np.all(np.isfinite(v)):
                    raise SolverError(f"non-finite state at t={tj + dt_sub:.6g}")
            if len(idx) == m:
                u = v
            else:
                u[:, idx] = v
        yield slices(u, np.array(subs))


def solve(y0: np.ndarray, cfg: SolveConfig, grid: SpaceTimeGrid) -> SolveResult:
    """March one member nt macro steps, recording slices and per-step
    diagnostics."""
    Y = np.empty((grid.nt + 1, grid.ny + 1, grid.nx + 1), dtype=complex)
    subs = []
    for k, step in enumerate(march(np.asarray(y0)[None], cfg, grid)):
        Y[k] = step.Y[0]
        subs.append(step.substeps[0])
    # after the march, slice by slice: reductions inside it cost about 1.5%
    # of a 128^3 disk solve, and whole-Y temporaries would be 17 MB each
    sq_norms = [space_sums(np.abs(y) ** 2, grid.quad_weights_space) for y in Y]
    return SolveResult(Y=Y, l2_norms=np.sqrt(sq_norms), substeps=np.array(subs[1:]))


# ---------------------------------------------------------------------------
# diagnostics and manufactured source
# ---------------------------------------------------------------------------

def energy_balance(Y: np.ndarray, grid: SpaceTimeGrid, sc: SolveConfig) -> np.ndarray:
    """Normalized residuals of the scheme's discrete energy law per step.

    residual_k = | (||y_{k+1}||^2 - ||y_k||^2) / (2 dt) + num_k
                  - Re[(1+ib) <Lap_h p, p>] + ||p||_{L4}^4 | / scale_k

    in the quadrature inner product, with Lap_h the stencil Laplacian the
    solver factorises.  ``imex_cn`` pairs at the midpoint p = (y_k + y_{k+1})/2
    with num_k = 0; ``imex_be`` pairs at p = y_{k+1} and adds its numerical
    dissipation num_k = ||y_{k+1} - y_k||^2 / (2 dt).  scale_k is the largest
    modulus among the time, dissipation and L4 terms.  The pairing needs no
    symmetry of Lap_h, so the residual measures time error on the disk too.
    """
    Y = grid.check_field(np.asarray(Y, dtype=complex), "trajectory")
    wsp = grid.quad_weights_space
    ddt = np.diff(space_sums(np.abs(Y) ** 2, wsp)) / (2 * grid.dt)
    out = np.empty_like(ddt)
    # one step at a time, so the pairing's temporaries are slice-sized
    for k in range(ddt.size):
        if sc.scheme == "imex_cn":
            p, dtime = 0.5 * (Y[k] + Y[k + 1]), ddt[k]
        else:
            p = Y[k + 1]
            dtime = ddt[k] + space_sums(np.abs(p - Y[k]) ** 2, wsp) / (2 * grid.dt)
        pair = space_sums(laplacian(p, grid, sc.bc) * np.conj(p), wsp)
        gsq = -((1 + 1j * sc.b) * pair).real
        l4 = space_sums(np.abs(p) ** 4, wsp)
        out[k] = abs(dtime + gsq + l4) / max(abs(dtime), abs(gsq), l4, 1e-300)
    return out


def grid_source(field, grid: SpaceTimeGrid, coeffs):
    """Solver-ready source t -> F y*(t) on the grid nodes, from the analytic
    derivatives of y*; zero off the active nodes."""
    pts = np.stack([grid.X1, grid.X2], axis=-1)

    def src(t):
        jet = field.jet(t, pts)
        out = linear_source(jet.vt, jet.lap, coeffs)
        out += (1 + 1j * coeffs.c) * np.abs(jet.v) ** 2 * jet.v
        out[~grid.active_mask] = 0.0
        return out

    return src


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"GLCTRAJ1"


def save_trajectory(path, Y: np.ndarray, grid: SpaceTimeGrid) -> None:
    """Binary trajectory: header (shape, nx, ny, nt, T) + row-major complex128 LE."""
    Y = np.ascontiguousarray(np.asarray(Y, dtype="<c16"))
    shape_code = 0 if grid.spec.shape == "unit_square" else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIId", shape_code, grid.nx, grid.ny, grid.nt, grid.T))
        fh.write(Y.tobytes())


def load_trajectory(path):
    """Returns (Y, meta dict)."""
    header = "<IIIId"
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise SolverError("not a trajectory file")
        shape_code, nx, ny, nt, T = struct.unpack(
            header, fh.read(struct.calcsize(header)))
        data = fh.read()
    Y = np.frombuffer(data, dtype="<c16").reshape(nt + 1, ny + 1, nx + 1).copy()
    meta = {"shape": "unit_square" if shape_code == 0 else "unit_disk",
            "nx": nx, "ny": ny, "nt": nt, "T": T}
    return Y, meta
