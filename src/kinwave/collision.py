"""Hard-sphere collision operator.

Provides the bilinear gain/loss quadrature, the closed-form collision
frequency and compact kernels, assembly of the linearized operator around a
Maxwellian, the constrained inverse on the microscopic subspace, and what
acts through that inverse: the Chapman-Enskog term of a moving local
Maxwellian (``micro_leading``), the shock profile's microscopic leading
term and the microscopic field split.

Normalization note: the closed-form collision frequency below follows the
compact-kernel convention and equals 1/pi times the double quadrature of
the loss integral with unit hard-sphere kernel |(xi-xi*).Omega|.  The
kernels k1, k2 are consistent with the *defining* normalization, so the
linearized operator assembly multiplies the closed form by pi.  The check
is ``tests/test_collision.py::test_kernel_matches_hard_sphere_transport``:
the assembled operator gives the closed-form hard-sphere viscosity and
conductivity (Chapman and Cowling, ch. 10) to the lattice's 2-5 %, and a
kernel or frequency off by 5 % fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .errors import IllConditioned, NotMicroscopic, SingularPair
from .gas import R_GAS, FluidTriple
from .velocity import (Projector, VelocityGrid, grid_spanning, inner,
                       one_plus_speed, reference_maxwellian)

if TYPE_CHECKING:
    from .profiles import ShockProfile

# int over the unit cube [-1/2,1/2]^3 of |z|^-1 dz (for the k2 self-cell).
_CELL_INV_R = 2.3800774322849208

#: midpoint subcells per axis for the k2 shell average: the 26 neighbour
#: cells, and the self cell (finer, for its smooth part)
K2_SHELL_SUB = 6
K2_SELF_SUB = 10

EPS_SING = 1e-12

#: the error function on arrays and scalars; numpy has none, and the
#: assembly needs about N + N/8 values
erf = np.vectorize(math.erf, otypes=[float])

#: work sizes of the assembly, which bound its temporaries: kernel
#: entries computed at a time by ``_kernel_blocks`` (a chunk of orbit
#: representatives' rows of N entries each, 11 floats per entry; their
#: images, up to 6 rows per representative, are folded into the parity
#: sectors together), rows of the shell pass at a time (about 30,000
#: floats per row) and rows of a sector block per symmetrisation or
#: projection update
KERNEL_CHUNK = 1 << 13
SHELL_ROWS = 4
ROW_BLOCK = 128

#: roundoff floor of ``invert_micro``'s microscopic gate, relative to the
#: M-weighted norm of the state's Maxwellian
MICRO_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# bilinear operator
# ---------------------------------------------------------------------------

@dataclass
class BilinearResult:
    """Gain/loss split of Q(g, h)."""

    gain: np.ndarray
    loss: np.ndarray
    loss_frequency: np.ndarray      # loss = g * loss_frequency(h)
    #: stencil weight lost off the lattice: none, as every post-collision
    #: velocity of the axis directions is a node (read by the benchmark)
    lost_interp_weight: ClassVar[float] = 0.0

    @property
    def total(self) -> np.ndarray:
        return self.gain - self.loss


def q_bilinear_batch(G: np.ndarray, H: np.ndarray,
                     grid: VelocityGrid) -> BilinearResult:
    """Hard-sphere Q(g, h) for a batch of distribution pairs.

    ``G``, ``H`` have shape (nbatch, n1, n2, n3).  The hemisphere restriction
    (xi - xi*) . Omega >= 0 masks the full-sphere rule; gain and loss share
    one (xi*, Omega) quadrature.  For each direction Omega = +-e_a of
    ``grid.omega`` the post-collision velocities swap one lattice
    coordinate, xi' = (xi*_a, xi_b, xi_c), xi*' = (xi_a, xi*_b, xi*_c),
    and B(i_a, j_a) = w w_k max(+-(xi_a - xi*_a), 0) depends on that
    coordinate alone, so the xi* sum factorizes exactly: gain(i) =
    hbar(i_a) sum_{j_a} B(i_a, j_a) g(j_a, i_b, i_c) and loss_frequency(i)
    = (B hbar)(i_a), hbar = h summed over the other two axes; one
    n_a x n_a matmul per direction, O(nbatch N n_a).
    """
    nb = G.shape[0]
    shape = (nb,) + grid.counts
    G, H = G.reshape(shape), H.reshape(shape)
    gain, lossfreq = np.zeros(shape), np.zeros(shape)
    for om, w_om in zip(grid.omega, grid.omega_weight):
        ax = int(np.flatnonzero(om)[0])
        x = grid.axes[ax]
        B = grid.weight * w_om * np.maximum(om[ax] * (x[:, None] - x[None, :]),
                                            0.0)
        # work on views with axis a last: (nb, n_b, n_c, n_a)
        hbar = np.moveaxis(H, ax + 1, -1).sum(axis=(1, 2))[:, None, None]
        np.moveaxis(gain, ax + 1, -1)[...] += \
            hbar * (np.moveaxis(G, ax + 1, -1) @ B.T)
        np.moveaxis(lossfreq, ax + 1, -1)[...] += hbar @ B.T
    return BilinearResult(gain=gain, loss=G * lossfreq,
                          loss_frequency=lossfreq)


def q_bilinear(g: np.ndarray, h: np.ndarray, grid: VelocityGrid) -> BilinearResult:
    """Q(g, h) for a single pair of grid functions (see q_bilinear_batch)."""
    res = q_bilinear_batch(g[None, ...], h[None, ...], grid)
    return BilinearResult(res.gain[0], res.loss[0], res.loss_frequency[0])


# ---------------------------------------------------------------------------
# closed forms: collision frequency and compact kernels
# ---------------------------------------------------------------------------

def _k2_prefactor(rho: float, a2: float) -> float:
    """2 rho / sqrt(2 pi a2): the factor of k2 and of the collision
    frequency."""
    return 2.0 * rho / math.sqrt(2.0 * math.pi * a2)


def collision_frequency(s: FluidTriple, xi: np.ndarray) -> np.ndarray:
    """Closed-form collision frequency of the local Maxwellian at ``s``.

    Continuous at xi = u with limit (4/sqrt(2 pi)) rho sqrt(R theta); grows
    like rho |xi - u| for large velocities.
    """
    xi = np.asarray(xi, dtype=float)
    a2 = R_GAS * s.theta
    du = xi - np.asarray(s.u)
    r = np.sqrt(np.einsum("...i,...i->...", du, du))
    r_safe = np.where(r > 1e-14, r, 1e-14)
    igral = np.sqrt(math.pi * a2 / 2.0) * erf(r_safe / math.sqrt(2.0 * a2))
    full = (a2 / r_safe + r_safe) * igral + a2 * np.exp(-r ** 2 / (2.0 * a2))
    limit = 2.0 * a2
    val = np.where(r > 1e-14, full, limit)
    return _k2_prefactor(s.rho, a2) * val


def _k1(rho: float, a2: float, r, q, qs):
    """k1 at |xi - xi*| = r, with q = |xi - u|^2 and qs = |xi* - u|^2."""
    return (math.pi * rho * (2.0 * math.pi * a2) ** (-1.5)
            * r * np.exp(-(q + qs) / (4.0 * a2)))


def _k2_exp(a2: float, r, q, qs):
    """Exponential factor of k2 (arguments as in _k1)."""
    return np.exp(-r ** 2 / (8.0 * a2) - (q - qs) ** 2 / (8.0 * a2 * r ** 2))


def _k2(rho: float, a2: float, r, q, qs):
    """k2 = _k2_prefactor / r * _k2_exp (arguments as in _k1)."""
    return _k2_prefactor(rho, a2) / r * _k2_exp(a2, r, q, qs)


def kernels(s: FluidTriple, xi: np.ndarray, xi_star: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Compact kernels (k1, k2) of the linearized operator at ``s``.

    Evaluated in the frame moving with the bulk velocity; k2 is singular at
    coincident velocities and raises SingularPair below EPS_SING.
    """
    xi = np.asarray(xi, dtype=float)
    xi_star = np.asarray(xi_star, dtype=float)
    a2 = R_GAS * s.theta
    u = np.asarray(s.u)
    c, cs = xi - u, xi_star - u
    d = xi - xi_star
    r = np.sqrt(np.einsum("...i,...i->...", d, d))
    if np.any(r < EPS_SING):
        raise SingularPair("k2 singular at coincident velocities")
    q, qs = np.einsum("...i,...i->...", c, c), np.einsum("...i,...i->...", cs, cs)
    return _k1(s.rho, a2, r, q, qs), _k2(s.rho, a2, r, q, qs)


def _k2_shell_average(s: FluidTriple, grid: VelocityGrid, q: np.ndarray,
                      rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subcell averages that replace the midpoint kernel values on the
    3x3x3 cell shell around the coincidence singularity of the kernel rows
    ``rows`` (flat node indices): (cols, vals), both of shape
    (len(rows), 27), the column of each shell cell (-1 off the lattice)
    and its value -k1 + <k2>.  Computed SHELL_ROWS rows at a time.

    The self-cell splits k2 = _k2_prefactor * [ (E - Ebar)/r + Ebar/r ]:
    the smooth first part is subcell-averaged, the 1/r part integrated
    exactly with the angular-averaged limit Ebar of the sharp exponential
    factor.
    """
    a2 = R_GAS * s.theta
    pref = _k2_prefactor(s.rho, a2)
    c = grid.nodes - np.asarray(s.u)
    h = grid.spacing[0]
    counts = np.array(grid.counts)
    offs = np.stack(np.meshgrid(*([(-1, 0, 1)] * 3), indexing="ij"),
                    axis=-1).reshape(-1, 3)
    ring = np.any(offs != 0, axis=1)            # the 26 neighbour cells
    nb = np.stack(np.unravel_index(rows, grid.counts), axis=1)[:, None] + offs
    cols = np.where(np.all((nb >= 0) & (nb < counts), axis=2),
                    nb @ np.array([counts[1] * counts[2], counts[2], 1]), -1)
    vals = np.empty(cols.shape)
    t = (np.arange(K2_SHELL_SUB) + 0.5) / K2_SHELL_SUB - 0.5
    Z = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3) * h
    pts = offs[ring, None, :] * h + Z            # (26, subcells, 3)
    rr = np.linalg.norm(pts, axis=2)
    r_off = np.linalg.norm(offs[ring] * h, axis=1)
    ts = (np.arange(K2_SELF_SUB) + 0.5) / K2_SELF_SUB - 0.5
    Zs = np.stack(np.meshgrid(ts, ts, ts, indexing="ij"), axis=-1).reshape(-1, 3) * h
    rzs = np.linalg.norm(Zs, axis=1)
    for r0 in range(0, len(rows), SHELL_ROWS):
        ii = rows[r0:r0 + SHELL_ROWS]
        qi = q[ii, None]
        dots = (c[ii] @ pts.reshape(-1, 3).T).reshape((len(ii),) + rr.shape)
        qs = qi[..., None] + 2.0 * dots + rr ** 2
        k2m = np.mean(_k2(s.rho, a2, rr, qi[..., None], qs), axis=2)
        vals[r0:r0 + SHELL_ROWS, ring] = \
            k2m - _k1(s.rho, a2, r_off, qi, q[cols[r0:r0 + SHELL_ROWS, ring]])
        qs = qi + 2.0 * (c[ii] @ Zs.T) + rzs ** 2
        E = _k2_exp(a2, rzs, qi, qs)
        sl = np.sqrt(q[ii])
        sls = np.where(sl > 1e-14, sl, 1e-14)
        ebar = np.where(sl > 1e-14, np.sqrt(math.pi * a2 / 2.0) / sls
                        * erf(sls / math.sqrt(2.0 * a2)), 1.0)
        smooth = np.mean((E - ebar[:, None]) / rzs, axis=1)
        vals[r0:r0 + SHELL_ROWS, ~ring] = \
            (pref * (smooth + ebar * _CELL_INV_R / h))[:, None]
    return cols, vals


def _kernel_rows(s: FluidTriple, grid: VelocityGrid, q: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """The midpoint values -k1 + k2 of the kernel rows ``rows`` (flat node
    indices), shape (len(rows), N), q = |xi - u|^2; the coincident pair,
    for the shell pass to overwrite, takes r = 1.  The temporaries hold
    about 11 floats per entry."""
    a2 = R_GAS * s.theta
    d = grid.nodes[rows, None, :] - grid.nodes[None, :, :]
    r = np.sqrt(np.einsum("bni,bni->bn", d, d))
    rs = np.where(r < EPS_SING, 1.0, r)
    k1 = _k1(s.rho, a2, r, q[rows, None], q[None, :])
    return -k1 + _k2(s.rho, a2, rs, q[rows, None], q[None, :])


def _fundamental_rows(counts: tuple[int, int, int],
                     axes: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the nodes with index < ceil(n_k / 2) on every
    mirrored axis k: one node of each orbit of the reflections, in the
    C order of the even sector's shape."""
    multi = np.unravel_index(np.arange(math.prod(counts)), counts)
    keep = np.ones(math.prod(counts), dtype=bool)
    for k in axes:
        keep &= multi[k] < counts[k] - counts[k] // 2
    return np.nonzero(keep)[0]


# ---------------------------------------------------------------------------
# parity sectors of the mirrored lattice axes
# ---------------------------------------------------------------------------

def _sector_shapes(counts: tuple[int, int, int],
                   axes: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Lattice shape of each parity sector of the mirrored ``axes``, in the
    order of ``parity_fold``: n - n // 2 even and n // 2 odd coefficients
    along each mirrored axis of n nodes."""
    shapes = [tuple(counts)]
    for k in axes:
        n, m = counts[k], counts[k] // 2
        shapes = [sh[:k] + (size,) + sh[k + 1:]
                  for sh in shapes for size in (n - m, m)]
    return shapes


def _parity_split(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of ``x`` along ``axis`` in the even and the odd parity
    basis (e_i +- e_{n-1-i}) / sqrt(2), i < n // 2; for an odd n the
    middle node e_{n//2} closes the even basis."""
    n, m = x.shape[axis], x.shape[axis] // 2
    at = (slice(None),) * axis
    lo = x[at + (slice(0, m),)] * math.sqrt(0.5)
    hi = x[at + (slice(n - 1, n - m - 1, -1),)] * math.sqrt(0.5)
    even = np.empty(x.shape[:axis] + (n - m,) + x.shape[axis + 1:])
    np.add(lo, hi, out=even[at + (slice(0, m),)])
    if n > 2 * m:
        even[at + (m,)] = x[at + (m,)]
    return even, np.subtract(lo, hi, out=hi)


def _parity_merge(even: np.ndarray, odd: np.ndarray, axis: int) -> np.ndarray:
    """The values along ``axis`` whose even and odd coefficients
    (``_parity_split``) are ``even`` and ``odd``."""
    m = odd.shape[axis]
    n = even.shape[axis] + m
    at = (slice(None),) * axis
    out = np.empty(even.shape[:axis] + (n,) + even.shape[axis + 1:])
    e = even[at + (slice(0, m),)]
    lo = out[at + (slice(0, m),)]
    hi = out[at + (slice(n - 1, n - m - 1, -1),)]
    np.add(e, odd, out=lo)
    lo *= math.sqrt(0.5)
    np.subtract(e, odd, out=hi)
    hi *= math.sqrt(0.5)
    if n > 2 * m:
        out[at + (m,)] = even[at + (m,)]
    return out


def parity_fold(x: np.ndarray, axes: tuple[int, ...]) -> list[np.ndarray]:
    """Q^T x for grid functions x of shape counts + B (the batch axes
    last, so that every step runs over long contiguous strides): their
    coefficients in the orthonormal parity basis Q of the mirrored
    ``axes``, one array of shape (N_sector,) + B per parity sector
    (2^len(axes) of them), by index arithmetic without forming Q."""
    parts = [np.asarray(x, dtype=float)]
    for k in axes:
        parts = [half for p in parts for half in _parity_split(p, k)]
    return [p.reshape((-1,) + p.shape[3:]) for p in parts]


def parity_unfold(parts: list[np.ndarray], counts: tuple[int, int, int],
                  axes: tuple[int, ...]) -> np.ndarray:
    """Q c, the inverse of ``parity_fold``: grid functions of shape
    counts + B from their sector coefficients."""
    blocks = [p.reshape(sh + p.shape[1:])
              for p, sh in zip(parts, _sector_shapes(counts, axes))]
    for k in reversed(axes):
        blocks = [_parity_merge(e, o, k)
                  for e, o in zip(blocks[0::2], blocks[1::2])]
    return blocks[0]


def _sector_diagonals(d: np.ndarray, axes: tuple[int, ...]) -> list[np.ndarray]:
    """Q_sector^T diag(d) Q_sector = diag(d_sector) for a grid function d
    (shape counts) invariant under the reflections of ``axes``: d on the
    nodes that index the sector's basis, one vector per sector."""
    return [d[tuple(slice(0, n) for n in sh)].reshape(-1)
            for sh in _sector_shapes(d.shape, axes)]


def _kernel_blocks(s: FluidTriple, grid: VelocityGrid, q: np.ndarray,
                   axes: tuple[int, ...]) -> list[np.ndarray]:
    """The sector blocks Q_sector^T K Q_sector of the kernel matrix K
    (midpoint -k1 + k2, shell-averaged), from one kernel row per orbit of
    the lattice's symmetry group.

    K[R i, R j] = K[i, j] for the reflections R of ``axes``, so the
    parity basis vector (e_i + chi e_{R i}) / sqrt(2) of a sector acts on
    that sector as sqrt(2) e_i: row i of the block is the column fold
    (``parity_fold``) of kernel row i, times sqrt(2) per mirrored axis on
    which node i has a mirror image (1 on a middle node).  For even n
    that is B[i, j] = sum_R chi(R) K[i, R j].  Only the fundamental rows
    (``_fundamental_rows``) enter.

    The mirrored axes are also interchangeable: assembly admits only
    cubic cells, a ``VelocityGrid`` has one half-width, so the axes have
    equal node counts, and a mirrored axis is centred on u_k, so each
    carries the same offsets -L + (j + 1/2) h from u (to MIRROR_TOL h).
    The kernel sees xi only through |xi - u|, |xi* - u| and |xi - xi*|,
    hence K[pi i, pi j] = K[i, j] for every permutation pi of the mirrored
    axes, and the shell pass's subcell grids are permutation-symmetric
    too.  So the kernel rows and shell averages are computed only for the
    fundamental rows whose multi-index is sorted along the mirrored axes,
    one per orbit, and every other fundamental row is its
    representative's row with the lattice axes transposed.  With no
    mirrored axis the group is trivial and every row is its own
    representative.  The representatives are computed KERNEL_CHUNK
    entries at a time, and each chunk's images are folded in one batch."""
    counts, N = grid.counts, grid.n_nodes
    shapes = _sector_shapes(counts, axes)
    rows = _fundamental_rows(counts, axes)
    fmulti = np.stack(np.unravel_index(rows, counts), axis=1)
    # the sector row of each fundamental row (-1 if not in the sector)
    place = []
    for sh in shapes:
        inside = np.all(fmulti < sh, axis=1)
        pos = np.full(len(rows), -1)
        pos[inside] = np.ravel_multi_index(tuple(fmulti[inside].T), sh)
        place.append(pos)
    # orbit key: the multi-index sorted along the mirrored axes; perm
    # maps a row's axes onto its key's, m[k] = key[perm[k]], so that the
    # row is its key's row transposed by perm (np.transpose's convention)
    ax = np.array(axes, dtype=int)
    order = np.argsort(fmulti[:, ax], axis=1, kind="stable")
    key = fmulti.copy()
    key[:, ax] = np.take_along_axis(fmulti[:, ax], order, axis=1)
    perm = np.tile(np.arange(3), (len(rows), 1))
    np.put_along_axis(perm, ax[order], ax, axis=1)
    reps, rep_of = np.unique(np.ravel_multi_index(tuple(key.T), counts),
                             return_inverse=True)
    # the flat column map of each distinct transposition
    perms, pid = np.unique(perm, axis=0, return_inverse=True)
    flat = np.arange(N).reshape(counts)
    cmap = np.stack([flat.transpose(p).reshape(-1) for p in perms])
    rmulti = np.unravel_index(reps, counts)
    factor = np.ones(len(reps))
    for k in axes:
        factor[rmulti[k] < counts[k] // 2] *= math.sqrt(2.0)
    cols, vals = _k2_shell_average(s, grid, q, reps)
    blocks = [np.empty((math.prod(sh),) * 2) for sh in shapes]
    chunk = max(1, KERNEL_CHUNK // N)
    for r0 in range(0, len(reps), chunk):
        K = _kernel_rows(s, grid, q, reps[r0:r0 + chunk])
        li, lj = np.nonzero(cols[r0:r0 + chunk] >= 0)
        K[li, cols[r0 + li, lj]] = vals[r0 + li, lj]
        K *= factor[r0:r0 + chunk, None]
        img = np.flatnonzero((rep_of >= r0) & (rep_of < r0 + chunk))
        # the images' rows, gathered straight into columns (counts + (n,))
        KT = K.reshape(-1)[cmap[pid[img]].T + (rep_of[img] - r0) * N]
        for B, part, pos in zip(
                blocks, parity_fold(KT.reshape(counts + (-1,)), axes), place):
            at = pos[img]
            B[at[at >= 0]] = part.T[at >= 0]
    return blocks


@dataclass
class LinearizedOperator:
    """The linearized collision operator on node values, held in the
    parity sectors of the lattice.

    L realizes h -> -nu h + sqrt(M) (-K1 + K2)(h / sqrt(M)) in the
    defining normalization (nu here is pi times the compact closed form).
    Self-adjoint and negative semidefinite in the M-weighted inner product
    with five-dimensional null space spanned by the chi basis; the measured
    residuals are recorded at assembly.

    L commutes with the reflection of each lattice axis mirrored about the
    state's bulk velocity (``axes``, ``VelocityGrid.mirror_axes``), so in
    the parity basis Q of those axes it is block diagonal: ``blocks``
    holds Q_s^T L Q_s for each parity sector s, in the order of
    ``parity_fold``.  That is 8 blocks of about N/8 on a lattice centred
    on the state, 4 of N/4 on a ``grid_spanning`` lattice, and one block
    of N with no mirrored axis.  Every use folds its input into the
    sectors, works per block and unfolds.  L also commutes with the
    permutations of the mirrored axes (``_kernel_blocks``), which map
    the sectors with equally many odd axes onto each other, so their
    blocks are permutation-similar (``spectrum_meta`` solves one per
    class).
    """

    state: FluidTriple
    grid: VelocityGrid
    axes: tuple[int, ...]
    blocks: list[np.ndarray]
    chi_residuals: np.ndarray           # after null-space projection
    raw_chi_residuals: np.ndarray       # kernel quadrature alone
    projector: Projector = field(repr=False)
    #: (Q_s^T C, W Q_s) per sector, P0 = C W the projector's rank-5 pair
    chi_sectors: list[tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def _fold(self, h: np.ndarray) -> list[np.ndarray]:
        """Sector coefficients of grid functions h of shape B + counts,
        each of shape (N_sector,) + B."""
        h = np.asarray(h, dtype=float)
        lead = h.ndim - 3
        return parity_fold(np.ascontiguousarray(
            np.moveaxis(h, range(lead), range(3, 3 + lead))), self.axes)

    def _unfold(self, parts: list[np.ndarray]) -> np.ndarray:
        """Grid functions of shape B + counts from their sector
        coefficients (the inverse of ``_fold``)."""
        x = parity_unfold(parts, self.grid.counts, self.axes)
        lead = x.ndim - 3
        return np.ascontiguousarray(
            np.moveaxis(x, range(3, 3 + lead), range(lead)))

    def apply(self, h: np.ndarray) -> np.ndarray:
        """L h for grid functions h of shape B + counts."""
        return self._unfold([A @ p for A, p in zip(self.blocks, self._fold(h))])

    def spectrum_meta(self) -> tuple[np.ndarray, int]:
        """Eigenvalues in the M-metric (real, ascending) and the numerical
        kernel dimension (|lam| < 1e-6 max |lam|) of the symmetrised
        S = D L D^{-1}, D = sqrt(weight / M), which is invariant under the
        reflections and the permutations of the mirrored axes.  Sectors
        with equally many odd axes, such as (e, e, o), (e, o, e) and
        (o, e, e), are mapped onto each other by those permutations, so
        their blocks are permutation-similar: one eigvalsh per class,
        whose eigenvalues every member repeats (4 solves on a lattice
        mirrored in three axes, 3 in two)."""
        ds = _sector_diagonals(
            np.sqrt(self.grid.weight / self.projector.M), self.axes)
        solved, lam = {}, []
        for sector, (d, A) in enumerate(zip(ds, self.blocks)):
            # in parity_fold's order the index has one bit per mirrored
            # axis, set where the sector is odd
            odd = sector.bit_count()
            if odd not in solved:
                S = (d[:, None] * A) / d[None, :]
                solved[odd] = np.linalg.eigvalsh(0.5 * (S + S.T))
            lam.append(solved[odd])
        lam = np.sort(np.concatenate(lam))
        null_dim = int(np.sum(np.abs(lam) < 1e-6 * np.max(np.abs(lam))))
        return lam, null_dim

    def invert_micro(self, g: np.ndarray) -> np.ndarray:
        """Solve L h = g with h microscopic; g must be microscopic.

        The microscopic gate uses the M-weighted norm (the natural metric
        for moment content): the macroscopic content of g may be 1e-6 of
        its norm, or roundoff on the state's own scale, 1e-12 |M|_M,
        whichever is larger.  The solve residual is checked in the
        discrete L2 norm, where the roundoff floor is not amplified by
        the 1/M corner weights.

        Per sector it solves (L - C W) h = g, which for microscopic g
        gives W h = 0 and L h = g (as W L = 0 and L C = 0), with
        ``np.linalg.solve`` and one refinement step, each a fresh LU.
        Every caller inverts one g per operator, and two solves take
        about 0.4 of the time of an inverse that later calls could
        reuse (4 sectors of 250-432 nodes on the 10^3-12^3 lattices).
        """
        g = np.asarray(g)
        norm_g_m = math.sqrt(max(inner(g, g, self.state, self.grid), 0.0))
        if norm_g_m == 0.0:
            return np.zeros(self.grid.counts)
        pg = self.projector.macro(g)
        norm_pg = math.sqrt(max(inner(pg, pg, self.state, self.grid), 0.0))
        floor = MICRO_FLOOR * math.sqrt(self.grid.integrate(self.projector.M))
        if norm_pg > max(1e-6 * norm_g_m, floor):
            raise NotMicroscopic(
                f"macroscopic content {norm_pg:.3e} > max(1e-6 * "
                f"{norm_g_m:.3e}, {floor:.3e})")
        hs = []
        for A, (C, W), gs in zip(self.blocks, self.chi_sectors,
                                 self._fold(g)):
            shifted = A - C @ W
            hf = np.linalg.solve(shifted, gs)
            hf += np.linalg.solve(shifted, gs - (A @ hf - C @ (W @ hf)))
            hs.append(hf)
        h = self._unfold(hs)
        res = self.apply(h) - self.projector.micro(g)
        norm_res = math.sqrt(self.grid.integrate(res ** 2))
        norm_g = math.sqrt(self.grid.integrate(g ** 2))
        if norm_res > 1e-8 * norm_g:
            raise IllConditioned(
                f"constrained solve residual {norm_res:.3e} > 1e-8 * {norm_g:.3e}")
        return h


def _symmetrise(B: np.ndarray) -> None:
    """B <- (B + B^T) / 2 in place, ROW_BLOCK rows at a time."""
    for i0 in range(0, len(B), ROW_BLOCK):
        i1 = i0 + ROW_BLOCK
        up = B[i0:i1, i0:] + B[i0:, i0:i1].T
        up *= 0.5
        B[i0:i1, i0:] = up
        B[i0:, i0:i1] = up.T


def assemble_linearized(s: FluidTriple, grid: VelocityGrid,
                        gram_tol: float = 1e-3) -> LinearizedOperator:
    """Assemble the linearized operator at state ``s``, sector by sector.

    One K1/K2 kernel-quadrature row per node (near-singular k2 cells
    subcell-averaged), minus the defining-normalization collision frequency
    on the diagonal, then sandwiched between microscopic projections in the
    M-weighted metric.  The sandwich removes the pure quadrature noise in
    the macroscopic directions: the compact kernels develop an angular
    scale ~ a^2/|xi-u| that no affordable tensor lattice resolves at the
    grid corners, and the operator is only ever applied to (or inverted
    on) microscopic functions.  It enforces L chi_j = 0 to roundoff and an
    exactly five-dimensional kernel while leaving <g, L h> unchanged for
    microscopic g, h.  The pre-sandwich chi residuals are recorded.

    The kernels depend on xi only through |xi - u|, |xi* - u| and
    |xi - xi*|, so on the lattice axes mirrored about u
    (``VelocityGrid.mirror_axes``) only one kernel row per orbit of the
    reflections and the permutations of those axes is computed; the
    other rows of the fundamental domain are its transposes, and all are
    folded straight into the parity sectors (``_kernel_blocks``).  M, nu
    and the projection are invariant under the reflections too, so the
    symmetrisation, the scaling, the frequency diagonal and the rank-5
    projection act on each sector block alone; the sector blocks between
    different sectors vanish, and no N x N array is formed unless no axis
    is mirrored.

    The k2 shell average integrates over cubic cells, so a lattice whose
    axis spacings differ by more than 1e-12 relative raises ValueError.
    """
    h = np.asarray(grid.spacing)
    if np.ptp(h) > 1e-12 * h.max():
        raise ValueError(f"linearized assembly needs cubic cells, got "
                         f"spacings {grid.spacing}")
    proj = Projector(s, grid, gram_tol=gram_tol)   # GridTooNarrow if unresolvable
    c = grid.nodes - np.asarray(s.u)
    q = np.einsum("ni,ni->n", c, c)
    axes = grid.mirror_axes(s)
    blocks = _kernel_blocks(s, grid, q, axes)
    sqMs = _sector_diagonals(np.sqrt(proj.M), axes)
    nus = _sector_diagonals(math.pi * collision_frequency(
        s, grid.nodes).reshape(grid.counts), axes)
    shape = grid.counts + (5,)
    chi_sectors = [(C, W.T) for C, W in zip(
        parity_fold(proj._chi_flat.T.reshape(shape), axes),
        parity_fold(proj._W.T.reshape(shape), axes))]
    ACs, AC_proj = [], []
    for A, sqM, nu, (C, W) in zip(blocks, sqMs, nus, chi_sectors):
        # the shell pass's one-sided subcell averages break the kernel
        # symmetry at the per-mil level; restore it exactly
        _symmetrise(A)
        # h -> sqrt(M) K(h/sqrt(M)): row scaling sqM_i, column scaling
        # 1/sqM_j, in place
        A *= sqM[:, None]
        A /= sqM[None, :]
        A *= grid.weight
        A[np.arange(len(A)), np.arange(len(A))] -= nu
        # P A P with P = I - C W as rank-5 corrections, O(n^2) instead of
        # two n^3 GEMMs: A - C (W A) - (A C) W + C ((W A C) W), a block of
        # rows at a time
        WA, AC = W @ A, A @ C
        ACs.append(AC)
        X = WA - (WA @ C) @ W
        for i0 in range(0, len(A), ROW_BLOCK):
            rows = slice(i0, i0 + ROW_BLOCK)
            A[rows] -= C[rows] @ X + AC[rows] @ W
        AC_proj.append(A @ C)

    def chi_residuals(parts):
        """|A chi_j| / |chi_j| in the M-weighted norm, from the sector
        parts of the five A chi_j."""
        AC = np.moveaxis(parity_unfold(parts, grid.counts, axes), -1, 0)
        both = np.concatenate([AC, proj.chi])
        n2 = inner(both, both, s, grid)
        return np.sqrt(n2[:5] / n2[5:])

    return LinearizedOperator(state=s, grid=grid, axes=axes, blocks=blocks,
                              chi_residuals=chi_residuals(AC_proj),
                              raw_chi_residuals=chi_residuals(ACs),
                              projector=proj, chi_sectors=chi_sectors)


# ---------------------------------------------------------------------------
# property measurements (empirical operator constants)
# ---------------------------------------------------------------------------

def measure_dissipativity(op: LinearizedOperator, mref: FluidTriple,
                          trials: int, rng: np.random.Generator) -> float:
    """sigma_tilde = min over random microscopic g of
    -<g, L g>_{M#} / <(1+|xi|) g, g>_{M#}."""
    grid = op.grid
    raw = rng.standard_normal((trials,) + grid.counts) * op.projector.M
    g = op.projector.micro(raw)
    Lg = op.apply(g)
    num = -inner(g, Lg, mref, grid)
    den = inner(one_plus_speed(grid) * g, g, mref, grid)
    ok = den > 0
    return float(np.min(num[ok] / den[ok])) if ok.any() else math.inf


# ---------------------------------------------------------------------------
# the Chapman-Enskog term and its uses
# ---------------------------------------------------------------------------

def micro_leading(op: LinearizedOperator, v_y: float, u1_y: float,
                  theta_y: float) -> np.ndarray:
    """The Chapman-Enskog term (1/v) L^{-1} P1(xi1 d_y M) of the local
    Maxwellian M at ``op.state`` with the gradients (v_y, u1_y, theta_y),
    d_y M in the projector's chi basis.  P1 removes the multiples of
    xi1 M, so the v_y part vanishes and the term equals
    3/(2 v theta) L^{-1} P1[xi1 M (xi1 u1_y + |xi - u|^2 theta_y/(2 theta))].
    A pure v_y gradient leaves roundoff after P1, with macroscopic content
    of its own size, which ``invert_micro``'s roundoff floor admits."""
    s, p = op.state, op.projector
    M_y = math.sqrt(s.rho) * (
        -v_y / s.v * p.chi[0]
        + u1_y / math.sqrt(R_GAS * s.theta) * p.chi[1]
        + math.sqrt(1.5) * theta_y / s.theta * p.chi[4])
    return op.invert_micro(p.micro(op.grid.node_array(0) * M_y) / s.v)


@dataclass
class ShockMicroProfile:
    y: np.ndarray
    fields: list[np.ndarray]            # leading microscopic term per sample
    norms: np.ndarray                   # (1+|xi|)-weighted reference norms
    v_y: np.ndarray
    mref: FluidTriple
    grid: VelocityGrid


def shock_micro_leading(wave: ShockProfile, grid_counts=(10, 10, 10),
                        n_samples: int = 15, span: float | None = None,
                        gram_tol: float = 0.5) -> ShockMicroProfile:
    """Leading microscopic content of the shock profile: per sampled y,
    ``micro_leading`` of the local linearized operator at the profile's
    values and gradients."""
    d = wave.decomp
    if span is None:
        span = 0.8 * min(-wave.y_range[0], wave.y_range[1])
    ysamp = np.linspace(-span, span, n_samples)
    prof = wave.eval(ysamp)
    mref = reference_maxwellian(prof.theta, prof.v, prof.u1)
    grid = grid_spanning((d.mid_hi, d.right), grid_counts)
    fields = []
    for i in range(n_samples):
        s = FluidTriple(v=prof.v[i], u=(prof.u1[i], 0.0, 0.0),
                        theta=prof.theta[i])
        op = assemble_linearized(s, grid, gram_tol=gram_tol)
        fields.append(micro_leading(op, prof.v_y[i], prof.u1_y[i],
                                    prof.theta_y[i]))
    h = np.stack(fields)
    norms = np.sqrt(inner(one_plus_speed(grid) * h, h, mref, grid))
    return ShockMicroProfile(y=ysamp, fields=fields, norms=norms,
                             v_y=prof.v_y, mref=mref, grid=grid)


def g_tilde_split(G: np.ndarray, shock_micro_shifted: np.ndarray,
                  du: np.ndarray, dth: np.ndarray,
                  operators: list[LinearizedOperator]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the microscopic field: G_tilde = G - G^S( . - X), then remove
    the non-time-integrable rarefaction/contact streaming part
    G0 = micro_leading(L, 0, du, dth), where du, dth are the
    rarefaction+contact u1_y and theta_y sources and L the linearized
    operator (with its state and lattice), one per row.  Returns
    (G_tilde, G0, G1 = G_tilde - G0) as (ny, *counts) arrays.
    """
    G_t = G - shock_micro_shifted
    G0 = np.zeros_like(G)
    for i, op in enumerate(operators):
        if du[i] != 0.0 or dth[i] != 0.0:
            G0[i] = micro_leading(op, 0.0, du[i], dth[i])
    return G_t, G0, G_t - G0
