"""Discrete velocity space: tensor lattice, collision directions, moments,
weighted inner products, and the macroscopic/microscopic projections
with their five-function orthogonal basis.

A "grid function" is simply an ndarray of shape ``grid.counts``; all
operations accept/return plain arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import gas
from .errors import GridTooNarrow, NonphysicalState, OverflowSignal
from .gas import R_GAS, FluidTriple

#: Default grid extent in thermal radii, sqrt(R*theta) units.
EXTENT_RADII = 6.0

#: largest |xi_k + xi_k[::-1] - 2 u_k|, in units of the spacing h_k, for
#: which ``VelocityGrid.mirror_axes`` counts axis k as mirrored about u_k
MIRROR_TOL = 1e-12


@dataclass(frozen=True)
class VelocityGrid:
    """Cell-centered tensor lattice over a cube, and the directions of the
    collision quadrature.

    Nodes along each axis: center_i - L + (k + 1/2) * (2L / N_i), so the
    lattice is symmetric about the center and the uniform weight
    h1*h2*h3 realizes the midpoint rule (spectrally accurate for
    Maxwellian-type integrands).

    The collision directions ``omega`` are +e1, +e2, -e1, -e2, each of
    weight pi (``omega_weight``; the four sum to 4 pi).  For them the
    post-collision velocities are exact lattice nodes, which makes the
    bilinear collision quadrature conserve mass, momentum and energy to
    roundoff on any lattice.  It conserves more than that: a collision
    along +-e_a swaps the a-th coordinates of xi and xi*, so every
    coordinate marginal is conserved, Q(f, f) = 0 for every product
    f1(xi1) f2(xi2) f3(xi3), Maxwellian or not, and the rule has 3n - 2
    collision invariants on an n^3 lattice instead of 5.
    """

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    half_width: float = 6.0
    counts: tuple[int, int, int] = (16, 16, 16)

    axes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)       # (N, 3)
    weight: float = field(init=False)                       # uniform
    spacing: tuple[float, float, float] = field(init=False)

    omega: ClassVar[np.ndarray] = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    omega_weight: ClassVar[np.ndarray] = np.full(4, math.pi)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        L = float(self.half_width)
        n = tuple(int(k) for k in self.counts)
        if L <= 0 or any(k < 2 for k in n):
            raise ValueError("half_width must be positive, counts >= 2")
        h = tuple(2.0 * L / k for k in n)
        axes = tuple(c[i] - L + (np.arange(n[i]) + 0.5) * h[i] for i in range(3))
        X1, X2, X3 = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([X1, X2, X3], axis=-1).reshape(-1, 3)
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "counts", n)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "weight", h[0] * h[1] * h[2])

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def node_array(self, component: int) -> np.ndarray:
        """Node coordinate ``component`` as an array of shape ``counts``."""
        return self.nodes[:, component].reshape(self.counts)

    def maxwellian(self, s) -> np.ndarray:
        """Local Maxwellian rho (2 pi R theta)^(-3/2)
        exp(-|xi - u|^2 / (2 R theta)) with rho = 1/v on the lattice.

        ``s`` is one FluidTriple (shape ``counts``) or a batch
        ``(v, u, theta)`` of arrays with shape B (``u`` of shape B + (3,)),
        as ``primitive_fields`` returns it (shape B + ``counts``).  The
        lattice is a tensor product, so each state takes one exponential
        per axis node, combined by an outer product.  Raises
        NonphysicalState unless v > 0 and theta > 0 (a NaN fails too).
        """
        v, u, theta = (s.v, s.u, s.theta) if isinstance(s, FluidTriple) else s
        v = np.asarray(v, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if not (np.all(v > 0.0) and np.all(theta > 0.0)):
            raise NonphysicalState("Maxwellian needs v > 0 and theta > 0")
        u = np.asarray(u, dtype=float)
        two_a2 = (2.0 * R_GAS * theta)[..., None]
        f1, f2, f3 = (np.exp(-(axis - u[..., k, None]) ** 2 / two_a2)
                      for k, axis in enumerate(self.axes))
        amp = 1.0 / v[..., None] * (math.pi * two_a2) ** -1.5
        return ((amp * f1)[..., :, None, None] * f2[..., None, :, None]
                * f3[..., None, None, :])

    def integrate(self, f: np.ndarray) -> float:
        return self.weight * float(np.sum(f))

    def mirror_axes(self, s: FluidTriple) -> tuple[int, ...]:
        """The axes k along which the lattice is symmetric about the bulk
        velocity u_k of ``s``: the reflection xi_k -> 2 u_k - xi_k maps
        its nodes onto nodes (within MIRROR_TOL h_k).  A lattice from
        ``grid_for_state`` is mirrored on all three axes, one from
        ``grid_spanning`` on xi2 and xi3 for a state with u2 = u3 = 0."""
        return tuple(
            k for k, (x, h) in enumerate(zip(self.axes, self.spacing))
            if np.max(np.abs(x + x[::-1] - 2.0 * s.u[k])) <= MIRROR_TOL * h)


def grid_for_state(s: FluidTriple, counts=(16, 16, 16),
                   extent_radii: float = EXTENT_RADII) -> VelocityGrid:
    """Grid centered at the bulk velocity covering ``extent_radii`` thermal
    radii (default 6, which captures the Gaussian mass to ~1e-8)."""
    return VelocityGrid(center=tuple(s.u),
                        half_width=extent_radii * math.sqrt(R_GAS * s.theta),
                        counts=counts)


def grid_spanning(states, counts,
                  extent_radii: float = EXTENT_RADII) -> VelocityGrid:
    """Grid covering a family of states ordered left to right: centered
    midway between the outer bulk velocities u1, with a half-width of
    ``extent_radii`` thermal radii of the hottest state plus max |u1|."""
    th_max = max(s.theta for s in states)
    u_span = max(abs(s.u1) for s in states)
    return VelocityGrid(
        center=(0.5 * (states[0].u1 + states[-1].u1), 0.0, 0.0),
        half_width=extent_radii * math.sqrt(R_GAS * th_max) + u_span,
        counts=counts)


def moments(values: np.ndarray, grid: VelocityGrid) -> gas.ConservedTriple:
    """Quadrature of the five collision-invariant moments of grid
    functions of shape B + ``grid.counts``: ``rho`` and ``E`` of shape B,
    ``m`` of shape B + (3,)."""
    values = np.asarray(values)
    fl = values.reshape(values.shape[:-3] + (-1,))
    w = grid.weight
    rho = w * fl.sum(axis=-1)
    m = w * (fl @ grid.nodes)
    E = 0.5 * w * (fl @ np.einsum("ni,ni->n", grid.nodes, grid.nodes))
    return gas.ConservedTriple(rho=rho, m=m, E=E)


def one_plus_speed(grid: VelocityGrid) -> np.ndarray:
    """The weight 1 + |xi| of the weighted norms, shape ``grid.counts``."""
    return 1.0 + np.linalg.norm(grid.nodes, axis=1).reshape(grid.counts)


def inner(g1: np.ndarray, g2: np.ndarray, mref: FluidTriple,
          grid: VelocityGrid) -> np.ndarray:
    """Weighted inner product <g1, g2> = int g1 g2 / M_ref dxi of grid
    functions of shape B + ``grid.counts``: shape B, a scalar for a single
    pair."""
    M = grid.maxwellian(mref).reshape(-1)
    g1, g2 = (np.asarray(g).reshape(np.shape(g)[:-3] + (-1,))
              for g in (g1, g2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        integrand = g1 * g2 / M
    if not np.all(np.isfinite(integrand)):
        raise OverflowSignal("integrand not finite; grid too wide for Mref")
    return grid.weight * np.sum(integrand, axis=-1)


class Projector:
    """The macroscopic basis at a fixed state and the projections onto it:
    the local Maxwellian M at ``s`` and five pairwise orthogonal functions
    chi (orthonormal in the M-weighted product) spanning the subspace.
    Coefficients are computed against the discrete Gram matrix (a 5x5
    solve), which makes P0 and P1 exactly idempotent on the grid
    regardless of quadrature error.  The projections take grid functions
    of shape B + ``grid.counts``, as ``moments`` does.

    Raises GridTooNarrow when the Gram matrix deviates from the identity
    by more than ``gram_tol`` (default 1e-3: grid narrower than ~6 thermal
    radii or too coarse for the state).  Projections stay exact for any
    invertible Gram matrix, so consumers that only need the discrete split
    (the coarse kinetic solver) may relax the gate.
    """

    def __init__(self, s: FluidTriple, grid: VelocityGrid,
                 gram_tol: float = 1e-3):
        self.state = s
        self.grid = grid
        self.M = M = grid.maxwellian(s)
        rho, a2 = s.rho, R_GAS * s.theta
        du = [grid.node_array(i) - s.u[i] for i in range(3)]
        q = du[0] ** 2 + du[1] ** 2 + du[2] ** 2
        self.chi = [M / math.sqrt(rho)]
        self.chi += [du[i] / math.sqrt(a2 * rho) * M for i in range(3)]
        self.chi.append((q / a2 - 3.0) / math.sqrt(6.0 * rho) * M)
        self._chi_flat = np.stack([c.reshape(-1) for c in self.chi])
        self._chi_w = self._chi_flat / M.reshape(-1) * grid.weight
        self._gram = self._chi_w @ self._chi_flat.T
        dev = np.max(np.abs(self._gram - np.eye(5)))
        if dev > gram_tol:
            raise GridTooNarrow(f"Gram deviation {dev:.3e} > {gram_tol}; "
                                "increase extent or counts")
        self._gram_inv = np.linalg.inv(self._gram)
        self._W = self._gram_inv @ self._chi_w   # P0 = C W, C = _chi_flat.T

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """The five chi coefficients of each grid function, shape B + (5,)."""
        f = np.asarray(f)
        b = f.reshape(f.shape[:-3] + (-1,)) @ self._chi_w.T
        return b @ self._gram_inv.T

    def macro(self, f: np.ndarray) -> np.ndarray:
        c = self.coefficients(f)
        return (c @ self._chi_flat).reshape(np.shape(f))

    def micro(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(f) - self.macro(f)


def reference_maxwellian(states_theta, states_v, states_u1) -> FluidTriple:
    """Reference state M_# for weighted norms over a family of states.

    theta_# = clamp(0.9*min theta, max theta/2 + eps, max theta - eps) keeps
    theta_#
    strictly between theta/2 and theta wherever the family allows it; v_#
    and u_# are domain averages.
    """
    th = np.atleast_1d(np.asarray(states_theta, dtype=float))
    vv = np.atleast_1d(np.asarray(states_v, dtype=float))
    uu = np.atleast_1d(np.asarray(states_u1, dtype=float))
    eps = 1e-6 * float(th.max())
    lo = 0.5 * float(th.max()) + eps
    hi = float(th.max()) - eps
    theta_ref = min(max(0.9 * float(th.min()), lo), hi)
    return FluidTriple(v=float(vv.mean()), u=(float(uu.mean()), 0.0, 0.0),
                       theta=theta_ref)

