"""Equation of state, macroscopic states and transport law of the monatomic
gas (the Maxwellian on a velocity lattice is ``VelocityGrid.maxwellian``).

The gas constant is fixed at R = 2/3 so that the internal energy per unit
mass equals the temperature and p = 2*theta/(3*v).  All states are expressed
in Lagrangian variables: specific volume v = 1/rho, velocity u = (u1,u2,u3),
temperature theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonphysicalState

# Gas constant, fixed by the normalization e = theta.
R_GAS = 2.0 / 3.0


@dataclass(frozen=True)
class FluidTriple:
    """Primitive macroscopic state (v, u, theta) in Lagrangian variables."""

    v: float
    u: tuple[float, float, float] = (0.0, 0.0, 0.0)
    theta: float = 1.0

    def __post_init__(self):
        if not (self.v > 0.0 and self.theta > 0.0):
            raise NonphysicalState(
                f"need v > 0 and theta > 0, got v={self.v}, theta={self.theta}")
        object.__setattr__(self, "u", tuple(float(c) for c in self.u))

    @property
    def u1(self) -> float:
        return self.u[0]

    @property
    def rho(self) -> float:
        return 1.0 / self.v


@dataclass(frozen=True)
class ConservedTriple:
    """Conserved variables (rho, m=rho*u, E=rho*(e+|u|^2/2)).

    The fields may be arrays over a batch shape B: ``rho`` and ``E`` of
    shape B, ``m`` of shape B + (3,).
    """

    rho: float | np.ndarray
    m: tuple[float, float, float] | np.ndarray
    E: float | np.ndarray


def pressure(s: FluidTriple) -> float:
    """p = 2*theta/(3*v); the velocity does not enter."""
    return 2.0 * s.theta / (3.0 * s.v)


def sound_speed(s: FluidTriple) -> float | np.ndarray:
    """Largest characteristic speed sqrt(5p/(3v)) = sqrt(10*theta)/(3v);
    elementwise when ``s.v`` and ``s.theta`` are arrays."""
    return np.sqrt(5.0 * pressure(s) / (3.0 * s.v))


def entropy(s: FluidTriple) -> float:
    """s(v, theta) = ln theta + (2/3) ln v.

    Normalized so s(1, 1) = 0; constant along isentropes
    theta * v**(2/3) = const, which is the only property the wave curves
    use.
    """
    return math.log(s.theta) + (2.0 / 3.0) * math.log(s.v)


def primitive_fields(c: ConservedTriple
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (v, u, theta) of conserved fields of batch shape B:
    v = 1/rho, u = m/rho, theta = (E - |m|^2/2rho)/rho.

    Raises NonphysicalState unless rho > 0 and theta > 0 everywhere (a NaN
    fails the test too).
    """
    rho = np.asarray(c.rho, dtype=float)
    m = np.asarray(c.m, dtype=float)
    if not np.all(rho > 0.0):
        raise NonphysicalState(f"density not positive: min rho = {np.min(rho)}")
    e_int = c.E - 0.5 * np.einsum("...i,...i->...", m, m) / rho
    if not np.all(e_int > 0.0):
        raise NonphysicalState(
            f"internal energy not positive: min rho*theta = {np.min(e_int)}")
    return 1.0 / rho, m / rho[..., None], e_int / rho


@dataclass(frozen=True)
class TransportLaw:
    """Hard-sphere transport coefficients mu = A1*sqrt(theta),
    kappa = A2*sqrt(theta).

    The default ratio A2/A1 = 5/2 is the monatomic Chapman-Enskog value
    kappa/mu = 15 R / 4 with R = 2/3.
    """

    A1: float = 1.0
    A2: float = 2.5

    def mu(self, theta):
        return self.A1 * np.sqrt(theta)

    def kappa(self, theta):
        return self.A2 * np.sqrt(theta)


DEFAULT_TRANSPORT = TransportLaw()
