"""Composite ansatz, weight function, shift dynamics and the stability
functionals (weighted relative entropy, layer-weighted quadratic forms,
perturbation norms)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonphysicalState
from .gas import DEFAULT_TRANSPORT, FluidTriple, TransportLaw, pressure
from .profiles import ContactWave, RarefactionWave, ShockProfile, WaveProfile
from .riemann import RiemannDecomposition


@dataclass
class AnsatzFrame:
    """Composite profile and the shock-layer quantities on a fixed y-grid
    at one (t, X)."""

    y: np.ndarray
    v: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    vS_y: np.ndarray           # shifted shock derivatives
    u1S_y: np.ndarray
    thetaS_y: np.ndarray
    vR_y: np.ndarray           # rarefaction derivative (unshifted frame arg)
    a: np.ndarray              # weight evaluated at y - X

    @property
    def p(self) -> np.ndarray:
        return pressure(self)


class CompositeAnsatz:
    """Superposition of the three wave families minus the connecting
    plateau states, with the shock part evaluated at y - X."""

    def __init__(self, decomp: RiemannDecomposition,
                 transport: TransportLaw = DEFAULT_TRANSPORT):
        self.decomp = decomp
        self.transport = transport
        self.rarefaction = RarefactionWave(decomp) if decomp.delta_r > 0 else None
        self.contact = ContactWave(decomp, transport) \
            if decomp.delta_c > 0 else None
        self.shock = ShockProfile(decomp, transport) if decomp.delta_s > 0 else None

    def frame(self, t: float, X: float, y: np.ndarray) -> AnsatzFrame:
        y = np.asarray(y, dtype=float)
        d = self.decomp
        x_arg = y + d.sigma * t
        r = self.rarefaction.eval(t, x_arg) if self.rarefaction is not None \
            else _plateau(d.mid_lo, y)
        c = self.contact.eval(t, x_arg) if self.contact is not None \
            else _plateau(d.mid_hi, y)
        if self.shock is not None:
            sh = self.shock.eval(y - X)
            a = layer_weight(sh.v, d.mid_hi.v, d.delta_s)
        else:
            sh = _plateau(d.right, y)
            a = np.ones_like(y)
        v = r.v + c.v + sh.v - d.mid_lo.v - d.mid_hi.v
        u1 = r.u1 + c.u1 + sh.u1 - d.mid_lo.u1 - d.mid_hi.u1
        th = r.theta + c.theta + sh.theta - d.mid_lo.theta - d.mid_hi.theta
        return AnsatzFrame(y=y, v=v, u1=u1, theta=th,
                           vS_y=sh.v_y, u1S_y=sh.u1_y, thetaS_y=sh.theta_y,
                           vR_y=r.v_y, a=a)


def _plateau(s: FluidTriple, y: np.ndarray) -> WaveProfile:
    """The constant state s on y: the stand-in for a zero-strength wave."""
    zero = np.zeros_like(y)
    return WaveProfile(v=np.full_like(y, s.v), u1=np.full_like(y, s.u1),
                       theta=np.full_like(y, s.theta), v_y=zero, u1_y=zero,
                       theta_y=zero)


def layer_weight(vS, v_star: float, delta_s: float) -> np.ndarray:
    """Monotone shock-layer weight 1 + delta_s^(-1/4) (v^S - v^*) of the
    shock volume vS, ranging over (1, 1 + delta_s^(3/4))."""
    return 1.0 + delta_s ** 0.75 / delta_s * (vS - v_star)


def shift_H(mid_hi: FluidTriple, sigma_star: float,
            transport: TransportLaw = DEFAULT_TRANSPORT) -> float:
    """Coupling constant of the shift ODE,
    H = 20 p^* / (3 (v^*)^2 (sigma^*)^3) * (5 mu + 3 kappa)/(10 mu + 3 kappa)
    with the transport coefficients at theta^*."""
    p_star = pressure(mid_hi)
    mu = transport.mu(mid_hi.theta)
    kap = transport.kappa(mid_hi.theta)
    return (20.0 * p_star / (3.0 * mid_hi.v ** 2 * sigma_star ** 3)
            * (5.0 * mu + 3.0 * kap) / (10.0 * mu + 3.0 * kap))


def shift_H_alpha_form(mid_hi: FluidTriple, sigma_star: float,
                       transport: TransportLaw = DEFAULT_TRANSPORT) -> float:
    """Equivalent form 3 alpha^*/(sigma^*)^2 * (5mu+3kappa)/(10mu+3kappa)
    with alpha^* = 20 p^*/(9 (v^*)^2 sigma^*)."""
    p_star = pressure(mid_hi)
    alpha = 20.0 * p_star / (9.0 * mid_hi.v ** 2 * sigma_star)
    mu = transport.mu(mid_hi.theta)
    kap = transport.kappa(mid_hi.theta)
    return 3.0 * alpha / sigma_star ** 2 * (5.0 * mu + 3.0 * kap) \
        / (10.0 * mu + 3.0 * kap)


def shift_rhs(fields: tuple[np.ndarray, np.ndarray, np.ndarray],
              frame: AnsatzFrame, delta_s: float, H: float) -> float:
    """Xdot = -(H/delta_s) int a(y-X) [ v^S_y (pbar/vbar) phi
    + u^S_1y psi_1 + theta^S_y zeta / thetabar ] dy (trapezoid)."""
    v, u1, th = fields
    phi = v - frame.v
    psi1 = u1 - frame.u1
    zeta = th - frame.theta
    pbar = frame.p
    integrand = frame.a * (frame.vS_y * pbar / frame.v * phi
                           + frame.u1S_y * psi1
                           + frame.thetaS_y * zeta / frame.theta)
    return -(H / delta_s) * float(np.trapezoid(integrand, frame.y))


def _phi_entropy(z: np.ndarray) -> np.ndarray:
    return z - 1.0 - np.log(z)


def _perturbation(fields, frame: AnsatzFrame):
    """phi = v - vbar, psi1 = u1 - u1bar, zeta = theta - thetabar and
    |psi|^2 = psi1^2 + u2^2 + u3^2 of ``fields``."""
    v, u, th = fields[0], fields[1], fields[2]
    psi1 = u[0] - frame.u1
    return (v - frame.v, psi1, th - frame.theta,
            psi1 ** 2 + u[1] ** 2 + u[2] ** 2)


def relative_entropy(fields, frame: AnsatzFrame, pert=None) -> float:
    """Weighted relative entropy
    int a [ (2/3) thetabar Phi(v/vbar) + thetabar Phi(theta/thetabar)
    + sum psi_i^2 / 2 ] dy with Phi(z) = z - 1 - ln z.  ``pert`` is
    ``_perturbation(fields, frame)`` when the caller holds it."""
    v, th = fields[0], fields[2]
    if not all(np.all(x > 0) for x in (v, th, frame.v, frame.theta)):
        raise NonphysicalState("relative entropy needs positive v, theta")
    psi2 = (_perturbation(fields, frame) if pert is None else pert)[3]
    zv = v / frame.v
    zt = th / frame.theta
    integrand = frame.a * ((2.0 / 3.0) * frame.theta * _phi_entropy(zv)
                           + frame.theta * _phi_entropy(zt) + 0.5 * psi2)
    return float(np.trapezoid(integrand, frame.y))


def lambda_functionals(fields, frame: AnsatzFrame,
                       pert=None) -> tuple[float, float]:
    """Layer-weighted quadratic functionals: the rarefaction one weights
    (phi, zeta) by |v^R_y|, the shock one weights (phi, psi, zeta) by
    |v^S_y( . - X)|.  ``pert`` as in ``relative_entropy``."""
    phi, _, zeta, psi2 = _perturbation(fields, frame) if pert is None else pert
    lam_r = float(np.trapezoid(np.abs(frame.vR_y) * (phi ** 2 + zeta ** 2),
                               frame.y))
    lam_s = float(np.trapezoid(np.abs(frame.vS_y)
                               * (phi ** 2 + psi2 + zeta ** 2), frame.y))
    return lam_r, lam_s


# ---------------------------------------------------------------------------
# diagnostics records
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsFrame:
    t: float
    X: float
    Xdot: float
    entropy: float
    lambda_r: float
    lambda_s: float
    sup_phi: float
    sup_psi: float
    sup_zeta: float
    l2_pert: float
    micro_norm: float | None = None

    CSV_HEADER = ("t,X,Xdot,entropy,lambdaR,lambdaS,sup_phi,sup_psi,"
                  "sup_zeta,l2_pert,micro_norm")

    @property
    def sup_pert(self) -> float:
        """Sup norm of the perturbation over its three components."""
        return max(self.sup_phi, self.sup_psi, self.sup_zeta)

    def csv_row(self) -> str:
        mn = "" if self.micro_norm is None else f"{self.micro_norm:.12g}"
        return (f"{self.t:.12g},{self.X:.12g},{self.Xdot:.12g},"
                f"{self.entropy:.12g},{self.lambda_r:.12g},"
                f"{self.lambda_s:.12g},{self.sup_phi:.12g},"
                f"{self.sup_psi:.12g},{self.sup_zeta:.12g},"
                f"{self.l2_pert:.12g},{mn}")


def diagnostics_frame(t: float, fields, frame: AnsatzFrame, X: float,
                      xdot: float, micro_norm: float | None = None
                      ) -> DiagnosticsFrame:
    phi, psi1, zeta, psi2 = pert = _perturbation(fields, frame)
    u = fields[1]
    psi23 = np.sqrt(u[1] ** 2 + u[2] ** 2)
    lam_r, lam_s = lambda_functionals(fields, frame, pert)
    pert2 = phi ** 2 + psi2 + zeta ** 2
    return DiagnosticsFrame(
        t=t, X=X, Xdot=xdot,
        entropy=relative_entropy(fields, frame, pert),
        lambda_r=lam_r, lambda_s=lam_s,
        sup_phi=float(np.max(np.abs(phi))),
        sup_psi=float(np.max(np.abs(psi1) + psi23)),
        sup_zeta=float(np.max(np.abs(zeta))),
        l2_pert=math.sqrt(float(np.trapezoid(pert2, frame.y))),
        micro_norm=micro_norm)


# ---------------------------------------------------------------------------
# auxiliary inequalities
# ---------------------------------------------------------------------------

def poincare_check(z: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Both sides of int |f - mean f|^2 <= (1/2) int z (1-z) |f'|^2 on
    [0, 1]; derivatives by centered differences."""
    z = np.asarray(z, dtype=float)
    f = np.asarray(f, dtype=float)
    mean = float(np.trapezoid(f, z)) / (z[-1] - z[0])
    lhs = float(np.trapezoid((f - mean) ** 2, z))
    fp = np.gradient(f, z)
    rhs = 0.5 * float(np.trapezoid(z * (1.0 - z) * fp ** 2, z))
    return lhs, rhs

