"""The three wave-profile families and their quantitative property checks.

* approximate rarefaction: characteristic solution of a regularized scalar
  conservation law mapped onto the first wave curve,
* viscous contact wave: self-similar nonlinear diffusion solve at constant
  pressure,
* shock profile: heteroclinic orbit of the plane dynamical system,
  integrated with the volume as the independent variable.

Each family is a callable object with analytic (or spline-level) derivative
accessors; ``build_*`` return sampled WaveProfile records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.linalg import solve_banded

from .errors import (BVPNoConvergence, InvalidStrength, InversionFailure,
                     NoRealRoot, ProfileBlowup)
from .gas import (DEFAULT_TRANSPORT, R_GAS, FluidTriple, TransportLaw,
                  pressure)
from .riemann import RiemannDecomposition
from .velocity import VelocityGrid, reference_maxwellian

SQRT10 = math.sqrt(10.0)


# ---------------------------------------------------------------------------
# scalar characteristic solve
# ---------------------------------------------------------------------------

def _w_initial(x, w_minus, w_plus):
    return 0.5 * (w_plus + w_minus) + 0.5 * (w_plus - w_minus) * np.tanh(x)


def burgers_w(w_minus: float, w_plus: float, t: float, x) -> np.ndarray:
    """Characteristic solution w(t, x) of the expansive scalar problem with
    smoothed-step data: solves x = x0 + w(0, x0) t for x0 (monotone map)
    by safeguarded Newton and returns w(0, x0)."""
    x = np.asarray(x, dtype=float)
    x0 = _burgers_foot(w_minus, w_plus, t, x)
    return _w_initial(x0, w_minus, w_plus)


def _burgers_foot(w_minus: float, w_plus: float, t: float, x: np.ndarray
                  ) -> np.ndarray:
    """Solve x = x0 + w(0, x0) t for the characteristic foot point.

    Newton safeguarded by bisection on a bracket of the strictly monotone
    map; converges on the equation residual, then takes one unclamped
    polishing step.
    """
    if t < 0:
        raise ValueError("expansive data requires t >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mid = 0.5 * (w_plus + w_minus)
    half = 0.5 * (w_plus - w_minus)
    lo = x - w_plus * t - 1.0
    hi = x - w_minus * t + 1.0
    # start from the centered-fan approximation w ~ x/t, which is tight for
    # large t and no worse than the midpoint start early on
    w_fan = np.clip(x / max(t, 1.0), w_minus, w_plus)
    x0 = np.clip(x - w_fan * t, lo, hi)
    dx_old = hi - lo
    tol = 1e-13 * (1.0 + float(np.max(np.abs(x))) + abs(w_minus) * t)
    for _ in range(300):
        th = np.tanh(x0)
        f = x0 + (mid + half * th) * t - x
        done = np.abs(f) < tol
        if done.all():
            break
        lo = np.where(f < 0, x0, lo)       # map is increasing in x0
        hi = np.where(f > 0, x0, hi)
        fp = 1.0 + half * (1.0 - th ** 2) * t
        newton = x0 - f / fp
        # converged points freeze; the rest take the Newton point when it
        # stays bracketed and shrinks faster than bisection, else bisect
        ok = (newton > lo) & (newton < hi) \
            & (np.abs(2.0 * f) <= np.abs(dx_old * fp))
        x0n = np.where(done, x0, np.where(ok, newton, 0.5 * (lo + hi)))
        dx_old = np.where(done, dx_old, np.abs(x0n - x0))
        x0 = x0n
    th = np.tanh(x0)
    f = x0 + (mid + half * th) * t - x
    fp = 1.0 + half * (1.0 - th ** 2) * t
    return x0 - f / fp


def _burgers_w_and_derivs(w_minus, w_plus, t, x):
    """w, w_x, w_xx, w_t along the characteristic solution."""
    x0 = _burgers_foot(w_minus, w_plus, t, x)
    half = 0.5 * (w_plus - w_minus)
    th = np.tanh(x0)
    w = 0.5 * (w_plus + w_minus) + half * th
    w1p = half * (1.0 - th ** 2)
    w1pp = -2.0 * half * th * (1.0 - th ** 2)
    D = 1.0 + w1p * t
    w_x = w1p / D
    w_xx = w1pp / D ** 3
    w_t = -w * w_x
    return w, w_x, w_xx, w_t


# ---------------------------------------------------------------------------
# profile containers
# ---------------------------------------------------------------------------

@dataclass
class WaveProfile:
    """Sampled macroscopic profile with first/second derivative samples."""

    kind: str                      # rarefaction | contact | shock
    y: np.ndarray
    v: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    v_y: np.ndarray
    u1_y: np.ndarray
    theta_y: np.ndarray
    v_yy: np.ndarray
    u1_yy: np.ndarray
    theta_yy: np.ndarray
    t: float = 0.0
    meta: dict = field(default_factory=dict)

    def end_state_error(self, left: FluidTriple, right: FluidTriple) -> float:
        return max(abs(self.v[0] - left.v), abs(self.theta[0] - left.theta),
                   abs(self.u1[0] - left.u1), abs(self.v[-1] - right.v),
                   abs(self.theta[-1] - right.theta),
                   abs(self.u1[-1] - right.u1))

    def derivative_consistency(self) -> float:
        """Max interior mismatch between derivative samples and centered
        differences of the value samples, relative to the derivative scale."""
        out = 0.0
        for val, der in ((self.v, self.v_y), (self.u1, self.u1_y),
                         (self.theta, self.theta_y)):
            fd = np.gradient(val, self.y)
            scale = np.max(np.abs(der)) or 1.0
            out = max(out, float(np.max(np.abs(fd[2:-2] - der[2:-2])) / scale))
        return out


# ---------------------------------------------------------------------------
# rarefaction
# ---------------------------------------------------------------------------

class RarefactionWave:
    """Smooth approximate 1-rarefaction connecting left to mid_lo.

    The first characteristic speed follows the characteristic solution
    w(t+1, x); volume and temperature come from inverting the speed along
    the isentrope, velocity from the closed-form curve integral.
    """

    def __init__(self, decomp: RiemannDecomposition):
        if decomp.delta_r <= 0.0:
            raise InvalidStrength("rarefaction strength must be positive")
        self.decomp = decomp
        left, lo = decomp.left, decomp.mid_lo
        self.s_ent = math.log(lo.theta) + (2.0 / 3.0) * math.log(lo.v)
        self.w_minus = -SQRT10 / 3.0 * math.exp(0.5 * self.s_ent) * left.v ** (-4.0 / 3.0)
        self.w_plus = -SQRT10 / 3.0 * math.exp(0.5 * self.s_ent) * lo.v ** (-4.0 / 3.0)
        self.u_ref = lo.u1
        self.v_ref = lo.v

    def _v_of_w(self, w):
        arg = -3.0 * w * math.exp(-0.5 * self.s_ent) / SQRT10
        if np.any(arg <= 0.0):
            raise InversionFailure("speed left the admissible fan range")
        return arg ** (-0.75)

    def eval(self, t: float, x) -> dict[str, np.ndarray]:
        """Profile values and (x, t)-derivatives at time t (fan at t+1)."""
        x = np.asarray(x, dtype=float)
        w, w_x, w_xx, w_t = _burgers_w_and_derivs(
            self.w_minus, self.w_plus, t + 1.0, x)
        v = self._v_of_w(w)
        theta = math.exp(self.s_ent) * v ** (-2.0 / 3.0)
        u1 = self.u_ref - SQRT10 * math.exp(0.5 * self.s_ent) * (
            v ** (-1.0 / 3.0) - self.v_ref ** (-1.0 / 3.0))
        dv_dw = -0.75 * v / w
        v_x = dv_dw * w_x
        v_t = dv_dw * w_t
        u1_x = -w * v_x
        u1_t = -w * v_t
        theta_x = -(2.0 * theta / (3.0 * v)) * v_x
        theta_t = -(2.0 * theta / (3.0 * v)) * v_t
        # second x-derivatives via d/dx of the chain-rule forms
        dvdw_x = -0.75 * (v_x * w - v * w_x) / w ** 2
        v_xx = dvdw_x * w_x + dv_dw * w_xx
        u1_xx = -(w_x * v_x + w * v_xx)
        theta_xx = -(2.0 / 3.0) * ((theta_x * v - theta * v_x) * v_x / v ** 2
                                   + theta * v_xx / v)
        return {"v": v, "u1": u1, "theta": theta,
                "v_x": v_x, "u1_x": u1_x, "theta_x": theta_x,
                "v_t": v_t, "u1_t": u1_t, "theta_t": theta_t,
                "v_xx": v_xx, "u1_xx": u1_xx, "theta_xx": theta_xx,
                "w": w, "w_x": w_x}


def build_rarefaction(decomp: RiemannDecomposition, t: float,
                      ygrid: np.ndarray) -> WaveProfile:
    wave = RarefactionWave(decomp)
    d = wave.eval(t, ygrid)
    return WaveProfile(kind="rarefaction", y=np.asarray(ygrid, float),
                       v=d["v"], u1=d["u1"], theta=d["theta"],
                       v_y=d["v_x"], u1_y=d["u1_x"], theta_y=d["theta_x"],
                       v_yy=d["v_xx"], u1_yy=d["u1_xx"], theta_yy=d["theta_xx"],
                       t=t, meta={"delta_r": decomp.delta_r})


# ---------------------------------------------------------------------------
# viscous contact wave
# ---------------------------------------------------------------------------

#: contact BVP: collocation half-length and nodes in zeta, Newton tolerance
#: (max-norm residual) and iteration cap
CONTACT_HALF_LENGTH = 12.0
CONTACT_NODES = 400
CONTACT_TOL = 1e-10
CONTACT_MAX_ITER = 60


def _solve_contact_bvp(theta_lo: float, theta_hi: float, p_star: float,
                       transport: TransportLaw
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Damped-Newton collocation for the self-similar diffusion profile
    -(zeta/2) T' = c (kappa(T) T' / T)' with Dirichlet ends."""
    z = np.linspace(-CONTACT_HALF_LENGTH, CONTACT_HALF_LENGTH, CONTACT_NODES)
    h = z[1] - z[0]
    c = 0.9 * p_star
    T = theta_lo + (theta_hi - theta_lo) * 0.5 * (1.0 + np.tanh(z / 2.0))

    def resid(T):
        Tm = 0.5 * (T[1:] + T[:-1])
        flux = transport.kappa(Tm) / Tm * np.diff(T) / h
        r = np.zeros_like(T)
        r[1:-1] = c * np.diff(flux) / h + 0.25 * z[1:-1] * (T[2:] - T[:-2]) / h
        r[0] = T[0] - theta_lo
        r[-1] = T[-1] - theta_hi
        return r

    r = resid(T)
    for _ in range(CONTACT_MAX_ITER):
        if np.max(np.abs(r)) < CONTACT_TOL:
            return z, T
        # tridiagonal finite-difference Jacobian
        ab = np.zeros((3, CONTACT_NODES))
        eps = 1e-7
        base = r
        for off in (-1, 0, 1):
            Tp = T.copy()
            idx = np.arange(max(0, -off), CONTACT_NODES - max(0, off))
            # probe every third node to fill the band without interference
            for ph in range(3):
                Tp = T.copy()
                sel = idx[(idx + off) % 3 == ph]
                Tp[sel + off] += eps
                dr = (resid(Tp) - base) / eps
                ab[1 - off, sel + off] = dr[sel]
        step = solve_banded((1, 1), ab, -r)
        lam = 1.0
        for _ in range(40):
            Tc = T + lam * step
            if np.all(Tc > 0):
                rc = resid(Tc)
                if np.linalg.norm(rc) < np.linalg.norm(r):
                    T, r = Tc, rc
                    break
            lam *= 0.5
        else:
            raise BVPNoConvergence("contact Newton damping stalled")
    raise BVPNoConvergence(
        f"contact BVP residual {np.max(np.abs(r)):.3e}"
        f" after {CONTACT_MAX_ITER} iters")


class ContactWave:
    """Viscous contact wave at constant pressure p_*.

    theta follows the self-similar diffusion profile in zeta = x/sqrt(1+t);
    v = 2 theta / (3 p_*) and u1 carries the heat-flux correction."""

    def __init__(self, decomp: RiemannDecomposition,
                 transport: TransportLaw = DEFAULT_TRANSPORT):
        if decomp.delta_c <= 0.0:
            raise InvalidStrength("contact strength must be positive")
        self.decomp = decomp
        self.transport = transport
        self.p_star = pressure(decomp.mid_lo)
        self.u_star = decomp.mid_lo.u1
        self.z, self.T = _solve_contact_bvp(
            decomp.mid_lo.theta, decomp.mid_hi.theta, self.p_star, transport)
        self.spline = CubicSpline(self.z, self.T, bc_type="clamped")
        kap = transport.kappa(self.T)
        W = 0.6 * kap * self.spline(self.z, 1) / self.T
        self.w_spline = CubicSpline(self.z, W, bc_type="clamped")
        self.theta_ends = (decomp.mid_lo.theta, decomp.mid_hi.theta)

    def _theta_zeta(self, zeta):
        zc = np.clip(zeta, self.z[0], self.z[-1])
        th = self.spline(zc)
        th = np.where(zeta < self.z[0], self.theta_ends[0], th)
        th = np.where(zeta > self.z[-1], self.theta_ends[1], th)
        return th, zc

    def eval(self, t: float, x) -> dict[str, np.ndarray]:
        x = np.asarray(x, dtype=float)
        root = math.sqrt(1.0 + t)
        zeta = x / root
        th, zc = self._theta_zeta(zeta)
        inside = (zeta >= self.z[0]) & (zeta <= self.z[-1])
        d1 = np.where(inside, self.spline(zc, 1), 0.0)
        d2 = np.where(inside, self.spline(zc, 2), 0.0)
        W = np.where(inside, self.w_spline(zc), 0.0)
        Wp = np.where(inside, self.w_spline(zc, 1), 0.0)
        Wpp = np.where(inside, self.w_spline(zc, 2), 0.0)
        v = 2.0 * th / (3.0 * self.p_star)
        u1 = self.u_star + W / root
        theta_x = d1 / root
        theta_xx = d2 / (1.0 + t)
        theta_t = -0.5 * zeta * d1 / (1.0 + t)
        v_x = 2.0 * theta_x / (3.0 * self.p_star)
        v_xx = 2.0 * theta_xx / (3.0 * self.p_star)
        v_t = 2.0 * theta_t / (3.0 * self.p_star)
        u1_x = Wp / (1.0 + t)
        u1_xx = Wpp / (1.0 + t) ** 1.5
        u1_t = -0.5 * (W + zeta * Wp) / (1.0 + t) ** 1.5
        return {"v": v, "u1": u1, "theta": th,
                "v_x": v_x, "u1_x": u1_x, "theta_x": theta_x,
                "v_t": v_t, "u1_t": u1_t, "theta_t": theta_t,
                "v_xx": v_xx, "u1_xx": u1_xx, "theta_xx": theta_xx,
                "zeta": zeta}

    def error_terms(self, t: float, x) -> tuple[np.ndarray, np.ndarray]:
        """The two residual source terms of the momentum/energy balance:
        Q1 = u1_t - (4/3)(mu u1_x / v)_x  and  Q2 = -(4/3) mu u1_x^2 / v."""
        x = np.asarray(x, dtype=float)
        root = math.sqrt(1.0 + t)
        zeta = x / root
        th, zc = self._theta_zeta(zeta)
        inside = (zeta >= self.z[0]) & (zeta <= self.z[-1])
        W = np.where(inside, self.w_spline(zc), 0.0)
        Wp = np.where(inside, self.w_spline(zc, 1), 0.0)
        mu = self.transport.mu(th)
        v = 2.0 * th / (3.0 * self.p_star)
        # (mu(T) W'/v)'(zeta) by a short centered difference of the splines
        dz = 1e-6
        thp, _ = self._theta_zeta(zeta + dz)
        thm, _ = self._theta_zeta(zeta - dz)
        Wpp_ = np.where(inside, self.w_spline(np.clip(zeta + dz, self.z[0], self.z[-1]), 1), 0.0)
        Wpm_ = np.where(inside, self.w_spline(np.clip(zeta - dz, self.z[0], self.z[-1]), 1), 0.0)
        gp = (self.transport.mu(thp) * Wpp_ / (2.0 * thp / (3.0 * self.p_star))
              - self.transport.mu(thm) * Wpm_ / (2.0 * thm / (3.0 * self.p_star))
              ) / (2.0 * dz)
        q1 = (-0.5 * (W + zeta * Wp) - (4.0 / 3.0) * gp) / (1.0 + t) ** 1.5
        q2 = -(4.0 / 3.0) * mu * Wp ** 2 / v / (1.0 + t) ** 2
        return q1, q2


def build_contact(decomp: RiemannDecomposition, t: float, ygrid: np.ndarray,
                  transport: TransportLaw = DEFAULT_TRANSPORT) -> WaveProfile:
    wave = ContactWave(decomp, transport)
    d = wave.eval(t, ygrid)
    return WaveProfile(kind="contact", y=np.asarray(ygrid, float),
                       v=d["v"], u1=d["u1"], theta=d["theta"],
                       v_y=d["v_x"], u1_y=d["u1_x"], theta_y=d["theta_x"],
                       v_yy=d["v_xx"], u1_yy=d["u1_xx"], theta_yy=d["theta_xx"],
                       t=t, meta={"delta_c": decomp.delta_c})


# ---------------------------------------------------------------------------
# shock profile
# ---------------------------------------------------------------------------

def shock_slope_quadratic(mid_hi: FluidTriple, sigma: float,
                          transport: TransportLaw = DEFAULT_TRANSPORT) -> float:
    """Slope d theta / d v at the upstream end of the shock profile: the
    root of the saddle quadratic closest to -p^* (exactly -p^* when sigma
    equals the upstream sound speed)."""
    p_star = pressure(mid_hi)
    ratio = transport.A1 / transport.A2          # mu/kappa, temperature-free
    b = -1.5 * (p_star - sigma ** 2 * mid_hi.v) - 2.0 * ratio * sigma ** 2 * mid_hi.v
    c = -(4.0 / 3.0) * ratio * sigma ** 2 * mid_hi.theta
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise NoRealRoot(f"slope quadratic discriminant {disc} < 0")
    r1 = 0.5 * (-b + math.sqrt(disc))
    r2 = 0.5 * (-b - math.sqrt(disc))
    return r1 if abs(r1 + p_star) < abs(r2 + p_star) else r2


#: the shock orbit starts and ends SHOCK_EPS_REL * delta_s off the saddles;
#: SHOCK_RTOL is its ODE tolerance
SHOCK_EPS_REL = 1e-6
SHOCK_RTOL = 1e-10


class ShockProfile:
    """Traveling-wave profile of the viscous system between mid_hi and
    right, integrated with v as the independent variable (the y-approach to
    the saddle points is exponentially slow, the v-range is compact)."""

    def __init__(self, decomp: RiemannDecomposition,
                 transport: TransportLaw = DEFAULT_TRANSPORT):
        if decomp.delta_s <= 0.0:
            raise InvalidStrength("shock strength must be positive")
        if decomp.delta_s > 0.3 * decomp.mid_hi.v:
            raise InvalidStrength("shock strength above the supported range")
        self.decomp = decomp
        self.transport = transport
        hi, right = decomp.mid_hi, decomp.right
        self.sigma = decomp.sigma
        self.p_star = pressure(hi)
        self.v_star, self.theta_star, self.u_star = hi.v, hi.theta, hi.u1
        self.v_plus = right.v
        self.lstar = shock_slope_quadratic(hi, self.sigma, transport)

        eps = SHOCK_EPS_REL * decomp.delta_s
        v0 = self.v_star + eps
        v1 = self.v_plus - eps
        th0 = self.theta_star + self.lstar * eps

        def rhs(v, state):
            th, _y = state
            if not (0.0 < th <= 2.0 * self.theta_star):
                raise ProfileBlowup(f"theta = {th} left (0, 2 theta^*]")
            return [self._dtheta_dv(v, th), self._dy_dv(v, th)]

        sol = solve_ivp(rhs, (v0, v1), [th0, 0.0], method="DOP853",
                        rtol=SHOCK_RTOL, atol=SHOCK_RTOL * decomp.delta_s,
                        dense_output=True, max_step=decomp.delta_s / 20.0)
        if not sol.success:
            raise ProfileBlowup(f"profile integration failed: {sol.message}")
        # resample the dense orbit geometrically toward both saddles, so the
        # y-spacing of the interpolation nodes stays bounded where y(v)
        # diverges logarithmically
        ds = decomp.delta_s
        geo = SHOCK_EPS_REL * np.geomspace(1.0, 0.5 / SHOCK_EPS_REL, 400)
        vfine = np.unique(np.concatenate([
            v0 + ds * (geo - SHOCK_EPS_REL), v1 - ds * (geo - SHOCK_EPS_REL),
            np.linspace(v0, v1, 2001)]))
        vfine = vfine[(vfine >= v0) & (vfine <= v1)]
        thfine, yfine = sol.sol(vfine)
        vgrid, thgrid, ygrid = vfine, thfine, yfine
        # recenter so v(0) is the mid-volume
        v_mid = 0.5 * (self.v_star + self.v_plus)
        y_mid = float(np.interp(v_mid, vgrid, ygrid))
        ygrid = ygrid - y_mid
        vgrid = np.concatenate([[self.v_star], vgrid, [self.v_plus]])
        thgrid = np.concatenate([[self.theta_star], thgrid, [right.theta]])
        ygrid = np.concatenate([[ygrid[0]], ygrid, [ygrid[-1]]])
        # strictly increasing y except the padded ends; keep the interior
        self._y = ygrid[1:-1]
        self._vgrid = vgrid[1:-1]
        self._thgrid = thgrid[1:-1]
        self._v_of_y = PchipInterpolator(self._y, self._vgrid)
        self._th_of_y = PchipInterpolator(self._y, self._thgrid)
        self.y_range = (self._y[0], self._y[-1])
        # saddle decay rates for the exponential tails beyond the orbit
        vy_lo = self.v_y_of(self._vgrid[0], self._thgrid[0])
        vy_hi = self.v_y_of(self._vgrid[-1], self._thgrid[-1])
        self._rate_lo = vy_lo / max(self._vgrid[0] - self.v_star, 1e-300)
        self._rate_hi = vy_hi / max(self.v_plus - self._vgrid[-1], 1e-300)
        self._amp_lo = self._vgrid[0] - self.v_star
        self._amp_hi = self.v_plus - self._vgrid[-1]
        self._thamp_lo = self._thgrid[0] - self.theta_star
        self._thamp_hi = self.decomp.right.theta - self._thgrid[-1]

    # plane-system right-hand sides ------------------------------------
    def _den(self, v, th):
        return (2.0 * th / (3.0 * v) - self.p_star
                + self.sigma ** 2 * (v - self.v_star))

    def _num(self, v, th):
        return (th - self.theta_star + self.p_star * (v - self.v_star)
                - 0.5 * self.sigma ** 2 * (v - self.v_star) ** 2)

    def _dtheta_dv(self, v, th):
        den = self._den(v, th)
        num = self._num(v, th)
        if den == 0.0:
            return self.lstar
        return (4.0 * self.sigma ** 2 * self.transport.A1
                / (3.0 * self.transport.A2)) * num / den

    def _dy_dv(self, v, th):
        den = self._den(v, th)
        return -(4.0 / 3.0) * self.transport.mu(th) * self.sigma / (v * den)

    def v_y_of(self, v, th):
        """dv/dy from the first plane equation (analytic)."""
        return -3.0 * v * self._den(v, th) / (4.0 * self.transport.mu(th)
                                              * self.sigma)

    def eval(self, y) -> dict[str, np.ndarray]:
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, self.y_range[0], self.y_range[1])
        v = self._v_of_y(yc)
        th = self._th_of_y(yc)
        # saddle-rate exponential tails keep value and slope continuous
        lo = y < self.y_range[0]
        hi = y > self.y_range[1]
        if np.any(lo):
            ex = np.exp(self._rate_lo * np.minimum(y - self.y_range[0], 0.0))
            v = np.where(lo, self.v_star + self._amp_lo * ex, v)
            th = np.where(lo, self.theta_star + self._thamp_lo * ex, th)
        if np.any(hi):
            ex = np.exp(-self._rate_hi * np.maximum(y - self.y_range[1], 0.0))
            v = np.where(hi, self.v_plus - self._amp_hi * ex, v)
            th = np.where(hi, self.decomp.right.theta - self._thamp_hi * ex, th)
        u1 = self.u_star - self.sigma * (v - self.v_star)
        v_y = self.v_y_of(v, th)
        np.clip(v_y, 0.0, None, out=np.atleast_1d(v_y))
        F = self._F_field(v, th)
        th_y = F * v_y
        u1_y = -self.sigma * v_y
        # second derivatives: chain rule with analytic A = v_y(v, theta)
        A_v, A_th = self._A_partials(v, th)
        v_yy = (A_v + A_th * F) * v_y
        dF_v, dF_th = self._F_partials(v, th)
        th_yy = (dF_v + dF_th * F) * v_y ** 2 + F * v_yy
        u1_yy = -self.sigma * v_yy
        return {"v": v, "u1": u1, "theta": th, "v_y": v_y, "u1_y": u1_y,
                "theta_y": th_y, "v_yy": v_yy, "u1_yy": u1_yy,
                "theta_yy": th_yy}

    def _F_field(self, v, th):
        den = self._den(v, th)
        num = self._num(v, th)
        coef = 4.0 * self.sigma ** 2 * self.transport.A1 / (3.0 * self.transport.A2)
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.where(np.abs(den) > 1e-300, coef * num / den, self.lstar)
        # near the saddle the ratio is 0/0: fall back to the slope root
        tiny = 1e-10 * self.p_star
        return np.where(np.abs(den) < tiny, self.lstar, F)

    def _A_partials(self, v, th):
        """Partials of A(v, theta) = dv/dy = -3 v den / (4 mu sigma)."""
        mu = self.transport.mu(th)
        den = self._den(v, th)
        A = -3.0 * (v * den) / (4.0 * mu * self.sigma)
        dden_dv = -2.0 * th / (3.0 * v ** 2) + self.sigma ** 2
        A_v = -3.0 * (den + v * dden_dv) / (4.0 * mu * self.sigma)
        dden_dth = 2.0 / (3.0 * v)
        A_th = -3.0 * v * dden_dth / (4.0 * mu * self.sigma) \
            - A * self.transport.dmu(th) / mu
        return A_v, A_th

    def _F_partials(self, v, th, rel=1e-6):
        dv = rel * self.v_star
        dth = rel * self.theta_star
        F_v = (self._F_field(v + dv, th) - self._F_field(v - dv, th)) / (2 * dv)
        F_th = (self._F_field(v, th + dth) - self._F_field(v, th - dth)) / (2 * dth)
        return F_v, F_th


def build_shock(decomp: RiemannDecomposition, ygrid: np.ndarray,
                transport: TransportLaw = DEFAULT_TRANSPORT) -> WaveProfile:
    wave = ShockProfile(decomp, transport)
    d = wave.eval(ygrid)
    return WaveProfile(kind="shock", y=np.asarray(ygrid, float),
                       v=d["v"], u1=d["u1"], theta=d["theta"],
                       v_y=d["v_y"], u1_y=d["u1_y"], theta_y=d["theta_y"],
                       v_yy=d["v_yy"], u1_yy=d["u1_yy"], theta_yy=d["theta_yy"],
                       meta={"delta_s": decomp.delta_s, "sigma": decomp.sigma})


# ---------------------------------------------------------------------------
# second-order expansion check
# ---------------------------------------------------------------------------

def expansion_lhs(wave: ShockProfile) -> float:
    """Chord-slope difference (p-p_+)/(v-v_+) - (p-p^*)/(v-v^*) at the
    profile midpoint volume."""
    d = wave.decomp
    v_mid = 0.5 * (d.mid_hi.v + d.right.v)
    th_mid = float(wave._th_of_y(float(PchipInterpolator(
        wave._v_of_y(wave._y), wave._y)(v_mid))))
    p_mid = 2.0 * th_mid / (3.0 * v_mid)
    p_plus = pressure(d.right)
    p_star = pressure(d.mid_hi)
    return ((p_mid - p_plus) / (v_mid - d.right.v)
            - (p_mid - p_star) / (v_mid - d.mid_hi.v))


def predicted_expansion_coefficient(mid_hi: FluidTriple,
                                    transport: TransportLaw) -> float:
    """Linear-in-strength coefficient of the chord-slope difference."""
    p_star = pressure(mid_hi)
    mu = transport.mu(mid_hi.theta)
    kap = transport.kappa(mid_hi.theta)
    return (5.0 * p_star / (9.0 * mid_hi.v ** 2)) * (
        (10.0 * mu - 9.0 * kap) / (10.0 * mu + 3.0 * kap) + 3.0)


def predicted_curvature(mid_hi: FluidTriple, transport: TransportLaw) -> float:
    """Leading d^2 theta / dv^2 at the upstream end of the profile."""
    p_star = pressure(mid_hi)
    mu = transport.mu(mid_hi.theta)
    kap = transport.kappa(mid_hi.theta)
    return (10.0 * mu - 9.0 * kap) / (10.0 * mu + 3.0 * kap) \
        * 5.0 * p_star / (3.0 * mid_hi.v)


def measured_curvature(wave: ShockProfile, fit_fraction: float = 0.1) -> float:
    """d^2 theta / dv^2 at v^* from a quadratic fit of the integrated orbit
    over the first ``fit_fraction`` of the volume range (slope pinned to
    the saddle root, so only the curvature is free)."""
    dv = wave._vgrid - wave.v_star
    mask = (dv > 0) & (dv < fit_fraction * wave.decomp.delta_s)
    x = dv[mask]
    r = wave._thgrid[mask] - wave.theta_star - wave.lstar * x
    return 2.0 * float((x ** 2 @ r) / (x ** 2 @ x ** 2))


@dataclass
class ExpansionReport:
    delta_s: np.ndarray
    measured_lhs: np.ndarray
    predicted_coefficients: np.ndarray      # per strength, at its own mid_hi
    measured_coefficients: np.ndarray       # lhs / delta_s
    curvature_measured: np.ndarray
    curvature_predicted: np.ndarray
    trivial: bool = False

    @property
    def residuals(self) -> np.ndarray:
        """lhs minus the predicted linear term (expected O(delta_s^2))."""
        return self.measured_lhs - self.predicted_coefficients * self.delta_s


def verify_shock_expansion(generator: Callable[[float], ShockProfile],
                           strengths=(0.04, 0.08, 0.16),
                           transport: TransportLaw = DEFAULT_TRANSPORT
                           ) -> ExpansionReport:
    """Measure the chord-slope difference across a strength sweep against
    the predicted linear coefficient at each strength's upstream state;
    ``generator`` maps a strength to a built profile (the viscous-level
    profile omits microscopic corrections, so only the linear coefficient
    is expected to match)."""
    strengths = np.asarray(strengths, dtype=float)
    if np.all(strengths == 0.0):
        z = np.zeros_like(strengths)
        return ExpansionReport(strengths, z, z, z, z, z, trivial=True)
    lhs, pred, cm, cp = [], [], [], []
    for ds in strengths:
        w = generator(float(ds))
        lhs.append(expansion_lhs(w))
        pred.append(predicted_expansion_coefficient(w.decomp.mid_hi, transport))
        cm.append(measured_curvature(w))
        cp.append(predicted_curvature(w.decomp.mid_hi, transport))
    lhs = np.asarray(lhs)
    return ExpansionReport(
        delta_s=strengths, measured_lhs=lhs,
        predicted_coefficients=np.asarray(pred),
        measured_coefficients=lhs / strengths,
        curvature_measured=np.asarray(cm),
        curvature_predicted=np.asarray(cp))


# ---------------------------------------------------------------------------
# microscopic leading term of the shock profile
# ---------------------------------------------------------------------------

def maxwellian_y_derivative(s: FluidTriple, grads: tuple[float, float, float],
                            grid: VelocityGrid) -> np.ndarray:
    """d/dy of the local Maxwellian given (v_y, u1_y, theta_y) at a point."""
    v_y, u1_y, th_y = grads
    M = grid.maxwellian(s)
    a2 = R_GAS * s.theta
    du1 = grid.node_array(0) - s.u[0]
    du2 = grid.node_array(1) - s.u[1]
    du3 = grid.node_array(2) - s.u[2]
    q = du1 ** 2 + du2 ** 2 + du3 ** 2
    return M * (-v_y / s.v + du1 * u1_y / a2
                + (q / (2.0 * a2) - 1.5) * th_y / s.theta)


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
                        cache_dir=None, gram_tol: float = 0.5
                        ) -> ShockMicroProfile:
    """Leading microscopic content of the shock profile: per sampled y,
    invert the local linearized operator on the projected streaming term
    of the local Maxwellian."""
    from .collision import assemble_linearized

    d = wave.decomp
    if span is None:
        span = 0.8 * min(-wave.y_range[0], wave.y_range[1])
    ysamp = np.linspace(-span, span, n_samples)
    prof = wave.eval(ysamp)
    mref = reference_maxwellian(prof["theta"], prof["v"], prof["u1"])
    th_max = max(d.mid_hi.theta, d.right.theta)
    umax = max(abs(d.mid_hi.u1), abs(d.right.u1))
    grid = VelocityGrid(center=(0.5 * (d.mid_hi.u1 + d.right.u1), 0.0, 0.0),
                        half_width=6.0 * math.sqrt(R_GAS * th_max) + umax,
                        counts=grid_counts)
    one_xi = 1.0 + np.linalg.norm(grid.nodes, axis=1).reshape(grid.counts)
    Mref = grid.maxwellian(mref)
    fields, norms = [], []
    xi1 = grid.node_array(0)
    for i, y in enumerate(ysamp):
        s = FluidTriple(v=prof["v"][i], u=(prof["u1"][i], 0.0, 0.0),
                        theta=prof["theta"][i])
        op = assemble_linearized(s, grid, cache_dir=cache_dir,
                                 gram_tol=gram_tol)
        My = maxwellian_y_derivative(
            s, (prof["v_y"][i], prof["u1_y"][i], prof["theta_y"][i]), grid)
        rhs = op.projector.micro(xi1 * My) / s.v
        h = op.invert_micro(rhs)
        fields.append(h)
        norms.append(math.sqrt(grid.integrate(one_xi * h * h / Mref)))
    return ShockMicroProfile(y=ysamp, fields=fields, norms=np.asarray(norms),
                             v_y=prof["v_y"], mref=mref, grid=grid)


# ---------------------------------------------------------------------------
# scalar profile equation for the kinetic-shock parameterization
# ---------------------------------------------------------------------------

@dataclass
class EtaProfile:
    y: np.ndarray
    eta: np.ndarray
    eta_y: np.ndarray
    eta_yy: np.ndarray
    eta_minus: float
    eta_plus: float


def eta_solve(eta_minus: float, eta_plus: float,
              phi1: Callable[[float], float], ygrid: np.ndarray,
              rtol: float = 1e-12) -> EtaProfile:
    """Integrate d eta/dy = phi1(eta) (eta - eta_-) (eta - eta_+) from the
    midpoint level outward in both directions."""
    if not (eta_minus > 0.0 > eta_plus):
        raise InvalidStrength("need eta_- > 0 > eta_+")
    ygrid = np.asarray(ygrid, dtype=float)

    def rhs(_y, e):
        return [phi1(e[0]) * (e[0] - eta_minus) * (e[0] - eta_plus)]

    e_mid = 0.5 * (eta_minus + eta_plus)
    y_pos = ygrid[ygrid >= 0.0]
    y_neg = ygrid[ygrid < 0.0][::-1]
    eta = np.empty_like(ygrid)
    if y_pos.size:
        span = (0.0, float(y_pos[-1]) + 1e-9)
        sol = solve_ivp(rhs, span, [e_mid], t_eval=y_pos, method="DOP853",
                        rtol=rtol, atol=1e-14)
        eta[ygrid >= 0.0] = sol.y[0]
    if y_neg.size:
        span = (0.0, float(y_neg[-1]) - 1e-9)
        sol = solve_ivp(rhs, span, [e_mid], t_eval=y_neg, method="DOP853",
                        rtol=rtol, atol=1e-14)
        eta[ygrid < 0.0] = sol.y[0][::-1]
    quad = (eta - eta_minus) * (eta - eta_plus)
    phiv = np.array([phi1(e) for e in eta])
    eta_y = phiv * quad
    de = 1e-7 * (eta_minus - eta_plus)
    dphi = np.array([(phi1(e + de) - phi1(e - de)) / (2 * de) for e in eta])
    eta_yy = (dphi * quad + phiv * (2.0 * eta - eta_minus - eta_plus)) * eta_y
    return EtaProfile(y=ygrid, eta=eta, eta_y=eta_y, eta_yy=eta_yy,
                      eta_minus=eta_minus, eta_plus=eta_plus)


# ---------------------------------------------------------------------------
# decay-rate fits used by the profile property checks
# ---------------------------------------------------------------------------

def loglog_slope(t: np.ndarray, f: np.ndarray) -> float:
    """Least-squares slope of log f against log t."""
    lt, lf = np.log(t), np.log(f)
    lt = lt - lt.mean()
    return float((lt @ (lf - lf.mean())) / (lt @ lt))


def tail_decay_rate(y: np.ndarray, f: np.ndarray) -> float:
    """Exponential decay rate of |f| from a log-linear fit (f > 0)."""
    mask = f > 0
    yy, lf = y[mask], np.log(f[mask])
    yy = yy - yy.mean()
    return float(-(yy @ (lf - lf.mean())) / (yy @ yy))
