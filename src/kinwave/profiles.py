"""The three wave-profile families and their quantitative property checks.

* approximate rarefaction: characteristic solution of a regularized scalar
  conservation law mapped onto the first wave curve,
* viscous contact wave: self-similar nonlinear diffusion solve at constant
  pressure,
* shock profile: heteroclinic orbit of the plane dynamical system,
  integrated with the volume as the independent variable.

Each family's ``eval`` returns a WaveProfile: the values and the analytic
(or interpolant-level) first derivatives in its spatial argument.  The
interpolants are piecewise cubic Hermite (``_Hermite``): the contact's
take clamped cubic-spline slopes, and the shock's take the slopes of its
plane system at the accepted nodes of its orbit, which an embedded
Dormand-Prince 5(4) pair integrates; numpy is all they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (BVPNoConvergence, InvalidStrength, InversionFailure,
                     NoRealRoot, ProfileBlowup)
from .gas import (DEFAULT_TRANSPORT, FluidTriple, TransportLaw, entropy,
                  pressure)
from .riemann import RiemannDecomposition, isentrope_state, lambda1


# ---------------------------------------------------------------------------
# scalar characteristic solve
# ---------------------------------------------------------------------------

def burgers_w(w_minus: float, w_plus: float, t: float, x
              ) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic solution of the expansive scalar problem with
    smoothed-step data w(0, x0) = mid + half tanh(x0): solves the foot map
    x = x0 + w(0, x0) t for x0 and returns (w, w_x) = (w(0, x0),
    w'(0, x0) / (1 + w'(0, x0) t))."""
    x0 = _burgers_foot(w_minus, w_plus, t, x)
    half = 0.5 * (w_plus - w_minus)
    th = np.tanh(x0)
    w1p = half * (1.0 - th ** 2)
    return 0.5 * (w_plus + w_minus) + half * th, w1p / (1.0 + w1p * t)


def _burgers_foot(w_minus: float, w_plus: float, t: float, x) -> np.ndarray:
    """Solve x = x0 + w(0, x0) t for the characteristic foot point.

    Newton safeguarded by bisection on a bracket of the strictly monotone
    map; converges on the equation residual, then takes one unclamped
    polishing step.  Each iteration works only on the points that have not
    converged yet; a converged point keeps its foot.
    """
    if t < 0:
        raise ValueError("expansive data requires t >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mid = 0.5 * (w_plus + w_minus)
    half = 0.5 * (w_plus - w_minus)

    def foot_map(x0, x):
        """Residual of the foot map and its slope in x0."""
        th = np.tanh(x0)
        return x0 + (mid + half * th) * t - x, 1.0 + half * (1.0 - th ** 2) * t

    lo = x - w_plus * t - 1.0
    hi = x - w_minus * t + 1.0
    # start from the centered-fan approximation w ~ x/t, which is tight for
    # large t and no worse than the midpoint start early on
    w_fan = np.clip(x / max(t, 1.0), w_minus, w_plus)
    foot = np.clip(x - w_fan * t, lo, hi)
    tol = 1e-13 * (1.0 + float(np.max(np.abs(x))) + abs(w_minus) * t)
    # the unconverged points (indices into x), with their targets, iterates,
    # brackets and last step lengths
    idx = np.arange(x.size)
    xa, x0, dx_old = x, foot, hi - lo
    for _ in range(300):
        f, fp = foot_map(x0, xa)
        done = np.abs(f) < tol
        if done.any():
            foot[idx[done]] = x0[done]
            keep = ~done
            idx = idx[keep]
            if not idx.size:
                break
            xa, x0, lo, hi, dx_old, f, fp = (
                a[keep] for a in (xa, x0, lo, hi, dx_old, f, fp))
        lo = np.where(f < 0, x0, lo)       # map is increasing in x0
        hi = np.where(f > 0, x0, hi)
        newton = x0 - f / fp
        # take the Newton point when it stays bracketed and shrinks faster
        # than bisection, else bisect
        ok = (newton > lo) & (newton < hi) \
            & (np.abs(2.0 * f) <= np.abs(dx_old * fp))
        x0n = np.where(ok, newton, 0.5 * (lo + hi))
        dx_old = np.abs(x0n - x0)
        x0 = x0n
    else:
        foot[idx] = x0
    f, fp = foot_map(foot, x)
    return foot - f / fp


# ---------------------------------------------------------------------------
# profile containers
# ---------------------------------------------------------------------------

@dataclass
class WaveProfile:
    """Macroscopic profile values and their first derivatives with respect
    to the spatial argument of the ``eval`` that returned them."""

    v: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    v_y: np.ndarray
    u1_y: np.ndarray
    theta_y: np.ndarray


# ---------------------------------------------------------------------------
# piecewise cubic Hermite interpolation
# ---------------------------------------------------------------------------

class _Hermite:
    """Piecewise cubic Hermite interpolant of k fields on one node grid x
    (strictly increasing), from their node values and slopes, each (k, n)
    or (n,).

    Each cell keeps the power-basis coefficients of its cubic in the local
    coordinate s = x - x_i, built once; beyond the end nodes the end cells'
    cubics extend.  One cell lookup serves every field: a ``searchsorted``,
    or plain arithmetic on a ``uniform`` grid."""

    def __init__(self, x, values, slopes, uniform: bool = False):
        self.x = np.asarray(x, dtype=float)
        y = np.atleast_2d(values)
        d = np.atleast_2d(slopes)
        h = np.diff(self.x)
        m = np.diff(y, axis=1) / h
        t = (d[:, :-1] + d[:, 1:] - 2.0 * m) / h
        # (4 k, n - 1): the s^3, s^2, s and constant coefficients of every
        # field, one row each, so that one take along the cells gathers all
        self._c = np.concatenate([t / h, (m - d[:, :-1]) / h - t, d[:, :-1],
                                  y[:, :-1]])
        self._rstep = (self.x.size - 1) / (self.x[-1] - self.x[0]) \
            if uniform else None

    def __call__(self, x, slopes: bool = False):
        """The k fields at x, shape (k,) + x.shape; with ``slopes``, the
        pair (values, first derivatives)."""
        x = np.asarray(x, dtype=float)
        if self._rstep is None:
            i = np.searchsorted(self.x, x, side="right") - 1
        else:
            i = ((x - self.x[0]) * self._rstep).astype(np.intp)
        i = np.clip(i, 0, self.x.size - 2)
        s = x - self.x[i]
        c3, c2, c1, c0 = self._c.take(i, axis=1).reshape((4, -1) + s.shape)
        values = ((c3 * s + c2) * s + c1) * s + c0
        if not slopes:
            return values
        return values, (3.0 * c3 * s + 2.0 * c2) * s + c1


#: unit roundoff of float64: cyclic reduction stops once the reduced
#: matrix's row-dominance bound falls below it
UNIT_ROUNDOFF = 2.0 ** -53


def solve_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                      upper: np.ndarray, rhs: np.ndarray,
                      check_finite: bool = True) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``lower``, ``diag`` and ``upper`` (lengths n - 1, n and n - 1) for
    ``rhs`` by cyclic reduction (Hockney 1965), leaving the inputs
    unchanged.  Raises ValueError on a non-finite input (when
    ``check_finite``) and LinAlgError when the result is not finite (a
    singular matrix, or a zero pivot).

    The system is padded with identity rows to 2^k - 1 rows, and each
    level eliminates the even rows, halving the system.  With the
    row-dominance ratio rho = max (|a| + |c|) / |b| below 1, the reduced
    matrix after j levels has ratio at most rho^(2^j) (Heller 1976), so
    once that is below the unit roundoff its off-diagonals no longer
    reach the result and the reduction stops there with a diagonal
    solve; with rho >= 1 it runs all k - 1 levels.

    It does not pivot, which is safe for its three callers: ``_diffuse``
    (the implicit viscous and heat rows) is strictly row-dominant, the
    clamped-spline rows of ``_clamped_slopes`` have rho = 0.5, and the
    contact Newton Jacobian of ``_solve_contact_bvp``, at rho = 1 + 1e-6
    to 1 + 4e-5, gives a Newton step whose accuracy the Newton residual
    sets, not the solve."""
    if check_finite and not all(np.isfinite(a).all()
                                for a in (lower, diag, upper, rhs)):
        raise ValueError("array must not contain infs or NaNs")
    n = len(diag)
    a, b, c, d = np.zeros((4, (1 << n.bit_length()) - 1))
    a[1:n] = lower
    b[:n] = diag
    b[n:] = 1.0
    c[:n - 1] = upper
    d[:n] = rhs
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = float(np.max((np.abs(a) + np.abs(c)) / np.abs(b)))
        levels = n.bit_length() - 1
        if rho == 0.0:
            levels = 0
        elif rho < 1.0:
            levels = min(levels, math.ceil(math.log2(
                math.log(UNIT_ROUNDOFF) / math.log(rho))))
        kept = []
        for _ in range(levels):
            ae, ce, de = a[0::2], c[0::2], d[0::2]
            ninv = -1.0 / b[0::2]
            alpha = a[1::2] * ninv[:-1]
            gamma = c[1::2] * ninv[1:]
            kept.append((ae, ce, de, ninv))
            b = b[1::2] + alpha * ce[:-1] + gamma * ae[1:]
            d = d[1::2] + alpha * de[:-1] + gamma * de[1:]
            a = alpha * ae[:-1]
            c = gamma * ce[1:]
        x = d / b
        for ae, ce, de, ninv in reversed(kept):
            full = np.zeros(2 * len(x) + 3)
            full[2:-2:2] = x
            full[1:-1:2] = (ae * full[:-2:2] + ce * full[2::2] - de) * ninv
            x = full[1:-1]
    if not np.isfinite(x).all():
        raise LinAlgError("singular matrix")
    return x[:n]


def _clamped_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the C^2 cubic spline through y(x) with zero slope at
    both ends (the clamped spline), from one tridiagonal solve."""
    h = np.diff(x)
    m = np.diff(y) / h
    diag = np.ones_like(y)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    lower = np.zeros_like(h)
    upper = np.zeros_like(h)
    upper[1:] = h[:-1]
    lower[:-1] = h[1:]
    rhs = np.zeros_like(y)
    rhs[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    return solve_tridiagonal(lower, diag, upper, rhs)


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
        self.s_ent = entropy(decomp.mid_lo)
        self.w_minus = lambda1(decomp.left.v, self.s_ent)
        self.w_plus = lambda1(decomp.mid_lo.v, self.s_ent)

    def _v_of_w(self, w):
        arg = -3.0 * w * math.exp(-0.5 * self.s_ent) / math.sqrt(10.0)
        if np.any(arg <= 0.0):
            raise InversionFailure("speed left the admissible fan range")
        return arg ** (-0.75)

    def eval(self, t: float, x) -> WaveProfile:
        """Profile values and x-derivatives at time t (fan at t+1)."""
        w, w_x = burgers_w(self.w_minus, self.w_plus, t + 1.0, x)
        v = self._v_of_w(w)
        theta, u1 = isentrope_state(self.decomp.mid_lo, v)
        v_x = -0.75 * v / w * w_x
        prof = WaveProfile(v=v, u1=u1, theta=theta, v_y=v_x, u1_y=-w * v_x,
                           theta_y=None)
        prof.theta_y = -pressure(prof) * v_x    # d theta = -p dv, isentrope
        return prof


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
    nodes = np.arange(CONTACT_NODES)
    phase = nodes % 3

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
        # tridiagonal finite-difference Jacobian: row i's 3-node stencil
        # holds one node of each phase mod 3, so one probe per phase (every
        # third node perturbed) gives entry (i, j) as dr[j % 3][i]
        eps = 1e-7
        dr = np.array([(resid(T + eps * (phase == ph)) - r) / eps
                       for ph in range(3)])
        step = solve_tridiagonal(dr[phase[:-1], nodes[1:]],
                                 dr[phase, nodes],
                                 dr[phase[1:], nodes[:-1]], -r)
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
        # T and W on the uniform zeta-grid, each a clamped cubic spline
        T_z = _clamped_slopes(self.z, self.T)
        kap = transport.kappa(self.T)
        W = 0.6 * kap * T_z / self.T
        self._fields = _Hermite(self.z, (self.T, W),
                                (T_z, _clamped_slopes(self.z, W)),
                                uniform=True)
        self.theta_ends = (decomp.mid_lo.theta, decomp.mid_hi.theta)

    def _similarity(self, zeta):
        """The similarity profile at zeta: (theta, v = 2 theta/(3 p_*), W,
        W', theta'); outside the collocation interval theta is the end value
        and W, W', theta' vanish."""
        zc = np.clip(zeta, self.z[0], self.z[-1])
        inside = (zeta >= self.z[0]) & (zeta <= self.z[-1])
        (th, W), (th_z, Wp) = self._fields(zc, slopes=True)
        th = np.where(zeta < self.z[0], self.theta_ends[0], th)
        th = np.where(zeta > self.z[-1], self.theta_ends[1], th)
        return (th, 2.0 * th / (3.0 * self.p_star), np.where(inside, W, 0.0),
                np.where(inside, Wp, 0.0), np.where(inside, th_z, 0.0))

    def eval(self, t: float, x) -> WaveProfile:
        """Profile values and x-derivatives at time t."""
        root = math.sqrt(1.0 + t)
        th, v, W, Wp, th_z = self._similarity(
            np.asarray(x, dtype=float) / root)
        theta_x = th_z / root
        return WaveProfile(v=v, u1=self.u_star + W / root, theta=th,
                           v_y=2.0 * theta_x / (3.0 * self.p_star),
                           u1_y=Wp / (1.0 + t), theta_y=theta_x)

    def error_terms(self, t: float, x) -> tuple[np.ndarray, np.ndarray]:
        """The two residual source terms of the momentum/energy balance:
        Q1 = u1_t - (4/3)(mu u1_x / v)_x  and  Q2 = -(4/3) mu u1_x^2 / v."""
        zeta = np.asarray(x, dtype=float) / math.sqrt(1.0 + t)
        th, v, W, Wp, _ = self._similarity(zeta)

        def flux(z):
            """mu(theta) W' / v at z."""
            th_z, v_z, _, Wp_z, _ = self._similarity(z)
            return self.transport.mu(th_z) * Wp_z / v_z

        # (mu W'/v)'(zeta) by a short centered difference of the interpolant
        dz = 1e-6
        gp = (flux(zeta + dz) - flux(zeta - dz)) / (2.0 * dz)
        q1 = (-0.5 * (W + zeta * Wp) - (4.0 / 3.0) * gp) / (1.0 + t) ** 1.5
        mu = self.transport.mu(th)
        q2 = -(4.0 / 3.0) * mu * Wp ** 2 / v / (1.0 + t) ** 2
        return q1, q2


# ---------------------------------------------------------------------------
# shock profile
# ---------------------------------------------------------------------------

def shock_slope_quadratic(mid_hi: FluidTriple, sigma: float,
                          transport: TransportLaw = DEFAULT_TRANSPORT) -> float:
    """Slope d theta / d v of the shock orbit at the saddle ``mid_hi``
    (the upstream end; ShockProfile also takes it at the downstream state):
    the root of the saddle quadratic closest to -p there (exactly -p when
    sigma equals that state's sound speed)."""
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
#: the orbit integration raises ProfileBlowup when its step falls below
#: SHOCK_MIN_STEP_REL * delta_s or its step attempts pass SHOCK_MAX_STEPS
SHOCK_MIN_STEP_REL = 1e-12
SHOCK_MAX_STEPS = 20_000
#: a step that would stop short of a node the orbit must land on (the
#: mid-volume, the end) by less than this fraction of itself lands there
SHOCK_LAND_FRACTION = 0.01
#: the weakest shock that builds: below it the orbit's steps collapse, or
#: its slope is the saddle roots' wherever |den| < 1e-10 p^*
SHOCK_MIN_STRENGTH = 1e-3

#: the Dormand-Prince 5(4) pair (Dormand and Prince 1980): stage nodes,
#: stage coefficients, fifth-order weights, and the weights of the
#: fifth-minus-fourth-order error estimate, whose seventh stage is the
#: slope at the step's end
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def _combine(y: tuple, h: float, weights: tuple, k: list) -> tuple:
    """y + h sum_i weights[i] k[i], componentwise on tuples of floats."""
    return tuple(yj + h * sum(w * ki[j] for w, ki in zip(weights, k))
                 for j, yj in enumerate(y))


def _integrate_orbit(rhs, s0: float, s1: float, y0: tuple, scale: float,
                     s_node: float) -> tuple[np.ndarray, ...]:
    """Integrate y' = rhs(s, y), y a tuple of floats, from s0 to s1 with
    the Dormand-Prince 5(4) pair (fifth-order steps, rtol SHOCK_RTOL, atol
    SHOCK_RTOL * scale, steps of at most scale/20; the first trial step is
    s0, the orbit's distance from its saddle), landing exactly on s_node on
    the way; a step that would stop short of s_node or s1 by less than
    SHOCK_LAND_FRACTION of itself is stretched to land there.  Returns the
    accepted nodes (n,), values (k, n) and slopes (k, n).  Raises
    ProfileBlowup when the step falls below SHOCK_MIN_STEP_REL * scale or
    the attempts pass SHOCK_MAX_STEPS, so a failing orbit cannot hang."""
    atol, h_max = SHOCK_RTOL * scale, scale / 20.0
    h_min, h = SHOCK_MIN_STEP_REL * scale, s0
    s, y = s0, y0
    f = rhs(s, y)
    nodes, values, slopes = [s], [y], [f]
    targets = [s1, s_node]
    rejected = False
    for _ in range(SHOCK_MAX_STEPS):
        if h < h_min:
            raise ProfileBlowup(f"orbit step {h:.3e} fell below the floor"
                                f" {h_min:.3e} at s = {s:.9e}")
        step = min(h, h_max)
        if targets[-1] - s - step < SHOCK_LAND_FRACTION * step:
            step = targets[-1] - s
        k = [f]
        for c, a in zip(_DP_C, _DP_A):
            k.append(rhs(s + c * step, _combine(y, step, a, k)))
        y_new = _combine(y, step, _DP_B, k)
        f_new = rhs(s + step, y_new)
        k.append(f_new)
        err = math.sqrt(sum(
            (step * sum(e * ki[j] for e, ki in zip(_DP_E, k))
             / (atol + SHOCK_RTOL * max(abs(y[j]), abs(y_new[j])))) ** 2
            for j in range(len(y))) / len(y))
        if err < 1.0:
            s = targets.pop() if step == targets[-1] - s else s + step
            y, f = y_new, f_new
            nodes.append(s)
            values.append(y)
            slopes.append(f)
            if not targets:
                return np.array(nodes), np.array(values).T, np.array(slopes).T
            grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
            h = step * (min(grow, 1.0) if rejected else grow)
            rejected = False
        else:
            # a NaN error estimate shrinks the step too, toward the floor
            h = step * (max(0.2, 0.9 * err ** -0.2) if math.isfinite(err)
                        else 0.2)
            rejected = True
    raise ProfileBlowup(f"orbit integration passed {SHOCK_MAX_STEPS} step"
                        f" attempts at s = {s:.9e}")


class ShockProfile:
    """Traveling-wave profile of the viscous system between mid_hi and
    right, integrated with v as the independent variable (the y-approach to
    the saddle points is exponentially slow, the v-range is compact).

    The orbit is written in the deviations s = v - v^*, phi = theta -
    theta^* from the upstream saddle: the slope there is 0/0, and forming
    num and den from v, theta would cancel their leading digits.  Its
    accepted integration nodes, one of them the mid-volume s = (v_+ -
    v^*)/2 where y = 0, carry the one interpolant: v(y) and theta(y)."""

    def __init__(self, decomp: RiemannDecomposition,
                 transport: TransportLaw = DEFAULT_TRANSPORT):
        if not SHOCK_MIN_STRENGTH <= decomp.delta_s <= 0.3 * decomp.mid_hi.v:
            raise InvalidStrength(
                f"shock strength {decomp.delta_s:.3g} outside the supported"
                f" [{SHOCK_MIN_STRENGTH:g}, 0.3 v^*]")
        self.decomp = decomp
        self.transport = transport
        hi, right = decomp.mid_hi, decomp.right
        self.sigma = decomp.sigma
        self.p_star = pressure(hi)
        self.v_star, self.theta_star, self.u_star = hi.v, hi.theta, hi.u1
        self.v_plus = right.v
        self.lstar = shock_slope_quadratic(hi, self.sigma, transport)
        # the same saddle root at the downstream end v_+
        self._lplus = shock_slope_quadratic(right, self.sigma, transport)
        self._slope_coef = (4.0 * self.sigma ** 2 * self.transport.A1
                            / (3.0 * self.transport.A2))
        self._saddle_den = 1e-10 * self.p_star
        self._s_mid = 0.5 * (self.v_plus - self.v_star)

        def rhs(s, state):
            phi, _y = state
            if not (-self.theta_star < phi <= self.theta_star):
                raise ProfileBlowup(
                    f"theta = {self.theta_star + phi} left (0, 2 theta^*]")
            return self._dtheta_dv(s, phi), self._dy_dv(s, phi)

        eps = SHOCK_EPS_REL * decomp.delta_s
        s, (phi, y), (theta_v, y_v) = _integrate_orbit(
            rhs, eps, (self.v_plus - self.v_star) - eps,
            (self.lstar * eps, 0.0), decomp.delta_s, self._s_mid)
        # recenter so v(0) is the mid-volume node
        self._mid = int(np.searchsorted(s, self._s_mid))
        self._s, self._phi, self._y = s, phi, y - y[self._mid]
        if not np.all(np.diff(self._y) > 0.0):
            raise ProfileBlowup("y(v) is not strictly increasing on the orbit")
        # v(y) and theta(y) on the orbit nodes, with the node slopes of the
        # plane system: dv/dy and (d theta/dv)(dv/dy)
        v_y = 1.0 / y_v
        self._fields = _Hermite(self._y, (self.v_star + s,
                                          self.theta_star + phi),
                                (v_y, theta_v * v_y))
        self.y_range = (self._y[0], self._y[-1])
        # saddle decay rates for the exponential tails beyond the orbit
        self._amp_lo = s[0]
        self._amp_hi = self.v_plus - self.v_star - s[-1]
        self._rate_lo = v_y[0] / max(self._amp_lo, 1e-300)
        self._rate_hi = v_y[-1] / max(self._amp_hi, 1e-300)
        self._thamp_lo = phi[0]
        self._thamp_hi = right.theta - (self.theta_star + phi[-1])

    # plane-system right-hand sides in the deviations (s, phi) ------------
    def _den(self, s, phi):
        """2 theta/(3 v) - p^* + sigma^2 s, with the difference of the two
        pressures formed exactly in the deviations."""
        v = self.v_star + s
        return ((2.0 / 3.0) * (self.v_star * phi - self.theta_star * s)
                / (v * self.v_star) + self.sigma ** 2 * s)

    def _num(self, s, phi):
        return phi + self.p_star * s - 0.5 * self.sigma ** 2 * s ** 2

    def _dtheta_dv(self, s, phi):
        """Orbit slope d theta/d v = 4 sigma^2 A1/(3 A2) num/den of the plane
        system; near the saddles, where |den| < 1e-10 p^*, the ratio is 0/0
        and the slope is the root of the nearer saddle: lstar up to the
        mid-volume s = (v_+ - v^*)/2, the downstream root beyond.  s, phi
        are scalars (the orbit ODE, whose per-call cost this keeps free of
        np.where) or arrays (eval)."""
        den = self._den(s, phi)
        saddle = abs(den) < self._saddle_den
        if type(saddle) is np.ndarray:
            root = np.where(s > self._s_mid, self._lplus, self.lstar)
            return np.where(saddle, root, self._slope_coef * self._num(s, phi)
                            / np.where(saddle, 1.0, den))
        if saddle:
            return self._lplus if s > self._s_mid else self.lstar
        return self._slope_coef * self._num(s, phi) / den

    def _dy_dv(self, s, phi):
        return (-(4.0 / 3.0) * self.transport.mu(self.theta_star + phi)
                * self.sigma / ((self.v_star + s) * self._den(s, phi)))

    def v_y_of(self, s, phi):
        """dv/dy from the first plane equation (analytic), at the deviations
        s = v - v^*, phi = theta - theta^*."""
        return (-3.0 * (self.v_star + s) * self._den(s, phi)
                / (4.0 * self.transport.mu(self.theta_star + phi)
                   * self.sigma))

    def eval(self, y) -> WaveProfile:
        """Profile values and y-derivatives."""
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, self.y_range[0], self.y_range[1])
        v, th = self._fields(yc)
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
        s, phi = v - self.v_star, th - self.theta_star
        v_y = self.v_y_of(s, phi)
        np.clip(v_y, 0.0, None, out=np.atleast_1d(v_y))
        return WaveProfile(v=v, u1=self.u_star - self.sigma * s,
                           theta=th, v_y=v_y, u1_y=-self.sigma * v_y,
                           theta_y=self._dtheta_dv(s, phi) * v_y)


# ---------------------------------------------------------------------------
# second-order expansion check
# ---------------------------------------------------------------------------

def expansion_lhs(wave: ShockProfile) -> float:
    """Chord-slope difference (p-p_+)/(v-v_+) - (p-p^*)/(v-v^*) at the
    profile's mid-volume node."""
    d = wave.decomp
    v_mid = wave.v_star + wave._s[wave._mid]
    th_mid = wave.theta_star + float(wave._phi[wave._mid])
    p_mid = pressure(FluidTriple(v=v_mid, theta=th_mid))
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


#: share of the shock's volume range, next to v^*, that the curvature fit uses
CURVATURE_FIT_FRACTION = 0.1


def measured_curvature(wave: ShockProfile) -> float:
    """d^2 theta / dv^2 at v^* from a quadratic fit of the orbit nodes in
    the first CURVATURE_FIT_FRACTION of the volume range (slope pinned to
    the saddle root, so only the curvature is free)."""
    mask = wave._s < CURVATURE_FIT_FRACTION * wave.decomp.delta_s
    x = wave._s[mask]
    r = wave._phi[mask] - wave.lstar * x
    return 2.0 * float((x ** 2 @ r) / (x ** 2 @ x ** 2))


# ---------------------------------------------------------------------------
# decay-rate fits used by the profile property checks
# ---------------------------------------------------------------------------

def _ls_slope(x: np.ndarray, z: np.ndarray) -> float:
    """Least-squares slope of z against x."""
    x = x - x.mean()
    return float((x @ (z - z.mean())) / (x @ x))


def loglog_slope(t: np.ndarray, f: np.ndarray) -> float:
    """Least-squares slope of log f against log t."""
    return _ls_slope(np.log(t), np.log(f))


def tail_decay_rate(y: np.ndarray, f: np.ndarray) -> float:
    """Exponential decay rate of |f|: minus the least-squares slope of
    log f against y, taken where f > 0."""
    mask = f > 0
    return -_ls_slope(y[mask], np.log(f[mask]))
