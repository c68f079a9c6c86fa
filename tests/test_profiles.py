import math
import time

import numpy as np
import pytest

from kinwave import profiles
from kinwave.collision import shock_micro_leading
from kinwave.errors import InvalidStrength, ProfileBlowup
from kinwave.gas import DEFAULT_TRANSPORT, FluidTriple, pressure, sound_speed
from kinwave.profiles import (SHOCK_EPS_REL, ContactWave, RarefactionWave,
                              ShockProfile, burgers_w, expansion_lhs,
                              loglog_slope, measured_curvature,
                              predicted_curvature,
                              predicted_expansion_coefficient,
                              shock_slope_quadratic, tail_decay_rate)
from kinwave.riemann import generate_states, shock_decomposition

RIGHT = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)


# ---------------------------------------------------------------------------
# characteristic solve
# ---------------------------------------------------------------------------

def test_burgers_initial_profile():
    x = np.linspace(-20, 20, 801)
    w, _ = burgers_w(-1.2, -0.6, 0.0, x)
    exact = -0.9 + 0.3 * np.tanh(x)
    assert np.abs(w - exact).max() <= 1e-12


def test_burgers_monotone_in_x():
    x = np.linspace(-400, 400, 4001)
    for t in (0.0, 1.0, 10.0, 250.0):
        w, _ = burgers_w(-1.2, -0.6, t, x)
        assert np.all(np.diff(w) >= -1e-14)


def _foot_cases(decomp):
    """(w_minus, w_plus, x) on grids that mix saturated tanh tails with
    the fan: the criterion-9 rarefaction's speeds on its run grid in the
    shock frame, and two unit-free pairs on wide grids."""
    wave = RarefactionWave(decomp)
    y = np.arange(-600.0, 200.0 + 0.1, 0.2)
    x = np.linspace(-400.0, 400.0, 4001)
    return [(wave.w_minus, wave.w_plus, y + decomp.sigma * 100.0),
            (-1.2, -0.6, x), (-1.0, 1.0, 0.25 * x)]


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0, 50.0, 200.0])
def test_burgers_foot_residual_within_tol(t):
    """Every foot point solves x = x0 + w(0, x0) t to the solve's own
    tolerance 1e-13 (1 + max|x| + |w_minus| t)."""
    for wm, wp, x in _foot_cases(generate_states(RIGHT, 0.08, 0.05, 0.08)):
        x0 = profiles._burgers_foot(wm, wp, t, x)
        w0 = 0.5 * (wp + wm) + 0.5 * (wp - wm) * np.tanh(x0)
        tol = 1e-13 * (1.0 + np.abs(x).max() + abs(wm) * t)
        assert np.abs(x0 + w0 * t - x).max() <= tol


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0, 50.0, 200.0])
def test_burgers_foot_permutation_equivariant(t):
    """The foot of a permuted x is the permuted foot, bit for bit: each
    point follows its own iteration whatever the others do."""
    rng = np.random.default_rng(7)
    for wm, wp, x in _foot_cases(generate_states(RIGHT, 0.08, 0.05, 0.08)):
        perm = rng.permutation(x.size)
        assert np.array_equal(profiles._burgers_foot(wm, wp, t, x[perm]),
                              profiles._burgers_foot(wm, wp, t, x)[perm])


#: system sizes for the tridiagonal solver: 1, 2, and 2^k - 1, 2^k, 2^k + 1
#: around its padding to 2^k - 1 rows
TRIDIAGONAL_SIZES = (1, 2, 3, 4, 5, 31, 32, 33, 255, 256, 257)


def _banded_oracle(lower, diag, upper, rhs):
    """scipy's solve_banded((1, 1), ...) (LAPACK gtsv, with pivoting)."""
    from scipy.linalg import solve_banded
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return solve_banded((1, 1), ab, rhs)


def _diffuse_system(rng, n):
    """The rows of ``solvers._diffuse``, face coefficients in [0.2, 5]."""
    coef = rng.uniform(0.2, 5.0, n + 1)
    off = -coef[1:-1]
    return off, 1.0 + coef[1:] + coef[:-1], off


def _spline_system(rng, n):
    """The clamped-spline rows of ``_clamped_slopes`` on uneven nodes."""
    h = rng.uniform(0.1, 1.0, n - 1)
    diag = np.ones(n)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    lower, upper = np.zeros(n - 1), np.zeros(n - 1)
    upper[1:], lower[:-1] = h[:-1], h[1:]
    return lower, diag, upper


def _contact_jacobians():
    """The damped-Newton Jacobians of one contact BVP, as the solver
    receives them."""
    seen = []
    solve = profiles.solve_tridiagonal

    def spy(lower, diag, upper, rhs, check_finite=True):
        if len(diag) == profiles.CONTACT_NODES:
            seen.append((lower.copy(), diag.copy(), upper.copy(), rhs.copy()))
        return solve(lower, diag, upper, rhs, check_finite)

    profiles.solve_tridiagonal = spy
    try:
        ContactWave(generate_states(RIGHT, 0.08, 0.05, 0.08))
    finally:
        profiles.solve_tridiagonal = solve
    return seen


def test_solve_tridiagonal_matches_solve_banded():
    """Cyclic reduction agrees with scipy's pivoting solve_banded on the
    systems its three callers build, at every size class around its
    2^k - 1 padding, and raises ValueError on a non-finite input and
    LinAlgError on a singular matrix.  The worst relative max-norm
    differences, measured over 20 random systems per size up to 4097 and
    the Jacobians of four contact strengths, were 9e-16 on the
    ``_diffuse`` rows, 2e-15 on the clamped-spline rows and 2e-13 on the
    contact Newton Jacobians (row-dominance ratio 1 + 1e-6 to 1 + 4e-5,
    so no early stop); the bounds are about ten times those.  A general
    random tridiagonal matrix is outside the contract: the solver does
    not pivot."""
    rng = np.random.default_rng(3)

    def rel_err(lower, diag, upper, rhs):
        args = [np.array(a) for a in (lower, diag, upper, rhs)]
        got = profiles.solve_tridiagonal(*args)
        assert all(np.array_equal(a, b) for a, b in
                   zip(args, (lower, diag, upper, rhs)))   # inputs kept
        ref = _banded_oracle(lower, diag, upper, rhs)
        return np.abs(got - ref).max() / np.abs(ref).max()

    for n in TRIDIAGONAL_SIZES:
        rhs = rng.standard_normal(n)
        assert rel_err(*_diffuse_system(rng, n), rhs) <= 1e-14
        if n > 1:
            assert rel_err(*_spline_system(rng, n), rhs) <= 2e-14
    jacobians = _contact_jacobians()
    assert jacobians
    for lower, diag, upper, rhs in jacobians:
        assert rel_err(lower, diag, upper, rhs) <= 2e-12
        for n in TRIDIAGONAL_SIZES:         # leading principal blocks
            assert rel_err(lower[:n - 1], diag[:n], upper[:n - 1],
                           rng.standard_normal(n)) <= 2e-12
    lower, diag, upper = _diffuse_system(rng, 50)
    bad = rng.standard_normal(50)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        profiles.solve_tridiagonal(lower, diag, upper, bad)
    with pytest.raises(np.linalg.LinAlgError):
        profiles.solve_tridiagonal(np.zeros(1), np.zeros(2), np.zeros(1),
                                   np.ones(2))


def test_burgers_approaches_centered_fan():
    x = np.linspace(-4000, 100, 8001)

    def fan_gap(t):
        w, _ = burgers_w(-1.2, -0.6, t, x * t / 1000.0)
        fan = np.clip(x * t / 1000.0 / t, -1.2, -0.6)
        return np.abs(w - fan).max()

    assert fan_gap(1e4) < fan_gap(1e3)


# ---------------------------------------------------------------------------
# rarefaction
# ---------------------------------------------------------------------------

def test_rarefaction_signs_and_identity(decomp):
    y = np.linspace(-80, 40, 3001)
    p = RarefactionWave(decomp).eval(3.0, y)
    assert np.all(p.u1_y >= 0) and np.all(p.v_y >= 0) and np.all(p.theta_y <= 0)
    ident = p.v_y - 3.0 * p.v / np.sqrt(10.0 * p.theta) * p.u1_y
    assert np.abs(ident).max() <= 1e-8
    thid = p.theta_y + 2.0 * p.theta / (3.0 * p.v) * p.v_y
    assert np.abs(thid).max() <= 1e-8


def test_rarefaction_far_field(decomp):
    wave = RarefactionWave(decomp)
    t = 4.0
    lam_lo = -math.sqrt(10 * decomp.left.theta) / (3 * decomp.left.v)
    lam_hi = -math.sqrt(10 * decomp.mid_lo.theta) / (3 * decomp.mid_lo.v)
    far_left = wave.eval(t, np.array([lam_lo * (1 + t) - 6.0]))
    far_right = wave.eval(t, np.array([lam_hi * (1 + t) + 6.0]))
    tol = 30.0 * decomp.delta_r * math.exp(-12.0)
    assert abs(far_left.v[0] - decomp.left.v) <= tol
    assert abs(far_right.v[0] - decomp.mid_lo.v) <= tol


def test_rarefaction_equation_residual(decomp):
    """Centered time differences of the evaluator satisfy the inviscid
    system (the construction is exact up to the finite differencing)."""
    wave = RarefactionWave(decomp)
    y = np.linspace(-30, 20, 1501)
    t, dt = 3.0, 1e-5
    d0 = wave.eval(t, y)
    dp = wave.eval(t + dt, y)
    dm = wave.eval(t - dt, y)
    v_t = (dp.v - dm.v) / (2 * dt)
    u_t = (dp.u1 - dm.u1) / (2 * dt)
    th_t = (dp.theta - dm.theta) / (2 * dt)
    p = 2.0 * d0.theta / (3.0 * d0.v)
    p_x = np.gradient(p, y)
    scale = max(np.abs(d0.u1_y).max(), 1e-30)
    assert np.abs(v_t - d0.u1_y).max() / scale <= 1e-5
    assert np.abs(u_t + p_x).max() / np.abs(p_x).max() <= 1e-3
    assert np.abs(th_t + p * d0.u1_y).max() / scale <= 1e-4


def test_rarefaction_lp_bounds(decomp):
    wave = RarefactionWave(decomp)
    rate = 0.5 * (wave.w_plus - wave.w_minus)
    ts = np.geomspace(10.0 / rate, 1000.0 / rate, 8)
    lam_lo, lam_hi = wave.w_minus, wave.w_plus
    sups, l1s = [], []
    for t in ts:
        x = np.linspace(lam_lo * (1 + t) - 40, lam_hi * (1 + t) + 40, 4001)
        d = wave.eval(t, x)
        sups.append(np.max(d.u1_y))
        l1s.append(np.trapezoid(np.abs(d.u1_y), x))
    slope = loglog_slope(ts, np.asarray(sups))
    assert -1.1 <= slope <= -0.9
    l1s = np.asarray(l1s)
    assert np.max(np.abs(l1s - l1s[0])) / l1s[0] <= 0.02
    assert l1s[0] <= 4.0 * decomp.delta_r
    # second derivative (centred differences of u1_y) controlled by the first
    x = np.linspace(-40, 30, 2001)
    d = wave.eval(3.0, x)
    ratio = np.abs(np.gradient(d.u1_y, x)) / (np.abs(d.u1_y) + 1e-300)
    mask = np.abs(d.u1_y) > 1e-8 * np.abs(d.u1_y).max()
    assert np.max(ratio[mask]) < 50.0


def test_rarefaction_zero_strength_rejected():
    d0 = generate_states(RIGHT, 0.0, 0.1, 0.1)
    with pytest.raises(InvalidStrength):
        RarefactionWave(d0)


# ---------------------------------------------------------------------------
# contact wave
# ---------------------------------------------------------------------------

def test_contact_boundary_values(decomp):
    wave = ContactWave(decomp)
    assert wave.T[0] == pytest.approx(decomp.mid_lo.theta, abs=1e-12)
    assert wave.T[-1] == pytest.approx(decomp.mid_hi.theta, abs=1e-12)


def test_contact_pressure_exact(decomp):
    wave = ContactWave(decomp)
    x = np.linspace(-50, 50, 2001)
    d = wave.eval(2.0, x)
    p = 2.0 * d.theta / (3.0 * d.v)
    assert np.abs(p - pressure(decomp.mid_lo)).max() <= 1e-13


def test_contact_decay_exponents(decomp):
    wave = ContactWave(decomp)
    ts = np.geomspace(10, 1000, 8)
    sup_th, sup_q1, sup_q2 = [], [], []
    for t in ts:
        x = np.linspace(-30 * math.sqrt(1 + t), 30 * math.sqrt(1 + t), 3001)
        d = wave.eval(t, x)
        q1, q2 = wave.error_terms(t, x)
        sup_th.append(np.abs(d.theta_y).max())
        sup_q1.append(np.abs(q1).max())
        sup_q2.append(np.abs(q2).max())
    assert -0.55 <= loglog_slope(ts, np.asarray(sup_th)) <= -0.45
    assert -1.6 <= loglog_slope(ts, np.asarray(sup_q1)) <= -1.4
    assert -2.1 <= loglog_slope(ts, np.asarray(sup_q2)) <= -1.9


def test_contact_error_terms_match_eval(decomp):
    """error_terms against their definitions from eval: Q1 = u1_t -
    (4/3)(mu u1_x / v)_x by centred differences in t (step 1e-3 (1+t)) and
    x (4001 nodes over 40 sqrt(1+t)) at interior nodes, within 5e-3 of
    sup |Q1| (measured 1.1e-3, the spline-derivative difference error);
    Q2 = -(4/3) mu u1_x^2 / v from eval's values, within 1e-12 of
    sup |Q2|."""
    wave = ContactWave(decomp)
    mu = wave.transport.mu
    for t in (3.0, 20.0, 200.0):
        x = np.linspace(-20.0, 20.0, 4001) * math.sqrt(1.0 + t)
        dt = 1e-3 * (1.0 + t)
        d = wave.eval(t, x)
        u1_t = (wave.eval(t + dt, x).u1 - wave.eval(t - dt, x).u1) / (2.0 * dt)
        q1 = u1_t - (4.0 / 3.0) * np.gradient(mu(d.theta) * d.u1_y / d.v, x)
        q2 = -(4.0 / 3.0) * mu(d.theta) * d.u1_y ** 2 / d.v
        e1, e2 = wave.error_terms(t, x)
        assert np.abs(q1 - e1)[1:-1].max() <= 5e-3 * np.abs(e1).max()
        assert np.abs(q2 - e2).max() <= 1e-12 * np.abs(e2).max()


def test_contact_selfsimilar_ode_residual(decomp):
    """The collocation solution satisfies the similarity ODE; checked by
    independent spline differentiation between nodes."""
    wave = ContactWave(decomp)
    z = np.linspace(-10, 10, 1500)
    (T, _), (Tp, _) = wave._fields(z, slopes=True)
    kap = DEFAULT_TRANSPORT.kappa(T)
    flux = kap * Tp / T
    dflux = np.gradient(flux, z)
    resid = 0.9 * pressure(decomp.mid_lo) * dflux + 0.5 * z * Tp
    scale = np.abs(0.5 * z * Tp).max()
    assert np.abs(resid).max() / scale <= 2e-3


def _oracle_points(x):
    """The nodes of x, its cell midpoints and its two ends again."""
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), x[[0, -1]]])


def test_contact_interpolant_matches_clamped_cubic_spline(decomp):
    """The clamped slopes and the Hermite cubics give scipy's
    CubicSpline(bc_type="clamped") of T and of W = 0.6 kappa T'/T, values
    and first derivatives, to 1e-13 of each one's sup norm."""
    from scipy.interpolate import CubicSpline
    wave = ContactWave(decomp)
    z = _oracle_points(wave.z)
    t_ref = CubicSpline(wave.z, wave.T, bc_type="clamped")
    kap = DEFAULT_TRANSPORT.kappa(wave.T)
    w_ref = CubicSpline(wave.z, 0.6 * kap * t_ref(wave.z, 1) / wave.T,
                        bc_type="clamped")
    values, slopes = wave._fields(z, slopes=True)
    for got, ref in ((values[0], t_ref(z)), (slopes[0], t_ref(z, 1)),
                     (values[1], w_ref(z)), (slopes[1], w_ref(z, 1))):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_contact_gaussian_tail(decomp):
    wave = ContactWave(decomp)
    t = 15.0
    x = -np.linspace(2, 7, 25) * math.sqrt(1 + t)
    dev = np.abs(wave.eval(t, x).v - decomp.mid_lo.v)
    xi2 = x ** 2 / (1 + t)
    mask = dev > 0
    xc = xi2[mask] - xi2[mask].mean()
    slope = float(xc @ (np.log(dev[mask]) - np.log(dev[mask]).mean())
                  / (xc @ xc))
    assert slope < -0.05


# ---------------------------------------------------------------------------
# shock profile
# ---------------------------------------------------------------------------

def test_slope_quadratic_root_selected():
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    sig_star = sound_speed(mid)
    root = shock_slope_quadratic(mid, sig_star)
    assert root == pytest.approx(-pressure(mid), rel=1e-12)
    d = shock_decomposition(mid, 0.02)
    l2 = shock_slope_quadratic(mid, d.sigma)
    assert abs(l2 + pressure(mid)) <= 2.0 * 0.02
    l3 = shock_slope_quadratic(mid, d.sigma + 1e-8)
    assert abs(l3 - l2) <= 1e-6


def _assert_shock_relations(wave):
    """The profile is monotone, and u1_y, theta_y follow -sigma^* v_y and
    -p^* v_y to within 2 delta_S."""
    d = wave.decomp
    ds = d.delta_s
    p = wave.eval(np.linspace(-30 / ds, 30 / ds, 3001))
    assert np.all(p.v_y >= 0)
    assert np.all(p.u1_y <= 1e-14)
    assert np.all(p.theta_y <= 1e-12)
    mask = p.v_y > 1e-9 * ds ** 2
    c_vu = np.abs(p.u1_y + d.sigma_star * p.v_y)[mask] / p.v_y[mask]
    c_th = np.abs(p.theta_y + pressure(d.mid_hi) * p.v_y)[mask] / p.v_y[mask]
    assert c_vu.max() <= 2.0 * ds
    assert c_th.max() <= 2.0 * ds


def test_shock_monotonicity_and_relations():
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    for ds in (0.01, 0.02, 0.04, 0.08, 0.16):
        _assert_shock_relations(ShockProfile(shock_decomposition(mid, ds)))


@pytest.mark.parametrize("mid", [FluidTriple(v=1.0, theta=1.0),
                                 FluidTriple(v=0.92, u=(0.09, 0, 0),
                                             theta=1.05)])
@pytest.mark.parametrize("ds", [0.005, 0.003, 0.002, 0.001])
def test_weak_shock_builds(mid, ds):
    """Weak shocks down to delta_S = 1e-3 build in under a second: near the
    downstream saddle the 0/0 slope takes the downstream root, not the
    upstream one (which made the orbit's steps collapse there)."""
    start = time.process_time()
    wave = ShockProfile(shock_decomposition(mid, ds))
    assert time.process_time() - start < 1.0
    _assert_shock_relations(wave)


def test_nonmonotone_orbit_raises_blowup(monkeypatch):
    """An orbit whose y(v) is not strictly increasing on its nodes raises
    ProfileBlowup before the interpolant is built."""
    integrate = profiles._integrate_orbit

    def wiggled(*args):
        s, (phi, y), slopes = integrate(*args)
        return s, (phi, y + 1e3 * np.sin(1e3 * s)), slopes

    monkeypatch.setattr(profiles, "_integrate_orbit", wiggled)
    with pytest.raises(ProfileBlowup, match="strictly increasing"):
        ShockProfile(shock_decomposition(FluidTriple(v=1.0, theta=1.0), 0.05))


def test_orbit_step_floor_raises_blowup(monkeypatch):
    """An orbit whose slope turns NaN half-way shrinks its step down to
    the floor and raises ProfileBlowup there instead of hanging."""
    dy_dv = ShockProfile._dy_dv

    def broken(self, s, phi):
        return math.nan if s > self._s_mid else dy_dv(self, s, phi)

    monkeypatch.setattr(ShockProfile, "_dy_dv", broken)
    with pytest.raises(ProfileBlowup, match="fell below the floor"):
        ShockProfile(shock_decomposition(FluidTriple(v=1.0, theta=1.0), 0.05))


def test_orbit_step_cap_raises_blowup(monkeypatch):
    """An orbit that needs more step attempts than the cap raises
    ProfileBlowup (the kinetic-sanity shock takes about 620)."""
    monkeypatch.setattr(profiles, "SHOCK_MAX_STEPS", 100)
    with pytest.raises(ProfileBlowup, match="passed 100 step attempts"):
        ShockProfile(generate_states(RIGHT, 0.0, 0.0, 0.05))


def _reference_orbit(wave):
    """scipy's DOP853 at rtol 1e-13 on the plane system of ``wave``, from
    the same start: dense (phi, y) in s = v - v^*."""
    from scipy.integrate import solve_ivp
    ds = wave.decomp.delta_s
    eps = SHOCK_EPS_REL * ds
    return solve_ivp(
        lambda s, st: [wave._dtheta_dv(s, st[0]), wave._dy_dv(s, st[0])],
        (eps, (wave.v_plus - wave.v_star) - eps), [wave.lstar * eps, 0.0],
        method="DOP853", rtol=1e-13, atol=1e-13 * ds, dense_output=True,
        max_step=ds / 20.0).sol


@pytest.mark.parametrize("strengths", [(0.08, 0.05, 0.08), (0.02, 0.02, 0.05),
                                       (0.0, 0.0, 0.1)])
def test_shock_orbit_matches_reference(strengths):
    """At the orbit nodes the orbit agrees with scipy's DOP853 at rtol
    1e-13 (same start, same recentering at the mid-volume): theta within
    1e-8 delta_S and y within 2e-7 of the y-range (measured at most
    7.2e-11 delta_S and 5.4e-10)."""
    wave = ShockProfile(generate_states(RIGHT, *strengths))
    ds = wave.decomp.delta_s
    reference = _reference_orbit(wave)
    phi, y = reference(wave._s)
    y -= reference(wave._s_mid)[1]
    assert np.abs(wave._phi - phi).max() <= 1e-8 * ds
    assert np.abs(wave._y - y).max() <= 2e-7 * (y[-1] - y[0])


@pytest.mark.parametrize("strengths", [(0.08, 0.05, 0.08), (0.02, 0.02, 0.05)])
def test_shock_interpolant_stays_on_orbit(strengths):
    """At the nodes, between them and on a dense grid over the y-range,
    eval's theta(y) lies on scipy's DOP853 orbit at eval's v(y), within
    1e-9 delta_S, and eval's v_y is the plane system's dv/dy there, within
    1e-7 of its maximum (measured 1.2e-10 delta_S and 4.4e-9 on the
    criterion-9 shock, 1.0e-10 delta_S and 5.9e-9 on the kinetic-sanity
    one; with PCHIP node slopes the criterion-9 shock read 5.2e-5 delta_S
    and 1.8e-3, where two nodes sat 1.4e-15 delta_S apart)."""
    wave = ShockProfile(generate_states(RIGHT, *strengths))
    ds = wave.decomp.delta_s
    prof = wave.eval(np.concatenate([_oracle_points(wave._y),
                                     np.linspace(*wave.y_range, 100_001)]))
    s = prof.v - wave.v_star
    phi = _reference_orbit(wave)(s)[0]
    assert np.abs(prof.theta - (wave.theta_star + phi)).max() <= 1e-9 * ds
    v_y = wave.v_y_of(s, phi)
    assert np.abs(prof.v_y - v_y).max() <= 1e-7 * v_y.max()


@pytest.mark.parametrize("mid", [FluidTriple(v=1.0, theta=1.0),
                                 FluidTriple(v=0.92, u=(0.09, 0, 0),
                                             theta=1.05)])
@pytest.mark.parametrize("ds", [1e-3, 0.05, 0.08, 0.16])
def test_shock_resample_nodes_apart(mid, ds):
    """The interpolation nodes, the orbit's own accepted nodes: no two lie
    closer than 1e-9 delta_S (measured 1.5e-8 delta_S, the integrator's
    first step off the saddle or its last onto the end), and one is the
    mid-volume s = (v_+ - v^*)/2, where y is 0."""
    wave = ShockProfile(shock_decomposition(mid, ds))
    assert np.diff(wave._s).min() >= 1e-9 * ds
    assert wave._s[wave._mid] == 0.5 * (wave.v_plus - wave.v_star)
    assert wave._y[wave._mid] == 0.0


@pytest.mark.parametrize("ds", [0.02, 0.1, 0.001])
def test_shock_plane_system_residual(ds):
    """Finite differences of the sampled profile satisfy the two plane
    equations (scaled sup norm)."""
    d = shock_decomposition(FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05),
                            ds)
    wave = ShockProfile(d)
    y = np.linspace(-25 / ds, 25 / ds, 20001)
    prof = wave.eval(y)
    v_y_fd = np.gradient(prof.v, y)
    th_y_fd = np.gradient(prof.theta, y)
    mu = DEFAULT_TRANSPORT.mu(prof.theta)
    kap = DEFAULT_TRANSPORT.kappa(prof.theta)
    p = 2.0 * prof.theta / (3.0 * prof.v)
    p_star = pressure(d.mid_hi)
    r1 = -(4.0 / 3.0) * mu * d.sigma * v_y_fd / prof.v \
        - (p - p_star + d.sigma ** 2 * (prof.v - d.mid_hi.v))
    r2 = -kap * th_y_fd / (d.sigma * prof.v) \
        - (prof.theta - d.mid_hi.theta + p_star * (prof.v - d.mid_hi.v)
           - 0.5 * d.sigma ** 2 * (prof.v - d.mid_hi.v) ** 2)
    scale = np.abs(p - p_star).max()
    assert np.abs(r1[2:-2]).max() / scale <= 1e-5
    assert np.abs(r2[2:-2]).max() / scale <= 1e-5


def test_shock_orbit_slope_calls(monkeypatch):
    """The orbit of the kinetic-sanity shock (delta_S = 0.05) costs a few
    thousand slope calls; written in v, theta instead of the deviations
    from the saddle, cancellation in the 0/0 slope made it 55,100."""
    calls = []
    slope = ShockProfile._dtheta_dv

    def counted(self, s, phi):
        calls.append(1)
        return slope(self, s, phi)

    monkeypatch.setattr(ShockProfile, "_dtheta_dv", counted)
    ShockProfile(generate_states(FluidTriple(v=1.0, theta=1.0), 0, 0, 0.05))
    assert len(calls) <= 10_000


def test_shock_tail_rates_scale_with_strength():
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    rates = []
    for ds in (0.05, 0.1, 0.2):
        w = ShockProfile(shock_decomposition(mid, ds))
        y = np.linspace(5.0 / ds, 40.0 / ds, 300)
        rates.append(tail_decay_rate(y, w.decomp.right.v - w.eval(y).v))
    ratios = np.array(rates[1:]) / np.array(rates[:-1])
    assert np.all((ratios > 1.4) & (ratios < 2.6))


def test_shock_expansion_report():
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    ds = np.array([0.04, 0.08, 0.16])
    waves = [ShockProfile(shock_decomposition(mid, s)) for s in ds]
    lhs = np.array([expansion_lhs(w) for w in waves])
    pred = np.array([predicted_expansion_coefficient(w.decomp.mid_hi,
                                                     DEFAULT_TRANSPORT)
                     for w in waves])
    assert abs(lhs[0] / ds[0] / pred[0] - 1) <= 0.10
    # the residual beyond the linear term is O(delta_S^2)
    residuals = lhs - pred * ds
    ratios = residuals[1:] / residuals[:-1]
    assert np.all((ratios > 2.8) & (ratios < 5.2))
    assert abs(measured_curvature(waves[0])
               / predicted_curvature(mid, DEFAULT_TRANSPORT) - 1) \
        <= 3.0 * ds[0]


def test_shock_strength_guards():
    """A zero-strength shock and shocks below SHOCK_MIN_STRENGTH raise
    InvalidStrength at once: below it the orbit's steps collapse into
    ProfileBlowup after about 0.9 s (3e-4), or theta(v) is the saddle
    roots' straight lines wherever |den| < 1e-10 p^*, the whole orbit at
    1e-5."""
    from kinwave.riemann import RiemannDecomposition
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    degenerate = RiemannDecomposition(left=mid, mid_lo=mid, mid_hi=mid,
                                      right=mid, delta_r=0, delta_c=0,
                                      delta_s=0, sigma=sound_speed(mid))
    with pytest.raises(InvalidStrength):
        ShockProfile(degenerate)
    for ds in (1e-5, 3e-4):
        with pytest.raises(InvalidStrength, match="outside the supported"):
            ShockProfile(shock_decomposition(FluidTriple(v=1.0, theta=1.0),
                                             ds))


@pytest.mark.slow
def test_shock_micro_leading():
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    d = shock_decomposition(mid, 0.15)
    wave = ShockProfile(d)
    prof = shock_micro_leading(wave, grid_counts=(8, 8, 8), n_samples=9)
    # microscopic by construction
    from kinwave.velocity import moments, inner
    for h, y in zip(prof.fields, prof.y):
        m = moments(h, prof.grid)
        st = wave.eval(np.array([y]))
        scale = math.sqrt(prof.grid.integrate(h ** 2)) + 1e-300
        assert max(abs(m.rho), abs(m.E), max(abs(c) for c in m.m)) \
            <= 1e-6 * scale + 1e-12
    # norm tracks the macroscopic gradient
    ratio = prof.norms / prof.v_y
    assert ratio.max() / ratio.min() <= 10.0
    # tail decay rate proportional to the strength (log-linear fit)
    mask = prof.y > 0
    rate = tail_decay_rate(prof.y[mask], prof.norms[mask])
    assert 0.1 * d.delta_s <= rate <= 10.0 * d.delta_s


# ---------------------------------------------------------------------------
# all three families
# ---------------------------------------------------------------------------

#: per family: its evaluation on a grid y, and the span of that grid
FAMILIES = {
    "rarefaction": (lambda d, y: RarefactionWave(d).eval(3.0, y), (-60, 30)),
    "contact": (lambda d, y: ContactWave(d).eval(3.0, y), (-30, 30)),
    "shock": (lambda d, y: ShockProfile(d).eval(y), (-300, 300)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_first_derivatives_match_centred_differences(decomp, family):
    """v_y, u1_y and theta_y agree with centred differences of the values
    at interior nodes to 1e-3 of each derivative's sup norm (at these
    spacings the differences are good to about 1.5e-4)."""
    evaluate, span = FAMILIES[family]
    y = np.linspace(*span, 4001)
    p = evaluate(decomp, y)
    for val, der in ((p.v, p.v_y), (p.u1, p.u1_y), (p.theta, p.theta_y)):
        err = np.abs(np.gradient(val, y) - der)[1:-1]
        assert err.max() <= 1e-3 * np.abs(der).max()
