import copy
import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from kinwave import solvers
from kinwave.ansatz import CompositeAnsatz
from kinwave.collision import assemble_linearized
from kinwave.config import RunConfig, load_config
from kinwave.errors import CFLViolation, NonphysicalState, PositivityLoss
from kinwave.gas import R_GAS, FluidTriple, primitive_fields
from kinwave.riemann import generate_states, shock_decomposition
from kinwave.solvers import (LINEARIZED_BLOCK, SHIFT_WINDOW, FluidField,
                             GaussianBump, KineticField,
                             LinearizedKineticSolver, PerturbationSpec,
                             cfl_limit, fluid_run, fluid_step,
                             initial_fluid_field, kinetic_step)
from kinwave.velocity import VelocityGrid, grid_spanning, moments

RIGHT = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)


def _const_field(n=101, span=10.0, v=1.0, u1=0.2, theta=1.1):
    y = np.linspace(-span, span, n)
    return FluidField(y, np.full_like(y, v), np.full_like(y, u1),
                      np.zeros_like(y), np.zeros_like(y),
                      np.full_like(y, theta))


# ---------------------------------------------------------------------------
# fluid solver
# ---------------------------------------------------------------------------

def test_constant_state_fixed_point():
    st = _const_field()
    dt = 0.5 * cfl_limit(st, 1.0)
    st2, _ = fluid_step(st, dt, 1.0)
    assert np.abs(st2.v - 1.0).max() <= 1e-14
    assert np.abs(st2.u1 - 0.2).max() <= 1e-14
    assert np.abs(st2.theta - 1.1).max() <= 1e-14


def test_cfl_violation_raised():
    st = _const_field()
    with pytest.raises(CFLViolation):
        fluid_step(st, 10.0 * cfl_limit(st, 1.0), 1.0)


def test_positivity_loss_detected():
    y = np.linspace(-5, 5, 101)
    v = np.full_like(y, 1.0)
    v[50] = 1e-3                          # thin cell under strong compression
    u1 = -5.0 * np.tanh(y)
    st = FluidField(y, v, u1, np.zeros_like(y), np.zeros_like(y),
                    np.full_like(y, 1.0))
    with pytest.raises(PositivityLoss):
        fluid_step(st, 1e-3, 0.0, check_cfl=False)


def test_nonfinite_state_rejected():
    st = _const_field()
    for name in ("v", "theta"):
        bad = {"v": st.v.copy(), "theta": st.theta.copy()}
        bad[name][10] = np.nan
        with pytest.raises(NonphysicalState):
            FluidField(st.y, bad["v"], st.u1, st.u2, st.u3, bad["theta"])
    st.u1[10] = np.nan                    # reaches v and theta in one stage
    with pytest.raises(PositivityLoss):
        fluid_step(st, 1e-3, 0.0, check_cfl=False)


def test_zero_transverse_velocity_skips_its_solves(monkeypatch):
    """Each implicit stage solves one tridiagonal system per velocity
    component and one for theta, except a component that is zero
    everywhere: that one stays exactly zero without a solve.  A nonzero u2
    is still solved, and with a source every component is, zero or not."""
    calls = []
    solve = solvers.solve_tridiagonal

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_tridiagonal", counting)
    st = _const_field()
    st.u1 = 0.2 + 0.05 * np.sin(st.y)
    dt = 0.5 * cfl_limit(st, 1.0)
    new, _ = fluid_step(st, dt, 1.0)
    assert len(calls) == 2 * 2                  # u1, theta per stage
    assert not new.u2.any() and not new.u3.any()
    calls.clear()
    st.u2 = 0.01 * np.exp(-st.y ** 2)
    new, _ = fluid_step(st, dt, 1.0)
    assert len(calls) == 2 * 3                  # u1, u2, theta per stage
    assert np.abs(new.u2[1:-1]).min() > 0.0 and not new.u3.any()
    calls.clear()
    st.u2 = np.zeros_like(st.y)
    new, _ = fluid_step(st, dt, 1.0,
                        source=lambda t, y: [np.zeros_like(y)] * 5)
    assert len(calls) == 2 * 4                  # u1, u2, u3, theta per stage
    assert not new.u2.any() and not new.u3.any()


def test_transverse_rows_mirror_and_planar_zero():
    """A u2-only bump and the mirrored u3-only bump evolve v, u1 and theta
    bit for bit alike and swap u2 with u3, and their boundary fluxes, over
    one step and over a short run.  A planar state keeps u2 = u3 = 0 and
    their boundary fluxes exactly zero."""
    d = generate_states(RIGHT, 0.05, 0.0, 0.1)
    ans = CompositeAnsatz(d)
    y = np.arange(-80.0, 80.0 + 0.05, 0.2)
    u1 = GaussianBump("u1", 0.01, 0.0, 5.0)

    def run(bumps, steps):
        st = initial_fluid_field(ans, y, PerturbationSpec(bumps=(u1, *bumps)))
        acc = np.zeros(5)
        for _ in range(steps):
            st, bflux = fluid_step(st, cfl_limit(st, d.sigma), d.sigma)
            acc += bflux
        return st, acc

    for steps in (1, 20):
        a, fa = run((GaussianBump("u2", 0.01, 20.0, 30.0),), steps)
        b, fb = run((GaussianBump("u3", 0.01, 20.0, 30.0),), steps)
        for name in ("v", "u1", "theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.u2, b.u3) and np.array_equal(a.u3, b.u2)
        assert np.abs(a.u2).max() > 0.0 and not a.u3.any()
        assert fa[2] != 0.0
        assert np.array_equal(fa, fb[[0, 1, 3, 2, 4]])
        p, fp = run((), steps)
        assert not p.u2.any() and not p.u3.any()
        assert np.all(fp[2:4] == 0.0)


def test_manufactured_solution_convergence_order():
    """Smooth manufactured fields forced through the solver converge at
    second order in the grid spacing."""
    sigma = 0.7

    def exact(t, y):
        v = 1.0 + 0.1 * np.sin(0.5 * y - 0.2 * t)
        u1 = 0.1 * np.cos(0.5 * y + 0.1 * t)
        th = 1.0 + 0.1 * np.cos(0.5 * y - 0.1 * t)
        return v, u1, th

    def source(t, y):
        # residual of the exact fields under the solved equations,
        # computed with tight centered differences (error << grid error)
        from kinwave.gas import DEFAULT_TRANSPORT as tr
        eps_t, eps_y = 1e-6, 1e-6

        def ddy(f):
            return (f(y + eps_y) - f(y - eps_y)) / (2 * eps_y)

        def ugrad(yy):
            return (exact(t, yy + eps_y)[1] - exact(t, yy - eps_y)[1]) \
                / (2 * eps_y)

        def tgrad(yy):
            return (exact(t, yy + eps_y)[2] - exact(t, yy - eps_y)[2]) \
                / (2 * eps_y)

        v, u1, th = exact(t, y)
        vp, up, tp = exact(t + eps_t, y)
        vm, um, tm = exact(t - eps_t, y)
        v_t, u_t, th_t = ((vp - vm) / (2 * eps_t), (up - um) / (2 * eps_t),
                          (tp - tm) / (2 * eps_t))
        v_y = ddy(lambda yy: exact(t, yy)[0])
        u_y = ddy(lambda yy: exact(t, yy)[1])
        th_y = ddy(lambda yy: exact(t, yy)[2])
        p_y = ddy(lambda yy: 2.0 * exact(t, yy)[2] / (3.0 * exact(t, yy)[0]))
        visc1 = ddy(lambda yy: (4.0 / 3.0) * tr.mu(exact(t, yy)[2])
                    * ugrad(yy) / exact(t, yy)[0])
        heat = ddy(lambda yy: tr.kappa(exact(t, yy)[2])
                   * tgrad(yy) / exact(t, yy)[0])
        work = ddy(lambda yy: (4.0 / 3.0) * tr.mu(exact(t, yy)[2])
                   * exact(t, yy)[1] * ugrad(yy) / exact(t, yy)[0])
        E_t = th_t + u1 * u_t
        E_y = th_y + u1 * u_y
        pu_y = ddy(lambda yy: 2.0 * exact(t, yy)[2] * exact(t, yy)[1]
                   / (3.0 * exact(t, yy)[0]))
        sv = v_t - sigma * v_y - u_y
        su = u_t - sigma * u_y + p_y - visc1
        sE = E_t - sigma * E_y + pu_y - heat - work
        z = np.zeros_like(y)
        return sv, su, z, z, sE

    errs = []
    for n in (101, 201):
        y = np.linspace(-2 * math.pi / 0.5, 2 * math.pi / 0.5, n)
        v, u1, th = exact(0.0, y)
        st = FluidField(y, v, u1, np.zeros_like(y), np.zeros_like(y), th)
        dt = 0.02 * st.dy ** 2      # time error subdominant
        t_end = 0.25
        nsteps = int(round(t_end / dt))
        for k in range(nsteps):
            # hold boundaries on the exact solution
            ve, ue, te = exact(st.t, st.y)
            st.v[0], st.v[-1] = ve[0], ve[-1]
            st.u1[0], st.u1[-1] = ue[0], ue[-1]
            st.theta[0], st.theta[-1] = te[0], te[-1]
            st, _ = fluid_step(st, dt, sigma, source=source, check_cfl=False)
        ve, ue, te = exact(st.t, st.y)
        errs.append(np.abs(st.v[1:-1] - ve[1:-1]).max()
                    + np.abs(st.theta[1:-1] - te[1:-1]).max())
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.3


def _bump(t, y, base, amp, center, width, T, T_t):
    """base + amp T(t) exp(-((y - center)/width)^2) and its y, yy and t
    derivatives."""
    z = (y - center) / width
    g = amp * np.exp(-z * z)
    return (base + T(t) * g, T(t) * g * (-2.0 * z / width),
            T(t) * g * (4.0 * z * z - 2.0) / width ** 2, T_t(t) * g)


def test_imex_time_order_manufactured():
    """At a fixed grid the step converges at second order in dt: a
    manufactured solution (bumps that vanish at the pinned ends, with
    time-varying transport coefficients) run at the advective step dt,
    dt/2 and dt/4.  Lagging mu/v and kappa/v over the step would give
    first order here."""
    from kinwave.gas import DEFAULT_TRANSPORT as tr
    sigma = 0.7
    spec = {"v": (1.0, 0.2, 1.0, 4.0, lambda t: math.sin(2 * t),
                  lambda t: 2 * math.cos(2 * t)),
            "u1": (0.1, 0.2, 0.0, 4.0, lambda t: math.cos(1.5 * t),
                   lambda t: -1.5 * math.sin(1.5 * t)),
            "u2": (0.0, 0.1, -1.0, 3.0, math.sin, math.cos),
            "theta": (1.0, 0.2, 0.5, 5.0, lambda t: math.cos(2 * t),
                      lambda t: -2 * math.sin(2 * t))}

    def fields(t, y):
        return [_bump(t, y, *spec[k]) for k in ("v", "u1", "u2", "theta")]

    def source(t, y):
        # residual of the exact fields under the solved equations, with
        # mu = A1 sqrt(theta), kappa = A2 sqrt(theta), A = mu/v
        (v, vy, _, vt), (u, uy, uyy, ut), (w, wy, wyy, wt), \
            (th, thy, thyy, tht) = fields(t, y)
        A = tr.A1 * np.sqrt(th) / v
        Ay = A * (0.5 * thy / th - vy / v)
        K, Ky = tr.A2 / tr.A1 * A, tr.A2 / tr.A1 * Ay
        p = 2.0 * th / (3.0 * v)
        py = p * (thy / th - vy / v)
        W = (4.0 / 3.0) * u * uy + w * wy
        Wy = (4.0 / 3.0) * (uy ** 2 + u * uyy) + wy ** 2 + w * wyy
        sv = vt - sigma * vy - uy
        su = ut - sigma * uy + py - (4.0 / 3.0) * (Ay * uy + A * uyy)
        sw = wt - sigma * wy - (Ay * wy + A * wyy)
        sE = (tht + u * ut + w * wt) - sigma * (thy + u * uy + w * wy) \
            + py * u + p * uy - (Ky * thy + K * thyy) - (Ay * W + A * Wy)
        return sv, su, sw, np.zeros_like(y), sE

    y = np.linspace(-30.0, 30.0, 241)
    v, u1, u2, th = (f[0] for f in fields(0.0, y))
    st0 = FluidField(y, v, u1, u2, np.zeros_like(y), th)
    t_end = 2.0
    n0 = math.ceil(t_end / cfl_limit(st0, sigma))
    finals = []
    for n in (n0, 2 * n0, 4 * n0):
        st = st0
        for _ in range(n):
            st, _ = fluid_step(st, t_end / n, sigma, source=source)
        finals.append(np.concatenate([st.v, st.u1, st.u2, st.theta]))
    e1, e2 = (np.abs(a - b).max() for a, b in zip(finals, finals[1:]))
    assert 1.8 <= math.log2(e1 / e2) <= 2.3


def test_fluid_run_time_order():
    """The run, shift included, converges at second order in the step:
    dt_factor 1, 1/2 and 1/4 on a composite with a rarefaction.  A shift
    advanced by forward Euler with Xdot frozen over the step would give
    first order in X."""
    d = generate_states(RIGHT, 0.05, 0.0, 0.1)
    pert = PerturbationSpec(bumps=(GaussianBump("v", 0.01, 0.0, 5.0),
                                   GaussianBump("u1", -0.01, 0.0, 5.0)))
    X, fields = [], []
    for factor in (1.0, 0.5, 0.25):
        cfg = RunConfig(y_min=-80, y_max=40, dy=0.5, t_end=2.0,
                        output_interval=2.0, perturbation=pert,
                        dt_factor=factor)
        res = fluid_run(d, cfg)
        X.append(res.summary["X_final"])
        fields.append(np.concatenate([res.final.v, res.final.u1,
                                      res.final.theta]))
    assert 1.8 <= math.log2(abs(X[0] - X[1]) / abs(X[1] - X[2])) <= 2.3
    e1, e2 = (np.abs(a - b).max() for a, b in zip(fields, fields[1:]))
    assert 1.8 <= math.log2(e1 / e2) <= 2.3


def test_cfl_limit_advective_at_criterion9_start():
    """With the viscous and heat terms implicit, the step at the
    criterion-9 initial state is the advective bound, at least 10x the
    explicit viscous bound 2.45e-3 that set it before."""
    d = generate_states(RIGHT, 0.08, 0.05, 0.08)
    pert = PerturbationSpec(bumps=(GaussianBump("v", 0.01, 0.0, 25.0),
                                   GaussianBump("u1", -0.01, 0.0, 25.0),
                                   GaussianBump("theta", -0.01, 0.0, 25.0)))
    y = np.arange(-600.0, 200.0 + 0.1, 0.2)
    st = initial_fluid_field(CompositeAnsatz(d), y, pert)
    assert cfl_limit(st, d.sigma) >= 10.0 * 2.45e-3


@pytest.mark.slow
def test_shock_profile_steady():
    d = shock_decomposition(FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05),
                            0.1)
    ans = CompositeAnsatz(d)
    y = np.arange(-150.0, 150.0 + 0.05, 0.2)
    st = initial_fluid_field(ans, y, PerturbationSpec())
    ref = copy.deepcopy(st)
    dt = cfl_limit(st, d.sigma)
    t_end = 50.0
    for _ in range(int(t_end / dt)):
        st, _ = fluid_step(st, dt, d.sigma, check_cfl=False)
    drift = max(np.abs(st.v - ref.v).max(), np.abs(st.u1 - ref.u1).max(),
                np.abs(st.theta - ref.theta).max())
    assert drift <= 1e-4


def test_conservative_form_bookkeeping():
    """Totals plus integrated boundary fluxes are conserved in the flux
    form to roundoff.  The composite carries a rarefaction, which is not
    stationary in the shock frame, so the boundary fluxes are O(delta_R)
    and a stepper that dropped them would fail."""
    d = generate_states(RIGHT, 0.05, 0.0, 0.1)
    ans = CompositeAnsatz(d)
    y = np.arange(-80.0, 80.0 + 0.05, 0.2)
    st = initial_fluid_field(ans, y, PerturbationSpec(
        bumps=(GaussianBump("u1", 0.01, 0.0, 5.0),
               GaussianBump("u2", 0.01, 0.0, 5.0))))

    def totals(s):
        E = s.theta + 0.5 * (s.u1 ** 2 + s.u2 ** 2 + s.u3 ** 2)
        return np.array([np.trapezoid(s.v, s.y), np.trapezoid(s.u1, s.y),
                         np.trapezoid(s.u2, s.y), np.trapezoid(s.u3, s.y),
                         np.trapezoid(E, s.y)])

    tot0 = totals(st)
    acc = np.zeros(5)
    while st.t < 2.0:
        st, bflux = fluid_step(st, cfl_limit(st, d.sigma), d.sigma)
        acc += bflux
    roundoff = np.finfo(float).eps * np.abs(tot0).max()
    # v, u1 and E cross the ends at O(delta_R) rates
    assert np.abs(acc[[0, 1, 4]]).min() >= 0.05
    assert np.abs(totals(st) - tot0 - acc).max() <= 100.0 * roundoff


def test_frame_consistency_shifted_vs_unshifted():
    """Evolving in the moving frame equals evolving in the rest frame and
    shifting coordinates afterwards (interpolation-level agreement)."""
    d = shock_decomposition(FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05),
                            0.1)
    ans = CompositeAnsatz(d)
    y = np.arange(-120.0, 120.0 + 0.05, 0.2)
    pert = PerturbationSpec(bumps=(GaussianBump("theta", 0.01, 0.0, 6.0),))
    st_shift = initial_fluid_field(ans, y, pert)
    st_rest = copy.deepcopy(st_shift)
    t_end = 2.0
    dt = 0.5 * cfl_limit(st_shift, d.sigma)
    n = int(round(t_end / dt))
    for _ in range(n):
        st_shift, _ = fluid_step(st_shift, dt, d.sigma, check_cfl=False)
        st_rest, _ = fluid_step(st_rest, dt, 0.0, check_cfl=False)
    t = n * dt
    # sample the rest-frame solution at y + sigma t
    inner = (np.abs(y) < 60.0)
    v_cmp = np.interp(y[inner] + d.sigma * t, y, st_rest.v)
    assert np.abs(v_cmp - st_shift.v[inner]).max() <= 1e-4


def test_fluid_run_zero_pert_zero_shift():
    d = generate_states(RIGHT, 0.0, 0.0, 0.1)
    cfg = RunConfig(y_min=-60, y_max=40, dy=0.5, t_end=1.0,
                    output_interval=0.5, perturbation=PerturbationSpec())
    res = fluid_run(d, cfg)
    assert res.summary["xdot_max"] <= 1e-8
    assert res.frames[-1].entropy <= 1e-10
    assert res.summary["blowup_time"] is None


def test_fluid_run_shift_independent_of_output_interval():
    """X solves one ODE whatever the output cadence: a frame evaluates the
    shift integral on the same window as the steps between frames.  The
    window (half-width 15/0.16 about 94) is narrower than the grid."""
    d = generate_states(RIGHT, 0.06, 0.04, 0.16)
    pert = PerturbationSpec(bumps=(GaussianBump("v", 0.01, 5.0, 8.0),
                                   GaussianBump("theta", -0.005, 0.0, 6.0)))
    runs = [fluid_run(d, RunConfig(y_min=-200, y_max=120, dy=0.5, t_end=1.0,
                                   output_interval=interval,
                                   perturbation=pert))
            for interval in (1.0, 0.25)]
    coarse, fine = runs
    assert len(fine.frames) > len(coarse.frames)
    for key in ("X_final", "xdot_max"):
        assert fine.summary[key] == coarse.summary[key]
    for attr in ("Xdot", "entropy"):
        assert getattr(fine.frames[-1], attr) == getattr(coarse.frames[-1],
                                                         attr)


def test_fluid_run_initial_xdot_sign():
    d = generate_states(RIGHT, 0.0, 0.0, 0.1)
    pert = PerturbationSpec(bumps=(GaussianBump("u1", 0.01, 0.0, 5.0),))
    cfg = RunConfig(y_min=-60, y_max=40, dy=0.5, t_end=0.2,
                    output_interval=0.1, perturbation=pert)
    res = fluid_run(d, cfg)
    assert res.frames[0].Xdot > 0        # -(H/dS) int a u^S_y psi_1 > 0


# ---------------------------------------------------------------------------
# kinetic solver
# ---------------------------------------------------------------------------

def _kinetic_setup(counts=(6,) * 3, ny=24, span=8.0):
    s0 = FluidTriple(v=1.0, u=(0.1, 0.0, 0.0), theta=1.0)
    grid = VelocityGrid(center=(0.1, 0, 0),
                        half_width=6 * math.sqrt(R_GAS) + 0.1, counts=counts)
    y = np.linspace(-span, span, ny)
    M = grid.maxwellian(s0)
    vals = np.tile(M, (ny, 1, 1, 1))
    return s0, grid, y, vals


def test_kinetic_field_rejects_wrong_shape():
    """The values must be one velocity lattice per cell."""
    s0, grid, y, vals = _kinetic_setup(ny=8)
    with pytest.raises(ValueError):
        KineticField(y, grid, vals[:-1])
    with pytest.raises(ValueError):
        KineticField(y, grid, vals[..., :-1])


def test_kinetic_maxwellian_steady():
    s0, grid, y, vals = _kinetic_setup()
    f = KineticField(y, grid, vals.copy())
    for _ in range(10):
        f = kinetic_step(f, 0.02, 1.0)
    assert np.abs(f.values - vals).max() <= 1e-12 * vals.max()
    assert f.clip_defect == 0.0


def _perturbed_kinetic_field(ny=24):
    s0, grid, y, vals = _kinetic_setup(ny=ny)
    mod = 1.0 + 0.3 * np.sin(np.linspace(0, 3, ny))[:, None, None, None] \
        * np.exp(-(grid.node_array(0) - 0.5) ** 2)[None, ...]
    return KineticField(y, grid, vals * mod)


def test_kinetic_positivity_and_conservation():
    f = _perturbed_kinetic_field(ny=32)
    grid, y = f.grid, f.y
    inv0 = [moments(v, grid) for v in f.values]
    mass0 = np.trapezoid([m.rho for m in inv0], y)
    E0 = np.trapezoid([m.E for m in inv0], y)
    for _ in range(40):
        f = kinetic_step(f, 0.02, 1.0)
    assert f.values.min() >= 0.0
    assert f.clip_defect <= 1e-8 * mass0
    invT = [moments(v, grid) for v in f.values]
    massT = np.trapezoid([m.rho for m in invT], y)
    ET = np.trapezoid([m.E for m in invT], y)
    assert abs(massT - mass0) / mass0 <= 1e-3
    assert abs(ET - E0) / E0 <= 1e-3


def _kinetic_H(field: KineticField) -> float:
    """H = int f ln f dxi dy."""
    f = field.values
    safe = np.where(f > 0, f, 1.0)
    per_y = field.grid.weight * np.sum(f * np.log(safe), axis=(1, 2, 3))
    return float(np.trapezoid(per_y, field.y))


def test_kinetic_H_nonincreasing_homogeneous():
    """H falls at every step of a homogeneous run.  The datum correlates
    xi1 with xi2: the default axis rule conserves each coordinate marginal,
    so Q(f, f) = 0 for a product f1(xi1) f2(xi2) f3(xi3), and a product
    datum would leave H constant."""
    s0, grid, y, vals = _kinetic_setup(ny=16)
    xi1, xi2 = grid.node_array(0), grid.node_array(1)
    bump = vals[0] * (1.0 + 0.3 * np.exp(-(xi1 - xi2) ** 2))
    f = KineticField(y, grid, np.tile(bump, (16, 1, 1, 1)))
    H = [_kinetic_H(f)]
    for _ in range(15):
        f = kinetic_step(f, 0.02, 0.0)
        H.append(_kinetic_H(f))
    assert np.max(np.diff(H)) <= 1e-10 * abs(H[0])
    assert H[0] - H[-1] >= 1e-3 * abs(H[0])


def _uniform_kinetic_field(counts, ny=8):
    s0 = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)
    grid = VelocityGrid(half_width=5.0, counts=counts)
    y = np.linspace(-5, 5, ny)
    return KineticField(y, grid, np.tile(grid.maxwellian(s0), (ny, 1, 1, 1)))


@pytest.mark.parametrize("bad", ["nan", "negative"])
def test_kinetic_readout_rejects_bad_cell(bad):
    s0 = FluidTriple(v=1.0, u=(0.1, 0.0, 0.0), theta=1.0)
    grid = VelocityGrid(center=(0.1, 0, 0), half_width=5.0, counts=(6,) * 3)
    y = np.linspace(-5, 5, 8)
    vals = np.tile(grid.maxwellian(s0), (8, 1, 1, 1))
    vals[3] = np.nan if bad == "nan" else -vals[3]
    f = KineticField(y, grid, vals)
    with pytest.raises(NonphysicalState):
        primitive_fields(moments(vals, grid))
    with pytest.raises(NonphysicalState):
        kinetic_step(f, 0.01, 1.0)
    with pytest.raises(NonphysicalState):
        LinearizedKineticSolver(f, 1.0, 0.01)


def test_kinetic_linearized_source_driven(decomp):
    """Exact local-Maxwellian data stays close to equilibrium: the
    microscopic part remains at the streaming-source scale."""
    ans = CompositeAnsatz(decomp)
    grid = VelocityGrid(center=(0.05, 0, 0), half_width=5.2, counts=(6,) * 3)
    y = np.linspace(-12, 12, 24)
    fr = ans.frame(0.0, 0.0, y)
    u = np.zeros((len(y), 3))
    u[:, 0] = fr.u1
    f = KineticField(y, grid, grid.maxwellian((fr.v, u, fr.theta)))

    def deviation(field):
        out = 0.0
        for i in range(len(y)):
            m = moments(field.values[i], grid)
            u = np.asarray(m.m) / m.rho
            th = (m.E - 0.5 * float(np.asarray(m.m) @ np.asarray(m.m))
                  / m.rho) / m.rho
            M = grid.maxwellian(FluidTriple(v=1.0 / m.rho, u=tuple(u),
                                            theta=th))
            out = max(out, np.abs(field.values[i] - M).max() / M.max())
        return out

    solver = LinearizedKineticSolver(f, decomp.sigma, 0.02)
    for _ in range(10):
        f = solver.step(f)
    dev10 = deviation(f)
    for _ in range(10):
        f = solver.step(f)
    dev20 = deviation(f)
    # non-equilibrium content saturates at the streaming-source scale
    assert dev10 <= 0.2
    assert dev20 <= max(1.5 * dev10, 0.2)



def _sanity_run(t_end=4.0, **micro):
    """The kinetic-sanity preset, with ``micro`` as its perturbation, and
    its decomposition."""
    cfg = load_config(preset="kinetic-sanity")
    cfg.t_end = t_end
    cfg.perturbation = PerturbationSpec(**micro)
    return generate_states(cfg.right_state, cfg.delta_r, cfg.delta_c,
                           cfg.delta_s), cfg


@pytest.mark.parametrize("counts", [6, 8])
def test_initial_kinetic_micro_mode_leaves_moments(counts):
    """The He3 micro mode is projected onto the lattice's microscopic
    subspace: per cell, the five moments of the perturbed initial field
    equal the unperturbed ones.  Unprojected, its x-momentum on 6^3 is
    -0.41 times its absolute mass."""
    d, cfg = _sanity_run()
    cfg.velocity_counts = counts
    base = solvers.initial_kinetic_field(d, cfg)
    cfg.perturbation = PerturbationSpec(micro_amplitude=0.05,
                                        micro_center=2.0, micro_width=4.0)
    bumped = solvers.initial_kinetic_field(d, cfg)
    assert np.abs(bumped.values - base.values).max() \
        > 1e-3 * base.values.max()
    m0, m1 = (moments(f.values, f.grid) for f in (base, bumped))
    assert np.all(np.abs(m1.rho - m0.rho) <= 1e-12 * m0.rho)
    assert np.all(np.abs(m1.m - m0.m).max(axis=-1) <= 1e-12 * m0.rho)
    assert np.all(np.abs(m1.E - m0.E) <= 1e-12 * m0.E)


def test_initial_kinetic_field_takes_the_bumps():
    """The kinetic run starts from the local Maxwellians of
    ``initial_fluid_field`` on its own cells, so ``[perturbation] bumps``
    reach it, transverse velocity included."""
    d, cfg = _sanity_run()
    base = solvers.initial_kinetic_field(d, cfg)
    cfg.perturbation = PerturbationSpec(bumps=(
        GaussianBump("v", 0.2, 0.0, 3.0), GaussianBump("u2", 0.05, 0.0, 3.0),
        GaussianBump("theta", -0.1, 0.0, 3.0)))
    bumped = solvers.initial_kinetic_field(d, cfg)
    fluid = initial_fluid_field(CompositeAnsatz(d, cfg.transport),
                                bumped.y, cfg.perturbation)
    u = np.stack([fluid.u1, fluid.u2, fluid.u3], axis=-1)
    assert np.array_equal(
        bumped.values, bumped.grid.maxwellian((fluid.v, u, fluid.theta)))
    assert np.abs(bumped.values - base.values).max() \
        > 1e-2 * base.values.max()


@pytest.mark.parametrize("linearized", [False, True])
def test_kinetic_run_hands_progress_its_frames(linearized):
    """``progress`` receives each frame as it is recorded: the very dicts
    that the result's frames hold, in order."""
    d, cfg = _sanity_run(t_end=0.1)
    seen = []
    res = solvers.kinetic_run(d, cfg, linearized, progress=seen.append)
    assert len(seen) == res.steps == 5
    assert all(a is b for a, b in zip(seen, res.frames, strict=True))
    assert res.final.t == pytest.approx(0.1)
    assert res.summary["steps"] == 5
    assert ("operator_drift" in res.summary) == linearized


def _cubic_interp_column(values, foot_idx):
    """Cubic Lagrange interpolation along the first axis at the fractional
    indices ``foot_idx`` (one per row), clamped to the boundary values."""
    n = values.shape[0]
    idx = np.clip(foot_idx, 0.0, n - 1.0)
    i1 = np.clip(np.floor(idx).astype(int), 1, n - 3)
    s = idx - i1
    w0 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w1 = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
    w2 = -(s + 1.0) * s * (s - 2.0) / 2.0
    w3 = (s + 1.0) * s * (s - 1.0) / 6.0
    sl = (slice(None),) + (None,) * (values.ndim - 1)
    return (w0[sl] * values[i1 - 1] + w1[sl] * values[i1]
            + w2[sl] * values[i1 + 1] + w3[sl] * values[i1 + 2])


def test_transport_matches_per_column_loop():
    """The one-gather transport is bit-identical to interpolating each xi1
    column of the lattice in turn."""
    f = _perturbed_kinetic_field()
    grid = f.grid
    dt, sigma = 0.05, 0.7
    v, u, _ = primitive_fields(moments(f.values, grid))
    want = np.empty_like(f.values)
    yidx = np.arange(len(f.y))
    for i1, xi1 in enumerate(grid.axes[0]):
        c = (xi1 - u[:, 0]) / v - sigma
        want[:, i1] = _cubic_interp_column(f.values[:, i1],
                                           yidx - c * dt / f.dy)
    clip = abs(float(np.sum(np.minimum(want, 0.0)) * grid.weight * f.dy))
    np.maximum(want, 0.0, out=want)
    got, got_clip = solvers._transport_semilagrangian(f, dt, sigma)
    assert np.array_equal(got, want)
    assert got_clip == clip


def _assert_step_matches_lu_solve(f, sigma=1.0, dt=0.02):
    """One step of a ``LinearizedKineticSolver`` on ``f`` agrees with the
    step that makes one dense LU solve per block; returns the solver."""
    grid = f.grid
    ny = len(f.y)
    solver = LinearizedKineticSolver(f, sigma, dt)
    got = solver.step(f).values
    star, _ = solvers._transport_semilagrangian(f, dt, sigma)
    M = grid.maxwellian(primitive_fields(moments(star, grid)))
    G = (star - M).reshape(ny, -1)
    want = M.reshape(G.shape).copy()
    v, u, theta = primitive_fields(moments(f.values, grid))
    for start in range(0, ny, LINEARIZED_BLOCK):
        cells = slice(start, min(start + LINEARIZED_BLOCK, ny))
        m = (cells.start + cells.stop) // 2
        op = assemble_linearized(
            FluidTriple(v=float(v[m]), u=tuple(u[m]), theta=float(theta[m])),
            grid, gram_tol=0.5)
        N = grid.n_nodes
        L = op.apply(np.eye(N).reshape((N,) + grid.counts)).reshape(N, N).T
        lu = lu_factor(np.eye(N) - dt * L)
        want[cells] += lu_solve(lu, G[cells].T).T
    want = want.reshape(star.shape)
    want[[0, -1]] = f.values[[0, -1]]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    return solver


def test_linearized_propagator_matches_lu_solve():
    """One step with the block propagators P = (I - dt L)^{-1} agrees with
    the step that makes one LU solve per block."""
    _assert_step_matches_lu_solve(_perturbed_kinetic_field())


def test_linearized_mixed_mirror_axes():
    """Blocks whose operators have different mirrored axes, and a last
    block shorter than LINEARIZED_BLOCK: 20 cells, the first block left at
    the Maxwellian the lattice is centred on (mirrored in all three axes),
    the others perturbed in xi1 (mirrored in xi2 and xi3)."""
    f = _perturbed_kinetic_field(ny=20)
    s0, grid, _, vals = _kinetic_setup(ny=20)
    f.values[:LINEARIZED_BLOCK] = vals[:LINEARIZED_BLOCK]
    solver = _assert_step_matches_lu_solve(f)
    assert sorted(solver.sectors) == [(0, 1, 2), (1, 2)]


@pytest.mark.parametrize("n", [6, 8, 10])
def test_sector_propagators_match_dense(n):
    """Five steps with the sector propagators of each block's operator (4
    sectors on a ``grid_spanning`` lattice) agree to 1e-13 relative with
    five steps with the dense P = (I - dt L)^{-1}, L the N x N matrix
    that ``apply`` gives on the unit vectors."""
    ends = [FluidTriple(v=1.0, u=(-0.2, 0.0, 0.0), theta=1.0),
            FluidTriple(v=0.9, u=(0.3, 0.0, 0.0), theta=1.1)]
    grid = grid_spanning(ends, (n,) * 3)
    ny, dt, sigma, N = 16, 0.02, 0.5, grid.n_nodes
    y = np.linspace(-8.0, 8.0, ny)
    u = np.zeros((ny, 3))
    u[:, 0] = 0.05 + 0.2 * np.tanh(y / 3.0)
    vals = grid.maxwellian((1.0 - 0.05 * np.tanh(y / 3.0), u,
                            1.0 + 0.05 * np.tanh(y / 3.0)))
    vals *= 1.0 + 0.2 * np.sin(y)[:, None, None, None] \
        * np.exp(-(grid.node_array(0) - 0.3) ** 2 - grid.node_array(2) ** 2)
    f = g = KineticField(y, grid, vals)
    solver = LinearizedKineticSolver(f, sigma, dt)
    assert list(solver.sectors) == [(1, 2)]
    v, u, theta = primitive_fields(moments(f.values, grid))
    dense = []
    for start in range(0, ny, LINEARIZED_BLOCK):
        cells = slice(start, start + LINEARIZED_BLOCK)
        m = start + LINEARIZED_BLOCK // 2
        op = assemble_linearized(
            FluidTriple(v=float(v[m]), u=tuple(u[m]), theta=float(theta[m])),
            grid, gram_tol=0.5)
        L = op.apply(np.eye(N).reshape((N,) + grid.counts)).reshape(N, N).T
        dense.append((cells, lu_solve(lu_factor(np.eye(N) - dt * L),
                                      np.eye(N))))
    for _ in range(5):
        f = solver.step(f)
        star, _ = solvers._transport_semilagrangian(g, dt, sigma)
        M = grid.maxwellian(primitive_fields(moments(star, grid)))
        G = (star - M).reshape(ny, -1)
        want = M.reshape(G.shape)
        for cells, P in dense:
            want[cells] += G[cells] @ P.T
        want = want.reshape(star.shape)
        want[[0, -1]] = g.values[[0, -1]]
        g = KineticField(y, grid, want, g.t + dt)
        assert np.abs(f.values - want).max() <= 1e-13 * np.abs(want).max()


def test_linearized_operator_drift():
    """The drift is the largest relative distance of a transported cell's
    (v, u, theta) from the state its block's operator is frozen at, here
    recomputed from the middle cell of each block.  Uniform Maxwellian
    data reads zero to roundoff on its first step (later steps mix the
    pinned end cells into the relaxed interior, which moves the states
    near the ends); the field keeps the running maximum."""
    f = _uniform_kinetic_field((6,) * 3, ny=24)
    assert LinearizedKineticSolver(f, 0.3, 0.02).step(f).operator_drift \
        <= 1e-14
    f = _perturbed_kinetic_field()
    grid, ny = f.grid, len(f.y)
    solver = LinearizedKineticSolver(f, 1.0, 0.02)
    one = solver.step(f)
    v0, u0, theta0 = primitive_fields(moments(f.values, grid))
    star, _ = solvers._transport_semilagrangian(f, 0.02, 1.0)
    v, u, theta = primitive_fields(moments(star, grid))
    want = 0.0
    for i in range(ny):
        start = i - i % LINEARIZED_BLOCK
        m = (start + min(start + LINEARIZED_BLOCK, ny)) // 2
        want = max(want, abs(v[i] / v0[m] - 1.0),
                   abs(theta[i] / theta0[m] - 1.0),
                   float(np.linalg.norm(u[i] - u0[m]))
                   / math.sqrt(R_GAS * theta0[m]))
    assert want > 0.0
    assert one.operator_drift == pytest.approx(want, rel=1e-12)
    assert solver.step(one).operator_drift >= one.operator_drift


@pytest.mark.slow
def test_kinetic_full_vs_linearized_agreement():
    s0, grid, y, vals = _kinetic_setup(ny=32, span=10.0)
    pert = vals * (1.0 + 0.1 * np.sin(np.linspace(0, 3, 32))[:, None, None, None]
                   * np.exp(-(grid.node_array(0) - 0.5) ** 2)[None, ...])
    ff = KineticField(y, grid, pert.copy())
    fl = KineticField(y, grid, pert.copy())
    solver = LinearizedKineticSolver(fl, 1.0, 0.02)
    for _ in range(50):
        ff = kinetic_step(ff, 0.02, 1.0)
        fl = solver.step(fl)
    num = np.sqrt(np.sum((ff.values - fl.values) ** 2))
    den = np.sqrt(np.sum((ff.values - vals) ** 2))
    assert num / den <= 0.10


def test_windowed_shift_matches_full_frame():
    """The shift integral on the window that ``fluid_run`` uses agrees
    with the full-domain integral."""
    from kinwave.ansatz import CompositeAnsatz, shift_H, shift_rhs
    d = generate_states(RIGHT, 0.08, 0.05, 0.08)
    ans = CompositeAnsatz(d)
    y = np.arange(-600.0, 200.0 + 0.1, 0.2)
    pert = PerturbationSpec(bumps=(GaussianBump("v", 0.01, 0.0, 25.0),
                                   GaussianBump("u1", -0.01, 0.0, 25.0)))
    st = initial_fluid_field(ans, y, pert)
    H = shift_H(d.mid_hi, d.sigma_star)
    window = SHIFT_WINDOW / d.delta_s
    for X in (0.0, -1.5, 2.0):
        full = shift_rhs((st.v, st.u1, st.theta), ans.frame(3.0, X, y),
                         d.delta_s, H)
        i0 = int(np.searchsorted(y, X - window))
        i1 = int(np.searchsorted(y, X + window)) + 1
        win = shift_rhs((st.v[i0:i1], st.u1[i0:i1], st.theta[i0:i1]),
                        ans.frame(3.0, X, y[i0:i1]), d.delta_s, H)
        assert win == pytest.approx(full, rel=1e-6)
