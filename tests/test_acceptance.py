"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured values at the stated tolerance.

Run with ``pytest -m acceptance -s`` (or the full suite).  The long
simulation criteria (9, 10) are also marked slow.
"""

import math
import time

import numpy as np
import pytest

from kinwave.ansatz import poincare_check, shift_H, shift_H_alpha_form
from kinwave.collision import (assemble_linearized, measure_dissipativity,
                               q_bilinear)
from kinwave.config import RunConfig
from kinwave.gas import DEFAULT_TRANSPORT, R_GAS, FluidTriple
from kinwave.profiles import (RarefactionWave, ShockProfile, expansion_lhs,
                              loglog_slope, predicted_expansion_coefficient)
from kinwave.reports import contact_checks, shock_checks
from kinwave.riemann import generate_states, shock_decomposition
from kinwave.solvers import (GaussianBump, KineticField, PerturbationSpec,
                             fluid_run, kinetic_step)
from kinwave.velocity import (VelocityGrid, grid_for_state, moments,
                              reference_maxwellian)

pytestmark = pytest.mark.acceptance

RIGHT = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)
MID_HI = FluidTriple(v=0.92, u=(0.09, 0.0, 0.0), theta=1.05)


def _report(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{flag}] {name}: {detail}")
    return passed


def _raw_chi(s, g):
    M = g.maxwellian(s)
    rho, a2 = s.rho, R_GAS * s.theta
    du = [g.node_array(i) - s.u[i] for i in range(3)]
    q = du[0] ** 2 + du[1] ** 2 + du[2] ** 2
    chi = [M / math.sqrt(rho)]
    chi += [du[i] / math.sqrt(a2 * rho) * M for i in range(3)]
    chi.append((q / a2 - 3.0) / math.sqrt(6.0 * rho) * M)
    return chi


def test_criterion_01_chi_orthonormality():
    """Basis orthonormality at 16^3 over random states; halves at 32^3."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst16 = 0.0
    worst_ratio = 0.0
    for _ in range(10):
        s = FluidTriple(v=rng.uniform(0.4, 2.5), u=tuple(rng.uniform(-1, 1, 3)),
                        theta=rng.uniform(0.4, 2.5))
        e = {}
        for n in (16, 32):
            g = grid_for_state(s, counts=(n,) * 3, extent_radii=7.0)
            chi = np.stack([c.reshape(-1) for c in _raw_chi(s, g)])
            G = g.weight * (chi / g.maxwellian(s).reshape(-1)) @ chi.T
            e[n] = float(np.max(np.abs(G - np.eye(5))))
        worst16 = max(worst16, e[16])
        worst_ratio = max(worst_ratio, e[32] / e[16])
    rt = time.perf_counter() - t0
    ok = worst16 <= 1e-5 and worst_ratio <= 0.5 and rt < 10.0
    assert _report(1, "chi orthonormality",
                   ok, f"max|Gram-I|(16^3)={worst16:.3e} (<=1e-5), "
                       f"err32/err16={worst_ratio:.3f} (<=0.5), "
                       f"runtime {rt:.1f}s (<10s)")


def test_criterion_02_collision_invariants():
    """Moment defect of Q(f,f) small and not degrading under refinement.

    With the exactly conservative axis rule the defect sits at the
    accumulation roundoff floor on both grids; the refinement clause is
    then asserted against that floor (printed), since comparing two
    sub-roundoff numbers as a ratio is meaningless.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    results = {}
    for n in (8, 12):
        worst = floor = 0.0
        for k in range(20):
            s = FluidTriple(v=rng.uniform(0.6, 1.6),
                            u=(rng.uniform(-0.5, 0.5), 0.0, 0.0),
                            theta=rng.uniform(0.6, 1.6))
            g = grid_for_state(s, counts=(n,) * 3, extent_radii=6.0)
            M = g.maxwellian(s)
            f = M * np.abs(1.0 + 0.5 * rng.standard_normal(g.counts))
            res = q_bilinear(f, f, g)
            mom = moments(res.total, g)
            defect = max(abs(mom.rho), abs(mom.E),
                         max(abs(x) for x in mom.m))
            norm2 = g.integrate(f ** 2)
            worst = max(worst, defect / norm2)
            # roundoff resolution: eps times the magnitude being cancelled
            gross = moments(np.abs(res.gain) + np.abs(res.loss), g)
            floor = max(floor, np.finfo(float).eps * gross.E / norm2)
        results[n] = (worst, floor)
    rt = time.perf_counter() - t0
    w8, f8 = results[8]
    w12, f12 = results[12]
    clause_a = w8 <= 1e-3
    clause_b = (w12 <= w8 / 3.0) or (w8 <= 10 * f8 and w12 <= 10 * f12)
    ok = clause_a and clause_b and rt < 120.0
    assert _report(2, "collision invariants", ok,
                   f"defect/|f|^2: 8^3 {w8:.3e} (<=1e-3, floor {f8:.1e}), "
                   f"12^3 {w12:.3e} (floor {f12:.1e}), runtime {rt:.1f}s (<2min)")


@pytest.mark.slow
def test_criterion_03_dissipativity():
    """sigma_tilde > 0 stable across two resolutions; kernel dim 5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    base = MID_HI
    mref = reference_maxwellian([base.theta], [base.v], [base.u1])
    sigmas = {}
    ndims = {}
    for n in (12, 16):
        g = grid_for_state(base, counts=(n,) * 3, extent_radii=6.0)
        op = assemble_linearized(base, g)
        sigmas[n] = measure_dissipativity(op, mref, 100, rng)
        _, ndims[n] = op.spectrum_meta()
    rt = time.perf_counter() - t0
    spread = abs(sigmas[16] / sigmas[12] - 1.0)
    ok = (sigmas[12] > 0 and sigmas[16] > 0 and spread <= 0.3
          and ndims[12] == 5 and ndims[16] == 5 and rt < 300.0)
    assert _report(3, "dissipativity", ok,
                   f"sigma~(12^3)={sigmas[12]:.3f}, sigma~(16^3)={sigmas[16]:.3f} "
                   f"(spread {spread:.2%} <=30%), null dims {ndims[12]}/{ndims[16]} "
                   f"(=5), runtime {rt:.0f}s (<5min)")


def test_criterion_04_shock_structure():
    """Monotonicity, jump residual, gradient constant, tail-rate scaling."""
    t0 = time.perf_counter()
    checks = shock_checks(MID_HI, strengths=(0.04, 0.08, 0.16))
    rt = time.perf_counter() - t0
    wanted = [c for c in checks if not c.name.startswith(
        ("shock_expansion", "shock_curvature"))]
    ok = all(c.passed for c in wanted) and rt < 5.0
    detail = "; ".join(f"{c.name}={c.measured:.3g}" for c in wanted
                       if "spread" in c.name or "doubling" in c.name)
    assert _report(4, "shock profile structure", ok,
                   detail + f"; runtime {rt:.1f}s (<5s)")


def test_criterion_05_expansion_coefficient():
    """Linear strength coefficient of the chord-slope difference."""
    t0 = time.perf_counter()
    ds = 0.04
    wave = ShockProfile(shock_decomposition(MID_HI, ds))
    measured = expansion_lhs(wave) / ds
    predicted = predicted_expansion_coefficient(MID_HI, DEFAULT_TRANSPORT)
    rel = abs(measured / predicted - 1)
    rt = time.perf_counter() - t0
    ok = rel <= 0.10 and rt < 10.0
    assert _report(5, "second-order expansion", ok,
                   f"measured {measured:.5g} vs predicted "
                   f"{predicted:.5g} at ds=0.04 "
                   f"(rel {rel:.2%} <=10%), runtime {rt:.1f}s (<10s)")


def test_criterion_06_rarefaction_decay():
    """Gradient sup-norm exponent -1 +- 0.1 over t in [10, 1e3]; constant
    L1 mass.  The pinned window requires the fan to be in its asymptotic
    regime by t=10, so the test uses a fast fan (hot base state)."""
    t0 = time.perf_counter()
    right = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=30.0)
    d = generate_states(right, 0.3, 0.0, 0.0)
    w = RarefactionWave(d)
    ts = np.geomspace(10.0, 1000.0, 12)
    sups, l1s = [], []
    for t in ts:
        x = np.linspace(w.w_minus * (1 + t) - 60, w.w_plus * (1 + t) + 60,
                        12001)
        dd = w.eval(t, x)
        sups.append(dd.u1_y.max())
        l1s.append(np.trapezoid(np.abs(dd.u1_y), x))
    slope = loglog_slope(ts, np.asarray(sups))
    l1s = np.asarray(l1s)
    l1_var = float(np.max(np.abs(l1s - l1s[0])) / l1s[0])
    rt = time.perf_counter() - t0
    ok = -1.1 <= slope <= -0.9 and l1_var <= 0.02 and rt < 5.0
    assert _report(6, "rarefaction decay", ok,
                   f"sup exponent {slope:.3f} (-1 +- 0.1), L1 variation "
                   f"{l1_var:.2e} (<=2%), runtime {rt:.1f}s (<5s)")


def test_criterion_07_contact_decay(decomp):
    """Self-similar decay exponents of the contact wave and its error
    terms."""
    t0 = time.perf_counter()
    checks = {c.name: c for c in contact_checks(decomp)}
    rt = time.perf_counter() - t0
    s_th = checks["contact_thetax_decay_exponent"]
    s_q1 = checks["contact_q1_decay_exponent"]
    s_q2 = checks["contact_q2_decay_exponent"]
    ok = all(c.passed for c in (s_th, s_q1, s_q2)) and rt < 10.0
    assert _report(7, "contact decay", ok,
                   f"theta_x exp {s_th.measured:.3f} (-0.5 +- 0.05), "
                   f"Q1 exp {s_q1.measured:.3f} (-1.5 +- 0.1), "
                   f"Q2 exp {s_q2.measured:.3f} (-2 +- 0.1), "
                   f"runtime {rt:.1f}s (<10s)")


def test_criterion_08_shift_constant_consistency():
    """The two closed forms of the shift coupling constant agree."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        s = FluidTriple(v=rng.uniform(0.3, 3.0),
                        u=(rng.uniform(-1, 1), 0.0, 0.0),
                        theta=rng.uniform(0.3, 3.0))
        ss = rng.uniform(0.5, 2.0)
        h1, h2 = shift_H(s, ss), shift_H_alpha_form(s, ss)
        worst = max(worst, abs(h1 - h2) / abs(h1))
    rt = time.perf_counter() - t0
    ok = worst <= 1e-14 and rt < 1.0
    assert _report(8, "shift constant consistency", ok,
                   f"max relative difference {worst:.2e} (<=1e-14), "
                   f"runtime {rt:.2f}s (<1s)")


@pytest.mark.slow
def test_criterion_09_fluid_stability_run():
    """Long composite-wave run at the pinned strengths and amplitude.

    The perturbation is a coherently signed displacement-like package
    centered on the shock layer, the natural experiment for the shift
    dynamics.  All four clauses are asserted exactly as stated and the
    measured values are printed.  Expected honest FAIL at these pinned
    parameters: the superposed profiles carry an intrinsic error floor
    (inviscid rarefaction corner layers; slowly relaxing interaction
    drift of the shift) that exceeds the thresholds tied to the 0.01
    amplitude at t = 200 for every admissible perturbation placement
    (three designs measured; see the project notes for the analysis).
    """
    t0 = time.perf_counter()
    d = generate_states(RIGHT, 0.08, 0.05, 0.08)
    pert = PerturbationSpec(bumps=(GaussianBump("v", 0.01, 0.0, 25.0),
                                   GaussianBump("u1", -0.01, 0.0, 25.0),
                                   GaussianBump("theta", -0.01, 0.0, 25.0)))
    cfg = RunConfig(y_min=-600.0, y_max=200.0, dy=0.2, t_end=200.0,
                    output_interval=2.0, perturbation=pert)
    res = fluid_run(d, cfg)
    rt = time.perf_counter() - t0
    s = res.summary
    max_xdot = s["xdot_max"]
    a = s["sup_final"] <= 0.5 * s["sup_initial"]
    b = abs(s["xdot_final"]) <= 0.2 * max_xdot
    c = abs(s["X_over_T"]) <= 0.1 * max_xdot
    e = s["entropy_final"] <= s["entropy_initial"]
    ok = a and b and c and e and s["blowup_time"] is None and rt < 900.0
    assert _report(
        9, "fluid stability run", ok,
        f"(a) sup {s['sup_final']:.4f} vs 0.5*{s['sup_initial']:.4f} "
        f"[{'ok' if a else 'fail'}]; "
        f"(b) |Xdot(T)|={abs(s['xdot_final']):.2e} vs 0.2*max={0.2 * max_xdot:.2e} "
        f"[{'ok' if b else 'fail'}]; "
        f"(c) |X/T|={abs(s['X_over_T']):.2e} vs 0.1*max={0.1 * max_xdot:.2e} "
        f"[{'ok' if c else 'fail'}]; "
        f"(d) E(T)={s['entropy_final']:.4f} vs E(0)={s['entropy_initial']:.4f} "
        f"[{'ok' if e else 'fail'}]; runtime {rt:.0f}s (<15min)")


@pytest.mark.slow
def test_criterion_10_kinetic_sanity():
    """Positivity, conservation and equilibrium steadiness of the coarse
    kinetic solver over 200 steps at the pinned sizes."""
    t0 = time.perf_counter()
    nx = 64
    s0 = FluidTriple(v=1.0, u=(0.05, 0.0, 0.0), theta=1.0)
    grid = VelocityGrid(center=(0.05, 0.0, 0.0),
                        half_width=6.0 * math.sqrt(R_GAS) + 0.05,
                        counts=(6,) * 3)
    y = np.linspace(-25.0, 25.0, nx)
    dt = 0.01          # keeps the perturbation interior over the 200 steps
    M = grid.maxwellian(s0)

    # equilibrium steadiness
    f_eq = KineticField(y, grid, np.tile(M, (nx, 1, 1, 1)))
    ref = f_eq.values.copy()
    for _ in range(200):
        f_eq = kinetic_step(f_eq, dt, 1.0)
    steady = float(np.abs(f_eq.values - ref).max() / ref.max())

    # positive perturbed run: positivity and conservation
    bump = 1.0 + 0.3 * np.exp(-(y / 5.0) ** 2)[:, None, None, None] \
        * np.exp(-(grid.node_array(0) - 0.6) ** 2)[None, ...]
    f = KineticField(y, grid, np.tile(M, (nx, 1, 1, 1)) * bump)
    inv0 = [moments(v, grid) for v in f.values]
    mass0 = float(np.trapezoid([m.rho for m in inv0], y))
    E0 = float(np.trapezoid([m.E for m in inv0], y))
    min_f = math.inf
    for _ in range(200):
        f = kinetic_step(f, dt, 1.0)
        min_f = min(min_f, float(f.values.min()))
    invT = [moments(v, grid) for v in f.values]
    drift = max(abs(float(np.trapezoid([m.rho for m in invT], y)) - mass0)
                / mass0,
                abs(float(np.trapezoid([m.E for m in invT], y)) - E0) / E0)
    rt = time.perf_counter() - t0
    ok = (min_f >= 0.0 and f.clip_defect <= 1e-8 * mass0
          and drift <= 1e-3 and steady <= 1e-6 and rt < 1200.0)
    assert _report(
        10, "kinetic solver sanity", ok,
        f"min f={min_f:.2e} (>=0), clip defect {f.clip_defect:.2e} "
        f"(<=1e-8*mass), conservation drift {drift:.2e} (<=1e-3), "
        f"Maxwellian steadiness {steady:.2e} (<=1e-6), "
        f"runtime {rt:.0f}s (<20min)")


def test_criterion_11_poincare():
    """Interval Poincare inequality with the exact equality case."""
    t0 = time.perf_counter()
    z = np.linspace(0.0, 1.0, 4001)
    rng = np.random.default_rng(111)
    all_ok = True
    for _ in range(100):
        coef = rng.standard_normal(5)
        f = sum(c * np.sin((k + 1) * math.pi * z + rng.uniform(0, 2.0))
                for k, c in enumerate(coef))
        lhs, rhs = poincare_check(z, f)
        all_ok = all_ok and lhs <= rhs * (1.0 + 1e-9)
    lhs_lin, rhs_lin = poincare_check(z, z)
    eq_err = abs(lhs_lin - rhs_lin) / rhs_lin
    rt = time.perf_counter() - t0
    ok = all_ok and eq_err <= 1e-6 and rt < 1.0
    assert _report(11, "Poincare inequality", ok,
                   f"100 random f all lhs<=rhs: {all_ok}, equality error for "
                   f"f=z {eq_err:.2e} (<=1e-6), runtime {rt:.2f}s (<1s)")
