"""Quantitative property checks for the wave profiles and collision
operator, shared by the CLI reports and the acceptance suite.

Every check yields a named record with the measured value, the bound it is
held to, and a pass flag; nothing passes silently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .gas import (DEFAULT_TRANSPORT, FluidTriple, TransportLaw, pressure,
                  sound_speed)
from .profiles import (ContactWave, RarefactionWave, ShockProfile,
                       expansion_lhs, loglog_slope, measured_curvature,
                       predicted_curvature, predicted_expansion_coefficient,
                       tail_decay_rate)
from .riemann import (RiemannDecomposition, rh_residual, shock_decomposition)


@dataclass
class Check:
    name: str
    measured: float
    bound: str
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        d = asdict(self)
        d["measured"] = float(self.measured)
        return d


def _fan_rate(wave: RarefactionWave) -> float:
    """Largest slope of the initial speed ramp: the decay of the gradient
    sup norm enters its t^-1 regime for t >> 1/rate."""
    return 0.5 * (wave.w_plus - wave.w_minus)


def rarefaction_checks(decomp: RiemannDecomposition) -> list[Check]:
    """Monotonicity, the speed/volume gradient identity, gradient-norm
    decay and far-field tails of the approximate rarefaction."""
    wave = RarefactionWave(decomp)
    checks = []
    lam_lo = -sound_speed(decomp.left)
    lam_hi = -sound_speed(decomp.mid_lo)
    t0 = 1.0
    x = np.linspace(lam_lo * (1 + t0) - 30.0, lam_hi * (1 + t0) + 30.0, 4001)
    prof = wave.eval(t0, x)
    checks.append(Check(
        "rarefaction_signs",
        float(min(np.min(prof.u1_y), np.min(prof.v_y), np.min(-prof.theta_y))),
        ">= 0 (u1_x > 0, v_x > 0, theta_x < 0)",
        bool(np.all(prof.u1_y >= 0) and np.all(prof.v_y >= 0)
             and np.all(prof.theta_y <= 0))))
    ident = prof.v_y - prof.u1_y / sound_speed(prof)
    m = float(np.max(np.abs(ident)))
    checks.append(Check("rarefaction_gradient_identity", m, "<= 1e-8", m <= 1e-8))

    rate = _fan_rate(wave)
    ts = np.geomspace(10.0 / rate, 1000.0 / rate, 12)
    sups, l1s = [], []
    for t in ts:
        xg = np.linspace(lam_lo * (1 + t) - 40.0, lam_hi * (1 + t) + 40.0, 6001)
        d = wave.eval(t, xg)
        sups.append(float(np.max(d.u1_y)))
        l1s.append(float(np.trapezoid(np.abs(d.u1_y), xg)))
    slope = loglog_slope(ts, np.asarray(sups))
    checks.append(Check("rarefaction_sup_decay_exponent", slope,
                        "-1 +- 0.1", -1.1 <= slope <= -0.9))
    l1s = np.asarray(l1s)
    l1_var = float(np.max(np.abs(l1s - l1s[0])) / l1s[0])
    checks.append(Check("rarefaction_l1_constancy", l1_var, "<= 0.02",
                        l1_var <= 0.02))

    # exponential far-field tails at t0 (outside the fan by distance d the
    # deviation is <= C delta_R exp(-2 d))
    tref = 5.0
    for side, state, lam in (("left", decomp.left, lam_lo),
                             ("right", decomp.mid_lo, lam_hi)):
        dist = 4.0
        xq = lam * (1 + tref) + (-dist if side == "left" else dist)
        dq = wave.eval(tref, np.array([xq]))
        dev = max(abs(float(dq.v[0]) - state.v),
                  abs(float(dq.u1[0]) - state.u1),
                  abs(float(dq.theta[0]) - state.theta))
        bound = decomp.delta_r * math.exp(-2.0 * dist) * 20.0
        checks.append(Check(f"rarefaction_tail_{side}", dev,
                            f"<= 20 delta_R exp(-2*{dist})", dev <= bound))
    return checks


def contact_checks(decomp: RiemannDecomposition,
                   transport: TransportLaw = DEFAULT_TRANSPORT) -> list[Check]:
    """Constant pressure, end limits, self-similar decay exponents and the
    Gaussian tails of the viscous contact wave."""
    wave = ContactWave(decomp, transport)
    checks = []
    p_star = pressure(decomp.mid_lo)
    x = np.linspace(-60.0, 60.0, 4001)
    d = wave.eval(3.0, x)
    m = float(np.max(np.abs(pressure(d) - p_star)))
    checks.append(Check("contact_pressure_constant", m, "<= 1e-12 (exact)",
                        m <= 1e-12))
    ends = max(abs(float(d.theta[0]) - decomp.mid_lo.theta),
               abs(float(d.theta[-1]) - decomp.mid_hi.theta))
    checks.append(Check("contact_end_limits", ends, "<= 1e-7", ends <= 1e-7))

    ts = np.geomspace(10.0, 1000.0, 10)
    sup_t, sup_q1, sup_q2 = [], [], []
    for t in ts:
        span = 40.0 * math.sqrt(1.0 + t)
        xg = np.linspace(-span, span, 4001)
        dd = wave.eval(t, xg)
        q1, q2 = wave.error_terms(t, xg)
        sup_t.append(float(np.max(np.abs(dd.theta_y))))
        sup_q1.append(float(np.max(np.abs(q1))))
        sup_q2.append(float(np.max(np.abs(q2))))
    s_theta = loglog_slope(ts, np.asarray(sup_t))
    s_q1 = loglog_slope(ts, np.asarray(sup_q1))
    s_q2 = loglog_slope(ts, np.asarray(sup_q2))
    checks.append(Check("contact_thetax_decay_exponent", s_theta,
                        "-0.5 +- 0.05", -0.55 <= s_theta <= -0.45))
    checks.append(Check("contact_q1_decay_exponent", s_q1, "-1.5 +- 0.1",
                        -1.6 <= s_q1 <= -1.4))
    checks.append(Check("contact_q2_decay_exponent", s_q2, "-2 +- 0.1",
                        -2.1 <= s_q2 <= -1.9))

    # Gaussian tails: log |v - v_*| linear in x^2/(1+t) on x < 0
    t = 20.0
    xg = -np.linspace(2.0, 8.0, 30) * math.sqrt(1.0 + t)
    dd = wave.eval(t, xg)
    dev = np.abs(dd.v - decomp.mid_lo.v)
    slope = -tail_decay_rate(xg ** 2 / (1.0 + t), dev)
    checks.append(Check("contact_gaussian_tail_slope", slope, "< 0",
                        slope < 0.0))
    return checks


def shock_checks(mid_hi: FluidTriple, strengths=(0.04, 0.08, 0.16),
                 transport: TransportLaw = DEFAULT_TRANSPORT) -> list[Check]:
    """Monotonicity, jump-relation residuals, gradient couplings, tail
    rates and the second-order expansion across a strength sweep with a
    fixed upstream state."""
    checks = []
    cs, tail_rates = [], []
    vu_cs = []
    waves = []
    for ds in strengths:
        d = shock_decomposition(mid_hi, ds)
        wave = ShockProfile(d, transport)
        waves.append(wave)
        span = 40.0 / ds
        y = np.linspace(-span, span, 4001)
        prof = wave.eval(y)
        mono = bool(np.all(prof.v_y >= 0) and np.all(prof.u1_y <= 1e-14)
                    and np.all(prof.theta_y <= 1e-12))
        checks.append(Check(f"shock_monotonicity_ds={ds}", float(mono),
                            "v up, u1 down, theta down", mono))
        rh = rh_residual(d.mid_hi, d.right, d.sigma)
        checks.append(Check(f"shock_rh_residual_ds={ds}", rh, "<= 1e-10",
                            rh <= 1e-10))
        mask = prof.v_y > 1e-10 * ds ** 2
        p_star = pressure(d.mid_hi)
        c_theta = float(np.max(np.abs(prof.theta_y[mask]
                                      + p_star * prof.v_y[mask])
                               / prof.v_y[mask]) / ds)
        cs.append(c_theta)
        c_vu = float(np.max(np.abs(prof.u1_y[mask]
                                   + d.sigma_star * prof.v_y[mask])
                            / prof.v_y[mask]) / ds)
        vu_cs.append(c_vu)
        ytail = np.linspace(5.0 / ds, 40.0 / ds, 200)
        tail_rates.append(tail_decay_rate(
            ytail, d.right.v - wave.eval(ytail).v))
    cs = np.asarray(cs)
    spread = float(cs.max() / cs.min() - 1.0)
    checks.append(Check("shock_theta_gradient_constant_spread", spread,
                        "<= 0.3 across sweep", spread <= 0.3,
                        note=f"C values {np.round(cs, 4).tolist()}"))
    vu_cs = np.asarray(vu_cs)
    spread_vu = float(vu_cs.max() / vu_cs.min() - 1.0)
    checks.append(Check("shock_velocity_gradient_constant_spread", spread_vu,
                        "<= 0.3 across sweep", spread_vu <= 0.3,
                        note=f"C values {np.round(vu_cs, 4).tolist()}"))
    rates = np.asarray(tail_rates)
    ratios = rates[1:] / rates[:-1]
    ratio_ok = bool(np.all((ratios >= 1.4) & (ratios <= 2.6)))
    checks.append(Check("shock_tail_rate_doubling", float(ratios[0]),
                        "2 +- 30% per strength doubling", ratio_ok,
                        note=f"ratios {np.round(ratios, 3).tolist()}"))

    # the chord-slope difference: its linear coefficient (predicted at each
    # strength's upstream state) and the O(delta_S^2) residual beyond it
    lhs = [expansion_lhs(w) for w in waves]
    pred = [predicted_expansion_coefficient(w.decomp.mid_hi, transport)
            for w in waves]
    coef = lhs[0] / strengths[0]
    rel = abs(coef / pred[0] - 1.0)
    checks.append(Check("shock_expansion_linear_coefficient", rel,
                        "<= 0.10 at smallest strength", rel <= 0.10,
                        note=f"measured {coef:.5g} predicted {pred[0]:.5g}"))
    res = [a - b * ds for a, b, ds in zip(lhs, pred, strengths)]
    res_ratio = res[1] / res[0]
    checks.append(Check("shock_expansion_residual_quadratic", res_ratio,
                        "4 +- 30% under strength doubling",
                        2.8 <= res_ratio <= 5.2))
    ds0 = strengths[0]
    curv_rel = abs(measured_curvature(waves[0])
                   / predicted_curvature(waves[0].decomp.mid_hi, transport)
                   - 1.0)
    checks.append(Check("shock_curvature_at_saddle", curv_rel,
                        f"<= 3 * delta_S = {3 * ds0}", curv_rel <= 3.0 * ds0))
    return checks


def profile_report(decomp: RiemannDecomposition,
                   transport: TransportLaw = DEFAULT_TRANSPORT) -> dict:
    """All profile checks for one decomposition; zero-strength waves are
    reported as trivially skipped."""
    report: dict = {"checks": [], "skipped": []}
    if decomp.delta_r > 0:
        report["checks"] += [c.as_dict() for c in rarefaction_checks(decomp)]
    else:
        report["skipped"].append("rarefaction (zero strength)")
    if decomp.delta_c > 0:
        report["checks"] += [c.as_dict() for c in contact_checks(decomp, transport)]
    else:
        report["skipped"].append("contact (zero strength)")
    if decomp.delta_s > 0:
        report["checks"] += [c.as_dict()
                             for c in shock_checks(decomp.mid_hi,
                                                   transport=transport)]
    else:
        report["skipped"].append("shock (zero strength)")
    report["all_passed"] = all(c["passed"] for c in report["checks"])
    return report
