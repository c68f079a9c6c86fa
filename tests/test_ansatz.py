import math

import numpy as np
import pytest

from kinwave.ansatz import (CompositeAnsatz, diagnostics_frame,
                            lambda_functionals, layer_weight, poincare_check,
                            relative_entropy, shift_H, shift_H_alpha_form,
                            shift_rhs)
from kinwave.errors import NonphysicalState
from kinwave.gas import FluidTriple
from kinwave.riemann import generate_states, shock_decomposition

YGRID = np.linspace(-600.0, 200.0, 4001)


@pytest.fixture(scope="module")
def ansatz(decomp):
    return CompositeAnsatz(decomp)


@pytest.fixture(scope="module")
def frame0(ansatz):
    return ansatz.frame(0.0, 0.0, YGRID)


def _zero_fields(frame):
    return (frame.v.copy(),
            [frame.u1.copy(), np.zeros_like(frame.y), np.zeros_like(frame.y)],
            frame.theta.copy())


def test_ansatz_end_states(decomp, ansatz):
    for t in (0.0, 5.0, 50.0):
        fr = ansatz.frame(t, 0.3, YGRID)
        assert fr.v[0] == pytest.approx(decomp.left.v, abs=5e-4)
        assert fr.theta[0] == pytest.approx(decomp.left.theta, abs=5e-4)
        assert fr.v[-1] == pytest.approx(decomp.right.v, abs=5e-4)
        assert fr.u1[-1] == pytest.approx(decomp.right.u1, abs=5e-4)
        assert np.all(fr.v > 0) and np.all(fr.theta > 0)


def test_weight_range_and_derivative(decomp, ansatz):
    shock = ansatz.shock
    y = np.linspace(-400, 400, 2001)
    prof = shock.eval(y)
    a = layer_weight(prof.v, shock.v_star, decomp.delta_s)
    assert np.all(a > 1.0 - 1e-12)
    assert np.all(a < 1.0 + decomp.delta_s ** 0.75 + 1e-12)
    assert a[0] == pytest.approx(1.0, abs=1e-6)
    assert a[-1] == pytest.approx(1.0 + decomp.delta_s ** 0.75, abs=1e-4)
    fd = np.gradient(a, y)
    ap = decomp.delta_s ** (-0.25) * prof.v_y
    assert np.abs(fd[2:-2] - ap[2:-2]).max() <= 1e-6 + 1e-2 * np.abs(ap).max()
    assert np.all(ap >= 0)


def test_shift_H_forms_agree(rng):
    for _ in range(100):
        st = FluidTriple(v=rng.uniform(0.3, 3.0),
                         u=(rng.uniform(-1, 1), 0.0, 0.0),
                         theta=rng.uniform(0.3, 3.0))
        ss = rng.uniform(0.5, 2.0)
        assert shift_H(st, ss) == pytest.approx(
            shift_H_alpha_form(st, ss), rel=1e-14)
        assert shift_H(st, ss) > 0


def test_shift_H_scaling():
    st = FluidTriple(v=1.0, theta=1.0)
    ss = 1.3
    h1 = shift_H(st, ss)
    # doubling p* at fixed v*, sigma* doubles H: p* scales with theta, and
    # mu, kappa scale together so the transport ratio is unchanged
    st2 = FluidTriple(v=1.0, theta=2.0)
    from kinwave.gas import TransportLaw
    tr2 = TransportLaw(A1=1.0 / math.sqrt(2.0), A2=2.5 / math.sqrt(2.0))
    h2 = shift_H(st2, ss, tr2)
    assert h2 == pytest.approx(2.0 * h1, rel=1e-12)


def test_shift_rhs_zero_perturbation(decomp, frame0):
    H = shift_H(decomp.mid_hi, decomp.sigma_star)
    fields = (frame0.v, frame0.u1, frame0.theta)
    assert shift_rhs(fields, frame0, decomp.delta_s, H) == pytest.approx(0.0)


def test_shift_rhs_sign_and_magnitude(decomp, ansatz, frame0):
    H = shift_H(decomp.mid_hi, decomp.sigma_star)
    bump = 0.01 * np.exp(-(YGRID / 5.0) ** 2)
    xdot = shift_rhs((frame0.v, frame0.u1 + bump, frame0.theta), frame0,
                     decomp.delta_s, H)
    # integrand sign: u^S_1y < 0 near the layer, so psi_1 > 0 gives
    # -(H/dS) * (negative) > 0
    assert xdot > 0
    # magnitude bounded by a strength-independent multiple of the sup norm
    assert abs(xdot) <= 50.0 * bump.max()
    direct = -(H / decomp.delta_s) * np.trapezoid(
        frame0.a * frame0.u1S_y * bump, YGRID)
    assert xdot == pytest.approx(direct, rel=1e-12)


def test_shift_rhs_strength_sweep_bound():
    """|Xdot| <= C sup|(phi, psi1, zeta)| with C uniform across the
    strength sweep: probed with a layer-covering uniform perturbation (the
    worst case for the layer-weighted integrals)."""
    right = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)
    amp = 0.01
    consts = []
    for ds in (0.04, 0.08, 0.16):
        d = generate_states(right, 0.05, 0.03, ds)
        ans = CompositeAnsatz(d)
        fr = ans.frame(0.0, 0.0, YGRID)
        H = shift_H(d.mid_hi, d.sigma_star)
        flat = np.full_like(YGRID, amp)
        worst = max(
            abs(shift_rhs((fr.v + s1 * flat, fr.u1 + s2 * flat,
                           fr.theta + s3 * flat), fr, d.delta_s, H))
            for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1))
        consts.append(worst / amp)
    # uniform constant: bounded and with modest spread across the sweep
    assert max(consts) <= 50.0
    assert max(consts) / min(consts) <= 1.5


def test_relative_entropy_zero_and_quadratic(decomp, frame0):
    fields = _zero_fields(frame0)
    assert relative_entropy(fields, frame0) == 0.0
    amp = 1e-4
    bump = amp * np.exp(-((YGRID - 5.0) / 8.0) ** 2)
    fields = (frame0.v + bump,
              [frame0.u1 + 0.5 * bump, np.zeros_like(YGRID),
               np.zeros_like(YGRID)],
              frame0.theta - 0.3 * bump)
    E = relative_entropy(fields, frame0)
    quad = np.trapezoid(frame0.a * (bump ** 2 * frame0.theta
                                    / (3.0 * frame0.v ** 2)
                                    + (0.3 * bump) ** 2 / (2.0 * frame0.theta)
                                    + 0.5 * (0.5 * bump) ** 2), YGRID)
    assert E == pytest.approx(quad, rel=0.01)
    fields_half = (frame0.v + 0.5 * bump,
                   [frame0.u1 + 0.25 * bump, np.zeros_like(YGRID),
                    np.zeros_like(YGRID)],
                   frame0.theta - 0.15 * bump)
    assert E / relative_entropy(fields_half, frame0) \
        == pytest.approx(4.0, rel=0.05)


def test_relative_entropy_transverse_quadratic(frame0):
    base = _zero_fields(frame0)
    bump = 0.01 * np.exp(-(YGRID / 10.0) ** 2)
    with_u2 = (base[0], [base[1][0], bump, np.zeros_like(YGRID)], base[2])
    with_u3 = (base[0], [base[1][0], np.zeros_like(YGRID), bump], base[2])
    assert relative_entropy(with_u2, frame0) \
        == pytest.approx(relative_entropy(with_u3, frame0), rel=1e-12)
    assert relative_entropy(with_u2, frame0) > 0


def test_relative_entropy_nonpositive_guard(frame0):
    bad = (frame0.v - 2.0 * frame0.v, [frame0.u1, np.zeros_like(YGRID),
                                       np.zeros_like(YGRID)], frame0.theta)
    with pytest.raises(NonphysicalState):
        relative_entropy(bad, frame0)


def test_relative_entropy_nan_guard(frame0):
    v = frame0.v.copy()
    v[len(v) // 2] = np.nan
    bad = (v, [frame0.u1, np.zeros_like(YGRID), np.zeros_like(YGRID)],
           frame0.theta)
    with pytest.raises(NonphysicalState):
        relative_entropy(bad, frame0)


def test_lambda_functionals(decomp, frame0):
    base = _zero_fields(frame0)
    assert lambda_functionals(base, frame0) == (0.0, 0.0)
    # perturbation far from the shock layer
    far = 0.01 * np.exp(-((YGRID + 450.0) / 5.0) ** 2)
    fields = (frame0.v + far, base[1], frame0.theta)
    lam_r, lam_s = lambda_functionals(fields, frame0)
    assert lam_s <= 1e-12
    # bump at the layer: shock functional scales with the layer weight
    at_layer = 0.01 * np.exp(-(YGRID / 5.0) ** 2)
    fields = (frame0.v + at_layer, base[1], frame0.theta)
    _, lam_s2 = lambda_functionals(fields, frame0)
    direct = np.trapezoid(np.abs(frame0.vS_y) * at_layer ** 2, YGRID)
    assert lam_s2 == pytest.approx(direct, rel=1e-12)


def test_lambda_s_grows_with_strength():
    right = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)
    vals = []
    for ds in (0.05, 0.1):
        d = generate_states(right, 0.0, 0.0, ds)
        ans = CompositeAnsatz(d)
        fr = ans.frame(0.0, 0.0, YGRID)
        bump = 0.01 * np.exp(-(YGRID / 5.0) ** 2)
        fields = (fr.v + bump, [fr.u1, np.zeros_like(YGRID),
                                np.zeros_like(YGRID)], fr.theta)
        vals.append(lambda_functionals(fields, fr)[1])
    assert vals[1] > vals[0]


def test_poincare_equality_case():
    z = np.linspace(0.0, 1.0, 4001)
    lhs, rhs = poincare_check(z, z)
    assert lhs == pytest.approx(1.0 / 12.0, rel=1e-6)
    assert rhs == pytest.approx(1.0 / 12.0, rel=1e-6)
    assert lhs <= rhs * (1.0 + 1e-5)


def test_poincare_constant_and_random(rng):
    z = np.linspace(0.0, 1.0, 2001)
    lhs, rhs = poincare_check(z, np.full_like(z, 3.7))
    assert lhs == pytest.approx(0.0, abs=1e-20)
    assert rhs == pytest.approx(0.0, abs=1e-20)
    for _ in range(100):
        coef = rng.standard_normal(6)
        f = sum(c * np.sin((k + 1) * math.pi * z + rng.uniform(0, 2))
                for k, c in enumerate(coef))
        lhs, rhs = poincare_check(z, f)
        assert lhs <= rhs * (1.0 + 1e-6)


def test_diagnostics_frame_and_csv(decomp, frame0):
    bump = 0.01 * np.exp(-(YGRID / 8.0) ** 2)
    fields = (frame0.v + bump, [frame0.u1, bump, np.zeros_like(YGRID)],
              frame0.theta)
    fr = diagnostics_frame(1.5, fields, frame0, 0.0, xdot=0.01,
                           micro_norm=2e-4)
    assert fr.sup_phi == pytest.approx(0.01, rel=1e-10)
    assert fr.entropy > 0 and fr.lambda_s > 0
    row = fr.csv_row()
    assert len(row.split(",")) == len(fr.CSV_HEADER.split(","))


def test_g_tilde_split(decomp):
    """Zero rarefaction/contact sources give a vanishing streaming part;
    with sources the split parts stay microscopic."""
    from kinwave.collision import assemble_linearized, g_tilde_split
    from kinwave.velocity import grid_for_state, moments

    d = shock_decomposition(decomp.mid_hi, decomp.delta_s)
    s_list = [d.mid_hi, d.right]
    grid = grid_for_state(d.mid_hi, counts=(8,) * 3, extent_radii=5.0)
    ops = [assemble_linearized(s, grid, gram_tol=0.5) for s in s_list]
    rng2 = np.random.default_rng(3)
    G = np.stack([op.projector.micro(
        rng2.standard_normal(grid.counts) * grid.maxwellian(s)) * 1e-3
        for s, op in zip(s_list, ops)])
    GS = np.zeros_like(G)
    zero = np.zeros(2)
    G_t, G0, G1 = g_tilde_split(G, GS, zero, zero, ops)
    assert np.array_equal(G0, np.zeros_like(G0))
    assert np.array_equal(G1, G_t)
    du, dth = np.array([1e-3, 2e-3]), np.array([-1e-3, 1e-3])
    G_t, G0, G1 = g_tilde_split(G, GS, du, dth, ops)
    assert np.abs(G0).max() > 0
    for i, (s, op) in enumerate(zip(s_list, ops)):
        m = moments(G1[i], grid)
        scale = math.sqrt(grid.integrate(G1[i] ** 2)) + 1e-300
        assert max(abs(m.rho), abs(m.E), max(abs(c) for c in m.m)) \
            <= 1e-6 * scale


def test_g0_scales_with_sources(decomp):
    from kinwave.collision import assemble_linearized, g_tilde_split
    from kinwave.velocity import grid_for_state

    grid = grid_for_state(decomp.mid_hi, counts=(8,) * 3, extent_radii=5.0)
    op = assemble_linearized(decomp.mid_hi, grid, gram_tol=0.5)
    G = np.zeros((1,) + grid.counts)
    GS = np.zeros_like(G)
    norms = []
    for scale in (1.0, 2.0):
        du, dth = np.array([1e-3 * scale]), np.array([5e-4 * scale])
        _, G0, _ = g_tilde_split(G, GS, du, dth, [op])
        norms.append(math.sqrt(grid.integrate(G0[0] ** 2 / grid.maxwellian(
            decomp.mid_hi))))
    assert norms[1] == pytest.approx(2.0 * norms[0], rel=1e-10)


def test_shift_rhs_lipschitz_in_shift(decomp, ansatz):
    """For bounded fields the shift rate is bounded and Lipschitz in the
    shift argument (finite-difference probe)."""
    H = shift_H(decomp.mid_hi, decomp.sigma_star)
    bump = 0.01 * np.exp(-((YGRID - 5.0) / 10.0) ** 2)
    base = ansatz.frame(1.0, 0.0, YGRID)
    fields = (base.v + bump, base.u1 - 0.5 * bump, base.theta + 0.3 * bump)
    vals = []
    for X in (-0.2, -0.1, 0.0, 0.1, 0.2):
        fr = ansatz.frame(1.0, X, YGRID)
        vals.append(shift_rhs(fields, fr, decomp.delta_s, H))
    vals = np.asarray(vals)
    assert np.all(np.abs(vals) <= 10.0)
    slopes = np.abs(np.diff(vals) / 0.1)
    assert np.max(slopes) <= 10.0 * np.abs(vals).max() + 1.0
