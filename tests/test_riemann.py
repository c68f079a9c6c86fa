import numpy as np
import pytest
from scipy.integrate import quad

from kinwave.errors import (InvalidStrength, NoPhysicalShock,
                            OutOfPatternRange)
from kinwave.gas import FluidTriple, entropy, pressure, sound_speed
from kinwave.riemann import (generate_states, lambda1, rarefaction_left_of,
                             rh_residual, shock_decomposition, shock_right_of,
                             solve_riemann)

RIGHT = FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0)


def _u1_difference_quadrature(right, v_left):
    """Adaptive-quadrature oracle for the rarefaction velocity change,
    u1(v_left) - u1(v_right) = -int_{v_right}^{v_left} lambda_1 dv."""
    s_ent = entropy(right)
    val, _ = quad(lambda v: lambda1(v, s_ent), right.v, v_left,
                  epsabs=1e-13, epsrel=1e-13)
    return -val


def _assert_on_curves(d, tol=1e-10):
    """mid_lo lies on the isentrope of left, the contact carries equal u1
    and p, and the shock satisfies Rankine-Hugoniot."""
    assert abs(entropy(d.left) - entropy(d.mid_lo)) <= 1e-9
    assert abs(d.mid_lo.u1 - d.mid_hi.u1) <= tol
    assert abs(pressure(d.mid_lo) - pressure(d.mid_hi)) <= tol
    if d.delta_s > 0.0:
        assert rh_residual(d.mid_hi, d.right, d.sigma) <= tol


def test_rarefaction_zero_strength_limit():
    s = rarefaction_left_of(RIGHT, RIGHT.v - 1e-13)
    assert s.u1 == pytest.approx(RIGHT.u1, abs=1e-12)
    with pytest.raises(InvalidStrength):
        rarefaction_left_of(RIGHT, RIGHT.v)
    with pytest.raises(InvalidStrength):
        rarefaction_left_of(RIGHT, 0.0)
    # delta_R at and beyond v_mid_lo leaves no positive left volume
    with pytest.raises(InvalidStrength):
        generate_states(FluidTriple(v=0.5), 0.1, 0.1, 0.3)
    with pytest.raises(InvalidStrength):
        generate_states(FluidTriple(v=1.0), 0.3, 0.3, 0.5)


def test_rarefaction_entropy_and_quadrature_oracle():
    for v_left in (0.9, 0.75, 0.5):
        s = rarefaction_left_of(RIGHT, v_left)
        assert entropy(s) == pytest.approx(entropy(RIGHT), abs=1e-12)
        du_quad = _u1_difference_quadrature(RIGHT, v_left)
        assert s.u1 - RIGHT.u1 == pytest.approx(du_quad, abs=1e-10)


def test_shock_small_strength_speed_limit():
    mid = FluidTriple(v=0.9, u=(0.2, 0, 0), theta=1.1)
    lam3 = sound_speed(mid)
    prev_gap = None
    for ds in (0.04, 0.02, 0.01, 0.005):
        _, sigma = shock_right_of(mid, ds)
        gap = abs(sigma - lam3)
        assert gap <= 2.0 * ds          # |sigma - sigma^*| = O(delta_S)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


def test_shock_rh_residual_and_entropy_increase():
    """Entropy rises on the compressed (downstream) side of the shock: the
    gas crosses from the right state into mid_hi, so s(mid_hi) > s(right),
    with the classic cubic-in-strength jump."""
    mid = FluidTriple(v=0.9, u=(0.2, 0, 0), theta=1.1)
    jumps = []
    for ds in (0.05, 0.1, 0.2):
        right, sigma = shock_right_of(mid, ds)
        assert rh_residual(mid, right, sigma) <= 1e-12
        assert sound_speed(right) < sigma < sound_speed(mid)
        jump = entropy(mid) - entropy(right)
        assert jump > 0
        jumps.append(jump)
    # cubic scaling in the strength (ratio ~8 per doubling)
    assert 5.0 <= jumps[1] / jumps[0] <= 11.0
    assert 5.0 <= jumps[2] / jumps[1] <= 11.0


def test_shock_invalid_strengths():
    mid = FluidTriple(v=0.9, theta=1.1)
    with pytest.raises(InvalidStrength):
        shock_right_of(mid, -0.1)
    with pytest.raises(InvalidStrength):
        shock_right_of(mid, 0.9)


def test_generate_zero_strengths_degenerate():
    d = generate_states(RIGHT, 0.0, 0.0, 0.0)
    assert d.left == d.mid_lo == d.mid_hi == d.right
    assert d.sigma == pytest.approx(sound_speed(RIGHT))


def test_generate_contact_only():
    d = generate_states(RIGHT, 0.0, 0.1, 0.0)
    assert d.mid_lo.u1 == pytest.approx(d.mid_hi.u1, abs=1e-14)
    assert pressure(d.mid_lo) == pytest.approx(pressure(d.mid_hi), rel=1e-14)
    assert d.mid_lo.v != d.mid_hi.v


def test_generate_satisfies_invariants(decomp):
    _assert_on_curves(decomp)


def test_solve_trivial():
    d = solve_riemann(RIGHT, RIGHT)
    assert d.delta_r == d.delta_c == d.delta_s == 0.0


def test_round_trip_example():
    d = generate_states(RIGHT, 0.1, 0.08, 0.06)
    s = solve_riemann(d.left, d.right)
    assert s.delta_r == pytest.approx(0.1, abs=1e-8)
    assert s.delta_c == pytest.approx(0.08, abs=1e-8)
    assert s.delta_s == pytest.approx(0.06, abs=1e-8)


def test_round_trip_strength_lattice():
    grid_vals = (0.0, 0.05, 0.12, 0.2, 0.3)
    worst = worst_state = 0.0
    for dr in grid_vals:
        for dc in grid_vals:
            for ds in grid_vals:
                if ds == 0.0 and (dr > 0 or dc > 0):
                    continue        # pattern needs the closing shock
                d = generate_states(RIGHT, dr, dc, ds)
                if d.left == d.right:
                    continue
                s = solve_riemann(d.left, d.right)
                _assert_on_curves(s)
                worst = max(worst, abs(s.delta_r - dr), abs(s.delta_c - dc),
                            abs(s.delta_s - ds))
                for got, want in ((s.mid_lo, d.mid_lo), (s.mid_hi, d.mid_hi)):
                    worst_state = max(worst_state, abs(got.v - want.v),
                                      abs(got.u1 - want.u1),
                                      abs(got.theta - want.theta))
                worst_state = max(worst_state, abs(s.sigma - d.sigma))
    assert worst <= 1e-8
    assert worst_state <= 1e-12


@pytest.mark.parametrize("v_plus", (0.4, 1.0, 2.0))
@pytest.mark.parametrize("ratio", (1e-12, 1e-10, 1e-8, 1e-7, 1e-6))
@pytest.mark.parametrize("dr,dc", ((0.0, 0.0), (0.05, 0.05), (0.1, 0.0)))
def test_round_trip_weak_shock(v_plus, ratio, dr, dc):
    """A shock of strength down to 1e-12 v_+ is recovered to 1e-12: the
    root in delta_S lands on the generator's own states, so the final Lax
    check sees what generate_states saw."""
    d = generate_states(FluidTriple(v=v_plus, theta=1.0), dr, dc,
                        ratio * v_plus)
    s = solve_riemann(d.left, d.right)
    assert abs(s.delta_s - ratio * v_plus) <= 1e-12


def test_swapped_pattern_detected():
    d = generate_states(RIGHT, 0.1, 0.05, 0.1)
    with pytest.raises((OutOfPatternRange, NoPhysicalShock)):
        solve_riemann(d.right, d.left)


def test_strength_bound_enforced():
    d = generate_states(FluidTriple(v=2.0, theta=1.0), 0.55, 0.2, 0.3)
    with pytest.raises(OutOfPatternRange):
        solve_riemann(d.left, d.right)


def test_sigma_monotone_in_strength():
    """For a fixed upstream state the speed decreases monotonically from
    the acoustic limit as the strength grows (kept under the upper
    characteristic bound)."""
    mid = FluidTriple(v=0.9, u=(0.0, 0, 0), theta=1.0)
    sigmas = [shock_right_of(mid, ds)[1]
              for ds in np.linspace(0.01, 0.27, 12)]
    assert np.all(np.diff(sigmas) < 0)
    assert np.all(np.asarray(sigmas) < sound_speed(mid))


def test_strength_equivalences(decomp):
    """The rarefaction strength is comparable to the velocity and
    temperature jumps along the curve."""
    du = abs(decomp.mid_lo.u1 - decomp.left.u1)
    dth = abs(decomp.mid_lo.theta - decomp.left.theta)
    for jump in (du, dth):
        assert 0.1 <= jump / decomp.delta_r <= 10.0


def test_shock_decomposition_helper():
    mid = FluidTriple(v=0.92, u=(0.09, 0, 0), theta=1.05)
    d = shock_decomposition(mid, 0.08)
    assert d.delta_s == 0.08 and d.delta_r == 0.0 and d.delta_c == 0.0
    assert d.mid_hi == mid
    assert rh_residual(d.mid_hi, d.right, d.sigma) <= 1e-12
