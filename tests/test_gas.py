import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinwave.errors import NonphysicalState
from kinwave.gas import (R_GAS, ConservedTriple, FluidTriple, entropy,
                         pressure, primitive_fields, sound_speed)
from kinwave.riemann import lambda1
from kinwave.velocity import VelocityGrid, moments

positive = st.floats(min_value=0.05, max_value=20.0)
velocity = st.floats(min_value=-5.0, max_value=5.0)


def _conserved(s: FluidTriple) -> ConservedTriple:
    """(rho, rho u, rho (theta + |u|^2/2)) of a primitive state."""
    u = np.asarray(s.u)
    return ConservedTriple(rho=s.rho, m=s.rho * u,
                           E=s.rho * (s.theta + 0.5 * float(u @ u)))


def test_pressure_direct_values():
    assert pressure(FluidTriple(v=1.0, theta=1.5)) == pytest.approx(1.0)
    assert pressure(FluidTriple(v=2.0, theta=3.0)) == pytest.approx(1.0)
    # velocity does not enter
    assert pressure(FluidTriple(v=1.0, u=(3.0, -1.0, 0.5), theta=1.2)) \
        == pytest.approx(0.8)


def test_eigenvalues_values_and_symmetry():
    s = FluidTriple(v=1.0, theta=1.2)
    assert sound_speed(s) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
    # lambda_1 on the isentrope through s is -lambda_3
    assert lambda1(s.v, entropy(s)) == pytest.approx(-sound_speed(s),
                                                     rel=1e-14)
    assert sound_speed(FluidTriple(v=1.0, theta=0.9)) == pytest.approx(1.0)


@given(v=positive, theta=positive)
@settings(max_examples=50, deadline=None)
def test_eigenvalue_pressure_consistency(v, theta):
    s = FluidTriple(v=v, theta=theta)
    lam3 = sound_speed(s)
    assert lam3 ** 2 * (3.0 * v / 5.0) == pytest.approx(pressure(s), rel=1e-14)


def test_entropy_isentrope_invariance():
    s1 = FluidTriple(v=1.3, theta=0.9)
    s2 = FluidTriple(v=8 * 1.3, theta=0.9 / 4.0)
    assert entropy(s1) == pytest.approx(entropy(s2), abs=1e-12)
    assert entropy(FluidTriple(v=1.0, theta=1.0)) == 0.0


def test_entropy_theta_derivative():
    s = FluidTriple(v=0.7, theta=1.4)
    d = 1e-7
    fd = (entropy(FluidTriple(v=0.7, theta=1.4 + d))
          - entropy(FluidTriple(v=0.7, theta=1.4 - d))) / (2 * d)
    assert fd == pytest.approx(1.0 / 1.4, rel=1e-6)


@given(v=positive, theta=positive)
@settings(max_examples=30, deadline=None)
def test_entropy_constant_along_sampled_isentrope(v, theta):
    s0 = entropy(FluidTriple(v=v, theta=theta))
    for r in (0.5, 2.0, 3.7):
        assert entropy(FluidTriple(v=v * r, theta=theta * r ** (-2.0 / 3.0))) \
            == pytest.approx(s0, abs=1e-12)


def _dense_maxwellian(v, u, theta, xi):
    """rho (2 pi R theta)^(-3/2) exp(-|xi - u|^2 / (2 R theta)) with one
    exponential per node: states of batch shape B (``u`` of shape
    B + (3,)) at nodes ``xi`` of shape (N, 3), shape B + (N,)."""
    v, u, theta = (np.asarray(x, dtype=float) for x in (v, u, theta))
    a2 = R_GAS * theta[..., None]
    q = np.sum((xi - u[..., None, :]) ** 2, axis=-1)
    return (1.0 / v)[..., None] * (2.0 * math.pi * a2) ** -1.5 \
        * np.exp(-q / (2.0 * a2))


def test_maxwellian_peak_and_symmetry():
    s = FluidTriple(v=0.8, u=(0.4, -0.2, 0.1), theta=1.3)
    grid = VelocityGrid(center=s.u, half_width=4.0, counts=(5, 7, 9))
    M = grid.maxwellian(s)
    a2 = (2.0 / 3.0) * s.theta
    assert M[2, 3, 4] == pytest.approx(s.rho * (2 * math.pi * a2) ** -1.5,
                                       rel=1e-14)
    assert M.max() == M[2, 3, 4]
    np.testing.assert_allclose(M, M[::-1, ::-1, ::-1], rtol=1e-14, atol=0)


def test_tensor_maxwellian_matches_dense(rng):
    """The per-axis product agrees with one exponential per node, for one
    state and for a batch, on an uneven lattice off the bulk velocity."""
    grid = VelocityGrid(center=(0.1, -0.2, 0.3), half_width=5.0,
                        counts=(4, 5, 6))
    s = FluidTriple(v=0.8, u=(0.45, -0.3, 0.2), theta=1.3)
    want = _dense_maxwellian(s.v, s.u, s.theta, grid.nodes)
    np.testing.assert_allclose(grid.maxwellian(s), want.reshape(grid.counts),
                               rtol=1e-13, atol=0)
    v, th = rng.uniform(0.5, 2.0, (2, 7))
    u = rng.uniform(-1.0, 1.0, (7, 3))
    got = grid.maxwellian((v, u, th))
    assert got.shape == (7,) + grid.counts
    np.testing.assert_allclose(
        got, _dense_maxwellian(v, u, th, grid.nodes).reshape(got.shape),
        rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", ["v", "theta", "nan"])
def test_maxwellian_rejects_nonphysical(bad):
    grid = VelocityGrid(half_width=5.0, counts=(4, 4, 4))
    v, u, th = np.ones(3), np.zeros((3, 3)), np.ones(3)
    if bad == "v":
        v[1] = 0.0
    elif bad == "theta":
        th[2] = -1.0
    else:
        th[0] = np.nan
    with pytest.raises(NonphysicalState):
        grid.maxwellian((v, u, th))


def test_maxwellian_mass_quadrature(base_state, small_grid):
    M = small_grid.maxwellian(base_state)
    assert moments(M, small_grid).rho == pytest.approx(base_state.rho, rel=2e-7)


def test_conversion_example():
    c = _conserved(FluidTriple(v=0.5, u=(1, 0, 0), theta=1.0))
    assert c.rho == pytest.approx(2.0)
    assert c.m == pytest.approx((2.0, 0.0, 0.0))
    assert c.E == pytest.approx(3.0)
    v, u, theta = primitive_fields(ConservedTriple(rho=2.0, m=(2.0, 0, 0),
                                                   E=3.0))
    assert v == pytest.approx(0.5)
    assert u == pytest.approx((1.0, 0.0, 0.0))
    assert theta == pytest.approx(1.0)


def test_round_trip_random(rng):
    for _ in range(100):
        s = FluidTriple(v=rng.uniform(0.1, 5.0),
                        u=tuple(rng.uniform(-2, 2, 3)),
                        theta=rng.uniform(0.1, 5.0))
        v, u, theta = primitive_fields(_conserved(s))
        assert v == pytest.approx(s.v, rel=1e-14)
        assert np.allclose(u, s.u, rtol=0, atol=1e-14)
        assert theta == pytest.approx(s.theta, rel=1e-13)


def test_nonphysical_rejected():
    with pytest.raises(NonphysicalState):
        primitive_fields(ConservedTriple(rho=1.0, m=(2, 0, 0), E=1.0))
    with pytest.raises(NonphysicalState):
        FluidTriple(v=-1.0, theta=1.0)
    with pytest.raises(NonphysicalState):
        primitive_fields(ConservedTriple(rho=-1.0, m=(0, 0, 0), E=1.0))
