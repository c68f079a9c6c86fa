import math

import numpy as np
import pytest

from kinwave.errors import GridTooNarrow, NonphysicalState, OverflowSignal
from kinwave.gas import R_GAS, FluidTriple, primitive_fields
from kinwave.velocity import (Projector, VelocityGrid, grid_for_state,
                              grid_spanning, inner, moments,
                              reference_maxwellian)


def test_lattice_symmetric_about_center():
    g = VelocityGrid(center=(0.3, -0.2, 0.0), half_width=4.0, counts=(8, 6, 10))
    for i, ax in enumerate(g.axes):
        assert np.allclose(ax + ax[::-1], 2 * g.center[i], atol=1e-14)


def test_moments_of_maxwellian(small_grid):
    s = FluidTriple(v=0.5, u=(1.0, 0.0, 0.0), theta=1.0)
    g = grid_for_state(s, counts=(16,) * 3)
    m = moments(g.maxwellian(s), g)
    assert m.rho == pytest.approx(2.0, rel=1e-7)
    assert m.m[0] == pytest.approx(2.0, rel=1e-7)
    assert m.E == pytest.approx(3.0, rel=1e-7)


def test_moments_zero():
    g = VelocityGrid(half_width=3.0, counts=(6,) * 3)
    m = moments(np.zeros(g.counts), g)
    assert m.rho == 0.0 and m.E == 0.0 and tuple(m.m) == (0.0, 0.0, 0.0)


def test_moments_batched_match_single(base_state, small_grid):
    rng = np.random.default_rng(7)
    vals = (1.0 + 0.3 * rng.standard_normal((7,) + small_grid.counts)) \
        * small_grid.maxwellian(base_state)
    batch = moments(vals, small_grid)
    assert batch.rho.shape == (7,) and batch.E.shape == (7,)
    assert batch.m.shape == (7, 3)
    for i, f in enumerate(vals):
        one = moments(f, small_grid)
        assert batch.rho[i] == pytest.approx(one.rho, rel=1e-14)
        assert batch.E[i] == pytest.approx(one.E, rel=1e-14)
        assert np.allclose(batch.m[i], one.m, rtol=1e-14,
                           atol=1e-14 * np.max(np.abs(one.m)))


def test_moments_of_micro_part(base_state, small_grid, rng):
    proj = Projector(base_state, small_grid)
    f = rng.standard_normal(small_grid.counts) * small_grid.maxwellian(base_state)
    g = proj.micro(f)
    m = moments(g, small_grid)
    scale = math.sqrt(inner(f, f, base_state, small_grid))
    assert max(abs(m.rho), abs(m.E), max(abs(x) for x in m.m)) <= 1e-8 * scale


def test_inner_cancellation_and_symmetry(base_state, small_grid, rng):
    M = small_grid.maxwellian(base_state)
    assert inner(M, M, base_state, small_grid) \
        == pytest.approx(base_state.rho, rel=1e-7)
    g = rng.standard_normal(small_grid.counts) * M
    h = rng.standard_normal(small_grid.counts) * M
    assert inner(g, h, base_state, small_grid) \
        == pytest.approx(inner(h, g, base_state, small_grid), rel=1e-14)
    assert inner(g, g, base_state, small_grid) > 0
    # a batch gives each pair's value, in the same summation order
    batch = inner(np.stack([g, h]), np.stack([h, h]), base_state, small_grid)
    assert np.array_equal(batch, [inner(g, h, base_state, small_grid),
                                  inner(h, h, base_state, small_grid)])


def test_inner_overflow_signal():
    s = FluidTriple(v=1.0, theta=0.01)     # tiny thermal radius
    g = VelocityGrid(half_width=60.0, counts=(16,) * 3)
    ones = np.ones(g.counts)
    with pytest.raises(OverflowSignal):
        inner(ones, ones, s, g)


def test_chi_orthonormality(base_state):
    g = grid_for_state(base_state, counts=(16,) * 3)
    G = Projector(base_state, g)._gram
    assert np.max(np.abs(G - np.eye(5))) <= 1e-6


def test_chi_parity_and_moment(base_state):
    g = grid_for_state(base_state, counts=(12,) * 3)
    chi = Projector(base_state, g).chi
    flipped = chi[1][::-1, :, :]
    assert np.allclose(flipped, -chi[1], atol=1e-13 * np.abs(chi[1]).max())
    assert g.integrate(chi[4]) == pytest.approx(0.0, abs=1e-6)


def test_grid_too_narrow():
    s = FluidTriple(v=1.0, theta=1.0)
    g = grid_for_state(s, counts=(4,) * 3)
    with pytest.raises(GridTooNarrow):
        Projector(s, g)


def test_projection_identity_and_idempotence(base_state, small_grid, rng):
    proj = Projector(base_state, small_grid)
    for _ in range(50):
        f = rng.standard_normal(small_grid.counts)
        recomposed = proj.macro(f) + proj.micro(f)
        assert np.allclose(recomposed, f, rtol=0, atol=1e-14 * np.abs(f).max())
    f = rng.standard_normal(small_grid.counts) * small_grid.maxwellian(base_state)
    m1 = proj.micro(f)
    assert np.allclose(proj.micro(m1), m1, atol=1e-10 * np.abs(m1).max())


def test_projector_batched_match_single(base_state, small_grid, rng):
    proj = Projector(base_state, small_grid)
    fs = rng.standard_normal((2, 3) + small_grid.counts) \
        * small_grid.maxwellian(base_state)
    batch = proj.micro(fs)
    assert batch.shape == fs.shape
    for i in range(2):
        for j in range(3):
            one = proj.micro(fs[i, j])
            assert np.abs(batch[i, j] - one).max() <= 1e-14 * np.abs(one).max()


def test_projector_macro_of_maxwellian(base_state, small_grid):
    M = small_grid.maxwellian(base_state)
    PM = Projector(base_state, small_grid).macro(M)
    assert np.max(np.abs(PM - M)) <= 1e-6 * M.max()


def test_orthonormality_grid_convergence(base_state):
    errs = []
    for counts in ((8,) * 3, (16,) * 3, (32,) * 3):
        g = grid_for_state(base_state, counts=counts, extent_radii=8.5)
        M = g.maxwellian(base_state)
        # raw basis without the narrowness gate
        from kinwave.gas import R_GAS
        rho, a2 = base_state.rho, R_GAS * base_state.theta
        du = [g.node_array(i) - base_state.u[i] for i in range(3)]
        q = du[0] ** 2 + du[1] ** 2 + du[2] ** 2
        chi = [M / math.sqrt(rho)]
        chi += [du[i] / math.sqrt(a2 * rho) * M for i in range(3)]
        chi.append((q / a2 - 3.0) / math.sqrt(6.0 * rho) * M)
        flat = np.stack([c.reshape(-1) for c in chi])
        G = g.weight * (flat / M.reshape(-1)) @ flat.T
        errs.append(np.max(np.abs(G - np.eye(5))))
    assert errs[0] > errs[1] > errs[2]


def test_fluid_from_distribution(base_state, small_grid, rng):
    M = small_grid.maxwellian(base_state)
    v, _, theta = primitive_fields(moments(M, small_grid))
    assert v == pytest.approx(base_state.v, rel=1e-7)
    assert theta == pytest.approx(base_state.theta, rel=1e-6)
    # adding microscopic content leaves the moments unchanged
    proj = Projector(base_state, small_grid)
    g = proj.micro(rng.standard_normal(small_grid.counts) * M)
    v2, _, theta2 = primitive_fields(moments(M + 0.1 * g, small_grid))
    assert v2 == pytest.approx(v, rel=1e-12)
    assert theta2 == pytest.approx(theta, rel=1e-10)
    with pytest.raises(NonphysicalState):
        primitive_fields(moments(-M, small_grid))


def test_reference_maxwellian_between_half_and_full():
    thetas = [0.9, 1.0, 1.2]
    ref = reference_maxwellian(thetas, [1.0, 1.1, 0.9], [0.0, 0.1, 0.2])
    assert max(thetas) / 2 < ref.theta < max(thetas)


def test_grid_spanning_covers_the_states():
    """Centered midway between the outer u1, half-width extent thermal
    radii of the hottest state plus max |u1|."""
    a = FluidTriple(v=1.0, u=(0.3, 0.0, 0.0), theta=0.9)
    b = FluidTriple(v=2.0, u=(-0.5, 0.0, 0.0), theta=1.3)
    c = FluidTriple(v=1.5, u=(-0.1, 0.0, 0.0), theta=1.1)
    g = grid_spanning([a, b, c], (6,) * 3, 5.0)
    assert g.center == pytest.approx((0.1, 0.0, 0.0))
    assert g.half_width == pytest.approx(5.0 * math.sqrt(R_GAS * 1.3) + 0.5)
    assert g.counts == (6,) * 3
