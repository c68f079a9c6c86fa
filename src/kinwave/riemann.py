"""Wave-curve geometry of the Euler system.

Decomposes a pair of far-field states into the generic pattern
1-rarefaction / 2-contact / 3-shock with two intermediate states, and
provides the forward generator used as the test oracle.

Conventions: the decomposition runs left -> mid_lo -> mid_hi -> right; the
strengths are
    delta_R = v_mid_lo - v_left      (rarefaction)
    delta_C = |v_mid_hi - v_mid_lo|  (contact)
    delta_S = v_right - v_mid_hi     (shock)
and the generator opens the contact toward smaller volume on the left
(v_mid_lo = v_mid_hi - delta_C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidStrength, NoPhysicalShock, OutOfPatternRange
from .gas import FluidTriple, entropy, pressure, sound_speed

#: Largest wave strength solve_riemann will accept.
MAX_STRENGTH = 0.5


def lambda1(v: float, s_ent: float) -> float:
    """First characteristic speed along the isentrope s(v, theta) = s_ent."""
    return -math.sqrt(10.0) / 3.0 * math.exp(0.5 * s_ent) * v ** (-4.0 / 3.0)


def isentrope_state(ref: FluidTriple, v):
    """(theta, u1) at volume v (scalar or array) on the 1-rarefaction curve
    through ``ref``: the isentrope theta = e^s v^(-2/3) and the closed-form
    integral of lambda_1, u1 = u1_ref - sqrt(10) e^(s/2)
    (v^(-1/3) - v_ref^(-1/3))."""
    s_ent = entropy(ref)
    theta = math.exp(s_ent) * v ** (-2.0 / 3.0)
    u1 = ref.u1 - math.sqrt(10.0) * math.exp(0.5 * s_ent) * (
        v ** (-1.0 / 3.0) - ref.v ** (-1.0 / 3.0))
    return theta, u1


def isentrope_volume(ref: FluidTriple, p: float) -> float:
    """Volume at pressure p on the isentrope through ``ref``, the inverse
    of p v^(5/3) = const."""
    return ref.v * (pressure(ref) / p) ** 0.6


def rarefaction_left_of(right: FluidTriple, v_left: float) -> FluidTriple:
    """State on the 1-rarefaction curve through ``right`` at volume v_left."""
    if not 0.0 < v_left < right.v:
        raise InvalidStrength(
            f"need 0 < v_left < v_right, got v_left={v_left}, v_right={right.v}")
    theta, u1 = isentrope_state(right, v_left)
    return FluidTriple(v=v_left, u=(u1, 0.0, 0.0), theta=theta)


def hugoniot_theta(base: FluidTriple, dv: float) -> float:
    """Temperature at volume base.v + dv on the Hugoniot locus of ``base``,
    theta - theta_b = -(p + p_b) dv / 2 solved for theta (dv > 0 goes
    downstream of a 3-shock, dv < 0 upstream)."""
    v_new = base.v + dv
    if v_new <= 0.0:
        raise NoPhysicalShock("shock strength exceeds the base volume")
    denom = 1.0 + dv / (3.0 * v_new)
    if denom <= 0.0:
        raise NoPhysicalShock("shock strength beyond Hugoniot range")
    theta = (base.theta - 0.5 * pressure(base) * dv) / denom
    if theta <= 0.0:
        raise NoPhysicalShock("Hugoniot temperature nonpositive")
    return theta


def rh_speed(base: FluidTriple, dv: float) -> float:
    """Rankine-Hugoniot speed of the 3-shock between ``base`` and the state
    at volume base.v + dv on its Hugoniot locus (dv > 0: ``base`` is
    upstream, dv < 0: downstream).  sigma^2 = (p^* - p_+)/delta_S, written
    with the Hugoniot relation as 5 p_b / (3 v_b + 4 dv), which needs no
    pressure difference and keeps its digits at any weak strength; the
    velocities do not enter."""
    return math.sqrt(5.0 * pressure(base) / (3.0 * base.v + 4.0 * dv))


def check_lax(upstream: FluidTriple, downstream: FluidTriple,
              sigma: float) -> None:
    """Raise NoPhysicalShock unless lambda_3+ < sigma < lambda_3^*."""
    if not (sound_speed(downstream) < sigma < sound_speed(upstream)):
        raise NoPhysicalShock(
            f"Lax condition failed: {sound_speed(downstream)} < {sigma} < "
            f"{sound_speed(upstream)}")


def shock_right_of(mid_hi: FluidTriple, delta_s: float) -> tuple[FluidTriple, float]:
    """Right state and speed of the 3-shock with strength v_+ - v^* = delta_s,
    from the Rankine-Hugoniot relations in closed form."""
    if not delta_s > 0.0:
        raise InvalidStrength("shock strength must be positive")
    if delta_s > 0.5 * mid_hi.v:
        raise InvalidStrength(
            f"delta_s={delta_s} too large for base volume {mid_hi.v}")
    v_plus = mid_hi.v + delta_s
    # dv is v_+ - v^* as rounded (exact here), so base.v + dv is v_+ exactly
    right = FluidTriple(v=v_plus,
                        theta=hugoniot_theta(mid_hi, v_plus - mid_hi.v))
    sigma = rh_speed(mid_hi, delta_s)
    check_lax(mid_hi, right, sigma)
    return replace(right, u=(mid_hi.u1 - sigma * delta_s, 0.0, 0.0)), sigma


def shock_left_of(right: FluidTriple, delta_s: float) -> tuple[FluidTriple, float]:
    """Upstream state mid_hi (v^* = v_+ - delta_s) and speed of the 3-shock
    into ``right``, without the Lax check; delta_s = 0 gives
    (right, lambda_3(right))."""
    if delta_s == 0.0:
        return right, sound_speed(right)
    mid_hi = FluidTriple(v=right.v - delta_s,
                         theta=hugoniot_theta(right, -delta_s))
    sigma = rh_speed(right, -delta_s)
    return replace(mid_hi, u=(right.u1 + sigma * delta_s, 0.0, 0.0)), sigma


def rh_residual(mid_hi: FluidTriple, right: FluidTriple, sigma: float) -> float:
    """Max residual of the three Rankine-Hugoniot relations."""
    p_l, p_r = pressure(mid_hi), pressure(right)
    e_l = mid_hi.theta + 0.5 * mid_hi.u1 ** 2
    e_r = right.theta + 0.5 * right.u1 ** 2
    r1 = -sigma * (right.v - mid_hi.v) - (right.u1 - mid_hi.u1)
    r2 = -sigma * (right.u1 - mid_hi.u1) + (p_r - p_l)
    r3 = -sigma * (e_r - e_l) + (p_r * right.u1 - p_l * mid_hi.u1)
    return max(abs(r1), abs(r2), abs(r3))


@dataclass(frozen=True)
class RiemannDecomposition:
    left: FluidTriple
    mid_lo: FluidTriple          # (v_*,  u_*,  theta_*)
    mid_hi: FluidTriple          # (v^*,  u^*,  theta^*)
    right: FluidTriple
    delta_r: float
    delta_c: float
    delta_s: float
    sigma: float

    @property
    def sigma_star(self) -> float:
        """lambda_3 at mid_hi, the upper Lax bound."""
        return sound_speed(self.mid_hi)


def generate_states(right: FluidTriple, delta_r: float, delta_c: float,
                    delta_s: float) -> RiemannDecomposition:
    """Forward generator: compose the three wave curves backwards from
    ``right`` with the requested strengths (oracle for solve_riemann)."""
    if min(delta_r, delta_c, delta_s) < 0.0:
        raise InvalidStrength("strengths must be nonnegative")
    mid_hi, sigma = shock_left_of(right, delta_s)
    if delta_s > 0.0:
        check_lax(mid_hi, right, sigma)
    # contact: equal u1 and p, volume opens to the left
    if delta_c > 0.0:
        v_lo = mid_hi.v - delta_c
        if v_lo <= 0.0:
            raise NoPhysicalShock("contact strength exceeds mid volume")
        theta_lo = mid_hi.theta * v_lo / mid_hi.v
        mid_lo = FluidTriple(v=v_lo, u=mid_hi.u, theta=theta_lo)
    else:
        mid_lo = mid_hi
    left = rarefaction_left_of(mid_lo, mid_lo.v - delta_r) \
        if delta_r > 0.0 else mid_lo
    return RiemannDecomposition(left=left, mid_lo=mid_lo, mid_hi=mid_hi,
                                right=right, delta_r=delta_r, delta_c=delta_c,
                                delta_s=delta_s, sigma=sigma)


def shock_decomposition(mid_hi: FluidTriple, delta_s: float) -> RiemannDecomposition:
    """Pure-shock decomposition with a fixed upstream state (zero
    rarefaction and contact strengths); used for strength sweeps."""
    right, sigma = shock_right_of(mid_hi, delta_s)
    return RiemannDecomposition(left=mid_hi, mid_lo=mid_hi, mid_hi=mid_hi,
                                right=right, delta_r=0.0, delta_c=0.0,
                                delta_s=delta_s, sigma=sigma)


def solve_riemann(left: FluidTriple, right: FluidTriple) -> RiemannDecomposition:
    """Decompose (left, right) into R1-CD2-S3 with two intermediate states.

    One bracketed root in the shock strength: the 3-shock into ``right``
    gives mid_hi and the contact pressure p(mid_hi), the isentrope of
    ``left`` at that pressure gives mid_lo, and the root closes the
    contact, u1(mid_lo) = u1(mid_hi); the mismatch falls strictly with
    delta_S.  Raises OutOfPatternRange when no strength up to
    min(MAX_STRENGTH, 0.7 v_+) closes the contact, on a wrong pattern
    (negative delta_R) or for a strength above MAX_STRENGTH.
    """
    if left == right:
        sig = sound_speed(right)
        return RiemannDecomposition(left=left, mid_lo=left, mid_hi=left,
                                    right=right, delta_r=0.0, delta_c=0.0,
                                    delta_s=0.0, sigma=sig)

    def states(delta_s: float):
        mid_hi, sigma = shock_left_of(right, delta_s)
        v_lo = isentrope_volume(left, pressure(mid_hi))
        theta_lo, u1_lo = isentrope_state(left, v_lo)
        return FluidTriple(v=v_lo, u=(u1_lo, 0.0, 0.0), theta=theta_lo), \
            mid_hi, sigma

    def mismatch(delta_s: float) -> float:
        mid_lo, mid_hi, _ = states(delta_s)
        return mid_lo.u1 - mid_hi.u1

    # the pressure on the Hugoniot locus of ``right`` diverges at
    # delta_S = 3 v_+ / 4 (compression ratio 4)
    ds_hi = min(MAX_STRENGTH, 0.7 * right.v)
    if mismatch(0.0) * mismatch(ds_hi) > 0.0:
        raise OutOfPatternRange(
            f"no shock strength in [0, {ds_hi:.3g}] closes the contact")
    # bisection on the checked bracket: the mismatch falls strictly, so the
    # root stays in [lo, hi]; taking lo keeps a root at 0.0 exact
    lo, hi = 0.0, ds_hi
    while hi - lo > 1e-15 * right.v:
        mid = 0.5 * (lo + hi)
        if mismatch(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    delta_s = lo
    mid_lo, mid_hi, sigma = states(delta_s)
    delta_r = mid_lo.v - left.v
    if delta_r < -1e-11 * max(left.v, right.v):
        raise OutOfPatternRange(f"pattern mismatch: delta_R={delta_r:.3e}")
    delta_r = max(delta_r, 0.0)
    delta_c = abs(mid_hi.v - mid_lo.v)
    if max(delta_r, delta_c, delta_s) > MAX_STRENGTH:
        raise OutOfPatternRange("wave strength above configured bound")
    if delta_s > 0.0:
        check_lax(mid_hi, right, sigma)
    return RiemannDecomposition(left=left, mid_lo=mid_lo, mid_hi=mid_hi,
                                right=right, delta_r=delta_r,
                                delta_c=delta_c, delta_s=delta_s, sigma=sigma)
