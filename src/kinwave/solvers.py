"""Time integration: the macroscopic viscous system in the shock frame and
a coarse deterministic kinetic solver, each with a run driver that streams
frames to a caller and returns one RunResult."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .ansatz import (CompositeAnsatz, DiagnosticsFrame, diagnostics_frame,
                     shift_H, shift_rhs)
from .collision import assemble_linearized, axis_rule, q_bilinear_batch
from .errors import CFLViolation, CostGuard, NonphysicalState, PositivityLoss
from .gas import (DEFAULT_TRANSPORT, R_GAS, ConservedTriple, FluidTriple,
                  TransportLaw, pressure, primitive_fields, sound_speed)
from .profiles import loglog_slope, solve_tridiagonal
from .riemann import RiemannDecomposition
from .velocity import (Projector, VelocityGrid, grid_spanning, inner,
                       moments, reference_maxwellian)

if TYPE_CHECKING:                     # config imports this module
    from .config import RunConfig

CFL_SAFETY = 0.4
#: ARS(2,2,2): the implicit diagonal GAMMA and the explicit weight DELTA of
#: the first stage in the last row (negative)
ARS_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
ARS_DELTA = 1.0 - 1.0 / (2.0 * ARS_GAMMA)
#: half-width of the window around X, in units of 1/delta_s, on which
#: ``fluid_run`` integrates the shift ODE.  The shock derivatives in its
#: integrand decay like exp(-c delta_s |y - X|) with c = 0.61-0.67 for
#: delta_s from 0.02 to 0.16, so the window spans about 9-10 e-foldings
#: each side; the layer weight tends to constants and does not decay.
SHIFT_WINDOW = 15.0


# ---------------------------------------------------------------------------
# perturbation specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    target: str            # one of v, u1, u2, u3, theta
    amplitude: float
    center: float
    width: float

    def profile(self, y: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-((y - self.center) / self.width) ** 2)


@dataclass(frozen=True)
class PerturbationSpec:
    bumps: tuple[GaussianBump, ...] = ()
    micro_amplitude: float = 0.0       # kinetic-only Hermite-type mode
    micro_center: float = 0.0
    micro_width: float = 10.0

    def apply(self, y: np.ndarray, fields: dict[str, np.ndarray]) -> None:
        for b in self.bumps:
            fields[b.target] = fields[b.target] + b.profile(y)


# ---------------------------------------------------------------------------
# fluid solver
# ---------------------------------------------------------------------------

@dataclass
class FluidField:
    y: np.ndarray
    v: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    theta: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if not (np.all(self.v > 0) and np.all(self.theta > 0)):
            raise NonphysicalState("fluid field needs v, theta > 0")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])


def cfl_limit(state: FluidField, sigma: float) -> float:
    """0.4 times the advective step bound over the grid.  The viscous and
    heat terms are implicit in ``fluid_step`` and set no bound."""
    lam = abs(sigma) + sound_speed(state) + np.abs(state.u1) / state.v
    return CFL_SAFETY * state.dy / float(np.max(lam))


def _face(w: np.ndarray) -> np.ndarray:
    """Averages of node values at the n - 1 cell faces."""
    return 0.5 * (w[1:] + w[:-1])


def _advective_fluxes(state: FluidField, u: list[np.ndarray], E: np.ndarray,
                      sigma: float) -> list[np.ndarray]:
    """Advective and pressure fluxes at the n - 1 cell faces of the rows
    (v, the velocity components ``u`` of ``state``, u1 first, E)."""
    vm, Em, pm = _face(state.v), _face(E), _face(pressure(state))
    um = [_face(w) for w in u]
    return [-sigma * vm - um[0], -sigma * um[0] + pm,
            *(-sigma * w for w in um[1:]), -sigma * Em + pm * um[0]]


def _viscous_fluxes(u, visc, dy: float) -> list:
    """Viscous face fluxes of the rows (v, velocity components ``u``, E):
    none (None) for v, -c diff(u_j)/dy with the face coefficients
    c = ``visc``, and in the energy row the work of those fluxes (the heat
    flux is added by the caller)."""
    Fu = [-c * np.diff(w) / dy for c, w in zip(visc, u)]
    work = sum(f * _face(w) for f, w in zip(Fu, u))
    return [None, *Fu, work]


def _kinetic(u: list[np.ndarray]) -> np.ndarray:
    """|u|^2/2 of the velocity components ``u``."""
    ke = u[0] ** 2
    for w in u[1:]:
        ke += w ** 2
    return 0.5 * ke


def _diffuse(coef: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve x - diff(coef * diff(x)) = rhs at the interior nodes, with x
    pinned to ``rhs`` at the two end nodes; ``coef`` lives on the n - 1
    faces.  The interior matrix is diagonally dominant."""
    x = rhs.copy()
    x[1] += coef[0] * rhs[0]
    x[-2] += coef[-1] * rhs[-1]
    off = -coef[1:-1]         # both off-diagonals; the solve overwrites each
    x[1:-1] = solve_tridiagonal(off, 1.0 + coef[1:] + coef[:-1], off.copy(),
                                x[1:-1], check_finite=False)
    return x


def fluid_step(state: FluidField, dt: float, sigma: float,
               transport: TransportLaw = DEFAULT_TRANSPORT,
               source=None, check_cfl: bool = True, stage=None
               ) -> tuple[FluidField, np.ndarray]:
    """One ARS(2,2,2) IMEX step (Ascher, Ruuth and Spiteri 1997) of the
    five-field viscous system in the frame moving with speed sigma, in
    flux form for the conserved fields (v, u1, u2, u3, E) with
    E = theta + |u|^2/2.

    The step carries v, u1 and E, and u2 or u3 only when that component
    is not zero everywhere or a ``source`` is given: a zero transverse
    component without a source stays exactly zero, and so does every flux
    it feeds.  The advective and pressure fluxes are explicit.  The
    viscous and heat fluxes are linearly implicit (v has none): each
    implicit stage solves one tridiagonal system per carried velocity
    component, then one for theta, with E built from the new u and the
    viscous work taken at the new u.  The coefficients mu/v and kappa/v of
    a stage are taken at the explicit predictor of that stage; lagging
    them at the start of the step would cost an order.  ``source(t, y)``
    adds residuals (v, u1, u2, u3, E) to the explicit rates at t and
    t + GAMMA dt.  ``stage(mid)`` is called with the state of the second
    stage (at t + GAMMA dt) before it is used.  The two end nodes stay
    pinned.  Returns the new state and the time-integrated boundary flux
    of each conserved field (inflow at the left end minus outflow at the
    right, explicit and implicit fluxes of both stages), so that the
    totals plus the accumulated boundary fluxes stay constant.
    """
    if check_cfl and dt > cfl_limit(state, sigma) * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt} exceeds limit {cfl_limit(state, sigma)}")
    dy = state.dy
    h = ARS_GAMMA * dt
    # the rows are v, the carried velocity components (``moving`` indexes
    # (u1, u2, u3)) and E, each a separate 1-D array: stacking them into
    # (5, n) and (8, n) blocks made the step slower on a 4k-node grid.  A
    # row without a viscous flux has None for it and for its rate.
    moving = [k for k, w in enumerate((state.u1, state.u2, state.u3))
              if k == 0 or source is not None or w.any()]

    def carried(st):
        return [(st.u1, st.u2, st.u3)[k] for k in moving]

    def velocities(u):
        """(u1, u2, u3) from the carried components u, zero elsewhere."""
        return [u[moving.index(k)] if k in moving else np.zeros_like(state.y)
                for k in range(3)]

    vel0 = carried(state)
    U0 = [state.v, *vel0, state.theta + _kinetic(vel0)]

    def rates(F):
        return [None if f is None else np.diff(f) / -dy for f in F]

    def combine(*terms):
        """U0 plus weighted rates on the interior nodes."""
        out = []
        for k, u in enumerate(U0):
            w = u.copy()
            w[1:-1] += sum(c * R[k] for c, R in terms if R[k] is not None)
            out.append(w)
        return out

    def explicit(st, E):
        F = _advective_fluxes(st, carried(st), E, sigma)
        R = rates(F)
        if source is not None:
            R = [q + s[1:-1] for q, s in zip(R, source(st.t, st.y))]
        return F, R

    def coefficients(U, t):
        """Face values of mu/v per carried velocity component (4/3 mu/v
        for u1) and of kappa/v at the rows U, after checking that U is
        finite with v and theta positive.  A stage predictor carries every
        rate of that stage's right-hand side, so a non-finite value fails
        here, before any solve."""
        theta = U[-1] - _kinetic(U[1:-1])
        if not (np.all(U[0] > 0) and np.all(theta > 0)
                and all(np.isfinite(w).all() for w in U[1:-1])):
            raise PositivityLoss(
                f"v or theta nonpositive or not finite at t={t}")
        vm = _face(U[0])
        mu_v = _face(transport.mu(theta)) / vm
        kap_v = _face(transport.kappa(theta)) / vm
        return [4.0 / 3.0 * mu_v] + [mu_v] * (len(moving) - 1), kap_v

    def implicit(base, coef, t):
        """Solve U = base + h R_visc(U) for the stage at time t; returns
        the stage state, its E and its viscous and heat face fluxes."""
        visc, kap = coef
        u = [_diffuse(h / dy ** 2 * c, b) for c, b in zip(visc, base[1:-1])]
        F = _viscous_fluxes(u, visc, dy)
        ke = _kinetic(u)
        rhs = base[-1] - ke
        rhs[1:-1] -= h / dy * np.diff(F[-1])
        rhs[0], rhs[-1] = state.theta[0], state.theta[-1]
        theta = _diffuse(h / dy ** 2 * kap, rhs)
        if not np.all(theta > 0):
            raise PositivityLoss(f"theta nonpositive at t={t}")
        F[-1] = F[-1] - kap * np.diff(theta) / dy
        return (FluidField(state.y, base[0], *velocities(u), theta, t),
                theta + ke, F)

    # ARS(2,2,2): explicit tableau (GAMMA; DELTA, 1 - DELTA), implicit
    # tableau (GAMMA; 1 - GAMMA, GAMMA) at the same stage times; the
    # predictors need the implicit rates at the step start too
    visc0, kap0 = coefficients(U0, state.t)
    Fi1 = _viscous_fluxes(vel0, visc0, dy)
    Fi1[-1] = Fi1[-1] - kap0 * np.diff(state.theta) / dy
    Ri1 = rates(Fi1)
    Fe1, Re1 = explicit(state, U0[-1])
    mid, E2, Fi2 = implicit(combine((h, Re1)),
                            coefficients(combine((h, Re1), (h, Ri1)),
                                         state.t + h), state.t + h)
    if stage is not None:
        stage(mid)
    Fe2, Re2 = explicit(mid, E2)
    Ri2 = rates(Fi2)
    w1, w2 = ARS_DELTA * dt, (1.0 - ARS_DELTA) * dt
    t_new = state.t + dt
    new, _, Fi3 = implicit(
        combine((w1, Re1), (w2, Re2), ((1.0 - ARS_GAMMA) * dt, Ri2)),
        coefficients(combine((w1, Re1), (w1, Ri1), (w2, Re2), (w2, Ri2)),
                     t_new), t_new)
    weights = ((ARS_DELTA, Fe1), (1.0 - ARS_DELTA, Fe2),
               (1.0 - ARS_GAMMA, Fi2), (ARS_GAMMA, Fi3))
    bflux = np.zeros(5)
    bflux[[0, *(k + 1 for k in moving), 4]] = dt * np.array(
        [sum(c * (F[k][0] - F[k][-1]) for c, F in weights
             if F[k] is not None) for k in range(len(U0))])
    return new, bflux


# ---------------------------------------------------------------------------
# run record and the fluid run driver
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """What a run driver hands back: the recorded frames, the final state,
    the step count, the wall-clock seconds of the time loop and the
    driver's summary of the run."""

    frames: list
    final: FluidField | KineticField
    steps: int
    stepping_s: float
    summary: dict


def initial_fluid_field(ansatz: CompositeAnsatz, y: np.ndarray,
                        perturbation: PerturbationSpec) -> FluidField:
    fr = ansatz.frame(0.0, 0.0, y)
    fields = {"v": fr.v.copy(), "u1": fr.u1.copy(),
              "u2": np.zeros_like(y), "u3": np.zeros_like(y),
              "theta": fr.theta.copy()}
    perturbation.apply(y, fields)
    return FluidField(y, fields["v"], fields["u1"], fields["u2"],
                      fields["u3"], fields["theta"])


def fluid_run(decomp: RiemannDecomposition, cfg: RunConfig,
              progress=None) -> RunResult:
    """Evolve the composite data plus ``cfg.perturbation`` up to
    ``cfg.t_end`` and co-integrate the shift with the explicit weights of
    the ``fluid_step`` tableau (Xdot at the step start and at the second
    stage, each the shift integral on the window of half-width
    ``SHIFT_WINDOW / delta_s`` around X), emitting a diagnostics frame
    every ``cfg.output_interval``; ``progress`` is called with each frame
    as it is recorded.  The summary includes the entropy's log-log decay
    slope when more than three frames have t > 0 and a positive entropy."""
    t_end, transport = cfg.t_end, cfg.transport
    y = np.arange(cfg.y_min, cfg.y_max + 0.5 * cfg.dy, cfg.dy)
    ans = CompositeAnsatz(decomp, transport)
    state = initial_fluid_field(ans, y, cfg.perturbation)
    X = xdot_max = 0.0
    frames: list[DiagnosticsFrame] = []
    blowup = None

    if decomp.delta_s > 0:
        H = shift_H(decomp.mid_hi, decomp.sigma_star, transport)
        window = SHIFT_WINDOW / decomp.delta_s

        def xdot_at(st: FluidField, X: float) -> float:
            """``shift_rhs`` of ``st`` on the window |y - X| <= window."""
            i0 = int(np.searchsorted(y, X - window))
            i1 = int(np.searchsorted(y, X + window)) + 1
            return shift_rhs((st.v[i0:i1], st.u1[i0:i1], st.theta[i0:i1]),
                             ans.frame(st.t, X, y[i0:i1]), decomp.delta_s, H)
    else:
        def xdot_at(st: FluidField, X: float) -> float:
            return 0.0

    def record(xdot: float) -> None:
        """Record the diagnostics frame of ``state`` at shift X."""
        fields = (state.v, [state.u1, state.u2, state.u3], state.theta)
        frames.append(diagnostics_frame(state.t, fields,
                                        ans.frame(state.t, X, y), X, xdot))
        if progress is not None:
            progress(frames[-1])

    steps, dt_lo, dt_hi = 0, math.inf, 0.0
    next_out = 0.0
    t_loop = time.perf_counter()
    while state.t < t_end - 1e-12:
        dt = cfl_limit(state, decomp.sigma) * cfg.dt_factor
        if dt <= t_end - state.t:
            dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
        else:
            dt = t_end - state.t
        xdot = xdot_at(state, X)
        if state.t >= next_out - 1e-12:
            record(xdot)
            next_out += cfg.output_interval
        mid: list[FluidField] = []
        try:
            state, _ = fluid_step(state, dt, decomp.sigma, transport,
                                  check_cfl=False, stage=mid.append)
        except PositivityLoss:
            blowup = state.t
            break
        xdot_mid = xdot_at(mid[0], X + ARS_GAMMA * dt * xdot)
        X += ARS_DELTA * dt * xdot
        X += (1.0 - ARS_DELTA) * dt * xdot_mid
        xdot_max = max(xdot_max, abs(xdot), abs(xdot_mid))
        steps += 1
    if blowup is None:
        record(xdot_at(state, X))
    stepping_s = time.perf_counter() - t_loop
    f0, fT = frames[0], frames[-1]
    summary = {
        "t_end": fT.t, "X_final": fT.X, "xdot_final": fT.Xdot,
        "xdot_max": xdot_max,
        "X_over_T": fT.X / fT.t if fT.t > 0 else 0.0,
        "sup_initial": f0.sup_pert, "sup_final": fT.sup_pert,
        "pert_ratio": fT.sup_pert / f0.sup_pert if f0.sup_pert > 0 else 0.0,
        "entropy_initial": f0.entropy, "entropy_final": fT.entropy,
        # the step range leaves out a last step shortened to land on t_end
        "dt_min": dt_lo if dt_hi > 0.0 else None,
        "dt_max": dt_hi if dt_hi > 0.0 else None, "blowup_time": blowup,
    }
    ts, es = np.array([(f.t, f.entropy) for f in frames]).T
    pos = (ts > 0) & (es > 0)
    if pos.sum() > 3:
        summary["entropy_slope"] = loglog_slope(ts[pos], es[pos])
    return RunResult(frames, state, steps, stepping_s, summary)


# ---------------------------------------------------------------------------
# kinetic solver
# ---------------------------------------------------------------------------

#: cost guard of the full nonlinear collision quadrature with an off-axis
#: sphere direction (N^2 pairs per direction and cell)
MAX_FULL_Q_NODES = 8 ** 3
MAX_FULL_Q_SPHERE = 8
MAX_FULL_Q_NX = 128

#: cells that share one frozen linearized operator
LINEARIZED_BLOCK = 8


@dataclass
class KineticField:
    """Distribution values on (y-grid) x (velocity grid) at time t, with
    the counters that the steps leading to it accumulated."""

    y: np.ndarray                     # (ny,), uniform
    grid: VelocityGrid
    values: np.ndarray                # (ny,) + grid.counts
    t: float = 0.0
    clip_defect: float = 0.0          # mass removed by positivity clipping
    lost_interp_weight: float = 0.0   # off-lattice stencil weight, summed
    operator_drift: float = 0.0       # state drift from the frozen operators

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.y.size,) + self.grid.counts
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])


def _cubic_interp_y(values: np.ndarray, foot_idx: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of ``values`` (ny, n1, ...) along the
    first axis, column j of the second axis at the fractional indices
    ``foot_idx[:, j]`` (clamped to the boundary values); one gather of the
    four stencil rows of every (cell, column) pair."""
    n, n1 = foot_idx.shape
    idx = np.clip(foot_idx, 0.0, n - 1.0)
    i1 = np.clip(np.floor(idx).astype(int), 1, n - 3)
    s = idx - i1
    w0 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w1 = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
    w2 = -(s + 1.0) * s * (s - 2.0) / 2.0
    w3 = (s + 1.0) * s * (s - 1.0) / 6.0
    rows = values[i1 + np.arange(-1, 3)[:, None, None], np.arange(n1)]
    sl = (...,) + (None,) * (values.ndim - 2)
    out = w0[sl] * rows[0]
    out += w1[sl] * rows[1]
    out += w2[sl] * rows[2]
    out += w3[sl] * rows[3]
    return out


def _transport_semilagrangian(field: KineticField, dt: float, sigma: float
                              ) -> tuple[np.ndarray, float]:
    """Advect along dy/dtau = (xi1 - u1)/v - sigma with frozen (u1, v);
    returns the new values and the positivity-clip defect (mass units)."""
    grid = field.grid
    v, u, _ = primitive_fields(moments(field.values, grid))
    # characteristic speed and foot index of every (cell, xi1 column)
    c = (grid.axes[0] - u[:, :1]) / v[:, None] - sigma
    foot = np.arange(len(field.y))[:, None] - c * dt / field.dy
    new = _cubic_interp_y(field.values, foot)
    clip = float(np.sum(np.minimum(new, 0.0)) * grid.weight * field.dy)
    np.maximum(new, 0.0, out=new)
    return new, abs(clip)


def _advance(field: KineticField, new: np.ndarray, dt: float, clip: float,
             **counters) -> KineticField:
    """The field after a step to ``new``: the two end cells stay pinned to
    the inflow data, t and the clip defect advance, and ``counters``
    replaces the step's other counters."""
    new[0] = field.values[0]
    new[-1] = field.values[-1]
    return replace(field, values=new, t=field.t + dt,
                   clip_defect=field.clip_defect + clip, **counters)


def kinetic_step(field: KineticField, dt: float, sigma: float) -> KineticField:
    """Semi-Lagrangian transport followed by the exponential (Duhamel)
    collision update f <- e^{-nu dt} f + (1 - e^{-nu dt})/nu Q+(f, f);
    positivity-preserving up to interpolation undershoot (clipped at zero,
    recorded).

    With the axis sphere rule the quadrature is the factorized
    O(N n_a) contraction per cell and direction and runs on any lattice.
    A rule with an off-axis direction costs O(N^2) per cell and direction
    and raises CostGuard beyond MAX_FULL_Q_NODES velocity nodes,
    MAX_FULL_Q_SPHERE directions or MAX_FULL_Q_NX cells.  The quadrature's
    ``lost_interp_weight`` (a constant of the lattice and the rule) is
    accumulated on the field.
    """
    grid = field.grid
    if not axis_rule(grid) and (
            grid.n_nodes > MAX_FULL_Q_NODES
            or len(grid.omega) > MAX_FULL_Q_SPHERE
            or len(field.y) > MAX_FULL_Q_NX):
        raise CostGuard(
            f"off-axis collision quadrature limited to {MAX_FULL_Q_NODES}"
            f" velocity nodes, {MAX_FULL_Q_SPHERE} sphere nodes,"
            f" {MAX_FULL_Q_NX} cells")
    star, clip = _transport_semilagrangian(field, dt, sigma)
    res = q_bilinear_batch(star, star, grid)
    nu = res.loss_frequency
    x = nu * dt
    decay = np.exp(-x)
    duhamel = np.where(x > 1e-8, (1.0 - decay) / np.where(nu > 0, nu, 1.0), dt)
    return _advance(field, decay * star + duhamel * res.gain, dt, clip,
                    lost_interp_weight=field.lost_interp_weight
                    + res.lost_interp_weight)


class LinearizedKineticSolver:
    """Micro-macro kinetic stepper with frozen per-block linearized
    collision operators (assembled on a coarse x-subgrid at start-up).

    Each block of LINEARIZED_BLOCK cells keeps the propagator
    P = (I - dt L)^{-1} of its operator L, frozen at the block's middle
    cell; L <= 0 in the M-weighted metric, so I - dt L is well
    conditioned and P is formed once, by an LU solve against I.  A step
    is the transport, the local Maxwellians M of the transported cells and
    f <- M + P (f - M), one matmul per block with the cells as rows.  The
    step records on the field the largest relative distance of a cell's
    state from the state its operator is frozen at (``operator_drift``)."""

    def __init__(self, field: KineticField, sigma: float, dt: float):
        self.sigma = sigma
        self.dt = dt
        grid = field.grid
        ny = len(field.y)
        v, u, theta = primitive_fields(moments(field.values, grid))
        eye = np.eye(grid.n_nodes)
        # (cells, P) per block, and per cell the state (v, u, theta) at
        # which its block's operator is frozen
        self.blocks = []
        mid = np.empty(ny, dtype=int)
        for start in range(0, ny, LINEARIZED_BLOCK):
            cells = slice(start, min(start + LINEARIZED_BLOCK, ny))
            m = (cells.start + cells.stop) // 2
            mid[cells] = m
            s = FluidTriple(v=float(v[m]), u=tuple(u[m]),
                            theta=float(theta[m]))
            op = assemble_linearized(s, grid, gram_tol=0.5)
            self.blocks.append(
                (cells, lu_solve(lu_factor(eye - self.dt * op.matrix), eye)))
        self.frozen = (v[mid], u[mid], theta[mid])

    def _drift(self, v: np.ndarray, u: np.ndarray,
               theta: np.ndarray) -> float:
        """Largest relative distance of the cell states (v, u, theta) from
        the states their operators are frozen at: the largest of
        |v/v0 - 1|, |theta/theta0 - 1| and |u - u0|/sqrt(R theta0)."""
        v0, u0, theta0 = self.frozen
        du = np.linalg.norm(u - u0, axis=-1) / np.sqrt(R_GAS * theta0)
        return float(max(np.max(np.abs(v / v0 - 1.0)),
                         np.max(np.abs(theta / theta0 - 1.0)), np.max(du)))

    def step(self, field: KineticField) -> KineticField:
        star, clip = _transport_semilagrangian(field, self.dt, self.sigma)
        state = primitive_fields(moments(star, field.grid))
        M = field.grid.maxwellian(state)
        G = (star - M).reshape(len(field.y), -1)
        new = M.reshape(G.shape)
        for cells, P in self.blocks:
            new[cells] += G[cells] @ P.T
        return _advance(field, new.reshape(star.shape), self.dt, clip,
                        operator_drift=max(field.operator_drift,
                                           self._drift(*state)))


# ---------------------------------------------------------------------------
# kinetic run driver
# ---------------------------------------------------------------------------

def wave_states(decomp: RiemannDecomposition
                ) -> tuple[list[FluidTriple], FluidTriple]:
    """The four states of the pattern, left to right, and their reference
    Maxwellian state M_#."""
    states = [decomp.left, decomp.mid_lo, decomp.mid_hi, decomp.right]
    return states, reference_maxwellian([s.theta for s in states],
                                        [s.v for s in states],
                                        [s.u1 for s in states])


def initial_kinetic_field(decomp: RiemannDecomposition,
                          cfg: RunConfig) -> KineticField:
    """Local Maxwellians of the composite profile at t = 0 on ``cfg.nx``
    cells and a lattice spanning the four states, plus
    ``cfg.perturbation``'s micro mode: He3((xi1 - u)/a) M at the right
    state, projected onto the microscopic subspace of the lattice so that
    the bump leaves every cell's five moments unchanged."""
    y = np.linspace(cfg.y_min, cfg.y_max, cfg.nx)
    grid = grid_spanning(wave_states(decomp)[0], (cfg.velocity_counts,) * 3,
                         cfg.velocity_extent, sphere_polar=cfg.sphere_polar,
                         sphere_azimuth=cfg.sphere_azimuth)
    fr = CompositeAnsatz(decomp, cfg.transport).frame(0.0, 0.0, y)
    u = np.zeros((len(y), 3))
    u[:, 0] = fr.u1
    vals = grid.maxwellian((fr.v, u, fr.theta))
    pert = cfg.perturbation
    if pert.micro_amplitude != 0.0:
        proj = Projector(decomp.right, grid, gram_tol=0.5)
        xh = ((grid.node_array(0) - decomp.right.u1)
              / math.sqrt(R_GAS * decomp.right.theta))
        mode = proj.micro((xh ** 3 - 3.0 * xh) * proj.M)
        env = np.exp(-((y - pert.micro_center) / pert.micro_width) ** 2)
        vals = vals + pert.micro_amplitude * env[:, None, None, None] * mode
    return KineticField(y, grid, vals)


def _micro_content(field: KineticField, c: ConservedTriple,
                   mref: FluidTriple) -> float:
    """Weighted squared distance of f from its local Maxwellian family,
    in the metric of the reference Maxwellian ``mref``; ``c`` holds the
    moments of f."""
    G = field.values - field.grid.maxwellian(primitive_fields(c))
    return float(np.sum(inner(G, G, mref, field.grid))) * field.dy


def _kinetic_invariants(c: ConservedTriple, y: np.ndarray) -> dict:
    """Mass, momentum and energy over y of the cell moments ``c``."""
    return {k: float(np.trapezoid(w, y)) for k, w in
            (("mass", c.rho), ("momentum", c.m[:, 0]), ("energy", c.E))}


def kinetic_run(decomp: RiemannDecomposition, cfg: RunConfig,
                linearized: bool, progress=None) -> RunResult:
    """Evolve ``initial_kinetic_field`` up to ``cfg.t_end`` in steps of
    ``cfg.kinetic_dt``, with ``kinetic_step`` or, if ``linearized``, a
    ``LinearizedKineticSolver``, recording about 20 frames (t, min_f,
    clip defect, micro content, invariants) plus the last; ``progress`` is
    called with each frame as it is recorded.  Raises NonphysicalState
    before the first step when the initial distribution has a negative
    value (a micro mode too large for the lattice tails)."""
    field = initial_kinetic_field(decomp, cfg)
    grid, y = field.grid, field.y
    min_f0 = float(field.values.min())
    if min_f0 < 0.0:
        raise NonphysicalState(
            f"initial distribution has min f = {min_f0:.3e} < 0; lower "
            "[perturbation] micro_amplitude")
    mref = wave_states(decomp)[1]
    mass0 = _kinetic_invariants(moments(field.values, grid), y)
    # the step is looked up here, not bound at import, so that a tracer
    # that rebinds kinetic_step or the solver's step times this run
    if linearized:
        step = LinearizedKineticSolver(field, decomp.sigma,
                                       cfg.kinetic_dt).step
    else:
        step = functools.partial(kinetic_step, dt=cfg.kinetic_dt,
                                 sigma=decomp.sigma)
    nsteps = max(1, int(round(cfg.t_end / cfg.kinetic_dt)))
    frames = []
    t_loop = time.perf_counter()
    for n in range(nsteps):
        field = step(field)
        if (n + 1) % max(1, nsteps // 20) == 0 or n == nsteps - 1:
            c = moments(field.values, grid)
            frames.append({
                "t": field.t, "min_f": float(field.values.min()),
                "clip_defect": field.clip_defect,
                "micro_norm": _micro_content(field, c, mref),
                "invariants": _kinetic_invariants(c, y)})
            if progress is not None:
                progress(frames[-1])
    stepping_s = time.perf_counter() - t_loop
    massT = frames[-1]["invariants"]
    summary = {
        "mode": "kinetic-linearized" if linearized else "kinetic",
        "steps": nsteps, "t_end": field.t,
        "min_f": frames[-1]["min_f"],
        "clip_defect": field.clip_defect,
        "clip_defect_relative": field.clip_defect / abs(mass0["mass"]),
        "lost_interp_weight": field.lost_interp_weight,
        "conservation_drift": max(abs(massT[k] / mass0[k] - 1.0)
                                  for k in ("mass", "energy")),
    }
    if linearized:
        summary["operator_drift"] = field.operator_drift
    return RunResult(frames, field, nsteps, stepping_s, summary)
