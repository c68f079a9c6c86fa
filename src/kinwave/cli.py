"""Experiment runner: subcommands for profile verification, Riemann
decompositions, collision-operator measurements and the fluid/kinetic
stability simulations.

Exit codes: 0 pass, 1 check failure, 2 configuration/IO error,
3 numerical guard, 4 cost guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import CompositeAnsatz, DiagnosticsFrame
from .collision import assemble_linearized, measure_dissipativity, q_bilinear
from .config import PRESETS, RunConfig, check_range, load_config
from .errors import ConfigError, CostGuard, KinwaveError, NonphysicalState
from .gas import R_GAS, ConservedTriple, FluidTriple, primitive_fields
from .profiles import loglog_slope
from .reports import profile_report
from .riemann import generate_states
from .solvers import (KineticField, LinearizedKineticSolver, fluid_run,
                      kinetic_step, maxwellian_field)
from .velocity import (VelocityGrid, grid_for_state, moments,
                       reference_maxwellian)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_NUMERICAL_GUARD = 3
EXIT_COST_GUARD = 4


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: Path, data, indent: int = 2) -> None:
    """Strict JSON: a NaN or infinity is a numerical guard, not a result."""
    try:
        text = json.dumps(data, sort_keys=True, indent=indent,
                          default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise NonphysicalState(f"{path.name}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _decomposition(cfg: RunConfig):
    return generate_states(cfg.right_state, cfg.delta_r, cfg.delta_c,
                           cfg.delta_s)


def _wave_states(decomp) -> tuple[list[FluidTriple], FluidTriple]:
    """The four states of the pattern, left to right, and their reference
    Maxwellian state M_#."""
    states = [decomp.left, decomp.mid_lo, decomp.mid_hi, decomp.right]
    return states, reference_maxwellian([s.theta for s in states],
                                        [s.v for s in states],
                                        [s.u1 for s in states])


def _prepare_out(cfg: RunConfig, override) -> Path:
    out = Path(override) if override else cfg.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {out}: {exc}")
    return out


def _state_dict(s: FluidTriple) -> dict:
    return {"v": s.v, "u1": s.u[0], "u2": s.u[1], "u3": s.u[2],
            "theta": s.theta}


def cmd_profiles(cfg: RunConfig, out: Path, seed: int) -> int:
    decomp = _decomposition(cfg)
    y = np.arange(cfg.y_min, cfg.y_max + 0.5 * cfg.dy, cfg.dy)
    t_sample = 1.0
    ans = CompositeAnsatz(decomp, cfg.transport)
    for kind, wave in (("rarefaction", ans.rarefaction),
                       ("contact", ans.contact), ("shock", ans.shock)):
        if wave is None:                  # zero strength
            continue
        prof = wave.eval(y) if wave is ans.shock else wave.eval(t_sample, y)
        rows = np.column_stack([y, prof.v, prof.u1, prof.theta,
                                prof.v_y, prof.u1_y, prof.theta_y])
        np.savetxt(out / f"profile_{kind}.csv", rows, delimiter=",",
                   header="y,v,u1,theta,v_y,u1_y,theta_y", comments="")
    report = profile_report(decomp, cfg.transport)
    report["seed"] = seed
    report["strengths"] = {"delta_r": decomp.delta_r,
                           "delta_c": decomp.delta_c,
                           "delta_s": decomp.delta_s}
    _write_json(out / "profile_report.json", report)
    for c in report["checks"]:
        flag = "PASS" if c["passed"] else "FAIL"
        print(f"[{flag}] {c['name']}: {c['measured']:.6g} ({c['bound']})")
    for skip in report["skipped"]:
        print(f"[trivial] {skip}")
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILURE


def cmd_riemann(cfg: RunConfig, out: Path, seed: int) -> int:
    decomp = _decomposition(cfg)
    data = {
        "left": _state_dict(decomp.left),
        "mid_lo": _state_dict(decomp.mid_lo),
        "mid_hi": _state_dict(decomp.mid_hi),
        "right": _state_dict(decomp.right),
        "delta_r": decomp.delta_r, "delta_c": decomp.delta_c,
        "delta_s": decomp.delta_s, "sigma": decomp.sigma,
        "sigma_star": decomp.sigma_star, "seed": seed,
    }
    print(json.dumps(data, sort_keys=True, indent=2, default=_json_default))
    _write_json(out / "riemann.json", data)
    return EXIT_OK


def cmd_collision_check(cfg: RunConfig, out: Path, seed: int) -> int:
    rng = np.random.default_rng(seed)
    decomp = _decomposition(cfg)
    _, mref = _wave_states(decomp)
    base = decomp.mid_hi
    report = {"seed": seed, "checks": []}
    counts = (cfg.velocity_counts,) * 3
    counts_coarse = (max(cfg.velocity_counts - 2, 6),) * 3
    sigmas = {}
    for label, cts in (("coarse", counts_coarse), ("default", counts)):
        grid = grid_for_state(base, counts=cts,
                              extent_radii=cfg.velocity_extent)
        # the basis gate is a resolution check; the projection algebra and
        # the measured residuals below remain exact on coarse lattices
        op = assemble_linearized(base, grid, gram_tol=0.1)
        sig = measure_dissipativity(op, mref, 100, rng)
        sigmas[label] = sig
        lam, ndim = op.spectrum_meta()
        report["checks"].append({
            "name": f"dissipativity_{label}_{cts[0]}^3",
            "sigma_tilde": sig, "null_dim": ndim,
            "chi_residual_max": float(op.chi_residuals.max()),
            "raw_chi_residual_max": float(op.raw_chi_residuals.max()),
            "max_eigenvalue": float(lam.max()),
            "passed": bool(sig > 0 and ndim == 5)})
    stability = abs(sigmas["default"] / sigmas["coarse"] - 1.0)
    report["checks"].append({"name": "sigma_tilde_grid_stability",
                             "spread": stability,
                             "passed": bool(stability <= 0.3)})
    # conservation defect of the bilinear quadrature
    gridq = grid_for_state(base, counts=(8,) * 3,
                           extent_radii=cfg.velocity_extent,
                           sphere_polar=cfg.sphere_polar,
                           sphere_azimuth=cfg.sphere_azimuth)
    M = gridq.maxwellian(base)
    f = M * (1.0 + 0.4 * np.abs(np.sin(3.0 * gridq.node_array(0))))
    res = q_bilinear(f, f, gridq)
    mom = moments(res.total, gridq)
    defect = max(abs(mom.rho), max(abs(x) for x in mom.m), abs(mom.E))
    norm2 = gridq.integrate(f ** 2 / M)
    report["checks"].append({"name": "collision_invariants_8^3",
                             "defect": defect, "norm2": norm2,
                             "passed": bool(defect <= 1e-3 * norm2)})
    report["all_passed"] = all(c["passed"] for c in report["checks"])
    _write_json(out / "collision_report.json", report)
    for c in report["checks"]:
        flag = "PASS" if c["passed"] else "FAIL"
        print(f"[{flag}] {c['name']}: " + ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in c.items() if k not in ("name", "passed")))
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILURE


def _write_timings(out: Path, steps: int, setup_s: float, stepping_s: float,
                   t_output: float) -> None:
    """Wall-clock seconds of a simulation, kept out of the result files so
    that those are byte-identical for one config and seed; the output phase
    starts at ``t_output`` (a ``time.perf_counter`` reading)."""
    _write_json(out / "timings.json", {
        "setup_s": setup_s, "stepping_s": stepping_s,
        "output_s": time.perf_counter() - t_output, "steps": steps})


def cmd_simulate_fluid(cfg: RunConfig, out: Path, seed: int) -> int:
    t_start = time.perf_counter()
    decomp = _decomposition(cfg)
    # each frame reaches diagnostics.csv as it is recorded, so a run that
    # stops on a fault keeps the frames before it
    with open(out / "diagnostics.csv", "w") as csv:
        csv.write(DiagnosticsFrame.CSV_HEADER + "\n")

        def progress(frame: DiagnosticsFrame) -> None:
            csv.write(frame.csv_row() + "\n")
            csv.flush()
            print(f"t={frame.t:.6g} X={frame.X:.6g} Xdot={frame.Xdot:.6g} "
                  f"sup_pert={frame.sup_pert:.6g}", file=sys.stderr,
                  flush=True)

        result = fluid_run(decomp, cfg, progress=progress)
    t_output = time.perf_counter()
    summary = result.summary()
    summary["seed"] = seed
    ts = np.array([f.t for f in result.frames])
    es = np.array([f.entropy for f in result.frames])
    pos = (ts > 0) & (es > 0)
    if pos.sum() > 3:
        summary["entropy_slope"] = loglog_slope(ts[pos], es[pos])
    if cfg.write_fields:
        rows = np.column_stack([result.final.y, result.final.v,
                                result.final.u1, result.final.u2,
                                result.final.u3, result.final.theta])
        np.savetxt(out / "fields_final.csv", rows, delimiter=",",
                   header="y,v,u1,u2,u3,theta", comments="")
    _write_json(out / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True, indent=2, default=_json_default))
    _write_timings(out, result.steps,
                   t_output - t_start - result.stepping_s, result.stepping_s,
                   t_output)
    return EXIT_OK if result.blowup_time is None else EXIT_NUMERICAL_GUARD


def cmd_simulate_kinetic(cfg: RunConfig, out: Path, seed: int,
                         linearized: bool) -> int:
    t_start = time.perf_counter()
    decomp = _decomposition(cfg)
    ans = CompositeAnsatz(decomp, cfg.transport)
    y = np.linspace(cfg.y_min, cfg.y_max, cfg.nx)
    states, mref = _wave_states(decomp)
    th_max = max(s.theta for s in states)
    u_span = max(abs(s.u1) for s in states)
    grid = VelocityGrid(
        center=(0.5 * (decomp.left.u1 + decomp.right.u1), 0.0, 0.0),
        half_width=cfg.velocity_extent * math.sqrt(R_GAS * th_max) + u_span,
        counts=(cfg.velocity_counts,) * 3,
        sphere_polar=cfg.sphere_polar, sphere_azimuth=cfg.sphere_azimuth)
    vals = maxwellian_field(ans, y, grid)
    if cfg.perturbation.micro_amplitude != 0.0:
        # cubic Hermite mode He3((xi1-u)/a) M: orthogonal to all five
        # collision invariants, so the bump is purely microscopic
        a = math.sqrt(R_GAS * decomp.right.theta)
        xh = (grid.node_array(0) - decomp.right.u1) / a
        mode = (xh ** 3 - 3.0 * xh) * grid.maxwellian(decomp.right)
        env = np.exp(-((y - cfg.perturbation.micro_center)
                       / cfg.perturbation.micro_width) ** 2)
        vals = vals + cfg.perturbation.micro_amplitude * env[:, None, None, None] * mode
    field = KineticField(y, grid, vals)
    mass0 = _kinetic_invariants(moments(vals, grid), y)
    frames = []
    if linearized:
        step = LinearizedKineticSolver(field, decomp.sigma,
                                       cfg.kinetic_dt).step
    else:
        step = functools.partial(kinetic_step, dt=cfg.kinetic_dt,
                                 sigma=decomp.sigma)
    nsteps = max(1, int(round(cfg.t_end / cfg.kinetic_dt)))
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
    t_output = time.perf_counter()
    massT = frames[-1]["invariants"]
    drift = max(abs(massT[k] / mass0[k] - 1.0) for k in ("mass", "energy"))
    summary = {
        "seed": seed, "mode": "kinetic-linearized" if linearized else "kinetic",
        "steps": nsteps, "t_end": field.t,
        "min_f": frames[-1]["min_f"],
        "clip_defect": field.clip_defect,
        "clip_defect_relative": field.clip_defect / abs(mass0["mass"]),
        "lost_interp_weight": field.lost_interp_weight,
        "conservation_drift": drift,
    }
    if linearized:
        summary["operator_drift"] = field.operator_drift
    _write_json(out / "summary.json", summary)
    _write_json(out / "kinetic_frames.json", frames, indent=1)
    print(json.dumps(summary, sort_keys=True, indent=2, default=_json_default))
    _write_timings(out, nsteps, t_loop - t_start, t_output - t_loop, t_output)
    return EXIT_OK


def _micro_content(field: KineticField, c: ConservedTriple,
                   mref: FluidTriple) -> float:
    """Weighted squared distance of f from its local Maxwellian family,
    in the metric of the reference Maxwellian ``mref``; ``c`` holds the
    moments of f."""
    grid = field.grid
    G = field.values - grid.maxwellian(primitive_fields(c))
    per_cell = grid.weight * np.sum(G ** 2 / grid.maxwellian(mref),
                                    axis=(1, 2, 3))
    return float(np.sum(per_cell)) * field.dy


def _kinetic_invariants(c: ConservedTriple, y: np.ndarray) -> dict:
    """Mass, momentum and energy over y of the cell moments ``c``."""
    return {
        "mass": float(np.trapezoid(c.rho, y)),
        "momentum": float(np.trapezoid(c.m[:, 0], y)),
        "energy": float(np.trapezoid(c.E, y)),
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kinwave",
        description="composite-wave stability laboratory for the 1D "
                    "kinetic/viscous gas")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("profiles", "riemann", "collision-check", "simulate-fluid",
                 "simulate-kinetic"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--preset", type=str, default=None,
                       choices=sorted(PRESETS))
        if name == "simulate-kinetic":
            p.add_argument("--linearized", action="store_true",
                           help="micro-macro mode with frozen operators")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset)
        if args.seed is not None:
            check_range("solver", "seed", args.seed)
        seed = args.seed if args.seed is not None else cfg.seed
        out = _prepare_out(cfg, args.out)
        if args.command == "profiles":
            return cmd_profiles(cfg, out, seed)
        if args.command == "riemann":
            return cmd_riemann(cfg, out, seed)
        if args.command == "collision-check":
            return cmd_collision_check(cfg, out, seed)
        if args.command == "simulate-fluid":
            return cmd_simulate_fluid(cfg, out, seed)
        if args.command == "simulate-kinetic":
            return cmd_simulate_kinetic(cfg, out, seed,
                                        linearized=args.linearized)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CostGuard as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_COST_GUARD
    except KinwaveError as exc:
        print(f"numerical guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_GUARD


if __name__ == "__main__":
    sys.exit(main())
