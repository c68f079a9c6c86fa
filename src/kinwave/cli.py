"""Experiment runner: subcommands for profile verification, Riemann
decompositions, collision-operator measurements and the fluid/kinetic
stability simulations.

Exit codes: 0 pass, 1 check failure, 2 configuration/IO error,
3 numerical guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import CompositeAnsatz, DiagnosticsFrame
from .collision import assemble_linearized, measure_dissipativity, q_bilinear
from .config import PRESETS, RunConfig, check_range, load_config
from .errors import ConfigError, KinwaveError, NonphysicalState
from .gas import FluidTriple
from .reports import profile_report
from .riemann import generate_states
from .solvers import (RunResult, fluid_grid, fluid_run, kinetic_run,
                      kinetic_steps, wave_states)
from .velocity import grid_for_state, inner, moments

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_NUMERICAL_GUARD = 3

#: ``collision-check`` writes a largest eigenvalue within this fraction of
#: the spectrum's scale max |lam| as 0.0: it is the roundoff of the null
#: space, which the threaded eigvalsh leaves at 1e-19 to 3e-14 depending
#: on the BLAS thread count
EIGEN_ROUNDOFF = 1e-12


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: Path, data, indent: int = 2) -> str:
    """Strict JSON: a NaN or infinity is a numerical guard, not a result.
    Returns the text written, without the final newline."""
    try:
        text = json.dumps(data, sort_keys=True, indent=indent,
                          default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise NonphysicalState(f"{path.name}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _decomposition(cfg: RunConfig):
    return generate_states(cfg.right_state, cfg.delta_r, cfg.delta_c,
                           cfg.delta_s)


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
    y = fluid_grid(cfg)
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
    data = {name: _state_dict(getattr(decomp, name))
            for name in ("left", "mid_lo", "mid_hi", "right")}
    data.update(delta_r=decomp.delta_r, delta_c=decomp.delta_c,
                delta_s=decomp.delta_s, sigma=decomp.sigma,
                sigma_star=decomp.sigma_star, seed=seed)
    print(_write_json(out / "riemann.json", data))
    return EXIT_OK


def cmd_collision_check(cfg: RunConfig, out: Path, seed: int) -> int:
    rng = np.random.default_rng(seed)
    decomp = _decomposition(cfg)
    mref = wave_states(decomp)[1]
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
        lam_max = float(lam.max())
        if abs(lam_max) <= EIGEN_ROUNDOFF * np.abs(lam).max():
            lam_max = 0.0
        report["checks"].append({
            "name": f"dissipativity_{label}_{cts[0]}^3",
            "sigma_tilde": sig, "null_dim": ndim,
            "chi_residual_max": float(op.chi_residuals.max()),
            "raw_chi_residual_max": float(op.raw_chi_residuals.max()),
            "max_eigenvalue": lam_max,
            "passed": bool(sig > 0 and ndim == 5)})
    stability = abs(sigmas["default"] / sigmas["coarse"] - 1.0)
    report["checks"].append({"name": "sigma_tilde_grid_stability",
                             "spread": stability,
                             "passed": bool(stability <= 0.3)})
    # conservation defect of the bilinear quadrature
    gridq = grid_for_state(base, counts=(8,) * 3,
                           extent_radii=cfg.velocity_extent)
    M = gridq.maxwellian(base)
    f = M * (1.0 + 0.4 * np.abs(np.sin(3.0 * gridq.node_array(0))))
    res = q_bilinear(f, f, gridq)
    mom = moments(res.total, gridq)
    defect = max(abs(mom.rho), max(abs(x) for x in mom.m), abs(mom.E))
    norm2 = inner(f, f, base, gridq)
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


def _write_run(out: Path, seed: int, result: RunResult, t_start: float,
               t_output: float) -> None:
    """summary.json of a simulation, with the seed, echoed to stdout, and
    its wall-clock seconds in timings.json, kept out of the result files
    so that those are byte-identical for one config and seed.  The run
    started at ``t_start`` and its output phase at ``t_output``
    (``time.perf_counter`` readings)."""
    print(_write_json(out / "summary.json", {**result.summary, "seed": seed}))
    _write_json(out / "timings.json", {
        "setup_s": t_output - t_start - result.stepping_s,
        "stepping_s": result.stepping_s,
        "output_s": time.perf_counter() - t_output, "steps": result.steps})


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
    if cfg.write_fields:
        final = result.final
        rows = np.column_stack([final.y, final.v, final.u1, final.u2,
                                final.u3, final.theta])
        np.savetxt(out / "fields_final.csv", rows, delimiter=",",
                   header="y,v,u1,u2,u3,theta", comments="")
    _write_run(out, seed, result, t_start, t_output)
    return EXIT_OK if result.summary["blowup_time"] is None \
        else EXIT_NUMERICAL_GUARD


def cmd_simulate_kinetic(cfg: RunConfig, out: Path, seed: int,
                         linearized: bool) -> int:
    t_start = time.perf_counter()

    def progress(frame: dict) -> None:
        print(f"t={frame['t']:.6g} min_f={frame['min_f']:.6g} "
              f"micro_norm={frame['micro_norm']:.6g}", file=sys.stderr,
              flush=True)

    result = kinetic_run(_decomposition(cfg), cfg, linearized, progress)
    t_output = time.perf_counter()
    _write_json(out / "kinetic_frames.json", result.frames, indent=1)
    _write_run(out, seed, result, t_start, t_output)
    return EXIT_OK


COMMANDS = {"profiles": cmd_profiles, "riemann": cmd_riemann,
            "collision-check": cmd_collision_check,
            "simulate-fluid": cmd_simulate_fluid,
            "simulate-kinetic": cmd_simulate_kinetic}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kinwave",
        description="composite-wave stability laboratory for the 1D "
                    "kinetic/viscous gas")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
        if args.command == "simulate-kinetic":
            kinetic_steps(cfg)        # a bad horizon exits before the output
        out = _prepare_out(cfg, args.out)
        if args.command == "simulate-kinetic":
            return cmd_simulate_kinetic(cfg, out, seed, args.linearized)
        return COMMANDS[args.command](cfg, out, seed)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KinwaveError as exc:
        print(f"numerical guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_GUARD


if __name__ == "__main__":
    sys.exit(main())
