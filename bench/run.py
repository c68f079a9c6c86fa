"""kinwave benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration starts one fresh process
running ``python -m kinwave.cli`` (through ``bench/launch.py``) on the
workload's INI file in ``bench/workloads``, waits for it to exit, and only
then starts the next: a closed loop with one client.  BLAS is pinned to one
thread.  Iterations repeat until S seconds have passed (at least
``MIN_ITERATIONS``); every output is checked against
``bench/reference.json``.

``--trace 0`` prints the end-to-end metrics (medians over the iterations).
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics of the traced iteration with the median wall time, plus
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  Run records, including the
environment, go to ``.bench_run/BENCH_<workload>.json``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = 1
MIN_ITERATIONS = 3          # untraced; a traced run makes at least one pair
DEADLINE_S = 170.0          # the whole run, child processes included
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]       # CLI subcommand and its flags
    marker: str                 # layer whose first call ends set-up
    files: tuple[str, ...]      # result files the check reads


WORKLOADS = {
    "fluid-crit9": Workload(("simulate-fluid",), "solvers.fluid_step",
                            ("summary.json",)),
    "kinetic-full": Workload(("simulate-kinetic",), "solvers.kinetic_step",
                             ("summary.json", "kinetic_frames.json")),
    "kinetic-linearized": Workload(
        ("simulate-kinetic", "--linearized"),
        "solvers.LinearizedKineticSolver.step",
        ("summary.json", "kinetic_frames.json")),
    "collision-check": Workload(("collision-check",),
                                "collision.assemble_linearized",
                                ("collision_report.json",)),
}


def horizon(ini: Path) -> float:
    """Simulated time the workload covers; collision-check is one check."""
    cp = configparser.ConfigParser()
    cp.read(ini)
    return cp.getfloat("solver", "t_end", fallback=1.0)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def l3_bytes() -> int | None:
    out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                         capture_output=True, text=True)
    return int(out.stdout) if out.stdout.strip().isdigit() else None


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def _lookup(data, path: str):
    for key in path.split("."):
        data = data[int(key)] if isinstance(data, list) else data[key]
    return data


def check_outputs(out: Path, ref: dict, seed: int) -> list[str]:
    """Mismatches between the result files in ``out`` and the reference.
    ``fields`` are checked at every seed, ``seeded_fields`` only at the
    reference seed.  A field is [value, rtol, atol]; numbers must satisfy
    |x - value| <= atol + rtol |value|, other values must be equal."""
    loaded = {}
    errors = []
    fields = dict(ref["fields"])
    if seed == REFERENCE_SEED:
        fields.update(ref.get("seeded_fields", {}))
    for key, (want, rtol, atol) in fields.items():
        fname, path = key.split(":", 1)
        try:
            if fname not in loaded:
                loaded[fname] = json.loads((out / fname).read_text())
            got = _lookup(loaded[fname], path)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{key}: unreadable ({exc!r})")
            continue
        if isinstance(want, bool) or not isinstance(want, (int, float)):
            ok = got == want
        else:
            ok = isinstance(got, (int, float)) and math.isfinite(got) \
                and abs(got - want) <= atol + rtol * abs(want)
        if not ok:
            errors.append(f"{key}: got {got!r}, reference {want!r}")
    return errors


def result_bytes(out: Path, files) -> tuple[bytes, bytes]:
    """The result JSON as written, and with every ``runtime`` key dropped."""
    raw, stripped = b"", b""
    for fname in files:
        data = (out / fname).read_bytes()
        raw += data
        doc = json.loads(data)
        if isinstance(doc, dict):
            doc.pop("runtime", None)
        stripped += json.dumps(doc, sort_keys=True).encode()
    return raw, stripped


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------

class Harness:
    def __init__(self, root: Path, name: str, seed: int, deadline: float):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.ini = BENCH_DIR / "workloads" / f"{name}.ini"
        self.horizon = horizon(self.ini)
        self.ref = json.loads(
            (BENCH_DIR / "reference.json").read_text())[name]
        self.seed = seed
        self.deadline = deadline
        self.env = child_env(root)
        self.work = root / ".bench_run" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.runs: list[dict] = []

    def environment(self) -> dict:
        """Library versions and BLAS threads as a child sees them; the
        child also warms the import path before the first timed run."""
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "launch.py"), "env"],
            env=self.env, cwd=self.root, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        if out.returncode != 0:
            raise RuntimeError(f"environment probe failed:\n{out.stderr}")
        env = json.loads(out.stdout.splitlines()[-1])
        env.update(nproc=os.cpu_count(),
                   affinity=len(os.sched_getaffinity(0)),
                   blas_threads_pinned=BLAS_THREADS, l3_bytes=l3_bytes(),
                   git_rev=git_rev(self.root), seed=self.seed)
        return env

    def iterate(self, mode: str) -> dict:
        """Start one CLI process, wait for it, time and check it."""
        index = len(self.runs)
        out = self.work / f"{index:03d}-{mode}"
        result = out / "result"
        result.mkdir(parents=True, exist_ok=True)
        probe = out / "probe.json"
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), mode,
               str(probe), self.workload.marker, "--",
               *self.workload.args, "--config", str(self.ini),
               "--out", str(result), "--seed", str(self.seed)]
        with open(out / "stdout.txt", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = {"mode": mode, "exit": proc.returncode, "wall_s": t1 - t0,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "cpu_s": usage.ru_utime + usage.ru_stime, "errors": []}
        if proc.returncode != 0:
            run["errors"].append(f"exit code {proc.returncode}")
        try:
            rec = json.loads(probe.read_text())
        except (OSError, ValueError) as exc:
            rec = {"first_call": None}
            run["errors"].append(f"no probe record ({exc!r})")
        if rec["first_call"] is None:
            run["errors"].append(f"{self.workload.marker} never called")
        else:
            run["setup_s"] = rec["first_call"] - t0
            run["sim_rate"] = self.horizon / (run["wall_s"] - run["setup_s"])
        if mode == "trace" and rec["first_call"] is not None:
            run["layers"] = rec["layers"]
            run["blas_threads"] = max(rec["blas_threads"].values(), default=0)
            if rec["straddling"]:
                run["errors"].append(
                    f"spans cross the set-up boundary: {rec['straddling']}")
            run["setup_self_s"] = run["setup_s"] - rec["top_before_s"]
            run["other_s"] = (run["wall_s"] - run["setup_s"]
                              - rec["top_after_s"])
        if proc.returncode == 0:
            run["errors"] += check_outputs(result, self.ref, self.seed)
            try:
                run["result_bytes"] = result_bytes(result,
                                                   self.workload.files)
                if self.workload.files[0] == "summary.json":
                    summary = json.loads(
                        (result / "summary.json").read_text())
                    run["min_f"] = summary.get("min_f", 0.0)
                    run["clip_defect"] = summary.get("clip_defect", 0.0)
            except (OSError, ValueError) as exc:
                run["errors"].append(f"result files unreadable ({exc!r})")
        run["ok"] = not run["errors"]
        self.runs.append(run)
        return run

    def loop(self, seconds: float, modes: tuple[str, ...], minimum: int):
        start = time.monotonic()
        rounds = 0
        while True:
            for mode in modes:
                run = self.iterate(mode)
                if run["exit"] < 0:         # killed at the deadline
                    return
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= minimum and \
                    elapsed * (rounds + 1) / rounds > seconds:
                return


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(runs: list[dict]) -> dict:
    timed = [r for r in runs if r["ok"]] or \
        [r for r in runs if "setup_s" in r]
    metrics = {}
    for key in ("wall_s", "setup_s", "sim_rate", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in timed)
    metrics["pass_rate"] = 100.0 * sum(r["ok"] for r in runs) / len(runs)
    return metrics


def per_layer(runs: list[dict]) -> dict:
    """Layer metrics of the traced run with the median wall time (one run,
    so its self times add up exactly), plus the tracing overhead."""
    traced = [r for r in runs if "layers" in r]
    traced = sorted([r for r in traced if r["ok"]] or traced,
                    key=lambda r: r["wall_s"])
    untraced = [r["wall_s"] for r in runs if r["mode"] == "probe"]
    rep = traced[(len(traced) - 1) // 2]
    metrics = {}
    for name, rec in rep["layers"].items():
        metrics[f"{name}.s"] = rec["self_s"]
        metrics[f"{name}.calls"] = rec["calls"]
        for key, value in rec.items():
            if key.startswith("ms_p") or key in ("nodes", "dt_min", "dt_max",
                                                 "pairs"):
                metrics[f"{name}.{key}"] = value
    bil = rep["layers"].get("collision.q_bilinear_batch", {})
    metrics["collision.lost_interp_weight"] = bil.get("lost_interp_weight",
                                                      0.0)
    if bil:
        metrics["collision.q_bilinear_batch.pairs_per_s"] = \
            bil["pairs"] / bil["total_s"]
    metrics.update({
        "cli.setup.s": rep["setup_self_s"],
        "cli.other_s": rep["other_s"],
        "solvers.clip_defect": rep.get("clip_defect", 0.0),
        "cli.min_f": rep.get("min_f", 0.0),
        "process.cpu_s": rep["cpu_s"],
        "process.blas_threads": rep["blas_threads"],
        "trace.wall_s": rep["wall_s"],
        "trace.setup_s": rep["setup_s"],
        "trace.overhead_s": statistics.median(
            r["wall_s"] for r in traced) - statistics.median(untraced),
    })
    closure = sum(rec["self_s"] for rec in rep["layers"].values()) \
        + rep["setup_self_s"] + rep["other_s"]
    if abs(closure - rep["wall_s"]) > 1e-6 * rep["wall_s"]:
        raise RuntimeError(f"self times sum to {closure}, wall {rep['wall_s']}")
    return metrics


def select(computed: dict, declared: list[dict]) -> dict:
    """The declared metrics, by name and unit; a missing layer (one the
    workload never enters) reads 0."""
    return {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "kinwave" / "cli.py").is_file() or \
            not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} is not a kinwave checkout (needs "
              "src/kinwave/cli.py and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    harness = Harness(root, args.workload, args.seed, start + DEADLINE_S)
    env = harness.environment()
    if args.trace:
        harness.loop(args.seconds, ("probe", "trace"), 1)
    else:
        harness.loop(args.seconds, ("probe",), MIN_ITERATIONS)
    runs = harness.runs
    failed = sum(not r["ok"] for r in runs)
    if not any("setup_s" in r for r in runs) or \
            (args.trace and not any("layers" in r for r in runs)):
        for r in runs:
            print(f"run failed: {r['errors']}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"runs {len(runs)}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for r in runs:
        if r["errors"]:
            print(f"  FAILED run: {'; '.join(r['errors'])}")
    ok_runs = [r for r in runs if r["ok"] and r["mode"] == "probe"]
    for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("sim_rate", "1/s"),
                      ("peak_rss_mb", "MB")):
        vals = [r[key] for r in ok_runs]
        if vals:
            q1, q2, q3 = quartiles(vals)
            print(f"  {key:<12} median {q2:.6g} {unit}  "
                  f"quartiles [{q1:.6g}, {q3:.6g}]  n={len(vals)}")
    print(f"  fail_rate    {failed / len(runs):.6g}  "
          f"({failed} of {len(runs)} runs)")
    blobs = [r["result_bytes"] for r in runs if "result_bytes" in r]
    if len(blobs) > 1:
        print("  result JSON byte-identical across runs: "
              f"as written {len({b[0] for b in blobs}) == 1}, "
              f"without runtime {len({b[1] for b in blobs}) == 1}")
    if args.trace:
        computed = per_layer(runs)
        declared = spec["per_layer"]
    else:
        computed = end_to_end(runs)
        declared = spec["end_to_end"]
    metrics = select(computed, declared)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k != "result_bytes"}
                       for r in runs]}
    (harness.work.parent / f"BENCH_{args.workload}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
