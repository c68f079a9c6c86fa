"""Child side of the kinwave benchmark.

Runs ``python -m kinwave.cli CLI_ARGS`` inside this process, after wrapping
kinwave entry points with timers defined here; nothing under ``src/`` is
edited.  Usage::

    python3 bench/launch.py probe PROBE_JSON MARKER -- CLI_ARGS...
    python3 bench/launch.py trace PROBE_JSON MARKER -- CLI_ARGS...
    python3 bench/launch.py env

``probe`` wraps only the layer named MARKER (the workload's first stepping
call) and records when it is first entered: the one timestamp an untraced
run takes.  ``trace`` wraps every entry point in ``LAYERS``, keeps
parent-linked spans in memory and, when the CLI exits, writes per-layer
self times, call counts and counters to PROBE_JSON.  ``env`` prints the
library versions and the BLAS thread counts this process sees.

Timestamps are ``time.monotonic()``, the clock the parent harness starts
and stops its own timer with, so both sides share one time base.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import json
import math
import os
import platform
import runpy
import sys
import time


def _frame_nodes(stats, args, kwargs, out):
    y = args[3] if len(args) > 3 else kwargs["y"]
    stats["nodes"] = stats.get("nodes", 0) + len(y)


def _fluid_dt(stats, args, kwargs, out):
    dt = float(args[1] if len(args) > 1 else kwargs["dt"])
    stats["dt_min"] = min(stats.get("dt_min", math.inf), dt)
    stats["dt_max"] = max(stats.get("dt_max", -math.inf), dt)


def _bilinear_pairs(stats, args, kwargs, out):
    G = args[0] if args else kwargs["G"]
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    stats["pairs"] = (stats.get("pairs", 0)
                      + G.shape[0] * grid.n_nodes ** 2 * len(grid.omega))
    stats["lost_interp_weight"] = (stats.get("lost_interp_weight", 0.0)
                                   + out.lost_interp_weight)


#: (layer name, module, attribute path, counter).  Several entries may share
#: one layer name; their spans are pooled.
LAYERS = (
    ("profiles.build", "kinwave.ansatz", "CompositeAnsatz.__init__", None),
    ("ansatz.frame", "kinwave.ansatz", "CompositeAnsatz.frame", _frame_nodes),
    ("ansatz.shift_rhs", "kinwave.ansatz", "shift_rhs", None),
    ("ansatz.diagnostics_frame", "kinwave.ansatz", "diagnostics_frame", None),
    ("solvers.fluid_step", "kinwave.solvers", "fluid_step", _fluid_dt),
    ("solvers.cfl_limit", "kinwave.solvers", "cfl_limit", None),
    ("solvers.kinetic_step", "kinwave.solvers", "kinetic_step", None),
    ("solvers.LinearizedKineticSolver.step", "kinwave.solvers",
     "LinearizedKineticSolver.step", None),
    ("solvers.lu_solve", "kinwave.solvers", "lu_solve", None),
    ("velocity.moments", "kinwave.velocity", "moments", None),
    ("velocity.VelocityGrid.maxwellian", "kinwave.velocity",
     "VelocityGrid.maxwellian", None),
    ("velocity.Projector", "kinwave.velocity", "Projector.__init__", None),
    ("velocity.Projector", "kinwave.velocity", "Projector.macro", None),
    ("collision.q_bilinear_batch", "kinwave.collision", "q_bilinear_batch",
     _bilinear_pairs),
    ("collision.q_bilinear", "kinwave.collision", "q_bilinear", None),
    ("collision.assemble_linearized", "kinwave.collision",
     "assemble_linearized", None),
    ("collision.LinearizedOperator.spectrum_meta", "kinwave.collision",
     "LinearizedOperator.spectrum_meta", None),
    ("collision.measure_dissipativity", "kinwave.collision",
     "measure_dissipativity", None),
)


class Tracer:
    """Span recorder.  A span is [layer, start, end, parent index]; the
    parent is the innermost span open when the call began (-1 at top
    level)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict] = {}

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack
        stats = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(i)
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[i][1] = start
                spans[i][2] = end
            if counter is not None:
                counter(stats, args, kwargs, out)
            return out

        return timed

    def summary(self, marker: str) -> dict:
        """Self time per layer (duration minus the children's durations),
        call counts, per-call percentiles and the top-level time spent
        before and after the first ``marker`` call."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        first = next((s[1] for s in self.spans if s[0] == marker), None)
        layers: dict[str, dict] = {}
        durations: dict[str, list] = {}
        top_before = top_after = 0.0
        straddling = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = layers.setdefault(name, {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            rec["total_s"] += end - start
            durations.setdefault(name, []).append(end - start)
            if parent < 0 and first is not None:
                if end <= first:
                    top_before += end - start
                elif start >= first:
                    top_after += end - start
                else:
                    straddling.append(name)
        for name, rec in layers.items():
            d = sorted(durations[name])
            for p in (50, 95, 99):
                rec[f"ms_p{p}"] = 1e3 * d[max(0, math.ceil(p / 100 * len(d)) - 1)]
            rec.update(self.counters.get(name, {}))
        return {"first_call": first, "top_before_s": top_before,
                "top_after_s": top_after, "straddling": straddling,
                "layers": layers}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(tracer: Tracer, layers) -> None:
    """Replace each entry point by its timed wrapper.  A module-level
    function is rebound in every ``kinwave`` module that imported it by
    name (a foreign one, such as scipy's ``lu_solve``, only in the module
    named); the CLI module runs afterwards, so its own imports bind the
    wrappers."""
    for name, module, path, counter in layers:
        owner, attr = _resolve(module, path)
        fn = owner.__dict__[attr]
        timed = tracer.wrap(name, fn, counter)
        if isinstance(owner, type):
            setattr(owner, attr, timed)
            continue
        if getattr(fn, "__module__", None) != module:
            setattr(owner, attr, timed)
            continue
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("kinwave") and mod is not None \
                    and mod.__dict__.get(attr) is fn:
                setattr(mod, attr, timed)


def _openblas_libs():
    import numpy
    import scipy
    for pkg, sym in ((numpy, "scipy_openblas_get_num_threads64_"),
                     (scipy, "scipy_openblas_get_num_threads")):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so"))):
            yield pkg.__name__, ctypes.CDLL(path), sym


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy loaded."""
    out = {}
    for owner, lib, sym in _openblas_libs():
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            out[owner] = fn()
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    configs = {}
    for owner, lib, sym in _openblas_libs():
        fn = getattr(lib, sym.replace("num_threads", "config"), None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            configs[owner] = fn().decode()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_config": configs,
            "blas_threads": blas_threads()}


def main(argv: list[str]) -> int:
    if argv[:1] == ["env"]:
        import kinwave.cli  # noqa: F401  (warms the import path)
        print(json.dumps(environment(), sort_keys=True))
        return 0
    mode, probe_path, marker, sep, *cli_args = argv
    if mode not in ("probe", "trace") or sep != "--":
        raise SystemExit(f"usage: {sys.argv[0]} probe|trace PROBE MARKER -- ARGS")
    # import the layers but not kinwave.cli: runpy must execute the CLI
    # module fresh as __main__, after the wrappers are in place
    for module in {m for _, m, _, _ in LAYERS}:
        importlib.import_module(module)
    tracer = Tracer()
    install(tracer, LAYERS if mode == "trace"
            else [layer for layer in LAYERS if layer[0] == marker])
    sys.argv = ["kinwave.cli", *cli_args]
    code = 0
    try:
        runpy.run_module("kinwave.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        record = tracer.summary(marker)
        if mode == "trace":
            record["blas_threads"] = blas_threads()
        else:
            del record["layers"]
        with open(probe_path, "w") as fh:
            json.dump(record, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
