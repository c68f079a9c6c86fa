"""Guards for the benchmark tooling that lives outside the package, and
for the package exporting only what it runs."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kinwave import cli
from kinwave.config import RunConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
LAUNCH = BENCH / "launch.py"
RUN = BENCH / "run.py"
PACKAGE = ROOT / "src" / "kinwave"

#: public definitions kept without a caller in the package, with the reason
UNCALLED_KEPT = {
    "shift_H_alpha_form": "acceptance contract: the alpha form of H",
    "poincare_check": "acceptance contract: the weighted Poincare inequality",
    "g_tilde_split": "microscopic field split, to be driven by the kinetic "
                     "diagnostics (ROADMAP item 7)",
    "shock_micro_leading": "microscopic leading term of the shock profile "
                           "(ROADMAP item 5)",
    "kernels": "pointwise compact kernels (k1, k2) from the same _k1 and "
               "_k2_exp the operator assembly uses; the kernel tests read it",
}

#: the positional parameters each trace counter of bench/launch.py reads
#: from the wrapped call, as {position: name} (it falls back to the name
#: when the argument comes by keyword)
COUNTER_ARGS = {
    "_fluid_dt": {1: "dt"},
    "_frame_nodes": {3: "y"},
    "_bilinear_pairs": {0: "G", 2: "grid"},
}


def _launch():
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch


@pytest.mark.parametrize("workload", ["fluid-crit9", "kinetic-full",
                                      "kinetic-linearized", "collision-check"])
def test_workloads_match_bench_reference(tmp_path, monkeypatch, workload):
    """Every benchmark workload, run with the benchmark's own arguments,
    reproduces ``bench/reference.json`` to its tolerances at the reference
    seed (the seeded sigma_tilde fields of ``collision_report.json``
    included), so a change that moves their results fails here and not
    only in the benchmark's pass rate."""
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    # the module's frozen dataclass looks itself up in sys.modules
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    reference = json.loads((BENCH / "reference.json").read_text())
    out = tmp_path / workload
    ini = BENCH / "workloads" / f"{workload}.ini"
    assert cli.main([*run.WORKLOADS[workload].args, "--config", str(ini),
                     "--out", str(out), "--seed", "0"]) == cli.EXIT_OK
    assert run.check_outputs(out, reference[workload], 0) == []


TINY_KINETIC = """
[strengths]
delta_r = 0.02
delta_c = 0.02
delta_s = 0.05
[grid]
y_min = -8
y_max = 8
nx = 16
velocity_counts = 6
[solver]
t_end = 0.04
kinetic_dt = 0.02
"""


def _launch_record(tmp_path, mode, marker, flags, ini):
    """The record ``bench/launch.py MODE`` writes for one CLI run."""
    probe = tmp_path / "probe.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), mode, str(probe), marker, "--",
         *flags, "--config", str(ini),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(probe.read_text())


@pytest.mark.parametrize("flags, marker", [
    (("simulate-kinetic",), "solvers.kinetic_step"),
    (("simulate-kinetic", "--linearized"),
     "solvers.LinearizedKineticSolver.step"),
    (("collision-check",), "collision.assemble_linearized")])
def test_bench_probe_sees_kinetic_step(tmp_path, flags, marker):
    """``bench/launch.py probe`` rebinds the workload's marker before the
    CLI runs, so the code that reaches the marker must look it up when it
    runs: the kinetic run driver its step, ``collision-check`` its first
    ``assemble_linearized`` (the end of its set-up).  A name bound at
    import would leave ``first_call`` null and every benchmark run would
    fail."""
    if flags[0] == "collision-check":
        # its workload INI: the 6^3 lattice of TINY_KINETIC fails the
        # basis gate of collision-check (exit 3)
        ini = BENCH / "workloads" / "collision-check.ini"
    else:
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_KINETIC)
    record = _launch_record(tmp_path, "probe", marker, flags, ini)
    assert record["first_call"] is not None


def test_bench_trace_reads_bilinear_result(tmp_path):
    """The traced full-mode kinetic run: ``_bilinear_pairs`` reads the
    batch from ``q_bilinear_batch``'s arguments, ``grid.omega`` and the
    result's ``lost_interp_weight``, so the layer record holds a positive
    pair count and a lost weight of zero.  Dropping any of those reads
    breaks ``bench/run.py --trace 1`` on ``kinetic-full``."""
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_KINETIC)
    record = _launch_record(tmp_path, "trace", "solvers.kinetic_step",
                            ("simulate-kinetic",), ini)
    layer = record["layers"]["collision.q_bilinear_batch"]
    assert layer["pairs"] > 0
    assert layer["lost_interp_weight"] == 0.0


def test_bench_trace_layers_resolve():
    """Every entry point the traced benchmark wraps still exists, so a
    rename fails here instead of breaking ``bench/run.py --trace 1``."""
    launch = _launch()
    for name, module, path, _ in launch.LAYERS:
        owner, attr = launch._resolve(module, path)
        assert attr in owner.__dict__, f"{name}: {module}.{path} missing"


def test_bench_trace_counters_match_signatures():
    """Each trace counter reads its arguments by position; the wrapped entry
    point must keep those parameters there, so a signature change fails
    here instead of silently dropping the counter."""
    launch = _launch()
    seen = set()
    for name, module, path, counter in launch.LAYERS:
        if counter is None:
            continue
        owner, attr = launch._resolve(module, path)
        params = list(inspect.signature(owner.__dict__[attr]).parameters)
        for pos, param in COUNTER_ARGS[counter.__name__].items():
            assert params[pos:pos + 1] == [param], \
                f"{name}: parameter {pos} of {path} is not '{param}'"
        seen.add(counter.__name__)
    assert seen == set(COUNTER_ARGS)


SCIPY_PROBE = """
import importlib, sys
import numpy as np


def loaded(stage):
    print(stage, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))


for name in sys.argv[1:]:
    importlib.import_module(name)
loaded("import")
from kinwave.ansatz import CompositeAnsatz
from kinwave.collision import assemble_linearized
from kinwave.config import load_config
from kinwave.riemann import generate_states
from kinwave.solvers import (FluidField, LinearizedKineticSolver, cfl_limit,
                             fluid_step, initial_kinetic_field)
cfg = load_config(preset="kinetic-sanity")
d = generate_states(cfg.right_state, cfg.delta_r, cfg.delta_c, cfg.delta_s)
CompositeAnsatz(d)
loaded("ansatz")
y = np.linspace(-10.0, 10.0, 101)
st = FluidField(y, np.ones_like(y), 0.2 + 0.05 * np.sin(y), np.zeros_like(y),
                np.zeros_like(y), np.full_like(y, 1.1))
fluid_step(st, 0.5 * cfl_limit(st, 1.0), 1.0)
loaded("fluid_step")
field = initial_kinetic_field(d, cfg)
op = assemble_linearized(d.mid_hi, field.grid, gram_tol=0.5)
op.spectrum_meta()
op.invert_micro(op.apply(field.grid.node_array(0) ** 3 * op.projector.M))
loaded("operator")
LinearizedKineticSolver(field, d.sigma, cfg.kinetic_dt)
loaded("linearized_solver")
"""


def test_profile_stack_never_loads():
    """No kinwave command loads scipy, its profile stack (ODE, spline,
    root-finder and sparse subpackages) included: not importing the CLI
    and every module the benchmark trace wraps, building a
    ``CompositeAnsatz``, one ``fluid_step``, one ``assemble_linearized``
    with ``spectrum_meta`` and ``invert_micro`` on it, nor constructing a
    ``LinearizedKineticSolver`` on the kinetic-sanity lattice.  numpy is
    the only runtime dependency; scipy serves the tests as an oracle."""
    modules = ["kinwave.cli",
               *sorted({module for _, module, _, _ in _launch().LAYERS})]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *modules],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{stage} []" for stage in ("import", "ansatz", "fluid_step",
                                    "operator", "linearized_solver")]


def test_bench_workloads_load():
    """Every pinned workload INI passes the strict config schema, so a key
    removed from the schema fails here instead of at benchmark time."""
    inis = sorted((BENCH / "workloads").glob("*.ini"))
    assert inis
    for ini in inis:
        load_config(ini)


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, name) of every public module-level function or
    class of ``tree``, and of every public method or property of its
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield f"{module}:{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{module}:{node.name}.{item.name}", item.name


def test_package_defines_only_what_it_uses():
    """Every public module-level function or class in the package, and
    every public method or property of its classes, is referenced by name
    or attribute somewhere in the package (the ``__init__`` re-exports
    count), wrapped by a bench/launch.py trace layer, or named in
    UNCALLED_KEPT.  A helper that only the tests call fails here: its
    oracle belongs in the test module."""
    trees = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    used.update(path.split(".")[0] for _, _, path, _ in _launch().LAYERS)
    unused = sorted(
        qualified for module, tree in trees.items()
        for qualified, name in _public_definitions(module, tree)
        if name not in used and name not in UNCALLED_KEPT)
    assert not unused, f"defined but never used in the package: {unused}"
    assert not set(UNCALLED_KEPT) & used, "UNCALLED_KEPT entry now has a caller"


#: the macroscopic modules, and the microscopic ones they must not import
MACRO_MODULES = ("profiles", "ansatz", "riemann", "gas")
MICRO_MODULES = {"velocity", "collision"}


@pytest.mark.parametrize("module", MACRO_MODULES)
def test_macroscopic_modules_do_not_import_the_lattice(module):
    """The wave profiles, the ansatz, the Riemann solver and the gas laws
    import nothing from ``velocity`` or ``collision``, at module level or
    inside a function: what acts on the velocity lattice lives there."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("kinwave")):
            names = [*(node.module or "").split("."),
                     *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     if alias.name.startswith("kinwave")
                     for part in alias.name.split(".")]
        else:
            continue
        hits = MICRO_MODULES.intersection(names)
        assert not hits, f"{module}.py:{node.lineno} imports {sorted(hits)}"


def test_every_config_field_is_read():
    """Every RunConfig field is read as an attribute somewhere in the
    package outside config.py, so a key that nothing reads fails here."""
    read = {node.attr
            for path in PACKAGE.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in read]
    assert not unread, f"RunConfig fields that nothing reads: {unread}"
