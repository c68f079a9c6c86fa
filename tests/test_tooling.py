"""Guards for the benchmark tooling that lives outside the package."""

import importlib.util
import inspect
from pathlib import Path

from kinwave.config import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAUNCH = BENCH / "launch.py"

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


def test_bench_workloads_load():
    """Every pinned workload INI passes the strict config schema, so a key
    removed from the schema fails here instead of at benchmark time."""
    inis = sorted((BENCH / "workloads").glob("*.ini"))
    assert inis
    for ini in inis:
        load_config(ini)
