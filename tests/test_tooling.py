"""Guards for the benchmark tooling that lives outside the package."""

import importlib.util
from pathlib import Path

LAUNCH = Path(__file__).resolve().parents[1] / "bench" / "launch.py"


def test_bench_trace_layers_resolve():
    """Every entry point the traced benchmark wraps still exists, so a
    rename fails here instead of breaking ``bench/run.py --trace 1``."""
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    for name, module, path, _ in launch.LAYERS:
        owner, attr = launch._resolve(module, path)
        assert attr in owner.__dict__, f"{name}: {module}.{path} missing"
