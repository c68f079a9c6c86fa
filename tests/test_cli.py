import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kinwave
from kinwave import cli, solvers
from kinwave.config import PRESETS, RunConfig, load_config
from kinwave.errors import ConfigError, NonphysicalState
from kinwave.profiles import ContactWave
from kinwave.riemann import generate_states


def _write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


BASE_CONFIG = """
[strengths]
delta_r = 0.06
delta_c = 0.04
delta_s = 0.06

[grid]
y_min = -100
y_max = 60
dy = 0.5

[solver]
t_end = 1.0
seed = 11

[perturbation]
bumps = v:0.01:5:8; theta:-0.005:0:6

[output]
dir = {out}
"""


def test_config_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, BASE_CONFIG.format(out=tmp_path)))
    assert cfg.delta_r == 0.06
    assert cfg.seed == 11
    assert len(cfg.perturbation.bumps) == 2
    assert cfg.perturbation.bumps[1].target == "theta"


def test_empty_config_is_runconfig_defaults():
    """With no file and no preset every key falls back to the RunConfig
    default, including the nested right state, micro mode and transport."""
    assert load_config() == RunConfig()


def test_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[strengths]\ndelta_q = 0.1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[nosuch]\nkey = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[strengths]\ndelta_s = 0.9\n"))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_config_bad_bumps(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[perturbation]\nbumps = v:1:2\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[perturbation]\nbumps = q:1:2:3\n"))


def test_presets():
    cfg = load_config(preset="stability-small")
    assert cfg.delta_r == 0.08
    assert cfg.perturbation.bumps
    with pytest.raises(ConfigError):
        load_config(preset="nope")
    assert "stability-small" in PRESETS


def test_preset_merges_with_file_and_is_validated(tmp_path, monkeypatch):
    cfg = load_config(_write(tmp_path, BASE_CONFIG.format(out=tmp_path)),
                      preset="shock-only")
    assert cfg.delta_s == 0.1 and cfg.y_min == -150.0     # named by preset
    assert cfg.dy == 0.5 and cfg.seed == 11               # kept from file
    monkeypatch.setitem(PRESETS, "bad", "[solver]\nkinetic_dt = -0.02\n")
    with pytest.raises(ConfigError):
        load_config(preset="bad")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cli_riemann_every_preset(tmp_path, name):
    assert cli.main(["riemann", "--preset", name,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name / "riemann.json").exists()


@pytest.mark.parametrize("text", [
    "[solver]\noutput_interval = 0",
    "[solver]\nkinetic_dt = -0.02",
    "[solver]\nmu_coefficient = 0",
    "[solver]\nkappa_coefficient = -1",
    "[solver]\nseed = -1",
    "[grid]\nvelocity_extent = 0",
    "[grid]\nsphere_polar = 0",
    "[grid]\nsphere_azimuth = 0",
    "[grid]\nsphere_polar = 2",
    "[grid]\nsphere_azimuth = 8",
    "[grid]\ny_min = -1e6",
    "[grid]\ny_max = 1e6",
    "[grid]\ny_min = 10\ny_max = 5",
    "[grid]\nnx = 16.5",
    "[grid]\ndy = abc",
    "[states]\nu1_right = nan",
    "[perturbation]\nmicro_amplitude = 2",
    "[perturbation]\nmicro_center = inf",
    "[perturbation]\nmicro_width = 0",
    "[perturbation]\nbumps = v:0.01:inf:5",
    "[output]\ncache_dir = x",
])
def test_cli_invalid_config_exits_before_work(tmp_path, text):
    cfgfile = _write(tmp_path, text + "\n")
    out = tmp_path / "o"
    assert cli.main(["riemann", "--config", str(cfgfile),
                     "--out", str(out)]) == cli.EXIT_IO
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 63])
@pytest.mark.parametrize("command", ["riemann", "collision-check"])
def test_cli_seed_flag_out_of_range_exits_before_work(tmp_path, command,
                                                      seed):
    out = tmp_path / "o"
    assert cli.main([command, "--seed", str(seed),
                     "--out", str(out)]) == cli.EXIT_IO
    assert not out.exists()


def test_config_seed_bound_is_exact(tmp_path):
    cfgfile = _write(tmp_path, f"[solver]\nseed = {2 ** 63}\n")
    with pytest.raises(ConfigError):
        load_config(cfgfile)
    assert load_config(_write(tmp_path, f"[solver]\nseed = {2 ** 63 - 1}\n")
                       ).seed == 2 ** 63 - 1


def test_cli_nan_bump_writes_no_nan(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path / "nan").replace(
        "bumps = v:0.01:5:8; theta:-0.005:0:6", "bumps = v:nan:0:5")
    rc = cli.main(["simulate-fluid", "--config", str(_write(tmp_path, text))])
    assert rc != 0
    for f in (tmp_path / "nan").rglob("*"):
        assert "nan" not in f.read_text().lower()


def test_write_json_rejects_nonfinite(tmp_path):
    with pytest.raises(NonphysicalState):
        cli._write_json(tmp_path / "s.json", {"X_final": float("nan")})
    assert not (tmp_path / "s.json").exists()



def test_write_json_returns_text_written(tmp_path):
    text = cli._write_json(tmp_path / "s.json", {"b": 1, "a": [0.5]})
    assert (tmp_path / "s.json").read_text() == text + "\n"

def test_cli_riemann_deterministic(tmp_path, capsys):
    cfgfile = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "o1"))
    assert cli.main(["riemann", "--config", str(cfgfile)]) == 0
    out1 = (tmp_path / "o1" / "riemann.json").read_bytes()
    assert cli.main(["riemann", "--config", str(cfgfile)]) == 0
    out2 = (tmp_path / "o1" / "riemann.json").read_bytes()
    assert out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 11
    assert data["delta_s"] == pytest.approx(0.06)


def test_cli_bad_config_exit_code(tmp_path):
    bad = _write(tmp_path, "[strengths]\nbogus = 1\n")
    assert cli.main(["riemann", "--config", str(bad)]) == cli.EXIT_IO


def test_cli_simulate_fluid_short(tmp_path):
    cfgfile = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "sim"))
    rc = cli.main(["simulate-fluid", "--config", str(cfgfile)])
    assert rc == 0
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    for key in ("pert_ratio", "xdot_final", "X_over_T"):
        assert key in summary
    # wall-clock time lives in timings.json, so summary.json is reproducible
    assert "runtime" not in summary
    timings = json.loads((tmp_path / "sim" / "timings.json").read_text())
    assert set(timings) == {"setup_s", "stepping_s", "output_s", "steps"}
    assert min(timings["setup_s"], timings["stepping_s"],
               timings["output_s"]) >= 0.0
    assert timings["steps"] > 0
    # the step follows the advective bound only: about 0.1 at dy = 0.5
    assert 0.05 < summary["dt_min"] <= summary["dt_max"] < 0.2
    csv = (tmp_path / "sim" / "diagnostics.csv").read_text().splitlines()
    assert csv[0].startswith("t,X,Xdot,entropy")
    assert len(csv) >= 3


def test_cli_simulate_fluid_write_fields(tmp_path):
    """``[output] write_fields = true`` writes the final state of the run
    to fields_final.csv, one row per node, exactly as ``fluid_run``
    returns it."""
    text = BASE_CONFIG.replace("dir = {out}",
                               "dir = {out}\nwrite_fields = true")
    cfgfile = _write(tmp_path, text.format(out=tmp_path / "sim"))
    assert cli.main(["simulate-fluid", "--config", str(cfgfile)]) == 0
    path = tmp_path / "sim" / "fields_final.csv"
    assert path.read_text().splitlines()[0] == "y,v,u1,u2,u3,theta"
    cfg = load_config(cfgfile)
    final = solvers.fluid_run(generate_states(
        cfg.right_state, cfg.delta_r, cfg.delta_c, cfg.delta_s), cfg).final
    expected = np.column_stack([final.y, final.v, final.u1, final.u2,
                                final.u3, final.theta])
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1),
                          expected)


def test_cli_simulate_fluid_progress_lines(tmp_path, capsys):
    """One stderr line per diagnostics frame, written as the run goes."""
    cfgfile = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "sim"))
    assert cli.main(["simulate-fluid", "--config", str(cfgfile)]) == 0
    lines = capsys.readouterr().err.splitlines()
    csv = (tmp_path / "sim" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == len(csv) - 1
    assert all(line.startswith("t=") and " sup_pert=" in line
               for line in lines)


def test_cli_simulate_fluid_keeps_frames_before_fault(tmp_path, capsys,
                                                     monkeypatch):
    """diagnostics.csv is streamed: a run that stops on a numerical fault
    exits 3 and keeps every frame recorded before it, byte for byte."""
    text = BASE_CONFIG.replace("t_end = 1.0",
                               "t_end = 1.0\noutput_interval = 0.1")
    cfgfile = _write(tmp_path, text.format(out=tmp_path / "full"))
    assert cli.main(["simulate-fluid", "--config", str(cfgfile)]) == 0
    full = (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()
    capsys.readouterr()

    step, calls = solvers.fluid_step, []

    def faulty_step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise NonphysicalState("injected fault")
        return step(*args, **kwargs)

    monkeypatch.setattr(solvers, "fluid_step", faulty_step)
    assert cli.main(["simulate-fluid", "--config", str(cfgfile),
                     "--out", str(tmp_path / "cut")]) \
        == cli.EXIT_NUMERICAL_GUARD
    frames = len(capsys.readouterr().err.splitlines()) - 1   # error line
    csv = (tmp_path / "cut" / "diagnostics.csv").read_text().splitlines()
    assert 2 <= frames < len(full) - 1
    assert csv == full[:1 + frames]


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
t_end = 0.06
kinetic_dt = 0.02
"""


def test_cli_simulate_kinetic_rejects_negative_initial_f(tmp_path, capsys):
    """A micro mode too large for the lattice tails makes the initial
    distribution negative (min f = -3.8e-3 at amplitude 0.5 on the
    kinetic-sanity lattice): exit 3 before the first step, no summary."""
    cfgfile = _write(tmp_path, TINY_KINETIC
                     + "\n[perturbation]\nmicro_amplitude = 0.5\n")
    out = tmp_path / "neg"
    assert cli.main(["simulate-kinetic", "--config", str(cfgfile),
                     "--out", str(out)]) == cli.EXIT_NUMERICAL_GUARD
    assert "min f" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_cli_simulate_kinetic_short(tmp_path):
    cfgfile = _write(tmp_path, TINY_KINETIC)
    assert cli.main(["simulate-kinetic", "--config", str(cfgfile),
                     "--out", str(tmp_path / "kin2")]) == 0
    summary = json.loads((tmp_path / "kin2" / "summary.json").read_text())
    assert summary["conservation_drift"] <= 1e-3
    assert summary["min_f"] >= 0.0
    assert "operator_drift" not in summary          # linearized mode only
    assert "runtime" not in summary
    timings = json.loads((tmp_path / "kin2" / "timings.json").read_text())
    assert timings["steps"] == 3



@pytest.mark.parametrize("t_end", ["0.05", "0"])
def test_cli_simulate_kinetic_rejects_partial_horizon(tmp_path, monkeypatch,
                                                      t_end):
    """A kinetic horizon that is not a positive whole number of steps
    (0.05 at kinetic_dt = 0.02 would end at t = 0.04, 0 would run one
    step) exits 2 before the initial field is built and before the output
    directory is made."""
    def no_field(*args):
        raise AssertionError("initial field built")

    monkeypatch.setattr(solvers, "initial_kinetic_field", no_field)
    cfgfile = _write(tmp_path, TINY_KINETIC.replace("t_end = 0.06",
                                                    f"t_end = {t_end}"))
    out = tmp_path / "kin"
    assert cli.main(["simulate-kinetic", "--config", str(cfgfile),
                     "--out", str(out)]) == cli.EXIT_IO
    assert not out.exists()


def test_cli_simulate_kinetic_progress_lines(tmp_path, capsys):
    """One stderr line per kinetic frame, written as the run goes; stdout
    is the summary.json text."""
    cfgfile = _write(tmp_path, TINY_KINETIC)
    assert cli.main(["simulate-kinetic", "--config", str(cfgfile),
                     "--out", str(tmp_path / "kin")]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    frames = json.loads((tmp_path / "kin" / "kinetic_frames.json").read_text())
    assert len(lines) == len(frames) == 3
    assert all(line.startswith("t=") and " min_f=" in line
               and " micro_norm=" in line for line in lines)
    assert captured.out == (tmp_path / "kin" / "summary.json").read_text()


def _module_env(**extra):
    """The environment of a fresh ``python -m kinwave.cli`` process that
    imports this package, with ``extra`` variables set."""
    env = dict(os.environ, **extra)
    src = str(Path(kinwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_module_run_is_deterministic(tmp_path):
    """``python -m kinwave.cli`` in a fresh process exits 0 and writes
    byte-identical result JSON twice."""
    cfgfile = _write(tmp_path, TINY_KINETIC)
    env = _module_env()
    results = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "kinwave.cli", "simulate-kinetic",
             "--linearized", "--config", str(cfgfile), "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        results.append([(out / f).read_bytes()
                        for f in ("summary.json", "kinetic_frames.json")])
    assert results[0] == results[1]


def test_collision_report_independent_of_blas_threads(tmp_path):
    """``collision-check`` in fresh processes on one and on two BLAS
    threads writes byte-identical reports, on the benchmark's 12^3
    lattice with its 10^3 companion.  The largest eigenvalue there is the
    null space's roundoff, which the threaded eigvalsh leaves at a
    thread-dependent 1e-19 to 3e-14; it is written as 0.0."""
    cfgfile = _write(tmp_path, "[grid]\nvelocity_counts = 12\n")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "kinwave.cli", "collision-check",
             "--config", str(cfgfile), "--out", str(out)],
            env=_module_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append((out / "collision_report.json").read_bytes())
    assert reports[0] == reports[1]
    for check in json.loads(reports[0])["checks"][:2]:
        assert check["max_eigenvalue"] == 0.0


def test_cli_kinetic_sanity_operator_drift(tmp_path):
    """The linearized summary records how far the cells moved from the
    states their operators were frozen at: positive on kinetic-sanity."""
    assert cli.main(["simulate-kinetic", "--linearized", "--preset",
                     "kinetic-sanity", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert 0.0 < summary["operator_drift"] < 1.0


def test_cli_collision_check_narrow_grid_guard(tmp_path):
    text = """
[grid]
velocity_counts = 4

[output]
dir = {out}
""".format(out=tmp_path / "cc")
    cfgfile = _write(tmp_path, text)
    assert cli.main(["collision-check", "--config", str(cfgfile)]) \
        == cli.EXIT_NUMERICAL_GUARD


@pytest.mark.slow
def test_cli_collision_check_default(tmp_path):
    text = """
[grid]
velocity_counts = 12

[output]
dir = {out}
""".format(out=tmp_path / "cc2")
    cfgfile = _write(tmp_path, text)
    assert cli.main(["collision-check", "--config", str(cfgfile),
                     "--seed", "3"]) == 0
    rep1 = (tmp_path / "cc2" / "collision_report.json").read_bytes()
    assert cli.main(["collision-check", "--config", str(cfgfile),
                     "--seed", "3"]) == 0
    rep2 = (tmp_path / "cc2" / "collision_report.json").read_bytes()
    assert rep1 == rep2            # determinism: byte-identical output
    data = json.loads(rep1)
    sig = [c for c in data["checks"] if c["name"].startswith("dissipativity")]
    assert all(c["sigma_tilde"] > 0 for c in sig)
    assert all(c["null_dim"] == 5 for c in sig)


@pytest.mark.slow
def test_cli_profiles_default(tmp_path):
    text = """
[grid]
y_min = -150
y_max = 100
dy = 0.5

[output]
dir = {out}
""".format(out=tmp_path / "prof")
    cfgfile = _write(tmp_path, text)
    assert cli.main(["profiles", "--config", str(cfgfile)]) == 0
    report = json.loads((tmp_path / "prof" / "profile_report.json").read_text())
    assert report["all_passed"]
    assert (tmp_path / "prof" / "profile_shock.csv").exists()
    header = (tmp_path / "prof" / "profile_shock.csv").read_text().splitlines()[0]
    assert header == "y,v,u1,theta,v_y,u1_y,theta_y"


def test_cli_profiles_zero_shock_trivial(tmp_path):
    text = """
[strengths]
delta_r = 0.08
delta_c = 0.0
delta_s = 0.0

[grid]
y_min = -100
y_max = 60
dy = 0.5

[output]
dir = {out}
""".format(out=tmp_path / "prof0")
    cfgfile = _write(tmp_path, text)
    assert cli.main(["profiles", "--config", str(cfgfile)]) == 0
    report = json.loads((tmp_path / "prof0" / "profile_report.json").read_text())
    assert any("shock" in s for s in report["skipped"])
    assert any("contact" in s for s in report["skipped"])


def test_cli_profiles_contact_uses_configured_transport(tmp_path):
    """profile_contact.csv samples the contact wave of the configured
    transport law, as profile_report.json does, not of the default law."""
    text = """
[strengths]
delta_r = 0.0
delta_c = 0.05
delta_s = 0.0

[grid]
y_min = -40
y_max = 40
dy = 0.5

[solver]
kappa_coefficient = 6

[output]
dir = {out}
""".format(out=tmp_path / "prof")
    cfgfile = _write(tmp_path, text)
    cfg = load_config(cfgfile)
    assert cli.main(["profiles", "--config", str(cfgfile)]) == 0
    rows = np.loadtxt(tmp_path / "prof" / "profile_contact.csv",
                      delimiter=",", skiprows=1)
    y = rows[:, 0]
    p = ContactWave(cli._decomposition(cfg), cfg.transport).eval(1.0, y)
    assert np.array_equal(rows, np.column_stack(
        [y, p.v, p.u1, p.theta, p.v_y, p.u1_y, p.theta_y]))
