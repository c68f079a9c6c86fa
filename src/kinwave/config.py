"""Run configuration: INI-style key = value files with fixed sections.

Unknown sections or keys are rejected so config typos fail loudly.  Presets
are INI fragments checked exactly like a user config.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .gas import FluidTriple, TransportLaw
from .solvers import GaussianBump, PerturbationSpec

_RANGES = {
    ("states", "v_right"): (1e-3, 1e3),
    ("states", "u1_right"): (-1e3, 1e3),
    ("states", "theta_right"): (1e-3, 1e3),
    ("strengths", "delta_r"): (0.0, 0.5),
    ("strengths", "delta_c"): (0.0, 0.5),
    ("strengths", "delta_s"): (0.0, 0.3),
    ("grid", "y_min"): (-1e5, 1e5),
    ("grid", "y_max"): (-1e5, 1e5),
    ("grid", "dy"): (1e-4, 10.0),
    ("grid", "velocity_counts"): (4, 64),
    ("grid", "velocity_extent"): (1.0, 50.0),
    # one collision rule, +-e1 and +-e2 (``VelocityGrid.omega``): 1 polar x
    # 4 azimuthal nodes.  The keys accept only that, so configs that spell
    # it out still load and any other value fails
    ("grid", "sphere_polar"): (1, 1),
    ("grid", "sphere_azimuth"): (4, 4),
    ("grid", "nx"): (8, 100_000),
    ("perturbation", "micro_amplitude"): (-1.0, 1.0),
    ("perturbation", "micro_center"): (-1e5, 1e5),
    ("perturbation", "micro_width"): (1e-3, 1e5),
    ("solver", "t_end"): (0.0, 1e6),
    ("solver", "output_interval"): (1e-6, 1e6),
    ("solver", "dt_factor"): (1e-3, 1.0),
    ("solver", "kinetic_dt"): (1e-6, 10.0),
    ("solver", "mu_coefficient"): (1e-3, 1e3),
    ("solver", "kappa_coefficient"): (1e-3, 1e3),
    ("solver", "seed"): (0, 2 ** 63 - 1),
}
#: every [section] key: the ranged ones plus the three without a range
_KEYS = (*_RANGES, ("perturbation", "bumps"), ("output", "dir"),
         ("output", "write_fields"))
_SCHEMA = {sec: {k for s, k in _KEYS if s == sec} for sec, _ in _KEYS}


@dataclass
class RunConfig:
    right_state: FluidTriple = field(
        default_factory=lambda: FluidTriple(v=1.0, u=(0.0, 0.0, 0.0), theta=1.0))
    delta_r: float = 0.08
    delta_c: float = 0.05
    delta_s: float = 0.08
    y_min: float = -600.0
    y_max: float = 200.0
    dy: float = 0.2
    velocity_counts: int = 16
    velocity_extent: float = 6.0
    nx: int = 64
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    t_end: float = 200.0
    output_interval: float = 2.0
    dt_factor: float = 1.0
    kinetic_dt: float = 0.02
    transport: TransportLaw = field(default_factory=TransportLaw)
    seed: int = 0
    out_dir: Path = Path("out")
    write_fields: bool = False


def _parse_bumps(text: str) -> tuple[GaussianBump, ...]:
    bumps = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"bump '{item}' must be target:amplitude:center:width")
        target = parts[0].strip()
        if target not in ("v", "u1", "u2", "u3", "theta"):
            raise ConfigError(f"unknown bump target '{target}'")
        try:
            amp, center, width = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise ConfigError(f"bump '{item}': {exc}") from exc
        if not all(math.isfinite(x) for x in (amp, center, width)):
            raise ConfigError(f"bump '{item}': values must be finite")
        if width <= 0:
            raise ConfigError(f"bump '{item}': width must be positive")
        bumps.append(GaussianBump(target, amp, center, width))
    return tuple(bumps)


def load_config(path=None, preset: str | None = None) -> RunConfig:
    """Build a run configuration from an INI file, a preset, or both (the
    preset overrides the keys it names); defaults fill the rest.  The
    merged result is checked against the schema and ranges once."""
    parser = configparser.ConfigParser()
    try:
        if path is not None:
            # read_file, not read: read skips a path it cannot open
            try:
                with open(path) as fh:
                    parser.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(
                    f"unknown preset '{preset}'; available: {sorted(PRESETS)}")
            parser.read_string(PRESETS[preset], source=f"<preset {preset}>")
        return _build(parser)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def check_range(section: str, key: str, value) -> None:
    """ConfigError unless ``value`` lies in the range of ``[section] key``
    (also used for the CLI flag that overrides the key)."""
    lo, hi = _RANGES[(section, key)]
    if not lo <= value <= hi:
        raise ConfigError(f"{section}.{key} = {value} outside [{lo}, {hi}]")


def _build(parser: configparser.ConfigParser) -> RunConfig:
    """Check the merged parser against the schema and ranges, then map it
    onto a RunConfig."""
    if parser.defaults():     # [DEFAULT] keys would leak into every section
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    for sec, key in _RANGES:
        if parser.has_option(sec, key):
            text = parser.get(sec, key)
            try:                      # exact comparison for integer keys
                val = int(text)
            except ValueError:
                val = float(text)
            check_range(sec, key, val)

    cfg = RunConfig()

    def getf(sec, key, default):
        return parser.getfloat(sec, key) if parser.has_option(sec, key) else default

    def geti(sec, key, default):
        return parser.getint(sec, key) if parser.has_option(sec, key) else default

    cfg.right_state = FluidTriple(
        v=getf("states", "v_right", cfg.right_state.v),
        u=(getf("states", "u1_right", cfg.right_state.u1), 0.0, 0.0),
        theta=getf("states", "theta_right", cfg.right_state.theta))
    cfg.delta_r = getf("strengths", "delta_r", cfg.delta_r)
    cfg.delta_c = getf("strengths", "delta_c", cfg.delta_c)
    cfg.delta_s = getf("strengths", "delta_s", cfg.delta_s)
    cfg.y_min = getf("grid", "y_min", cfg.y_min)
    cfg.y_max = getf("grid", "y_max", cfg.y_max)
    cfg.dy = getf("grid", "dy", cfg.dy)
    cfg.velocity_counts = geti("grid", "velocity_counts", cfg.velocity_counts)
    cfg.velocity_extent = getf("grid", "velocity_extent", cfg.velocity_extent)
    cfg.nx = geti("grid", "nx", cfg.nx)
    cfg.perturbation = PerturbationSpec(
        bumps=_parse_bumps(parser.get("perturbation", "bumps", fallback="")),
        micro_amplitude=getf("perturbation", "micro_amplitude",
                             cfg.perturbation.micro_amplitude),
        micro_center=getf("perturbation", "micro_center",
                          cfg.perturbation.micro_center),
        micro_width=getf("perturbation", "micro_width",
                         cfg.perturbation.micro_width))
    cfg.t_end = getf("solver", "t_end", cfg.t_end)
    cfg.output_interval = getf("solver", "output_interval", cfg.output_interval)
    cfg.dt_factor = getf("solver", "dt_factor", cfg.dt_factor)
    cfg.kinetic_dt = getf("solver", "kinetic_dt", cfg.kinetic_dt)
    cfg.transport = TransportLaw(
        A1=getf("solver", "mu_coefficient", cfg.transport.A1),
        A2=getf("solver", "kappa_coefficient", cfg.transport.A2))
    cfg.seed = geti("solver", "seed", cfg.seed)
    if parser.has_option("output", "dir"):
        cfg.out_dir = Path(parser.get("output", "dir"))
    if parser.has_option("output", "write_fields"):
        cfg.write_fields = parser.getboolean("output", "write_fields")
    if cfg.y_min >= cfg.y_max:
        raise ConfigError(f"grid.y_min = {cfg.y_min} >= y_max = {cfg.y_max}")
    return cfg


PRESETS: dict[str, str] = {
    "stability-small": """
[strengths]
delta_r = 0.08
delta_c = 0.05
delta_s = 0.08
[perturbation]
bumps = v:0.01:0:25; u1:-0.01:0:25; theta:-0.01:0:25
[solver]
t_end = 200.0
""",
    "shock-only": """
[strengths]
delta_r = 0.0
delta_c = 0.0
delta_s = 0.1
[grid]
y_min = -150.0
y_max = 150.0
[perturbation]
bumps = u1:0.01:0:8
[solver]
t_end = 50.0
""",
    "kinetic-sanity": """
[strengths]
delta_r = 0.02
delta_c = 0.02
delta_s = 0.05
[grid]
y_min = -15.0
y_max = 15.0
nx = 64
velocity_counts = 6
[solver]
t_end = 4.0
kinetic_dt = 0.02
""",
}
