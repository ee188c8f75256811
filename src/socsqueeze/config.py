"""INI run configurations: parsing, validation, and default resolution.

Precedence for the settings that have knobs elsewhere: command-line flag,
then SOCSQUEEZE_* environment variable, then the config file, then the
built-in default.  The resolved configuration (every default made explicit)
is what lands in the run manifest.
"""

import configparser
import os
from dataclasses import dataclass, field

from .bands import DEFAULT_POINTS, DEFAULT_TOL_DEG, DEFAULT_WINDOW
from .errors import ConfigError
from .gp import SOLVER_DEFAULTS, GridSpec, InteractionConfig, TrapConfig, check_solver_settings
from .params import ModelParams

COMMANDS = ("dispersion", "phase-diagram", "eff-squeeze", "gp-ground", "sweep")
BACKENDS = ("ed", "gaussian", "gp")
SWEEP_AXES = ("omega_R", "delta", "epsilon")
ENV_PREFIX = "SOCSQUEEZE_"

# Rb-87 scattering lengths (Bohr radii) used when [interaction] omits them
DEFAULT_A_S0 = 101.8
DEFAULT_A_S2 = 100.4


def _get(section, key, cast, default=None, required=False):
    if section is None or key not in section:
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _floats(raw):
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _ints(raw):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


@dataclass
class AxisSpec:
    """One swept parameter: its name and the resolved value list."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.name!r}; expected one of {SWEEP_AXES}")
        if len(self.values) < 2:
            raise ConfigError(f"axis {self.name!r} needs at least 2 values")


def _axis_from_section(section, suffix=""):
    name = _get(section, f"axis{suffix}", str, required=True)
    values = _get(section, f"values{suffix}", _floats)
    if values is None:
        lo = _get(section, f"min{suffix}", float, required=True)
        hi = _get(section, f"max{suffix}", float, required=True)
        count = _get(section, f"count{suffix}", int, required=True)
        if count < 2:
            raise ConfigError(f"axis count must be >= 2, got {count}")
        step = (hi - lo) / (count - 1)
        values = tuple(lo + step * i for i in range(count))
    return AxisSpec(name=name, values=values)


@dataclass
class RunConfig:
    """Fully resolved run request, ready for the runner."""

    command: str
    backend: str
    out: str
    seed: int
    jobs: int
    params: ModelParams
    tol_deg: float = DEFAULT_TOL_DEG
    window: tuple = DEFAULT_WINDOW
    n_points: int = DEFAULT_POINTS
    sweep: AxisSpec = None
    axis1: AxisSpec = None
    axis2: AxisSpec = None
    trap: TrapConfig = None
    interaction: InteractionConfig = None
    grid: GridSpec = None
    solver: dict = field(default_factory=lambda: dict(SOLVER_DEFAULTS))

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.command == "phase-diagram" and (self.axis1 is None or self.axis2 is None):
            raise ConfigError("phase-diagram needs [phase-diagram] axis1/axis2")
        if self.command == "sweep" and self.sweep is None:
            raise ConfigError("sweep needs a [sweep] section")
        needs_gp = self.command == "gp-ground" or (
            self.command == "sweep" and self.backend == "gp"
        )
        if needs_gp and self.grid is None:
            raise ConfigError("GP runs need a [grid] section")
        check_solver_settings(**self.solver)

    def resolved(self):
        """Manifest dictionary with every default made explicit."""
        d = {
            "command": self.command,
            "backend": self.backend,
            "out": self.out,
            "seed": self.seed,
            "jobs": self.jobs,
            "params": {
                "omega_R": self.params.omega_R,
                "delta": self.params.delta,
                "epsilon": self.params.epsilon,
                "N": self.params.N,
            },
            "tol_deg": self.tol_deg,
            "window": list(self.window),
            "n_points": self.n_points,
            "solver": dict(self.solver),
        }
        if self.sweep is not None:
            d["sweep"] = {"axis": self.sweep.name, "values": list(self.sweep.values)}
        if self.axis1 is not None:
            d["axis1"] = {"axis": self.axis1.name, "values": list(self.axis1.values)}
        if self.axis2 is not None:
            d["axis2"] = {"axis": self.axis2.name, "values": list(self.axis2.values)}
        if self.trap is not None:
            d["trap"] = {
                "omega_x": self.trap.omega_x,
                "omega_y": self.trap.omega_y,
                "omega_z": self.trap.omega_z,
                "recoil_frequency": self.trap.recoil_frequency,
            }
        if self.interaction is not None:
            d["interaction"] = {
                "a_s0": self.interaction.a_s0,
                "a_s2": self.interaction.a_s2,
                "N": self.interaction.N,
            }
        if self.grid is not None:
            d["grid"] = {
                "n_points": list(self.grid.n_points),
                "extent": list(self.grid.extent),
            }
        return d


def load_config(path, overrides=None):
    """Parse an INI file into a RunConfig, applying env and flag overrides."""
    overrides = overrides or {}
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")

    run = parser["run"] if parser.has_section("run") else None
    if run is None:
        raise ConfigError("config needs a [run] section")

    def setting(key, cast, default):
        if key in overrides and overrides[key] is not None:
            return overrides[key]
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                return cast(env)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {ENV_PREFIX}{key.upper()} value {env!r}") from exc
        return _get(run, key, cast, default=default)

    command = _get(run, "command", str, required=True)
    backend = setting("backend", str, "ed")
    out = setting("out", str, "results")
    seed = setting("seed", int, 0)
    jobs = setting("jobs", int, 1)

    psec = parser["params"] if parser.has_section("params") else None
    params = ModelParams(
        omega_R=_get(psec, "omega_R", float, 0.0),
        delta=_get(psec, "delta", float, 0.0),
        epsilon=_get(psec, "epsilon", float, 0.0),
        N=_get(psec, "N", int, 100),
    )

    window, n_points, tol_deg = DEFAULT_WINDOW, DEFAULT_POINTS, DEFAULT_TOL_DEG
    if parser.has_section("dispersion"):
        dsec = parser["dispersion"]
        window = (_get(dsec, "k_min", float, DEFAULT_WINDOW[0]),
                  _get(dsec, "k_max", float, DEFAULT_WINDOW[1]))
        n_points = _get(dsec, "n_points", int, DEFAULT_POINTS)

    sweep = axis1 = axis2 = None
    if parser.has_section("sweep"):
        sweep = _axis_from_section(parser["sweep"])
    if parser.has_section("phase-diagram"):
        gsec = parser["phase-diagram"]
        axis1 = _axis_from_section(gsec, "1")
        axis2 = _axis_from_section(gsec, "2")
        tol_deg = _get(gsec, "tol_deg", float, DEFAULT_TOL_DEG)
        window = (_get(gsec, "k_min", float, window[0]),
                  _get(gsec, "k_max", float, window[1]))
        n_points = _get(gsec, "n_points", int, n_points)

    trap = None
    if parser.has_section("trap"):
        tsec = parser["trap"]
        trap = TrapConfig(
            omega_x=_get(tsec, "omega_x", float, required=True),
            omega_y=_get(tsec, "omega_y", float, required=True),
            omega_z=_get(tsec, "omega_z", float, required=True),
            recoil_frequency=_get(tsec, "recoil_frequency", float, required=True),
        )

    interaction = None
    if parser.has_section("interaction"):
        isec = parser["interaction"]
        interaction = InteractionConfig(
            a_s0=_get(isec, "a_s0", float, DEFAULT_A_S0),
            a_s2=_get(isec, "a_s2", float, DEFAULT_A_S2),
            N=_get(isec, "n_atoms", float, float(params.N)),
        )

    grid = None
    if parser.has_section("grid"):
        gsec = parser["grid"]
        grid = GridSpec(
            n_points=_get(gsec, "n_points", _ints, required=True),
            extent=_get(gsec, "extent", _floats, required=True),
        )

    solver = dict(SOLVER_DEFAULTS)
    if parser.has_section("solver"):
        ssec = parser["solver"]
        solver["dt"] = _get(ssec, "dt", float, solver["dt"])
        solver["tol"] = _get(ssec, "tol", float, solver["tol"])
        solver["max_steps"] = _get(ssec, "max_steps", int, solver["max_steps"])
        solver["check_every"] = _get(ssec, "check_every", int, solver["check_every"])

    return RunConfig(
        command=command, backend=backend, out=out, seed=seed, jobs=jobs,
        params=params, tol_deg=tol_deg, window=window, n_points=n_points,
        sweep=sweep, axis1=axis1, axis2=axis2, trap=trap,
        interaction=interaction, grid=grid, solver=solver,
    )
