"""INI run configurations: the config schema, parsing, validation, and
default resolution.

This module owns every configuration type and default that a run resolves:
the band window and degeneracy tolerance, the ED atom-number cap, the GP
trap, interaction, grid and solver settings.  Each setup rule that both
``RunConfig`` and a library entry point apply is one function here:
``check_window`` (``bands``), ``check_ed_atoms`` (``fockspace``) and, for
``gp``, ``check_gp_setup`` (interactions need a trap; the box spans 3
oscillator lengths) and ``check_solver_settings``.  Reading and validating a
config loads no solver and no numpy, which loads in the run that computes,
and ``load_config`` raises every configuration error,
an unknown key included: each read consumes its key, and a key left unread
is an error.

A flag beats the file's [run] value, which beats the built-in default; the
band window lives in [dispersion] alone.  The resolved configuration (every
default made explicit) is what lands in the run manifest.
"""

import configparser
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType

from .errors import ConfigError
from .params import ModelParams

COMMANDS = ("dispersion", "phase-diagram", "eff-squeeze", "gp-ground", "sweep")
BACKENDS = ("ed", "gaussian", "gp")
SWEEP_AXES = ("omega_R", "delta", "epsilon")

# Rb-87 scattering lengths (Bohr radii) used when [interaction] omits them
DEFAULT_A_S0 = 101.8
DEFAULT_A_S2 = 100.4

# band momentum window and grid points of [dispersion], and degeneracy
# tolerance of [phase-diagram]
DEFAULT_WINDOW = (-4.0, 4.0)
DEFAULT_POINTS = 2001
DEFAULT_TOL_DEG = 1e-6

# largest atom number the ED backend solves: the symmetric subspace has
# (N+1)(N+2)/2 states
DEFAULT_N_CAP = 300

# settings of imaginary_time_ground_state and of a config's [solver]: dt is the
# trial angle where the energy is not convex along the search direction, tol the
# bound on the squared residual and on the last iteration's energy decrease,
# max_steps the iteration cap and check_every the spacing of the energy trace rows
SOLVER_DEFAULTS = MappingProxyType({"dt": 0.01, "tol": 1e-10, "max_steps": 400000,
                                    "check_every": 50})


def check_window(window, n_points):
    """Raise ConfigError unless the momentum window (lo, hi) is finite and
    increasing and its grid has at least 3 points."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and n_points >= 3):
        raise ConfigError(f"the momentum window must be finite and increasing, with "
                          f"n_points >= 3, got {window!r} / n_points={n_points}")


def check_ed_atoms(n_atoms):
    """Raise ConfigError if the ED backend cannot take n_atoms atoms."""
    if n_atoms > DEFAULT_N_CAP:
        raise ConfigError(f"N={n_atoms} exceeds the ED cap {DEFAULT_N_CAP}")


def check_solver_settings(dt, tol, max_steps, check_every):
    """Raise ConfigError unless dt and tol are positive finite numbers and
    max_steps and check_every are positive integers."""
    for name, value in (("dt", dt), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    for name, value in (("max_steps", max_steps), ("check_every", check_every)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap frequencies in Hz plus the recoil frequency in Hz.

    ``recoil_frequency`` (the recoil energy over Planck's constant) is the
    bridge between laboratory Hz and the dimensionless units; it has no
    default on purpose.
    """

    omega_x: float
    omega_y: float
    omega_z: float
    recoil_frequency: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{f.name} must be a positive finite frequency, got {v!r}")

    def frequency_ratio(self, axis):
        """Dimensionless trap frequency of an axis (0=x, 1=y, 2=z)."""
        return (self.omega_x, self.omega_y, self.omega_z)[axis] / self.recoil_frequency

    def oscillator_length(self, axis):
        """Ground-state Gaussian length of an axis in recoil units."""
        return math.sqrt(2.0 / self.frequency_ratio(axis))


@dataclass(frozen=True)
class InteractionConfig:
    """s-wave scattering lengths (Bohr radii) of the two collision channels
    and the atom number that scales the mean-field couplings."""

    a_s0: float
    a_s2: float
    N: float

    def __post_init__(self):
        if not (math.isfinite(self.N) and self.N >= 1 and self.N == int(self.N)):
            raise ConfigError(f"atom number must be a finite integer >= 1, got {self.N!r}")
        for name in ("a_s0", "a_s2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")


def _per_axis(value):
    """A grid setting as one entry per axis: a scalar is one axis, and a
    sequence or 1-D array gives its entries."""
    try:
        return tuple(value)
    except TypeError:  # a scalar
        return (value,)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: per-axis point counts and half-widths (recoil units)."""

    n_points: tuple
    extent: tuple

    def __post_init__(self):
        n = tuple(int(v) for v in _per_axis(self.n_points))
        l = tuple(float(v) for v in _per_axis(self.extent))
        if not 1 <= len(n) <= 3 or len(n) != len(l):
            raise ConfigError(f"grid needs matching 1..3 n_points/extent, got {n} / {l}")
        if any(v < 8 for v in n):
            raise ConfigError(f"each axis needs >= 8 points, got {n}")
        # positions reach the half-width, and the GP squares them: x^2 must stay finite
        if any(not (math.isfinite(v * v) and v > 0.0) for v in l):
            raise ConfigError(f"extents must be positive and square to a finite float, "
                              f"at most {math.sqrt(sys.float_info.max):.4g}, got {l}")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "extent", l)

    @property
    def dimension(self):
        return len(self.n_points)

    def axes(self):
        import numpy as np

        out = []
        for n, l in zip(self.n_points, self.extent):
            dx = 2.0 * l / n
            out.append(-l + dx * np.arange(n))
        return tuple(out)

    @property
    def dv(self):
        return math.prod(2.0 * l / n for n, l in zip(self.n_points, self.extent))


def check_gp_setup(trap, interaction, grid):
    """Raise ConfigError unless a GP problem can be set up on this trap,
    interaction and grid: interactions need a trap, whose recoil frequency
    converts the scattering lengths and whose transverse frequencies reduce
    them below three dimensions, and a trap must decay the state well inside
    the periodic box, so each half-width spans 3 oscillator lengths."""
    if trap is None:
        if interaction is not None:
            raise ConfigError("interactions need a trap: its recoil frequency converts the "
                              "scattering lengths and its transverse confinement sets the "
                              "reduced-dimension couplings")
        return
    for axis, half_width in enumerate(grid.extent):
        needed = 3.0 * trap.oscillator_length(axis)
        if half_width < needed:
            raise ConfigError(
                f"grid half-width {half_width} on axis {'xyz'[axis]} is under "
                f"3 oscillator lengths ({needed:.3g}); enlarge the box"
            )


def _get(parser, name, key, cast, default=None, required=False):
    """Key ``key`` of section [name] cast by cast, or default if either is
    absent; the read consumes the key from its section."""
    if not parser.has_section(name) or key not in parser[name]:
        if required:
            raise ConfigError(f"missing required config key [{name}] {key}")
        return default
    section = parser[name]
    raw = section.get(key, raw=True)
    try:
        return cast(section.pop(key))  # a lone '%' fails interpolation: configparser.Error
    except (TypeError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad value for [{name}] {key}: {raw!r}") from exc


def _floats(raw):
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _ints(raw):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


@dataclass
class AxisSpec:
    """One swept parameter: its name and the resolved, finite value list."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.name!r}; expected one of {SWEEP_AXES}")
        if len(self.values) < 2:
            raise ConfigError(f"axis {self.name!r} needs at least 2 values")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError(f"axis {self.name!r} values must be finite, got {self.values!r}")


def _axis_from_section(parser, name, suffix=""):
    axis = _get(parser, name, f"axis{suffix}", str, required=True)
    values = _get(parser, name, f"values{suffix}", _floats)
    if values is None:
        lo = _get(parser, name, f"min{suffix}", float, required=True)
        hi = _get(parser, name, f"max{suffix}", float, required=True)
        count = _get(parser, name, f"count{suffix}", int, required=True)
        if count < 2:
            raise ConfigError(f"axis count must be >= 2, got {count}")
        step = (hi - lo) / (count - 1)
        values = tuple(lo + step * i for i in range(count))
    return AxisSpec(name=axis, values=values)


def _manifest_entries(items):
    """The dict_factory of RunConfig.resolved: tuples become JSON lists and a
    section the run has no value for is left out."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in items if value is not None}


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
        if self.command == "gp-ground":
            self.backend = "gp"  # whatever the setting names
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        import os

        if self.jobs > 1 and not hasattr(os, "fork"):
            raise ConfigError(f"jobs = {self.jobs} needs os.fork, which this platform lacks")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.command == "phase-diagram":
            if self.axis1 is None or self.axis2 is None:
                raise ConfigError("phase-diagram needs [phase-diagram] axis1/axis2")
            if self.axis1.name == self.axis2.name:
                raise ConfigError(f"phase-diagram axes must differ, both are {self.axis1.name!r}")
        check_window(self.window, self.n_points)
        if not 0.0 < self.tol_deg <= 16.0:  # the largest gap of two band minima (bands)
            raise ConfigError(f"tol_deg must be in (0, 16], got {self.tol_deg!r}")
        if self.command == "sweep" and self.sweep is None:
            raise ConfigError("sweep needs a [sweep] section")
        if self.command == "eff-squeeze" and self.backend == "gp":
            raise ConfigError("eff-squeeze runs on the ed/gaussian backends; use gp-ground")
        if self.backend == "ed" and self.command in ("eff-squeeze", "sweep"):
            check_ed_atoms(self.params.N)
        if self.backend == "gp" and self.command in ("gp-ground", "sweep"):
            if self.grid is None:
                raise ConfigError("GP runs need a [grid] section")
            check_gp_setup(self.trap, self.interaction, self.grid)
        check_solver_settings(**self.solver)

    def resolved(self):
        """Manifest dictionary with every default made explicit: the fields,
        nested sections as dictionaries and each axis as its name and values."""
        d = asdict(self, dict_factory=_manifest_entries)
        for key in ("sweep", "axis1", "axis2"):
            if key in d:
                d[key] = {"axis": d[key]["name"], "values": d[key]["values"]}
        return d


def load_config(path, overrides=None):
    """Parse an INI file into a RunConfig.  A flag value in overrides (None if
    unset) beats the file's [run] value, which is read and checked all the same."""
    overrides = overrides or {}
    # [DEFAULT] is an ordinary section here, and nothing reads its keys
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")

    if not parser.has_section("run"):
        raise ConfigError("config needs a [run] section")

    def setting(key, cast, default):
        value = _get(parser, "run", key, cast, default=default)
        return value if overrides.get(key) is None else overrides[key]

    command = _get(parser, "run", "command", str, required=True)
    backend = setting("backend", str, "ed")
    out = setting("out", str, "results")
    seed = setting("seed", int, 0)
    jobs = setting("jobs", int, 1)

    params = ModelParams(
        omega_R=_get(parser, "params", "omega_R", float, 0.0),
        delta=_get(parser, "params", "delta", float, 0.0),
        epsilon=_get(parser, "params", "epsilon", float, 0.0),
        N=_get(parser, "params", "N", int, 100),
    )

    # the band window and grid of dispersion and phase-diagram runs
    window = (_get(parser, "dispersion", "k_min", float, DEFAULT_WINDOW[0]),
              _get(parser, "dispersion", "k_max", float, DEFAULT_WINDOW[1]))
    n_points = _get(parser, "dispersion", "n_points", int, DEFAULT_POINTS)

    sweep = axis1 = axis2 = None
    if parser.has_section("sweep"):
        sweep = _axis_from_section(parser, "sweep")
    if parser.has_section("phase-diagram"):
        axis1 = _axis_from_section(parser, "phase-diagram", "1")
        axis2 = _axis_from_section(parser, "phase-diagram", "2")
    tol_deg = _get(parser, "phase-diagram", "tol_deg", float, DEFAULT_TOL_DEG)

    trap = None
    if parser.has_section("trap"):
        trap = TrapConfig(**{f.name: _get(parser, "trap", f.name, float, required=True)
                             for f in fields(TrapConfig)})

    interaction = None
    if parser.has_section("interaction"):
        interaction = InteractionConfig(
            a_s0=_get(parser, "interaction", "a_s0", float, DEFAULT_A_S0),
            a_s2=_get(parser, "interaction", "a_s2", float, DEFAULT_A_S2),
            N=_get(parser, "interaction", "n_atoms", float, float(params.N)),
        )

    grid = None
    if parser.has_section("grid"):
        grid = GridSpec(
            n_points=_get(parser, "grid", "n_points", _ints, required=True),
            extent=_get(parser, "grid", "extent", _floats, required=True),
        )

    solver = {key: _get(parser, "solver", key, type(default), default)
              for key, default in SOLVER_DEFAULTS.items()}

    unread = [f"[{name}] {key}" for name in parser.sections() for key in parser[name]]
    if unread:
        raise ConfigError(f"unknown config keys, which nothing reads: {', '.join(unread)}")

    return RunConfig(
        command=command, backend=backend, out=out, seed=seed, jobs=jobs,
        params=params, tol_deg=tol_deg, window=window, n_points=n_points,
        sweep=sweep, axis1=axis1, axis2=axis2, trap=trap,
        interaction=interaction, grid=grid, solver=solver,
    )
