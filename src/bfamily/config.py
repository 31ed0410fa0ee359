"""Run configuration: flat `key = value` documents.

Parsing is total: every line either contributes a key, is blank, or is a
comment; anything else fails with its line number.  Unknown keys are
errors.  The canonical re-serialization (sorted, normalized values) is
what gets hashed into manifests, with the bytes of any file datum, so
identical effective configurations share a hash regardless of formatting.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import BParams, SolverConfig, march_dt, peak_and_slope
from .errors import ConfigError, GridError
from .experiments import NonUniformityConfig, build_bump
from .spectral import Field, Grid, make_grid

_COMMON_KEYS = {
    "grid.L": ("float", 20.0),
    "grid.N": ("int", 1024),
    "params.b": ("float", 2.0),
    "params.s": ("float", 2.0),
    "solver.dt": ("float", None),  # None -> dynamics.march_dt, capped at T
    "solver.T": ("float", 1.0),
    "solver.stride": ("int", 100),
    "solver.norm_cap": ("float", 1e6),
    "solver.min_phix": ("float", 1e-6),
}

# Each initial-data family is its builder, whose parameters after the grid are
# its keys, annotated with their kinds; a key without a default is required.
def _gaussian(grid: Grid, amp: float = 1.0, width: float = 2.0, center: float = 0.0):
    return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


def _bump(grid: Grid, center: float = 0.0, radius: float = 1.0, s_norm: float = 2.0,
          target: float = 1.0):
    return build_bump(center, radius, s_norm, target, grid)


def _mode(grid: Grid, k: int = 1, amp: float = 1.0):
    xi = np.pi * k / grid.half_length
    return Field(grid, amp * np.sin(xi * grid.x))


def _file(grid: Grid, path: str):
    from .io import read_field_csv

    field = read_field_csv(path)
    if field.grid != grid:
        raise ValueError("field grid does not match grid.L/grid.N")
    return field


_FAMILIES = {"gaussian": _gaussian, "bump": _bump, "mode": _mode, "file": _file}


def _family_keys(family: str) -> list:
    """The parameters of family's builder that are config keys: all but the grid."""
    return list(inspect.signature(_FAMILIES[family]).parameters.values())[1:]


@contextmanager
def _naming(key: str):
    """The naming rule: a refusal of the values read from key (prefix.* for all of a
    prefix's keys) is ConfigError '<key>: <reason>'; a ConfigError names its own cause."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OSError) as err:
        raise ConfigError(f"{key}: {err}") from err


_EXPERIMENT_KEYS = {
    "experiment.R": ("float", 0.4),
    "experiment.n_values": ("int_list", (1, 2, 4, 8, 16)),
    "experiment.eps_dexp": ("float", 0.05),  # accepted, ignored: d exp is a Jacobi field
}

_SWEEP_KEYS = {
    "sweep.command": ("str", None),
    "sweep.b": ("float_list", None),
    "sweep.N": ("int_list", None),
}


def _coerce(kind: str, raw: str, key: str, line: int):
    """Parse one value; floats must be finite, lists non-empty without repeats."""
    if kind == "str":
        return raw
    parse = float if kind.startswith("float") else int
    is_list = kind.endswith("_list")
    parts = raw.split(",") if is_list else [raw]
    try:
        values = tuple(parse(p.strip()) for p in parts if p.strip())
    except ValueError:
        values = ()
    if values and all(math.isfinite(v) for v in values):
        if len(set(values)) == len(values):
            return values if is_list else values[0]
        raise ConfigError(f"line {line}: repeated entry in '{key} = {raw}'")
    what = f"finite {kind}" if parse is float else kind
    raise ConfigError(f"line {line}: cannot parse '{key} = {raw}' as {what}")


def parse_pairs(text: str):
    """key -> (raw value, line number); malformed lines are fatal.

    Inline comments start at whitespace followed by '#'.
    """
    pairs = {}
    for idx, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {idx}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = re.split(r"\s#", value, maxsplit=1)[0].strip()
        if not key or not value:
            raise ConfigError(f"line {idx}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {idx}: duplicate key '{key}'")
        pairs[key] = (value, idx)
    return pairs


def _schema_for(command: str, pairs) -> dict:
    """The keys of command's config; a sweep's are those of the command it
    wraps plus the sweep.* keys."""
    if command == "sweep":
        if "sweep.command" not in pairs:
            raise ConfigError("sweep requires 'sweep.command'")
        wrapped = pairs["sweep.command"][0]
        # a sweep of sweeps gets the keys every command takes; the CLI refuses it
        inner = _schema_for(None if wrapped == "sweep" else wrapped, pairs)
        return {**inner, **_SWEEP_KEYS}
    schema = dict(_COMMON_KEYS)

    def add_family(prefix: str):
        schema[f"{prefix}.family"] = ("str", "gaussian")
        family, line = pairs.get(f"{prefix}.family", ("gaussian", 0))
        if family not in _FAMILIES:
            raise ConfigError(f"line {line}: unknown initial-data family '{family}'")
        for key in _family_keys(family):
            name, required = f"{prefix}.{key.name}", key.default is key.empty
            if required and name not in pairs:
                raise ConfigError(f"{family} family requires '{name}'")
            schema[name] = (key.annotation, None if required else key.default)

    add_family("initial")
    if command == "nonuniform":
        add_family("probe")
        schema.update(_EXPERIMENT_KEYS)
    return schema


@dataclass(frozen=True)
class RunConfig:
    command: str
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                continue
            if isinstance(value, tuple):
                rendered = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        """sha256 of the canonical text and the bytes of each file datum."""
        digest = hashlib.sha256(self.canonical_text().encode())
        for key in sorted(key for key in self.values if key.endswith(".path")):
            with suppress(OSError):  # an unreadable datum's run is a config error
                digest.update(Path(self[key]).read_bytes())
        return digest.hexdigest()

    def build_grid(self) -> Grid:
        """The grid; one whose H^s weights (1 + xi^2)^s overflow is refused, as
        every H^s norm on it, the blow-up guard's among them, would read nan."""
        L, N, s = self["grid.L"], self["grid.N"], self["params.s"]
        try:
            grid = make_grid(L, N)
        except GridError as err:  # Grid's message opens with the parameter at fault
            key = "grid.N" if str(err).startswith("n_points") else "grid.L"
            raise ConfigError(f"{key}: {err}") from err
        except (ValueError, MemoryError) as err:  # numpy cannot size or allocate it
            raise ConfigError(f"grid.N: {err}") from err
        with np.errstate(over="ignore"):
            if np.isfinite((1.0 + grid.xi[-1] ** 2) ** s):
                return grid
        raise ConfigError(f"grid.L: half_length {L:g} gives H^s weights (1 + xi^2)^s "
                          f"that overflow at n_points {N}, s = {s:g}")

    def build_field(self, grid: Grid, prefix: str = "initial") -> Field:
        """The datum under prefix.*, checked as every march's datum is (see
        dynamics.peak_and_slope); a refusal names prefix.*, or the family's one key."""
        family = self[f"{prefix}.family"]
        keys = {key.name: self[f"{prefix}.{key.name}"] for key in _family_keys(family)}
        with _naming(f"{prefix}.{next(iter(keys))}" if len(keys) == 1 else f"{prefix}.*"):
            field = _FAMILIES[family](grid, **keys)
            peak_and_slope(field)
        return field

    def build_solver(self, datum: Field, eulerian: bool = True) -> SolverConfig:
        """The solver of a march from datum; a derived dt is march_dt of datum,
        capped at the horizon (nonuniform marches time-one maps)."""
        T = 1.0 if self.command == "nonuniform" else self["solver.T"]
        dt = self["solver.dt"]
        if dt is None:
            dt = min(march_dt(datum, eulerian), T)
        with _naming("solver.*"):
            return SolverConfig(dt, T, self["solver.stride"], self["solver.norm_cap"],
                                self["solver.min_phix"])

    def build_params(self) -> BParams:
        with _naming("params.s"):
            return BParams(b=self["params.b"], s=self["params.s"])

    def build_experiment(self, grid: Grid) -> NonUniformityConfig:
        """The nonuniform experiment: base point, probe, params and solver; the
        solver's datum is u0 + v, the Eulerian legs' steepest at n = 1."""
        u0 = self.build_field(grid, "initial")
        v = self.build_field(grid, "probe")
        with _naming("probe.*"):
            legs = u0 + v
            peak_and_slope(legs)
        params, solver = self.build_params(), self.build_solver(legs)
        with _naming("experiment.*"):
            R, n_values = self["experiment.R"], self["experiment.n_values"]
            return NonUniformityConfig(u0, v, params, R, n_values, solver)


def sweep_cell(cfg: RunConfig, b: float, n: int) -> RunConfig:
    """The config of the command a sweep wraps, at params.b = b and grid.N = n.

    A sweep's schema is the wrapped command's plus the sweep.* keys, so the
    cell keeps every other value of cfg, defaults included.
    """
    values = {k: v for k, v in cfg.values.items() if k not in _SWEEP_KEYS}
    values["params.b"] = float(b)
    values["grid.N"] = int(n)
    return RunConfig(cfg["sweep.command"], values)


def load_config(path, command: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from err
    return parse_config(text, command)


def parse_config(text: str, command: str) -> RunConfig:
    pairs = parse_pairs(text)
    schema = _schema_for(command, pairs)
    unknown = [k for k in pairs if k not in schema]
    if unknown:
        key = unknown[0]
        raise ConfigError(f"line {pairs[key][1]}: unknown key '{key}'")
    values = {}
    for key, (kind, default) in schema.items():
        if key in pairs:
            raw, line = pairs[key]
            values[key] = _coerce(kind, raw, key, line)
        else:
            values[key] = default
    return RunConfig(command, values)
