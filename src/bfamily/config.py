"""Run configuration: flat `key = value` documents.

Parsing is total: every line either contributes a key, is blank, or is a
comment; anything else fails with its line number.  Unknown keys are
errors.  The canonical re-serialization (sorted, normalized values) is
what gets hashed into manifests, with the bytes of any file datum, so
identical effective configurations share a hash regardless of formatting.
"""

from __future__ import annotations

import hashlib
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import BParams, SolverConfig, march_dt
from .errors import ConfigError, FieldError, GridError
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

_FAMILY_KEYS = {
    "gaussian": {"amp": ("float", 1.0), "width": ("float", 2.0), "center": ("float", 0.0)},
    "bump": {
        "center": ("float", 0.0),
        "radius": ("float", 1.0),
        "s_norm": ("float", 2.0),
        "target": ("float", 1.0),
    },
    "mode": {"k": ("int", 1), "amp": ("float", 1.0)},
    "file": {"path": ("str", None)},
}

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
        if family not in _FAMILY_KEYS:
            raise ConfigError(f"line {line}: unknown initial-data family '{family}'")
        if family == "file" and f"{prefix}.path" not in pairs:
            raise ConfigError(f"file family requires '{prefix}.path'")
        for name, spec in _FAMILY_KEYS[family].items():
            schema[f"{prefix}.{name}"] = spec

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
        try:
            return make_grid(self["grid.L"], self["grid.N"])
        except GridError as err:  # Grid's message opens with the parameter at fault
            key = "grid.N" if str(err).startswith("n_points") else "grid.L"
            raise ConfigError(f"{key}: {err}") from err

    def build_field(self, grid: Grid, prefix: str = "initial") -> Field:
        try:
            family = self[f"{prefix}.family"]
            if family == "gaussian":
                amp = self[f"{prefix}.amp"]
                width = self[f"{prefix}.width"]
                center = self[f"{prefix}.center"]
                return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))
            if family == "bump":
                return build_bump(
                    self[f"{prefix}.center"],
                    self[f"{prefix}.radius"],
                    self[f"{prefix}.s_norm"],
                    self[f"{prefix}.target"],
                    grid,
                )
            if family == "mode":
                k = self[f"{prefix}.k"]
                xi = np.pi * k / grid.half_length
                return Field(grid, self[f"{prefix}.amp"] * np.sin(xi * grid.x))
            if family == "file":
                from .io import read_field_csv

                try:
                    field = read_field_csv(self[f"{prefix}.path"])
                except OSError as err:
                    raise ConfigError(f"{prefix}.path: {err}") from err
                if field.grid != grid:
                    raise ConfigError(
                        f"{prefix}.path: field grid does not match grid.L/grid.N"
                    )
                return field
            raise ConfigError(f"unknown family '{family}'")
        except FieldError as err:  # values not finite, say a zero width
            raise ConfigError(f"{prefix}.*: {err}") from err

    def build_solver(self, u0: Field, eulerian: bool = True, probe=None) -> SolverConfig:
        # every march's datum (u0 + the probe Field in nonuniform's n = 1 legs) needs a
        # peak and slope with finite squares, so march_dt checks it even under solver.dt;
        # a derived dt is march_dt, capped at the horizon (nonuniform marches time-one maps)
        T = 1.0 if self.command == "nonuniform" else self["solver.T"]
        key = "initial"
        try:  # u0 alone first, so that an overflow names its key
            derived = march_dt(u0, eulerian)
            if probe is not None:
                key = "probe"
                derived = march_dt(u0 + probe, eulerian)
        except FieldError as err:
            raise ConfigError(
                f"{key}.*: the datum's peak or slope, or its square, is not finite"
            ) from err
        dt = self["solver.dt"]
        if dt is None:
            dt = min(derived, T)
        return SolverConfig(
            dt=dt,
            T=T,
            snapshot_stride=self["solver.stride"],
            blowup_norm_cap=self["solver.norm_cap"],
            min_phix=self["solver.min_phix"],
        )

    def build_params(self) -> BParams:
        return BParams(b=self["params.b"], s=self["params.s"])

    def build_experiment(self, grid: Grid) -> NonUniformityConfig:
        """The nonuniform experiment: base point, probe, params and solver."""
        u0 = self.build_field(grid, "initial")
        v = self.build_field(grid, "probe")
        return NonUniformityConfig(
            u0=u0,
            v=v,
            params=self.build_params(),
            R=self["experiment.R"],
            n_values=self["experiment.n_values"],
            solver=self.build_solver(u0, probe=v),
        )


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
