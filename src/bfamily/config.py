"""Run configuration: flat `key = value` documents.

Parsing is total: every line either contributes a key, is blank, or is a
comment; anything else fails with its line number.  Unknown keys are
errors.  The canonical re-serialization (sorted, normalized values) is
what gets hashed into manifests, so identical effective configurations
share a hash regardless of formatting.
"""

from __future__ import annotations

import hashlib
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .spectral import Field, Grid, make_grid

_COMMON_KEYS = {
    "grid.L": ("float", 20.0),
    "grid.N": ("int", 1024),
    "params.b": ("float", 2.0),
    "params.s": ("float", 2.0),
    "solver.dt": ("float", None),  # None -> advective default from the datum
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
    "experiment.eps_dexp": ("float", 0.05),
}

_SCALECHECK_KEYS = {"experiment.lambda": ("float", 2.0)}

_SWEEP_KEYS = {
    "sweep.command": ("str", None),
    "sweep.b": ("float_list", None),
    "sweep.N": ("int_list", None),
}


def _coerce(kind: str, raw: str, key: str, line: int):
    """Parse one value; floats must be finite, lists must not be empty."""
    if kind == "str":
        return raw
    parse = float if kind.startswith("float") else int
    is_list = kind.endswith("_list")
    parts = raw.split(",") if is_list else [raw]
    try:
        values = tuple(parse(p.strip()) for p in parts if p.strip())
        if values and all(math.isfinite(v) for v in values):
            return values if is_list else values[0]
    except ValueError:
        pass
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
    schema = dict(_COMMON_KEYS)

    def add_family(prefix: str, required: bool):
        schema[f"{prefix}.family"] = ("str", None if required else "gaussian")
        raw = pairs.get(f"{prefix}.family", (None, 0))[0]
        family = raw if raw is not None else "gaussian"
        if family not in _FAMILY_KEYS:
            line = pairs.get(f"{prefix}.family", ("", 0))[1]
            raise ConfigError(
                f"line {line}: unknown initial-data family '{family}'"
            )
        for name, spec in _FAMILY_KEYS[family].items():
            schema[f"{prefix}.{name}"] = spec

    add_family("initial", required=False)
    if command == "nonuniform":
        add_family("probe", required=False)
        schema.update(_EXPERIMENT_KEYS)
    elif command == "scalecheck":
        schema.update(_SCALECHECK_KEYS)
    elif command == "sweep":
        schema.update(_SWEEP_KEYS)
        wrapped = pairs.get("sweep.command", (None, 0))[0]
        if wrapped == "nonuniform":
            add_family("probe", required=False)
            schema.update(_EXPERIMENT_KEYS)
        elif wrapped == "scalecheck":
            schema.update(_SCALECHECK_KEYS)
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
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def build_grid(self) -> Grid:
        with _validating():
            return make_grid(self["grid.L"], self["grid.N"])

    def build_field(self, grid: Grid, prefix: str = "initial") -> Field:
        family = self[f"{prefix}.family"]
        with _validating():
            if family == "gaussian":
                amp = self[f"{prefix}.amp"]
                width = self[f"{prefix}.width"]
                center = self[f"{prefix}.center"]
                return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))
            if family == "bump":
                from .experiments import build_bump

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

    def build_solver(self, u0: Field):
        from .dynamics import SolverConfig, default_dt

        dt = self["solver.dt"]
        if dt is None:
            dt = default_dt(u0)
        with _validating():
            return SolverConfig(
                dt=dt,
                T=self["solver.T"],
                snapshot_stride=self["solver.stride"],
                blowup_norm_cap=self["solver.norm_cap"],
                min_phix=self["solver.min_phix"],
            )

    def build_params(self):
        from .dynamics import BParams

        with _validating():
            return BParams(b=self["params.b"], s=self["params.s"])

    def build_experiment(self, grid: Grid):
        """The nonuniform experiment: base point, probe, params and solver."""
        from .experiments import NonUniformityConfig

        u0 = self.build_field(grid, "initial")
        v = self.build_field(grid, "probe")
        with _validating():
            return NonUniformityConfig(
                u0=u0,
                v=v,
                params=self.build_params(),
                R=self["experiment.R"],
                n_values=self["experiment.n_values"],
                solver=self.build_solver(u0),
                eps_dexp=self["experiment.eps_dexp"],
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


@contextmanager
def _validating():
    """Report a ValueError raised while building run objects as a ConfigError."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_config(path, command: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
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
    if command == "sweep" and values.get("sweep.command") is None:
        raise ConfigError("sweep requires 'sweep.command'")
    for key, value in values.items():
        prefix = key.removesuffix(".family")
        if prefix != key and value == "file" and values[f"{prefix}.path"] is None:
            raise ConfigError(f"file family requires '{prefix}.path'")
    return RunConfig(command, values)
