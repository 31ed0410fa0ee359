"""CSV and JSON artifacts.

Floats are printed with 17 significant digits so every emitted CSV
round-trips bit-exactly; a field, flow-map or conservation CSV formats all
its rows in one %-operation, which prints the same 17-digit bytes as
f"{x:.17g}".
JSON is written with sorted keys for reproducible bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .diagnostics import ConservationReport
from .diffeo import Diffeomorphism
from .errors import ConfigError, FieldError, GridError
from .experiments import ExperimentReport, ExperimentRow
from .spectral import Field, make_grid


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_rows(path, header, row, *columns):
    """header, then one row per index of the columns, all in one %-operation."""
    values = np.column_stack(columns).ravel().tolist()
    Path(path).write_text(f"{header}\n" + (row * len(columns[0])) % tuple(values))


def write_field_csv(path, field: Field):
    _write_rows(path, "x,value", "%.17g,%.17g\n", field.grid.x, field.values)


def read_field_csv(path) -> Field:
    """The field of an `x,value` CSV on a uniform [-L, L) grid; errors name path and line."""
    header, *rows = (text := Path(path).read_text()).strip().split("\n")
    first = text.count("\n", 0, len(text) - len(text.lstrip())) + 2  # rows[0]'s line number
    if header != "x,value":
        raise ConfigError(f"{path}: expected header 'x,value'")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    x, values = np.empty((2, len(rows)))
    for i, row in enumerate(rows):
        try:
            x[i], values[i] = map(float, row.split(","))
        except ValueError:
            raise ConfigError(f"{path}: line {first + i}: malformed field row '{row}'") from None
    try:
        grid = make_grid(-x[0], len(x))
    except GridError as err:  # L is the first row's -x; else the row count is at fault
        at = "" if 0.0 < -x[0] < np.inf else f"line {first}: "
        raise ConfigError(f"{path}: {at}{err}") from None
    if (off := np.flatnonzero(grid.x != x)).size:
        raise ConfigError(f"{path}: line {first + off[0]}: x column is not a uniform [-L, L) grid")
    try:
        return Field(grid, values)
    except FieldError as err:  # the only check left is finiteness
        bad = first + np.flatnonzero(~np.isfinite(values))[0]
        raise ConfigError(f"{path}: line {bad}: {err}") from None


def write_diffeo_csv(path, phi: Diffeomorphism):
    _write_rows(path, "x,displacement", "%.17g,%.17g\n", phi.grid.x, phi.displacement.values)


def write_conservation_csv(path, report: ConservationReport):
    relative = np.full(len(report.times), int(report.relative))  # %d prints 1.0 as 1
    _write_rows(path, "t,res_hs2,res_sup,relative", "%.17g,%.17g,%.17g,%d\n",
                report.times, report.residual_s_minus_2, report.residual_sup, relative)


# the experiment report's columns are ExperimentRow's fields in declared
# order; annotations are postponed, so each field's type is its type's name
_ROW_COLUMNS = [(f.name, f.type) for f in fields(ExperimentRow)]
_ROW_HEADER = ",".join(name for name, _ in _ROW_COLUMNS)
_FORMAT = {"int": str, "float": _fmt, "bool": lambda v: str(v).lower()}
_PARSE = {"int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__}


def write_experiment_csv(path, report: ExperimentReport):
    lines = [_ROW_HEADER]
    lines.extend(
        ",".join(_FORMAT[kind](getattr(row, name)) for name, kind in _ROW_COLUMNS)
        for row in report.rows
    )
    Path(path).write_text("\n".join(lines) + "\n")


def read_experiment_rows(path) -> list:
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != _ROW_HEADER:
        raise ConfigError(f"{path}: unexpected experiment header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            values = {
                name: _PARSE[kind](part)
                for (name, kind), part in zip(_ROW_COLUMNS, parts, strict=True)
            }
        except (KeyError, ValueError):
            raise ConfigError(f"{path}: malformed experiment row '{line}'") from None
        rows.append(ExperimentRow(**values))
    return rows


def write_json(path, payload: dict):
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
