"""CSV and JSON artifacts.

Floats are printed with 17 significant digits so every emitted CSV
round-trips bit-exactly; JSON is written with sorted keys for
reproducible bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .diagnostics import ConservationReport
from .diffeo import Diffeomorphism, from_displacement
from .errors import ConfigError
from .experiments import ExperimentReport, ExperimentRow
from .spectral import Field, make_grid


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _grid_from_x(x: np.ndarray):
    n = len(x)
    L = -x[0]
    grid = make_grid(L, n)
    if not np.array_equal(grid.x, x):
        raise ConfigError("x column is not a uniform [-L, L) grid")
    return grid


def _write_two_column(path, header, x, values):
    lines = [header]
    lines.extend(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(x, values))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_two_column(path, header):
    lines = Path(path).read_text().strip().split("\n")
    if not lines or lines[0] != header:
        raise ConfigError(f"{path}: expected header '{header}'")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no data rows")
    x, values = [], []
    for line in lines[1:]:
        a, b = line.split(",")
        x.append(float(a))
        values.append(float(b))
    return np.array(x), np.array(values)


def write_field_csv(path, field: Field):
    _write_two_column(path, "x,value", field.grid.x, field.values)


def read_field_csv(path) -> Field:
    x, values = _read_two_column(path, "x,value")
    return Field(_grid_from_x(x), values)


def write_diffeo_csv(path, phi: Diffeomorphism):
    _write_two_column(path, "x,displacement", phi.grid.x, phi.displacement.values)


def read_diffeo_csv(path) -> Diffeomorphism:
    x, values = _read_two_column(path, "x,displacement")
    grid = _grid_from_x(x)
    return from_displacement(Field(grid, values))


def write_conservation_csv(path, report: ConservationReport):
    lines = ["t,res_hs2,res_sup,relative"]
    for t, rn, rs in zip(
        report.times, report.residual_s_minus_2, report.residual_sup
    ):
        lines.append(f"{_fmt(t)},{_fmt(rn)},{_fmt(rs)},1")  # residuals are relative
    Path(path).write_text("\n".join(lines) + "\n")


EXPERIMENT_HEADER = (
    "n,r_n,input_dist,output_dist,momentum_output_dist,"
    "witness_gap,disjoint_ok,resolved_ok"
)


def write_experiment_csv(path, report: ExperimentReport):
    lines = [EXPERIMENT_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    str(r.n),
                    _fmt(r.r_n),
                    _fmt(r.input_dist),
                    _fmt(r.output_dist),
                    _fmt(r.momentum_output_dist),
                    _fmt(r.witness_gap),
                    str(r.disjoint_ok).lower(),
                    str(r.resolved_ok).lower(),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_experiment_rows(path) -> list:
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != EXPERIMENT_HEADER:
        raise ConfigError(f"{path}: unexpected experiment header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            ExperimentRow(
                n=int(parts[0]),
                r_n=float(parts[1]),
                input_dist=float(parts[2]),
                output_dist=float(parts[3]),
                momentum_output_dist=float(parts[4]),
                witness_gap=float(parts[5]),
                disjoint_ok=parts[6] == "true",
                resolved_ok=parts[7] == "true",
            )
        )
    return rows


def write_json(path, payload: dict):
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
