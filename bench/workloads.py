"""The benchmark's three workloads: config generation, output checks and
regime guards.

Every workload uses L = 20, b = 2, s = 2 and T = 1 with Gaussian data.  The
seed shifts the Gaussian centres and stretches the widths inside a narrow
band; seed 0 gives the nominal configs.  The band keeps every regime guard
satisfied (measured at the band's edges) and keeps the amount of work per
run nearly constant, so timings from different seeds are comparable.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# the fixed-point Christoffel iteration contracts only while min phi_x
# stays above this value
CONTRACTION_LIMIT = 1.0 / math.sqrt(2.0)

# acceptance tolerances pinned in tests/test_acceptance.py
CH_DRIFT_TOL = 1e-6  # criterion 06: b = 2 H^1 energy drift
CONSERVE_TOL = 1e-4  # criterion 01: relative momentum-transport residual

CENTER_BAND = 0.5  # centres move by at most this (translation of the data)
WIDTH_BAND = 0.01  # widths scale by at most this fraction


class CheckFailed(Exception):
    """A run's outputs miss the acceptance tolerance they are checked against."""


def jitter(name: str, seed: int) -> tuple[float, float]:
    """(centre shift, width factor) for this workload and seed."""
    if seed == 0:
        return 0.0, 1.0
    rng = random.Random(f"{name}:{seed}")
    return (
        rng.uniform(-CENTER_BAND, CENTER_BAND),
        rng.uniform(1.0 - WIDTH_BAND, 1.0 + WIDTH_BAND),
    )


def _render(values: dict) -> str:
    return "".join(
        f"{key} = {value if isinstance(value, str) else repr(value)}\n"
        for key, value in values.items()
    )


def _gaussian(prefix: str, amp: float, width: float, center: float) -> dict:
    return {
        f"{prefix}.family": "gaussian",
        f"{prefix}.amp": amp,
        f"{prefix}.width": width,
        f"{prefix}.center": center,
    }


def _common(n: int) -> dict:
    return {
        "grid.L": 20.0, "grid.N": n, "params.b": 2.0, "params.s": 2.0, "solver.T": 1.0
    }


def _read_manifest(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    # nonuniform manifests carry no termination field
    if manifest.get("termination", "completed") != "completed":
        raise CheckFailed(f"termination {manifest['termination']!r}")
    return manifest


def _margin(tolerance: float, achieved: float) -> float:
    """log10(tolerance / achieved); a result past the tolerance fails."""
    if not achieved <= tolerance:
        raise CheckFailed(f"{achieved:.3e} exceeds the tolerance {tolerance:.1e}")
    return math.log10(tolerance / max(achieved, 1e-300))


def _eulerian_config(shift, stretch):
    return {**_common(2048), **_gaussian("initial", 0.5, 2.0 * stretch, shift)}


def _conserve_config(shift, stretch):
    return {**_common(1024), **_gaussian("initial", 0.5, 2.0 * stretch, shift)}


def _nonuniform_config(shift, stretch):
    # acceptance-07 data at N = 512 and dt = 5e-3; only n = 1 is resolved
    return {
        **_common(512),
        "solver.dt": 5e-3,
        **_gaussian("initial", 0.25, 3.0 * stretch, shift),
        **_gaussian("probe", 4.5, 5.0 * stretch, shift),
        "experiment.R": 0.4,
        "experiment.eps_dexp": 0.05,
        "experiment.n_values": "1,2,4,8,16",
    }


def _check_eulerian(out, config_path):
    from bfamily.io import read_field_csv
    from bfamily.spectral import hs_norm

    manifest = _read_manifest(out)
    snaps = manifest["snapshots"]
    if len(snaps) < 2 or snaps[-1]["t"] != 1.0:
        raise CheckFailed("trajectory does not reach T = 1")
    first = read_field_csv(out / snaps[0]["files"][0])
    e0 = hs_norm(first, 1.0) ** 2
    e1 = hs_norm(read_field_csv(out / snaps[-1]["files"][0]), 1.0) ** 2
    # the b = 2 drift at dt = 1e-3 is at rounding level (often exactly 0);
    # a relative difference below N * eps is rounding in the energy sum of
    # N terms, so the drift is taken as at least that
    floor = first.grid.n_points * sys.float_info.epsilon
    return _margin(CH_DRIFT_TOL, max(abs(e1 - e0) / e0, floor))


def _check_conserve(out, config_path):
    manifest = _read_manifest(out)
    if manifest["passed"] is not True:
        raise CheckFailed("manifest reports passed = false")
    return _margin(CONSERVE_TOL, float(manifest["max_residual"]))


def _check_nonuniform(out, config_path):
    from bfamily.config import load_config
    from bfamily.io import read_experiment_rows
    from bfamily.spectral import hs_norm

    manifest = _read_manifest(out)
    if manifest["separation_persistent"] is not True:
        raise CheckFailed("output separation does not persist")
    rows = [r for r in read_experiment_rows(out / "report.csv") if r.resolved_ok]
    if not rows:
        raise CheckFailed("no resolved row")
    cfg = load_config(config_path, "nonuniform")
    v_norm = hs_norm(cfg.build_field(cfg.build_grid(), "probe"), cfg["params.s"])
    # criterion 07: witness_gap >= m_est ||v|| / (2n) on every resolved row
    worst = min(
        r.witness_gap / (manifest["m_est"] * v_norm / (2 * r.n)) for r in rows
    )
    return _margin(1.0, 1.0 / worst)


def _guard_eulerian(layer):
    bad = []
    if layer["calls"].get("diffeo", 0):
        bad.append("eulerian solve called into diffeo")
    if layer["geodesic_min_phi_x"]:
        bad.append("eulerian solve ran a geodesic solve")
    return bad


def _guard_conserve(layer):
    worst = min(layer["geodesic_min_phi_x"], default=None)
    if worst is None or worst < CONTRACTION_LIMIT:
        return [f"min phi_x {worst} left the contracting regime (>= 1/sqrt(2))"]
    return []


def _guard_nonuniform(layer):
    if not any(m < CONTRACTION_LIMIT for m in layer["geodesic_min_phi_x"]):
        return ["no geodesic solve reached min phi_x < 1/sqrt(2)"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI arguments before --config/--out
    layers: tuple  # modules that must record calls in a traced run
    values: object  # (centre shift, width factor) -> config keys
    check: object  # (out dir, config path) -> margin_digits, or CheckFailed
    guard: object  # per-layer record -> list of regime violations

    def config(self, seed: int) -> str:
        return _render(self.values(*jitter(self.name, seed)))


_BASE_LAYERS = ("spectral", "dynamics", "io", "config", "cli")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eulerian",
            ("solve", "--formulation", "eulerian"),
            _BASE_LAYERS,
            _eulerian_config,
            _check_eulerian,
            _guard_eulerian,
        ),
        Workload(
            "conserve",
            ("conserve",),
            _BASE_LAYERS + ("diffeo", "diagnostics"),
            _conserve_config,
            _check_conserve,
            _guard_conserve,
        ),
        Workload(
            "nonuniform",
            ("nonuniform",),
            _BASE_LAYERS + ("diffeo", "diagnostics", "experiments"),
            _nonuniform_config,
            _check_nonuniform,
            _guard_nonuniform,
        ),
    )
}
