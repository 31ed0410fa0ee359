"""Desk-scale witness of the non-uniformity of the time-one solution map.

The construction: estimate the probe geometry (where the differential of the
exponential map is largest), then build shrinking-support bumps w_n with
fixed Sobolev norm around that point.  The data pairs x_n = u0 + w_n and
x_n + v/n converge to each other in H^s while their time-one flows stay
separated pointwise, which pins the transported bump momenta on disjoint
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import pushforward_reconstruct
from .dynamics import (
    BParams, SolverConfig, exp_and_differential, exp_map, flow_solver, momentum, time_one_map
)
from .errors import ConfigError, ExpDomainError, SolverError, UnderResolvedError
from .spectral import Field, Grid, hs_norm

RESOLUTION_FACTOR = 4  # bump radius must exceed this many grid spacings
PERSISTENCE_FLOOR = 0.1  # output separation may not fall below this share of its first value


@dataclass(frozen=True)
class NonUniformityConfig:
    u0: Field
    v: Field
    params: BParams
    R: float
    n_values: tuple
    solver: SolverConfig

    def __post_init__(self):
        if self.u0.grid != self.v.grid:
            raise ValueError("base point and probe live on different grids")
        if hs_norm(self.v, self.params.s) <= 0.0:
            raise ConfigError("probe.*: probe direction must be nonzero")
        if self.R <= 0.0:
            raise ValueError("R must be positive")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n_values must be >= 1")


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    r_n: float
    input_dist: float
    output_dist: float
    momentum_output_dist: float
    witness_gap: float
    resolved_ok: bool


@dataclass(eq=False)
class ExperimentReport:
    rows: list
    m_est: float
    x0_est: float
    L_est: float

    def resolved_rows(self):
        return [r for r in self.rows if r.resolved_ok]

    def separation_persistence_ok(self) -> bool:
        """Output separation must not decay below PERSISTENCE_FLOOR times its
        value at the smallest resolved n, while the input distance falls
        as 1/n."""
        rows = sorted(self.resolved_rows(), key=lambda r: r.n)
        if not rows:
            return False
        reference = rows[0].output_dist
        return all(r.output_dist >= PERSISTENCE_FLOOR * reference for r in rows)


def build_bump(
    center: float, radius: float, s: float, target_norm: float, grid: Grid
) -> Field:
    """Mollifier bump on (center - radius, center + radius) with a
    prescribed H^s norm, enforced by scalar rescaling."""
    if radius <= RESOLUTION_FACTOR * grid.spacing:
        raise UnderResolvedError(
            f"bump radius {radius:.4g} under-resolved: need > "
            f"{RESOLUTION_FACTOR * grid.spacing:.4g} at N = {grid.n_points}"
        )
    L = grid.half_length
    if center - radius < -0.75 * L or center + radius > 0.75 * L:
        raise ValueError("bump support leaves the safe region")
    if target_norm == 0.0:
        return Field.zeros(grid)
    t = (grid.x - center) / radius
    v = np.zeros(grid.n_points)
    inside = np.abs(t) < 1.0
    v[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    raw = Field(grid, v)
    return (target_norm / hs_norm(raw, s)) * raw


def estimate_probe_geometry(cfg: NonUniformityConfig):
    """Numerical stand-ins for the proof constants.

    Returns (x0_est, m_est, L_est): the grid point where |d_{u0} exp(v)| is
    largest, the normalized differential there, and 1.5 times the steepest
    slope of exp(u0) as a Lipschitz constant.
    """
    phi, d = exp_and_differential(cfg.u0, cfg.v, cfg.params, flow_solver(cfg.solver))
    i0 = int(np.argmax(np.abs(d.values)))
    m_est = float(np.abs(d.values[i0])) / hs_norm(cfg.v, cfg.params.s)
    if m_est < 1e-12:
        raise ConfigError("probe.*: differential of exp vanishes along the probe; change v")
    x0_est = float(cfg.u0.grid.x[i0])
    L_est = 1.5 * float(np.max(phi.phi_x))
    return x0_est, m_est, L_est


def _resolved_row(cfg: NonUniformityConfig, n: int, r_n: float, w_n: Field, i0: int):
    """One resolved n, from its bump w_n: each datum's time-one map, flow and pushforward."""
    s = cfg.params.s
    x_n = cfg.u0 + w_n
    xt_n = x_n + (1.0 / n) * cfg.v

    def ends(label, x):
        """x's time-one map, its flow and its momentum pushed forward along the flow."""
        try:
            u = time_one_map(x, cfg.params, cfg.solver)
            phi = exp_map(x, cfg.params, flow_solver(cfg.solver))
        except (ExpDomainError, SolverError) as err:
            raise ExpDomainError(f"n = {n}, {label} sequence: {err}") from err
        return u, phi, pushforward_reconstruct(momentum(x), phi, cfg.params.b)

    u_final, phi_n, p_plain = ends("plain", x_n)
    ut_final, phit_n, p_pert = ends("perturbed", xt_n)
    witness_gap = float(np.abs(phi_n.displacement.values[i0] - phit_n.displacement.values[i0]))
    return ExperimentRow(
        n=n,
        r_n=r_n,
        input_dist=hs_norm(xt_n - x_n, s),
        output_dist=hs_norm(u_final - ut_final, s),
        momentum_output_dist=hs_norm(p_plain - p_pert, s - 2),
        witness_gap=witness_gap,
        resolved_ok=True,
    )


def nonuniformity_experiment(cfg: NonUniformityConfig) -> ExperimentReport:
    """Run the shrinking-bump construction for every n in cfg.n_values.

    Every bump w_n is built before any march, so build_bump alone decides
    each n: an under-resolved bump (radius at or below 4h) flags its row, and
    one leaving |x| <= 0.75 L is a ConfigError naming n.  Blow-ups abort with
    the offending n and sequence.
    """
    grid = cfg.u0.grid
    s = cfg.params.s
    v_norm = hs_norm(cfg.v, s)
    x0_est, m_est, L_est = estimate_probe_geometry(cfg)
    i0 = int(np.argmin(np.abs(grid.x - x0_est)))

    bumps = []  # (n, r_n, w_n or None if under-resolved)
    for n in cfg.n_values:
        r_n = m_est * v_norm / (8.0 * n)
        radius = r_n / L_est
        try:
            w_n = build_bump(x0_est, radius, s, cfg.R / 4.0, grid)
        except UnderResolvedError:
            w_n = None
        except ValueError as err:
            where = f"x0_est +/- radius = {x0_est:.6g} +/- {radius:.4g}"
            raise ConfigError(f"n = {n}: witness bump support {where} leaves the safe "
                              f"region |x| <= {0.75 * grid.half_length:.6g}") from err
        bumps.append((n, r_n, w_n))

    rows = [
        ExperimentRow(n, r_n, v_norm / n, np.nan, np.nan, np.nan, False) if w_n is None
        else _resolved_row(cfg, n, r_n, w_n, i0)
        for n, r_n, w_n in bumps
    ]
    return ExperimentReport(rows, m_est, x0_est, L_est)
