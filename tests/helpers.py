"""Shared helpers and reference oracles for the test suite.

The oracles are identities and views the package itself does not compute
or read: the Helmholtz inverse in D's Nyquist convention, the dealiased
product, the Eulerian right-hand side and the Christoffel forms as Fields,
the homogeneous H^s seminorm and its FFT-free Slobodeckij counterpart,
numerical support and the disjoint-support ratio, the time-amplitude
scaling residual, the flow integrated from a stored velocity, the
central-difference differential of exp, and a reader of the flow-map CSVs
that `solve --formulation lagrangian` writes.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from bfamily.diffeo import Diffeomorphism, evaluate_field, identity
from bfamily.dynamics import (
    COMPLETED,
    BParams,
    SolverConfig,
    SprayState,
    Trajectory,
    _christoffel_at_arr,
    _eulerian_rhs,
    exp_map,
    solve_eulerian,
)
from bfamily.errors import SolverError
from bfamily.spectral import Field, hs_norm, make_grid

SUPPORT_RTOL = 1e-14  # relative threshold for numerical support detection

GOLDEN = Path(__file__).parent / "golden" / "solve_hashes.json"

FAST_SOLVE = """
grid.L = 20
grid.N = 64
params.b = 2
params.s = 2
solver.dt = 0.01
solver.T = 0.1
solver.stride = 5
initial.family = gaussian
initial.amp = 0.3
initial.width = 2
initial.center = 0
"""


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(path.relative_to(root).as_posix().encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


def check_golden(key: str, digest: str):
    """Compare against the stored hash of this formulation; never writes.

    The hashes are platform-independent as far as they have been checked
    (the same bytes on py3.10/numpy 2.2 and py3.11/numpy 2.4, x86_64); a
    deliberate change of the numerics re-baselines the file by hand.
    """
    stored = json.loads(GOLDEN.read_text())
    assert key in stored, f"no golden hash stored for '{key}'"
    assert stored[key] == digest, f"golden hash changed for '{key}': {digest}"


def helmholtz_inverse(f: Field) -> Field:
    """(1 - D^2)^{-1} f through the multiplier 1/(1 - d1^2), the exact inverse
    of momentum: D zeroes the Nyquist mode, so the multiplier is 1 there."""
    g = f.grid
    return Field(g, g.irfft(g.rfft(f.values) / (1.0 - (g.d1**2).real)))


def dealiased_product(f: Field, h: Field) -> Field:
    """f h with both factors and the product 2/3-truncated, by the grid kernel.

    With both factors cut to |k| <= N//3, the retained band of the product
    is free of aliased images (N//3 < N/3): the exact truncation of f h.
    """
    g = f.grid
    ft, ht = g.truncated(g.rfft(f.values)), g.truncated(g.rfft(h.values))
    return Field(g, g.irfft(g.keep * g.rfft(ft * ht)))


def rhs_eulerian(u: Field, params: BParams) -> Field:
    """Right-hand side of the nonlocal velocity form, as solve_eulerian marches it."""
    spec = _eulerian_rhs(u.grid, params.b)(u.grid.rfft(u.values))
    return Field(u.grid, u.grid.irfft(spec))


def christoffel_at(phi: Diffeomorphism, v: Field, params: BParams) -> Field:
    """Gamma_phi(v, v) by solve_geodesic's solve, cold-started: no inversion of phi.

    At phi = id the cold start is already exact, so the result coincides
    with christoffel_id.
    """
    phi.displacement._check_same_grid(v)
    grid = phi.grid
    disp, spec = grid.rfft(np.array([phi.displacement.values, v.values]))
    return Field(grid, grid.irfft(_christoffel_at_arr(grid, params.b, disp, spec)))


def christoffel_id(v: Field, w: Field, params: BParams) -> Field:
    """Symmetric Christoffel bilinear form at the identity.

    The polarization (Gamma(v + w) - Gamma(v - w)) / 4 of christoffel_at at
    phi = id, i.e. the Helmholtz inverse of
    B(v, w) = -(b/2)(v w_x + w v_x) + ((b-3)/2)(v_x w_xx + w_x v_xx).
    Scaling by 2 and by 1/4 is exact, so the form is symmetric bit for bit
    and its diagonal is christoffel_at(identity, v) bit for bit.
    """
    v._check_same_grid(w)
    grid, b = v.grid, params.b
    sums = grid.rfft(np.array([v.values + w.values, v.values - w.values]))
    zero = np.zeros_like(sums[0])
    plus = _christoffel_at_arr(grid, b, zero, sums[0])
    minus = _christoffel_at_arr(grid, b, zero, sums[1])
    return Field(grid, grid.irfft((plus - minus) / 4.0))


def homogeneous_hs_norm(f: Field, s: float) -> float:
    """Homogeneous seminorm sqrt(sum_{k != 0} |xi_k|^{2s} |c_k|^2)."""
    g = f.grid
    power = g.weights[1:] * np.abs(g.rfft(f.values)[1:]) ** 2
    return float(np.sqrt(np.sum(g.xi[1:] ** (2.0 * s) * power)))


def support_indices(values: np.ndarray) -> np.ndarray:
    """Indices where |values| exceeds the relative support threshold."""
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return np.array([], dtype=int)
    return np.nonzero(np.abs(values) > SUPPORT_RTOL * peak)[0]


def disjoint_support_ratio(f: Field, g: Field, s: float) -> float:
    """||f+g||_s^2 / (||f||_s^2 + ||g||_s^2) for disjointly supported inputs."""
    f._check_same_grid(g)
    supp_f = set(support_indices(f.values).tolist())
    supp_g = set(support_indices(g.values).tolist())
    if supp_f & supp_g:
        raise ValueError("supports overlap")
    denom = hs_norm(f, s) ** 2 + hs_norm(g, s) ** 2
    if denom == 0.0:
        return 1.0
    return hs_norm(f + g, s) ** 2 / denom


def scaling_check(u0: Field, lam: float, params: BParams, config: SolverConfig) -> float:
    """H^s residual of the symmetry u -> lam u(x, lam t).

    Runs the base solution to time T = config.T with step dt and the
    amplified datum lam*u0 to time T/lam with step dt/lam, then compares.
    """
    base = solve_eulerian(u0, params, config)
    scaled = solve_eulerian(
        lam * u0, params, replace(config, T=config.T / lam, dt=config.dt / lam)
    )
    for traj, label in ((base, "base"), (scaled, "scaled")):
        if traj.termination != COMPLETED:
            raise SolverError(f"{label} run terminated with {traj.termination}")
    return hs_norm(scaled.final_state - lam * base.final_state, params.s)


def slobodeckij_seminorm(f: Field, lam: float) -> float:
    """Double-quadrature Slobodeckij seminorm, an FFT-free oracle.

    Midpoint rule over all N x N pairs of grid points with the periodic
    distance, diagonal excluded.  For compactly supported f this is
    equivalent (up to a lambda-dependent constant) to the homogeneous
    H^lambda seminorm.  O(N^2), in blocks of 256 rows.
    """
    assert 0.0 < lam < 1.0, f"lambda must lie in (0, 1), got {lam}"
    L = f.grid.half_length
    x, v = f.grid.x, f.values
    if np.ptp(v) <= SUPPORT_RTOL * max(1.0, np.max(np.abs(v))):
        return 0.0  # constants carry no variation
    supp = support_indices(v)
    assert np.max(np.abs(x[supp])) <= 0.75 * L, "support within L/4 of the boundary"
    total = 0.0
    for start in range(0, f.grid.n_points, 256):
        d = np.abs(x[start : start + 256, None] - x[None, :])
        d = np.minimum(d, 2.0 * L - d)
        diff2 = (v[start : start + 256, None] - v[None, :]) ** 2
        w = np.where(d > 0.0, d, np.inf) ** (-(1.0 + 2.0 * lam))  # diagonal: 0
        total += float(np.sum(diff2 * w))
    return float(np.sqrt(f.grid.spacing**2 * total))


def flow_from_velocity(traj: Trajectory) -> Trajectory:
    """Integrate phi_t = u(t) o phi along a stored Eulerian trajectory.

    One RK4 step per snapshot interval with u interpolated linearly in time,
    so the trajectory must be stored with stride 1.
    """
    assert traj.config.snapshot_stride == 1, "flow reconstruction needs stride 1"
    grid = traj.states[0].grid
    disp = np.zeros(grid.n_points)
    states = [SprayState(identity(grid), traj.states[0])]
    for k in range(len(traj.times) - 1):
        dt = float(traj.times[k + 1] - traj.times[k])
        u_a, u_b = traj.states[k], traj.states[k + 1]
        u_mid = Field(grid, 0.5 * (u_a.values + u_b.values))
        k1 = evaluate_field(u_a, grid.x + disp)
        k2 = evaluate_field(u_mid, grid.x + (disp + 0.5 * dt * k1))
        k3 = evaluate_field(u_mid, grid.x + (disp + 0.5 * dt * k2))
        k4 = evaluate_field(u_b, grid.x + (disp + dt * k3))
        disp = disp + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi = Diffeomorphism(grid, Field(grid, disp))  # raises on phi_x <= 0
        states.append(SprayState(phi, Field(grid, evaluate_field(u_b, grid.x + disp))))
    return Trajectory(traj.params, traj.config, traj.times, states, traj.termination, traj.end_time)


def central_dexp(
    u0: Field, v: Field, params: BParams, eps: float, config: SolverConfig
) -> Field:
    """(exp(u0 + eps v) - exp(u0 - eps v)) / (2 eps) from two geodesic solves:
    an O(eps^2) oracle for the Jacobi displacement of exp_and_differential."""
    u0._check_same_grid(v)
    plus = exp_map(u0 + eps * v, params, config)
    minus = exp_map(u0 + (-eps) * v, params, config)
    return Field(
        u0.grid,
        (plus.displacement.values - minus.displacement.values) / (2.0 * eps),
    )


def read_diffeo_csv(path) -> Diffeomorphism:
    """The flow map of a `x,displacement` snapshot CSV, bit for bit.

    The x column must be the uniform grid [-L, L) that make_grid builds.
    """
    header, *rows = Path(path).read_text().splitlines()
    assert header == "x,displacement", f"{path}: header '{header}'"
    x, disp = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    grid = make_grid(-x[0], len(x))
    assert np.array_equal(grid.x, x), f"{path}: x column is not a uniform [-L, L) grid"
    return Diffeomorphism(grid, Field(grid, disp))
