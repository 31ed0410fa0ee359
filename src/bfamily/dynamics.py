"""Eulerian and Lagrangian solvers for the b-family.

Eulerian: method-of-lines RK4 on
    u_t = -u u_x + (1 - dx^2)^{-1} (-b u u_x + (b-3) u_x u_xx),
all quadratic products 2/3-dealiased.

Lagrangian: RK4 on the first-order geodesic system
    (phi, phi_t)' = (phi_t, Gamma_phi(phi_t, phi_t)),
one array with rows (displacement, phi_t).  Gamma_phi is evaluated without
inverting phi: the conjugated derivatives give the bilinear term B in flow
coordinates, and the conjugated Helmholtz system
A_phi g = g - (1/phi_x) D (1/phi_x) D g = B is solved in its self-adjoint
form S g = phi_x g - D(g_x / phi_x) = phi_x B by conjugate gradients
preconditioned with the flat Helmholtz inverse.  The solve stops at
relative residual CHRISTOFFEL_RTOL, checked on the true residual, and
raises SolverError if N iterations do not reach it.  The symmetric form at
the identity is the polarization of Gamma_id(v, v).  As y o phi = A_phi phi_t,
the transported momentum (y o phi) phi_x^b is phi_x^(b-1) S phi_t: no inversion.

Every RK4 step, flow_from_velocity's too, is one _rk4_step; _march owns
the solvers' step schedule, finiteness check and snapshot cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diffeo import (
    Diffeomorphism,
    compose_field,
    evaluate_field,
    identity,
    invert,
)
from .errors import (
    ExpDomainError,
    GridError,
    PositivityError,
    SolverError,
)
from .spectral import Field, Grid

COMPLETED = "completed"
BLOWUP_NORM = "blowup_norm"
BLOWUP_PHIX = "blowup_phix"

CHRISTOFFEL_RTOL = 1e-11  # relative residual of the self-adjoint Christoffel solve


@dataclass(frozen=True)
class BParams:
    """Family parameter b and the Sobolev index s used for diagnostics."""

    b: float
    s: float

    def __post_init__(self):
        if not self.s > 1.5:
            raise ValueError(f"Sobolev index must satisfy s > 3/2, got {self.s}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    T: float
    snapshot_stride: int = 1
    blowup_norm_cap: float = 1e6
    min_phix: float = 1e-6

    def __post_init__(self):
        if not (self.dt > 0 and self.T > 0 and self.dt <= self.T):
            raise ValueError("need 0 < dt <= T")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.blowup_norm_cap <= 0 or self.min_phix <= 0:
            raise ValueError("blow-up guards must be positive")


@dataclass(eq=False)
class SprayState:
    """A point (phi, phi_t) on the tangent bundle of the flow group."""

    phi: Diffeomorphism
    phit: Field

    def __post_init__(self):
        if self.phi.grid != self.phit.grid:
            raise GridError("phi and phi_t live on different grids")


@dataclass(eq=False)
class Trajectory:
    params: BParams
    config: SolverConfig
    times: np.ndarray
    states: list
    termination: str

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must increase strictly")

    @property
    def final_state(self):
        return self.states[-1]


def default_dt(u0: Field) -> float:
    """min(1e-3, 0.5 h / max|u0|), the advective step-size heuristic."""
    peak = float(np.max(np.abs(u0.values)))
    if peak == 0.0:
        return 1e-3
    return min(1e-3, 0.5 * u0.grid.spacing / peak)


def _rhs_eulerian_arr(grid: Grid, u: np.ndarray, b: float) -> np.ndarray:
    # one truncated spectrum gives u, u_x and u_xx; -u u_x and the
    # Helmholtz term are combined before the single inverse transform
    spec = grid.keep * grid.rfft(u)
    ut = grid.irfft(spec)
    ux = grid.irfft(grid.d1 * spec)
    uxx = grid.irfft(grid.d2 * spec)
    uux = grid.product(ut, ux)
    uxuxx = grid.product(ux, uxx)
    return grid.irfft(-uux + grid.helmholtz * (-b * uux + (b - 3.0) * uxuxx))


def rhs_eulerian(u: Field, params: BParams) -> Field:
    """Right-hand side of the nonlocal velocity form."""
    return Field(u.grid, _rhs_eulerian_arr(u.grid, u.values, params.b))


def _bilinear(grid: Grid, b: float, v_spec, d1: np.ndarray, d2: np.ndarray):
    """Spectrum of -b v d1 + (b-3) d1 d2, factors and products 2/3-truncated.

    v enters through its spectrum; d1, d2 are the (conjugated) first and
    second derivatives of v as samples.
    """
    vt = grid.truncated(v_spec)
    d1t = grid.truncated(grid.rfft(d1))
    d2t = grid.truncated(grid.rfft(d2))
    return -b * grid.product(vt, d1t) + (b - 3.0) * grid.product(d1t, d2t)


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
    zero = np.zeros(grid.n_points)
    plus = _christoffel_at_arr(grid, b, zero, v.values + w.values)
    minus = _christoffel_at_arr(grid, b, zero, v.values - w.values)
    return Field(grid, (plus - minus) / 4.0)


def _self_adjoint_form(grid: Grid, phi_x: np.ndarray):
    """apply_s(spec) -> (samples of g, spectrum of S g), g given by its spectrum.

    S g = phi_x g - D(g_x / phi_x) = phi_x A_phi g takes g, g_x in one batched
    inverse transform and phi_x g, g_x / phi_x in one batched forward one.
    """
    to_g_gx = np.stack([np.ones_like(grid.d1), grid.d1])
    by_phi_x = np.stack([phi_x, 1.0 / phi_x])

    def apply_s(spec):
        samples = grid.irfft(to_g_gx * spec)
        terms = grid.rfft(by_phi_x * samples)
        return samples[0], terms[0] - grid.d1 * terms[1]

    return apply_s


def _solve_conjugated_helmholtz(grid: Grid, phi_x: np.ndarray, bil, initial):
    """Samples of the solution of A_phi g = B, B given by its spectrum bil.

    Preconditioned CG on S g = phi_x B (_self_adjoint_form).  D zeroes the
    Nyquist mode, so it is skew-adjoint and S is symmetric positive definite
    in the Parseval inner product; the flat Helmholtz inverse preconditions
    it.  The start is initial (samples, e.g. the previous stage's value) or
    else the flat Helmholtz inverse of B, exact at phi = id.  Only the true
    residual (not the recurrence's) is accepted, and CG's exact-arithmetic
    bound of N iterations caps the solve.
    """
    apply_s = _self_adjoint_form(grid, phi_x)
    rhs = grid.rfft(phi_x * grid.irfft(bil))

    def inner(p, q):
        return float(np.real(np.vdot(p, grid.weights * q)))

    def true_residual(g):
        samples, sg = apply_s(g)
        return samples, rhs - sg

    # squared norms: inner(r, r) is grid.norm(r)**2
    target = CHRISTOFFEL_RTOL**2 * inner(rhs, rhs)
    g = grid.helmholtz * bil if initial is None else grid.rfft(initial)
    samples, r = true_residual(g)
    p = rz = None
    for _ in range(grid.n_points):
        if inner(r, r) <= target:  # only a true residual passes
            return samples
        z = grid.helmholtz * r
        rz, rz_prev = inner(r, z), rz
        p = z if p is None else z + (rz / rz_prev) * p
        sp = apply_s(p)[1]
        curvature = inner(p, sp)
        if not (rz > 0.0 and curvature > 0.0):
            break  # r or p underflowed (or went NaN): CG cannot go on
        alpha = rz / curvature
        g = g + alpha * p
        r = r - alpha * sp
        if inner(r, r) <= target:
            samples, r = true_residual(g)
    samples, r = true_residual(g)
    if inner(r, r) <= target:
        return samples
    raise SolverError(
        f"Christoffel solve did not converge within {grid.n_points} iterations "
        f"(min phi_x = {np.min(phi_x):.3e}, relative residual = "
        f"{grid.norm(r) / grid.norm(rhs):.3e})"
    )


def _christoffel_at_arr(
    grid: Grid,
    b: float,
    disp: np.ndarray,
    v: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Gamma_phi(v, v) in flow coordinates, phi = id + disp."""
    disp_spec = grid.rfft(disp)
    fx, fxx = grid.irfft(grid.d1 * disp_spec), grid.irfft(grid.d2 * disp_spec)
    phi_x = 1.0 + fx
    if np.min(phi_x) <= 0.0:
        raise PositivityError(
            f"flow map degenerated inside a stage (min phi_x = {np.min(phi_x):.3e})"
        )
    spec = grid.rfft(v)
    vx, vxx = grid.irfft(grid.d1 * spec), grid.irfft(grid.d2 * spec)
    d1 = vx / phi_x
    d2 = vxx / phi_x**2 - vx * fxx / phi_x**3
    bil = _bilinear(grid, b, spec, d1, d2)
    if grid.norm(bil) == 0.0:
        return np.zeros_like(v)
    return _solve_conjugated_helmholtz(grid, phi_x, bil, initial)


def christoffel_at(phi: Diffeomorphism, v: Field, params: BParams) -> Field:
    """Gamma_phi(v, v) without explicit inversion of phi.

    At phi = id the cold start is already exact, so the result coincides
    with christoffel_id.
    """
    if phi.grid != v.grid:
        raise GridError("phi and v live on different grids")
    out = _christoffel_at_arr(phi.grid, params.b, phi.displacement.values, v.values)
    return Field(phi.grid, out)


def _rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step; rhs(y, c) is called at the stage time t + c dt."""
    k1 = rhs(y, 0.0)
    k2 = rhs(y + 0.5 * dt * k1, 0.5)
    k3 = rhs(y + 0.5 * dt * k2, 0.5)
    k4 = rhs(y + dt * k3, 1.0)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(config: SolverConfig, y: np.ndarray, rhs):
    """RK4 over [0, T], yielding (t, y, snapshot due) after every step.

    Steps are dt plus at most one trailing partial step to T; a snapshot is
    due every snapshot_stride steps and at T.  A SolverError from rhs, or a
    state that lost finiteness, raises SolverError with the step's end time.
    """
    n_full = int(math.floor(config.T / config.dt + 1e-9))
    steps = [config.dt] * n_full
    tail = config.T - n_full * config.dt
    if tail > 1e-9 * config.T:
        steps.append(tail)
    for k, dt in enumerate(steps):
        last = k == len(steps) - 1
        t = config.T if last else (k + 1) * config.dt
        try:
            y = _rk4_step(rhs, y, dt)
        except SolverError as err:
            raise SolverError(f"{err} at t = {t:.6g}", time=t) from err
        if not np.all(np.isfinite(y)):
            raise SolverError(f"solution lost finiteness at t = {t:.6g}", time=t)
        yield t, y, last or (k + 1) % config.snapshot_stride == 0


def solve_eulerian(u0: Field, params: BParams, config: SolverConfig) -> Trajectory:
    """Classical RK4 on the nonlocal velocity form with fixed dt."""
    grid = u0.grid
    times = [0.0]
    states = [Field(grid, u0.values)]
    termination = COMPLETED
    for t, u, due in _march(
        config, u0.values, lambda u, _: _rhs_eulerian_arr(grid, u, params.b)
    ):
        blown = grid.norm(grid.rfft(u), params.s) > config.blowup_norm_cap
        if blown or due:
            times.append(t)
            states.append(Field(grid, u))
        if blown:
            termination = BLOWUP_NORM
            break
    return Trajectory(params, config, np.array(times), states, termination)


def solve_geodesic(u0: Field, params: BParams, config: SolverConfig) -> Trajectory:
    """RK4 on the geodesic system; terminates when phi_x drops below the guard."""
    grid = u0.grid
    times = [0.0]
    states = [SprayState(identity(grid), Field(grid, u0.values))]
    termination = COMPLETED
    warm = None  # each Christoffel solve starts from the last stage's value

    def rhs(y, _):
        nonlocal warm
        warm = _christoffel_at_arr(grid, params.b, y[0], y[1], warm)
        return np.stack([y[1], warm])

    y0 = np.stack([np.zeros(grid.n_points), u0.values])
    try:
        for t, y, due in _march(config, y0, rhs):
            phi = Diffeomorphism(grid, Field(grid, y[0]))
            blown = float(np.min(phi.phi_x)) < config.min_phix
            if blown or due:
                times.append(t)
                states.append(SprayState(phi, Field(grid, y[1])))
            if blown:
                termination = BLOWUP_PHIX
                break
    except PositivityError:
        termination = BLOWUP_PHIX
    return Trajectory(params, config, np.array(times), states, termination)


def exp_map(v: Field, params: BParams, config: SolverConfig) -> Diffeomorphism:
    """Time-one point of the geodesic with initial velocity v at the identity."""
    traj = solve_geodesic(v, params, replace(config, T=1.0))
    if traj.termination != COMPLETED:
        raise ExpDomainError(
            f"initial velocity outside the exp domain ({traj.termination} "
            f"at t = {traj.times[-1]:.6g})"
        )
    return traj.final_state.phi


def dexp(
    u0: Field, v: Field, params: BParams, eps: float, config: SolverConfig
) -> Field:
    """Central-difference differential of exp at u0 in direction v."""
    u0._check_same_grid(v)
    plus = exp_map(u0 + eps * v, params, config)
    minus = exp_map(u0 + (-eps) * v, params, config)
    return Field(
        u0.grid,
        (plus.displacement.values - minus.displacement.values) / (2.0 * eps),
    )


def flow_from_velocity(traj: Trajectory) -> Trajectory:
    """Integrate phi_t = u(t) o phi along a stored Eulerian trajectory.

    One RK4 step per snapshot interval with u interpolated linearly in time,
    so the trajectory must be stored with stride 1.
    """
    if traj.config.snapshot_stride != 1:
        raise ValueError("flow reconstruction needs snapshot_stride = 1")
    if not traj.states or not isinstance(traj.states[0], Field):
        raise TypeError("flow reconstruction expects an Eulerian trajectory")
    grid = traj.states[0].grid
    x = grid.x
    disp = np.zeros(grid.n_points)
    out_states = [SprayState(identity(grid), traj.states[0])]
    for k in range(len(traj.times) - 1):
        dt = float(traj.times[k + 1] - traj.times[k])
        u_a = traj.states[k]
        u_b = traj.states[k + 1]
        u_mid = Field(grid, 0.5 * (u_a.values + u_b.values))
        u_at = {0.0: u_a, 0.5: u_mid, 1.0: u_b}
        disp = _rk4_step(lambda d, c: evaluate_field(u_at[c], x + d), disp, dt)
        phi = Diffeomorphism(grid, Field(grid, disp))  # raises on phi_x <= 0
        out_states.append(
            SprayState(phi, Field(grid, evaluate_field(u_b, x + disp)))
        )
    return Trajectory(
        traj.params, traj.config, traj.times.copy(), out_states, traj.termination
    )


def transported_momentum(state: SprayState, b: float) -> Field:
    """q = (y o phi) phi_x^b = phi_x^(b-1) S phi_t, without inverting phi."""
    grid, phi_x = state.phi.grid, state.phi.phi_x
    s_phit = _self_adjoint_form(grid, phi_x)(grid.rfft(state.phit.values))[1]
    return Field(grid, phi_x ** (b - 1.0) * grid.irfft(s_phit))


def eulerian_from_lagrangian(state: SprayState) -> Field:
    """Recover the velocity field u = phi_t o phi^{-1}."""
    return compose_field(state.phit, invert(state.phi))
