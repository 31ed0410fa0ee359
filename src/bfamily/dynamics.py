"""Eulerian and Lagrangian solvers for the b-family.

Eulerian: method-of-lines RK4 on the nonlocal conservative form
    u_t = -(u^2/2)_x - (1 - dx^2)^{-1} ((b/2) u^2 + ((3-b)/2) u_x^2)_x.
The RK4 state is the half spectrum of u; each right-hand side is one batched
inverse transform of (u, u_x), both cut to |k| <= N//3, and one batched
forward transform of (u^2, u_x^2), exactly dealiased as 3 never divides N.

Lagrangian: RK4 on the first-order geodesic system
    (phi, phi_t)' = (phi_t, Gamma_phi(phi_t, phi_t)),
the state being the half spectra of (displacement, phi_t).  Gamma_phi is
evaluated without inverting phi.  With D_phi = (1/phi_x) D the bilinear
term is the flux form B = D_phi Q, Q = -(b/2) v^2 + ((b-3)/2) (D_phi v)^2,
and A_phi g = g - D_phi^2 g = B is solved in its self-adjoint form
S g = phi_x g - D(g_x / phi_x) = phi_x B = Q_x by conjugate gradients
preconditioned with the flat Helmholtz inverse; a predicted start's S g0
shares the transforms that assemble Q_x.  The solve stops at relative
residual CHRISTOFFEL_RTOL, checked on the true residual, and raises
SolverError if N iterations do not reach it.  Only the solve's start
depends on the march: each RK4 stage starts from a prediction built from
the step's own stage values G1..G4 and the previous step's P1..P4,
    stage 1: P4,  stage 2: 2 G1 - P3 (linear in time),  stage 3: G2,
    stage 4: P1/3 - 2 G1 + (4/3)(G2 + G3),
the last being the quadratic through t - dt, t and t + dt/2 (where
(G2 + G3)/2 lies on the trajectory to O(dt^3)) evaluated at t + dt.  The
first step starts stage 1 cold and stages 2 and 4 from G1 and 2 G3 - G1.
As y o phi = A_phi phi_t, the transported momentum (y o phi) phi_x^b is
phi_x^(b-1) S phi_t: no inversion.  It stays y0 = S u0 (momentum) at phi = id,
so the flow also solves the first-order momentum form phi_t = g, S g = y0 phi_x^(1-b).
exp_and_differential marches it with its Jacobi field along v, (delta d)' =
delta g = W + (g_x / phi_x) delta d (as g = u o phi), W = (delta u) o phi:
    S W = dy0 phi_x^(1-b) - (b - 1) f delta phi_x - D(f delta d),
f = y0 phi_x^(-b), delta phi_x = D delta d, dy0 = momentum(v); a stage is
two batched transform pairs and two CG solves started by the predictor above.

_march is the only RK4 loop and builds every Trajectory: it owns the step
schedule, finiteness check, snapshot cadence, guards and termination.  A
solver supplies its first state, right-hand side, snapshot builder and guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diffeo import Diffeomorphism, compose_field, identity, invert
from .errors import ExpDomainError, FieldError, GridError, PositivityError, SolverError
from .spectral import Field, Grid, derivative

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
        if not (0 < self.dt <= self.T and math.isfinite(self.T / self.dt)):
            raise ValueError(f"need 0 < dt <= T, T / dt finite: dt = {self.dt:g}, T = {self.T:g}")
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
    end_time: float  # the last step's end: past times[-1] if a stage failed

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

    @property
    def ending(self) -> str:
        """'<termination> at t = <end of the last step>': every blow-up message quotes it."""
        return f"{self.termination} at t = {self.end_time:.6g}"


FLOW_DT = 1 / 64  # flow_solver's least step (64 reach T = 1): no advective bound limits a flow


def peak_and_slope(u0: Field) -> tuple:
    """(max|u0|, max|u0_x|); FieldError if either or its square (the first flux) is not finite."""
    grid = u0.grid
    peak = float(np.max(np.abs(u0.values)))
    slope = float(np.max(np.abs(grid.irfft(grid.d1 * grid.rfft(u0.values)))))  # unchecked D u0
    if not math.isfinite(peak * peak + slope * slope):
        raise FieldError("the datum's peak or slope, or its square, is not finite")
    return peak, slope


def march_dt(u0: Field, eulerian: bool) -> float:
    """max(floor, min(cap, bound / max|u0_x|)), then at most adv = 0.5 h / max|u0| if eulerian.

    Accuracy limits a step.  The flow is a smooth ODE: (cap, bound) = (1/128, 2e-3)
    keeps conserve's residual within 2x that of dt = 1e-3, or under 1e-10.  The
    Eulerian field carries advective time error: (1/256, 1e-3), and adv keeps its t = 0
    RK4 stability number dt xi_cut max|u0| at most pi/3; the floor is min(1e-3, adv).
    """
    peak, slope = peak_and_slope(u0)
    cap, bound = (1 / 256, 1e-3) if eulerian else (1 / 128, 2e-3)
    adv = 0.5 * u0.grid.spacing / peak if peak else math.inf
    dt = max(min(1e-3, adv), min(cap, bound / slope if slope else math.inf))
    return min(dt, adv) if eulerian else dt


def flow_solver(solver: SolverConfig) -> SolverConfig:
    """solver for the witness's flows: step max(dt, FLOW_DT) to T = 1, set
    here too because replace re-checks dt <= T."""
    return replace(solver, dt=max(solver.dt, FLOW_DT), T=1.0)


def _eulerian_rhs(grid: Grid, b: float):
    """rhs(spec) -> half spectrum of the right-hand side, spec that of u.

    With H = (1 - dx^2)^{-1}, as u u_x = (u^2)_x / 2 and u_x u_xx = (u_x^2)_x / 2
    the right-hand side is c0 rfft(u^2) + c1 rfft(u_x^2) with c0 = -(1/2) d1 keep
    (1 + b H) and c1 = ((b-3)/2) H d1 keep.  u and u_x are cut to |k| <= N//3, so
    the squares' retained band is alias-free (N//3 < N/3): the flux form is the
    exact truncation of the product form, up to rounding.
    """
    cut, h = np.array([grid.keep, grid.keep * grid.d1]), grid.helmholtz
    flux = -0.5 * cut[1] * np.array([1.0 + b * h, (3.0 - b) * h])
    return lambda spec: (flux * grid.rfft(grid.irfft(cut * spec) ** 2)).sum(axis=0)


def _self_adjoint_form(grid: Grid, phi_x: np.ndarray):
    """apply_s(spec) -> spectrum of S g, g given by its spectrum spec.

    S g = phi_x g - D(g_x / phi_x) = phi_x A_phi g takes g, g_x in one
    batched inverse transform and phi_x g, g_x / phi_x in one batched
    forward one.
    """
    by_phi_x = np.array([phi_x, 1.0 / phi_x])

    def apply_s(spec):
        terms = grid.rfft(by_phi_x * grid.irfft(np.array([spec, grid.d1 * spec])))
        return terms[0] - grid.d1 * terms[1]

    return apply_s


def _solve_conjugated_helmholtz(grid: Grid, phi_x: np.ndarray, rhs, g, sg):
    """Spectrum of the solution of S g = rhs, by CG started from g with S g = sg.

    rhs = phi_x B, g and sg are spectra.  D zeroes the Nyquist mode, so it is
    skew-adjoint and S (_self_adjoint_form) is symmetric positive definite in
    the Parseval inner product; the flat Helmholtz inverse preconditions it.
    The start changes the number of iterations, never the stopping rule.
    Only the true residual (not the recurrence's) is accepted, and CG's
    exact-arithmetic bound of N iterations caps the solve.
    """
    apply_s = _self_adjoint_form(grid, phi_x)

    def inner(p, q):
        return np.vdot(p, grid.weights * q).real

    # squared norms: inner(r, r) is grid.norm(r)**2
    target = CHRISTOFFEL_RTOL**2 * inner(rhs, rhs)
    r = rhs - sg
    rr = inner(r, r)
    p = rz = None
    for _ in range(grid.n_points):
        if rr <= target:  # only a true residual passes
            return g
        z = grid.helmholtz * r
        rz, rz_prev = inner(r, z), rz
        p = z if p is None else z + (rz / rz_prev) * p
        sp = apply_s(p)
        curvature = inner(p, sp)
        if not (rz > 0.0 and curvature > 0.0):
            break  # r or p underflowed (or went NaN): CG cannot go on
        alpha = rz / curvature
        g = g + alpha * p
        r = r - alpha * sp
        if (rr := inner(r, r)) <= target:
            r = rhs - apply_s(g)
            rr = inner(r, r)
    r = rhs - apply_s(g)
    if inner(r, r) <= target:
        return g
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
    """Spectrum of Gamma_phi(v, v) in flow coordinates, phi = id + disp.

    disp, v and initial are half spectra.  As v D_phi v = D_phi(v^2)/2 and
    D_phi v D_phi^2 v = D_phi((D_phi v)^2)/2, the solve's right-hand side is
    phi_x B = Q_x, Q = -(b/2) v^2 + ((b-3)/2) (v_x / phi_x)^2, with v and
    v_x / phi_x 2/3-truncated so both squares are exactly dealiased.  The
    start g0 = initial shares those transforms (g0, g0_x in, phi_x g0 and
    g0_x / phi_x out); without it, the start is the flat Helmholtz inverse
    of Q_x, exact at phi = id, and costs one apply_s.
    """
    start = [] if initial is None else [initial, grid.d1 * initial]
    samples = grid.irfft(np.array([grid.d1 * disp, grid.keep * v, grid.d1 * v, *start]))
    phi_x = 1.0 + samples[0]
    if np.min(phi_x) <= 0.0:
        raise PositivityError(
            f"flow map degenerated inside a stage (min phi_x = {np.min(phi_x):.3e})"
        )
    by_phi_x = np.array([1.0 / phi_x, phi_x, 1.0 / phi_x])
    dv, *s_terms = grid.rfft(by_phi_x[: len(samples) - 2] * samples[2:])
    q = -0.5 * b * samples[1] ** 2 + 0.5 * (b - 3.0) * grid.truncated(dv) ** 2
    rhs = grid.d1 * grid.keep * grid.rfft(q)
    if grid.norm(rhs) == 0.0:
        return np.zeros_like(v)
    if s_terms:
        sg0 = s_terms[0] - grid.d1 * s_terms[1]
        return _solve_conjugated_helmholtz(grid, phi_x, rhs, initial, sg0)
    g0 = grid.helmholtz * rhs
    sg0 = _self_adjoint_form(grid, phi_x)(g0)
    return _solve_conjugated_helmholtz(grid, phi_x, rhs, g0, sg0)


def _stage_predictor(first=None):
    """(start, record) of a march's CG starts; its first stage starts from first (None: cold)."""
    gam = [None] * 4  # this step's stage values G1..G4
    prev = []  # the previous step's P1..P4

    def start(stage):
        if stage == 0:
            return prev[3] if prev else first
        if stage == 1:  # linear in time through t - dt/2 and t, at t + dt/2
            return 2.0 * gam[0] - prev[2] if prev else gam[0]
        if stage == 2:
            return gam[1]
        if not prev:  # linear through t and t + dt/2, at t + dt
            return 2.0 * gam[2] - gam[0]
        # quadratic through t - dt, t and t + dt/2 (where (G2 + G3)/2 lies
        # on the trajectory to O(dt^3)), at t + dt
        return prev[0] / 3.0 - 2.0 * gam[0] + (4.0 / 3.0) * (gam[1] + gam[2])

    def record(stage, value):
        gam[stage] = value
        if stage == 3:
            prev[:] = gam
        return value

    return start, record


def _rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step; rhs(y, stage) is called with stage = 0, 1, 2, 3."""
    k1 = rhs(y, 0)
    k2 = rhs(y + 0.5 * dt * k1, 1)
    k3 = rhs(y + 0.5 * dt * k2, 2)
    k4 = rhs(y + dt * k3, 3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(params: BParams, config: SolverConfig, first, y: np.ndarray, rhs, snapshot, guard):
    """RK4 over [0, T] from y, stored as first: the solvers' only march.

    Steps are dt plus at most one trailing partial step to T.  snapshot(y)
    is stored every snapshot_stride steps, at T, and where guard =
    (blown, termination) ends the march after a step with blown(y).  A
    PositivityError ends it at BLOWUP_PHIX, a SolverError from rhs or a lost
    finiteness raises SolverError: either quotes the failing step's end time.
    """
    blown, guard_termination = guard
    times, states, termination = [0.0], [first], COMPLETED
    n_full = int(math.floor(config.T / config.dt + 1e-9))
    tail = config.T - n_full * config.dt
    n_steps = n_full + (tail > 1e-9 * config.T)
    try:
        for k in range(n_steps):
            last = k == n_steps - 1
            dt = tail if k == n_full else config.dt
            t = config.T if last else (k + 1) * config.dt
            try:
                y = _rk4_step(rhs, y, dt)
            except SolverError as err:
                raise SolverError(f"{err} at t = {t:.6g}") from err
            if not np.all(np.isfinite(y)):
                raise SolverError(f"solution lost finiteness at t = {t:.6g}")
            stop = blown(y)
            if stop or last or (k + 1) % config.snapshot_stride == 0:
                states.append(snapshot(y))
                times.append(t)  # only once its state exists
            if stop:
                termination = guard_termination
                break
    except PositivityError:
        termination = BLOWUP_PHIX
    return Trajectory(params, config, np.array(times), states, termination, t)


def solve_eulerian(u0: Field, params: BParams, config: SolverConfig) -> Trajectory:
    """Classical RK4 with fixed dt on the half spectrum of u; snapshots are samples."""
    grid, rhs = u0.grid, _eulerian_rhs(u0.grid, params.b)
    guard = (lambda spec: grid.norm(spec, params.s) > config.blowup_norm_cap, BLOWUP_NORM)
    return _march(
        params, config, Field(grid, u0.values), grid.rfft(u0.values),
        lambda y, _: rhs(y), lambda spec: Field(grid, grid.irfft(spec)), guard,
    )


def _phi_x_guard(grid: Grid, config: SolverConfig):
    """_march's guard on the flow map whose displacement is the state's first row."""
    return lambda y: np.min(1.0 + grid.irfft(grid.d1 * y[0])) < config.min_phix, BLOWUP_PHIX


def solve_geodesic(u0: Field, params: BParams, config: SolverConfig) -> Trajectory:
    """RK4 on the spectra of (displacement, phi_t); stops at the phi_x guard."""
    grid = u0.grid
    start, record = _stage_predictor()

    def rhs(y, stage):
        gam = record(stage, _christoffel_at_arr(grid, params.b, y[0], y[1], start(stage)))
        return np.array([y[1], gam])

    def snapshot(y):
        disp, phit = grid.irfft(y)
        return SprayState(Diffeomorphism(grid, Field(grid, disp)), Field(grid, phit))

    first = SprayState(identity(grid), Field(grid, u0.values))
    y0 = grid.rfft(np.array([np.zeros(grid.n_points), u0.values]))
    return _march(params, config, first, y0, rhs, snapshot, _phi_x_guard(grid, config))


def _time_one(solve, u0: Field, params: BParams, config: SolverConfig, outside: str):
    """Final state of solve's march of u0 to T = 1; a march that ends early
    raises ExpDomainError, the message outside followed by its ending."""
    traj = solve(u0, params, replace(config, T=1.0))
    if traj.termination != COMPLETED:
        raise ExpDomainError(f"{outside} ({traj.ending})")
    return traj.final_state


def exp_map(v: Field, params: BParams, config: SolverConfig) -> Diffeomorphism:
    """Time-one point of the geodesic with initial velocity v at the identity."""
    return _time_one(
        solve_geodesic, v, params, config, "initial velocity outside the exp domain"
    ).phi


def time_one_map(u0: Field, params: BParams, config: SolverConfig) -> Field:
    """u0 -> u(1) by the Eulerian solver; blow-up means u0 is outside U."""
    return _time_one(
        solve_eulerian, u0, params, config, "initial datum outside the time-one existence set"
    )


def _solve_jacobi(u0: Field, params: BParams, config: SolverConfig, v: Field) -> Trajectory:
    """RK4 on the spectra of (d, delta d): the momentum-form flow of u0 and its Jacobi field."""
    u0._check_same_grid(v)
    grid, b, d1 = u0.grid, params.b, u0.grid.d1
    y0, dy0 = momentum(u0).values, momentum(v).values
    start, record = _stage_predictor(grid.rfft(np.array([u0.values, v.values])))

    def rhs(y, stage):
        guess = start(stage)
        samples = grid.irfft(np.concatenate([d1 * y, y[1:], guess, d1 * guess]))
        phi_x, dphi_x, dd = 1.0 + samples[0], samples[1], samples[2]
        if (low := np.min(phi_x)) <= 0.0:
            raise PositivityError(f"flow map degenerated inside a stage (min phi_x = {low:.3e})")
        f = y0 * phi_x**-b  # y o phi
        terms = grid.rfft(np.array([
            f * phi_x, dy0 * phi_x**(1.0 - b) - (b - 1.0) * f * dphi_x, f * dd,
            *(phi_x * samples[3:5]), *(samples[5:] / phi_x),
        ]))
        sg = terms[3:5] - d1 * terms[5:]  # S of both starts
        g = _solve_conjugated_helmholtz(grid, phi_x, terms[0], guess[0], sg[0])
        w = _solve_conjugated_helmholtz(grid, phi_x, terms[1] - d1 * terms[2], guess[1], sg[1])
        record(stage, np.array([g, w]))
        return np.array([g, w + grid.rfft(grid.irfft(d1 * g) / phi_x * dd)])

    def snapshot(y):
        disp, dd = grid.irfft(y)
        return Diffeomorphism(grid, Field(grid, disp)), Field(grid, dd)

    first, y = (identity(grid), Field.zeros(grid)), grid.rfft(np.zeros((2, grid.n_points)))
    return _march(params, config, first, y, rhs, snapshot, _phi_x_guard(grid, config))


def exp_and_differential(u0: Field, v: Field, params: BParams, config: SolverConfig):
    """(exp_{u0}(1), d_{u0}exp(v)), the time-one flow of u0 and its Jacobi field."""
    return _time_one(lambda *args: _solve_jacobi(*args, v), u0, params, config,
                     "initial velocity outside the exp domain")


def momentum(u: Field) -> Field:
    """Momentum density y = u - D(D u): S at phi = id, D's Nyquist convention included."""
    return u - derivative(u, 2)


def transported_momentum(state: SprayState, b: float) -> Field:
    """q = (y o phi) phi_x^b = phi_x^(b-1) S phi_t, without inverting phi."""
    grid, phi_x = state.phi.grid, state.phi.phi_x
    s_phit = _self_adjoint_form(grid, phi_x)(grid.rfft(state.phit.values))
    return Field(grid, phi_x ** (b - 1.0) * grid.irfft(s_phit))


def eulerian_from_lagrangian(state: SprayState) -> Field:
    """Recover the velocity field u = phi_t o phi^{-1}."""
    return compose_field(state.phit, invert(state.phi))
