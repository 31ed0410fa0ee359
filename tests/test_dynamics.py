"""Tests for the Eulerian solver, the geodesic solver, and the exp map."""

import numpy as np
import pytest
from helpers import (
    central_dexp,
    christoffel_at,
    christoffel_id,
    dealiased_product,
    flow_from_velocity,
    helmholtz_inverse,
    rhs_eulerian,
)

from bfamily.diagnostics import conservation_residual
from bfamily.diffeo import Diffeomorphism, identity
from bfamily.dynamics import (
    BLOWUP_NORM,
    BLOWUP_PHIX,
    COMPLETED,
    BParams,
    SolverConfig,
    SprayState,
    default_dt,
    eulerian_from_lagrangian,
    exp_and_differential,
    exp_map,
    march_dt,
    solve_eulerian,
    solve_geodesic,
)
from bfamily.errors import ExpDomainError, FieldError, PositivityError, SolverError
from bfamily.spectral import Field, derivative, hs_norm, make_grid

S = 2.0


def gaussian_field(grid, amp=0.5, width=2.0, center=0.0):
    return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


@pytest.fixture
def fft_calls(monkeypatch):
    """Records (name, input shape) of every numpy.fft.rfft/irfft call, the
    spectral kernel's transforms."""
    calls = []
    for name in ("rfft", "irfft"):

        def counted(*args, _transform=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def random_small_diffeo(grid, rng, scale=0.05, n_modes=5):
    v = np.zeros(grid.n_points)
    for k in range(1, n_modes + 1):
        xi = np.pi * k / grid.half_length
        v += rng.randn() / k**2 * np.cos(xi * grid.x + rng.uniform(0, 2 * np.pi))
    return Diffeomorphism(grid, Field(grid, scale * v))


class TestParams:
    def test_sobolev_index_guard(self):
        with pytest.raises(ValueError):
            BParams(b=2.0, s=1.5)
        BParams(b=2.0, s=1.51)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.2, T=0.1)
        with pytest.raises(ValueError):
            SolverConfig(dt=-0.1, T=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T=1.0, snapshot_stride=0)

    def test_default_dt(self):
        g = make_grid(20, 1024)
        assert default_dt(Field.zeros(g)) == 1e-3
        spiky = Field(g, 100.0 * np.exp(-(g.x**2)))
        assert default_dt(spiky) == pytest.approx(0.5 * g.spacing / 100.0)

    @pytest.mark.parametrize("eulerian", [False, True])
    def test_march_dt_of_a_zero_datum_is_the_flow_cap(self, eulerian):
        assert march_dt(Field.zeros(make_grid(20, 1024)), eulerian) == (
            1 / 256 if eulerian else 1 / 128)

    @pytest.mark.parametrize("eulerian", [False, True])
    @pytest.mark.parametrize(
        "n, amp, offset, want",
        [
            # the eulerian bench datum: 1e-3 / slope = 4.7e-3, 0.5 h / max|u0| = 2.0e-2;
            # the flow's 2e-3 / slope = 9.4e-3 is above its cap
            (2048, 0.5, 0.0, lambda u0, slope, eulerian: 1 / 256 if eulerian else 1 / 128),
            # 1e-3 / slope = 1.17e-3, 2e-3 / slope = 2.34e-3
            (1024, 2.0, 0.0, lambda u0, slope, eulerian: (1e-3 if eulerian else 2e-3) / slope),
            # the bench bump on a constant 10: 0.5 h / max|u0| = 1.86e-3 binds only
            # the Eulerian march, whose t = 0 stability number is then at its bound
            (1024, 0.5, 10.0, lambda u0, slope, eulerian: (
                0.5 * u0.grid.spacing / np.max(np.abs(u0.values)) if eulerian else 1 / 128)),
            # 1e-3 / slope = 5.8e-4 is below the floor, 2e-3 / slope = 1.16e-3 is not
            (1024, 4.0, 0.0, lambda u0, slope, eulerian: (
                default_dt(u0) if eulerian else 2e-3 / slope)),
            (1024, 1e19, 0.0, lambda u0, slope, eulerian: default_dt(u0)),
        ],
        ids=["bench-datum", "amp-2", "offset-10", "amp-4", "amp-1e19"],
    )
    def test_march_dt_keeps_dt_slope_within_its_bound_and_never_below_default_dt(
        self, n, amp, offset, want, eulerian
    ):
        # dt max|u0_x| <= 1e-3 for an Eulerian march, <= 2e-3 for the flow
        grid = make_grid(20, n)
        u0 = Field(grid, offset + gaussian_field(grid, amp=amp, width=2.0).values)
        slope = np.max(np.abs(derivative(u0, 1).values))
        dt = march_dt(u0, eulerian)
        assert dt == want(u0, slope, eulerian)
        assert dt >= default_dt(u0)
        if dt > default_dt(u0):  # above the floor, within the slope bound
            assert dt * slope <= (1e-3 if eulerian else 2e-3) * (1 + 1e-15)
            if eulerian:  # and within the advective bound
                xi_cut = (n // 3) * np.pi / grid.half_length
                assert dt * xi_cut * np.max(np.abs(u0.values)) <= np.pi / 3 + 1e-12

    @pytest.mark.parametrize("eulerian", [False, True])
    def test_march_dt_refuses_a_slope_that_is_not_finite(self, eulerian):
        # the datum is finite, but its transform overflows
        u0 = gaussian_field(make_grid(20, 64), amp=1e308, width=2.0)
        with np.errstate(all="ignore"), pytest.raises(FieldError):
            march_dt(u0, eulerian)

    @pytest.mark.parametrize("eulerian", [False, True])
    def test_march_dt_refuses_a_datum_whose_square_overflows(self, eulerian):
        # peak and slope are finite, but the first right-hand side's u^2 is not
        u0 = gaussian_field(make_grid(20, 64), amp=1e200, width=2.0)
        with pytest.raises(FieldError, match="square"):
            march_dt(u0, eulerian)


@pytest.mark.parametrize("amp", [0.5, 2.0])
def test_geodesic_dt_time_error_stays_at_the_solve_floor(amp):
    # conserve's datum (amp 0.5) and a steeper one at N = 512, the cheapest
    # grid that resolves both, marched as conserve marches them; the residual
    # at the geodesic march's step stays within 2x that of dt = 1e-3 (measured
    # 3.8e-13 vs 4.1e-13 and 8.1e-13 vs 5.5e-13, 0.94x and 1.46x), while a step
    # of 1/64 reaches 2.7e-12 and 1.4e-9
    u0 = gaussian_field(make_grid(20, 512), amp=amp, width=2.0)

    def residual(dt):
        config = SolverConfig(dt=dt, T=1.0, snapshot_stride=100)
        traj = solve_geodesic(u0, BParams(b=2.0, s=S), config)
        assert traj.termination == COMPLETED
        return conservation_residual(traj).max_residual

    assert residual(march_dt(u0, eulerian=False)) <= 2.0 * residual(1e-3)


@pytest.mark.parametrize("b", [-1.0, 5.0])
def test_geodesic_step_time_error_budget(b):
    # conserve's datum at N = 512, at the b whose time error the step moves most:
    # at the geodesic step (1/128 here) the residual reads 7.2e-13 (b = -1) and
    # 1.4e-11 (b = 5), far under conserve's 1e-4, while a cap of 1/64 would give
    # 1.1e-11 and 2.2e-10, so b = 5 catches a step that is too large
    u0 = gaussian_field(make_grid(20, 512), amp=0.5, width=2.0)
    config = SolverConfig(dt=march_dt(u0, eulerian=False), T=1.0, snapshot_stride=100)
    traj = solve_geodesic(u0, BParams(b=b, s=S), config)
    assert traj.termination == COMPLETED
    assert conservation_residual(traj).max_residual <= 5e-11


@pytest.mark.parametrize("b", [2.0, 5.0])
def test_eulerian_march_dt_time_error_stays_far_below_the_acceptance_pins(b):
    # the eulerian bench datum at N = 256, the cheapest grid at which the time
    # error has converged in space; the rule gives 1/256, where u(1) matches
    # that of dt = 1e-3 to 5.8e-12 (b = 2) and 6.1e-11 (b = 5) relative in H^2,
    # against 1.5e-9 and 1.6e-8 at a step of 1/64, and the b = 2 H^1 drift is
    # 2.7e-14, against criterion 06's 1e-6
    u0 = gaussian_field(make_grid(20, 256), amp=0.5, width=2.0)
    dt = march_dt(u0, eulerian=True)
    assert dt == 1 / 256

    def march(dt):
        config = SolverConfig(dt=dt, T=1.0, snapshot_stride=10**9)
        traj = solve_eulerian(u0, BParams(b=b, s=S), config)
        assert traj.termination == COMPLETED
        return traj

    traj, reference = march(dt), march(1e-3).final_state
    assert hs_norm(traj.final_state - reference, 2.0) <= 1e-9 * hs_norm(reference, 2.0)
    if b == 2.0:  # the Camassa-Holm energy, as criterion 06 measures its drift
        e0, e1 = (hs_norm(u, 1.0) ** 2 for u in (traj.states[0], traj.final_state))
        assert abs(e1 - e0) <= 1e-6 * e0


class TestRhsEulerian:
    def test_zero_and_constant(self):
        g = make_grid(20, 128)
        params = BParams(b=2.0, s=S)
        assert np.max(np.abs(rhs_eulerian(Field.zeros(g), params).values)) == 0.0
        const = Field(g, np.full(128, 1.3))
        assert np.max(np.abs(rhs_eulerian(const, params).values)) < 1e-13

    @pytest.mark.parametrize("n", [64, 256, 2048])
    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_flux_form_matches_product_form(self, b, n):
        # -u u_x + H(-b u u_x + (b-3) u_x u_xx), every product dealiased
        g = make_grid(20, n)
        rng = np.random.RandomState(7)
        u = Field(
            g,
            0.5 * np.exp(-((g.x / 2.0) ** 2))
            + 0.2 * np.sin(3 * np.pi * g.x / 20)
            + 0.05 * rng.randn(n),
        )
        ux = derivative(u, 1)
        uux = dealiased_product(u, ux).values
        uxuxx = dealiased_product(ux, derivative(u, 2)).values
        want = -uux + helmholtz_inverse(Field(g, -b * uux + (b - 3.0) * uxuxx)).values
        got = rhs_eulerian(u, BParams(b=b, s=S)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_conservative_form_identity(self):
        # -b u u_x + (b-3) u_x u_xx == -d/dx((b/2) u^2 + ((3-b)/2) u_x^2)
        g = make_grid(np.pi, 64)
        b = 2.0
        u = Field(g, np.cos(g.x))
        got = rhs_eulerian(u, BParams(b=b, s=S))
        u2 = dealiased_product(u, u)
        ux = derivative(u, 1)
        ux2 = dealiased_product(ux, ux)
        flux = Field(g, u2.values + 0.5 * ux2.values)
        uux = dealiased_product(u, ux)
        want = -uux.values - helmholtz_inverse(derivative(flux, 1)).values
        assert np.max(np.abs(got.values - want)) < 1e-10


class TestSolveEulerian:
    def test_zero_initial_datum(self):
        g = make_grid(20, 64)
        traj = solve_eulerian(
            Field.zeros(g), BParams(b=2.0, s=S), SolverConfig(dt=0.05, T=0.2)
        )
        assert traj.termination == COMPLETED
        for st in traj.states:
            assert np.max(np.abs(st.values)) == 0.0

    def test_fourth_order_self_convergence(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)

        def run(dt):
            cfg = SolverConfig(dt=dt, T=0.5, snapshot_stride=10**9)
            return solve_eulerian(u0, params, cfg).final_state

        u_a, u_b, u_c = run(0.1), run(0.05), run(0.025)
        e_ab = hs_norm(u_a - u_b, S)
        e_bc = hs_norm(u_b - u_c, S)
        assert e_ab / e_bc == pytest.approx(16.0, rel=0.45)

    def test_scaling_symmetry(self):
        # v(x, t) = lam u(x, lam t) solves the equation; run with dt/lam
        g = make_grid(20, 256)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        lam = 2.0
        base = solve_eulerian(
            u0, params, SolverConfig(dt=2e-3, T=0.5, snapshot_stride=10**9)
        )
        scaled = solve_eulerian(
            lam * u0,
            params,
            SolverConfig(dt=2e-3 / lam, T=0.5 / lam, snapshot_stride=10**9),
        )
        resid = hs_norm(scaled.final_state - lam * base.final_state, S)
        assert resid <= 1e-6

    def test_norm_cap_guard(self):
        g = make_grid(20, 128)
        u0 = gaussian_field(g, amp=1.0)
        traj = solve_eulerian(
            u0,
            BParams(b=2.0, s=S),
            SolverConfig(dt=0.01, T=1.0, blowup_norm_cap=1e-3),
        )
        assert traj.termination == BLOWUP_NORM
        assert len(traj.times) == 2  # t=0 plus the offending step

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_matches_sample_space_rk4(self, b):
        # the half-spectrum march against RK4 on samples of the public RHS
        g = make_grid(20, 256)
        params = BParams(b=b, s=S)
        dt, steps = 0.01, 100
        u = gaussian_field(g)
        for _ in range(steps):
            k1 = rhs_eulerian(u, params)
            k2 = rhs_eulerian(u + (0.5 * dt) * k1, params)
            k3 = rhs_eulerian(u + (0.5 * dt) * k2, params)
            k4 = rhs_eulerian(u + dt * k3, params)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        cfg = SolverConfig(dt=dt, T=dt * steps, snapshot_stride=10**9)
        got = solve_eulerian(gaussian_field(g), params, cfg).final_state
        assert hs_norm(got - u, 0.0) <= 1e-13 * hs_norm(u, 0.0)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_transforms_per_step(self, fft_calls, steps):
        # 8 per step (4 stages of one stacked irfft of u, u_x and one stacked
        # rfft of the two squares u^2, u_x^2), plus the forward transform of
        # u0 and one inverse per snapshot
        g = make_grid(20, 256)
        cfg = SolverConfig(dt=0.01, T=0.01 * steps, snapshot_stride=10**9)
        traj = solve_eulerian(gaussian_field(g), BParams(b=2.0, s=S), cfg)
        assert len(traj.states) == 2
        assert len(fft_calls) == 8 * steps + 2

    def test_stage_transforms_take_two_rows(self, fft_calls):
        # each stage: one 2-row inverse of (u, u_x), one 2-row forward of the
        # squares; u0 goes in and the final snapshot comes out as one row
        g = make_grid(20, 256)
        cfg = SolverConfig(dt=0.01, T=0.02, snapshot_stride=10**9)
        solve_eulerian(gaussian_field(g), BParams(b=2.0, s=S), cfg)
        stage = [("irfft", (2, 129)), ("rfft", (2, 256))]
        assert fft_calls == [("rfft", (256,))] + stage * 8 + [("irfft", (129,))]

    def test_nan_aborts_with_time(self):
        g = make_grid(20, 128)
        u0 = Field(g, 1e200 * np.exp(-(g.x**2)))
        with pytest.raises(SolverError) as err:
            with np.errstate(all="ignore"):
                solve_eulerian(u0, BParams(b=2.0, s=S), SolverConfig(dt=0.01, T=0.1))
        assert err.value.time is not None


@pytest.mark.parametrize("solve", [solve_eulerian, solve_geodesic])
def test_schedule_ends_with_partial_step(solve):
    # 7 full steps and a half step: snapshots every 3 steps and at T
    g = make_grid(20, 64)
    dt, T = 0.01, 0.075
    cfg = SolverConfig(dt=dt, T=T, snapshot_stride=3)
    traj = solve(gaussian_field(g), BParams(b=2.0, s=S), cfg)
    assert traj.termination == COMPLETED
    assert traj.times.tolist() == [0.0, 3 * dt, 6 * dt, T]


class TestChristoffelId:
    def test_constant_velocity(self):
        g = make_grid(20, 128)
        c = Field(g, np.full(128, 0.9))
        out = christoffel_id(c, c, BParams(b=2.0, s=S))
        assert np.max(np.abs(out.values)) < 1e-13

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_single_mode_oracle(self, b):
        # Gamma_id(cos, cos) = ((2b-3)/10) sin(2x) on the unit-frequency cell
        g = make_grid(np.pi, 64)
        v = Field(g, np.cos(g.x))
        got = christoffel_id(v, v, BParams(b=b, s=S))
        want = ((2 * b - 3) / 10.0) * np.sin(2 * g.x)
        assert np.max(np.abs(got.values - want)) < 1e-13

    def test_degasperis_procesi_reduction(self):
        # at b = 3 the second-derivative pairing drops out
        g = make_grid(20, 256)
        rng = np.random.RandomState(0)
        v = Field(g, np.exp(-((g.x - 1) ** 2)) + 0.3 * rng.randn() * 0)
        got = christoffel_id(v, v, BParams(b=3.0, s=S))
        want = helmholtz_inverse(-3.0 * dealiased_product(v, derivative(v, 1)))
        assert np.max(np.abs(got.values - want.values)) < 1e-13

    def test_bilinear_symmetry(self):
        g = make_grid(20, 128)
        rng = np.random.RandomState(1)
        v = Field(g, rng.randn(128))
        w = Field(g, rng.randn(128))
        params = BParams(b=2.0, s=S)
        vw = christoffel_id(v, w, params)
        wv = christoffel_id(w, v, params)
        assert np.array_equal(vw.values, wv.values)

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_off_diagonal_formula(self, b):
        # B(v, w) = -(b/2)(v w_x + w v_x) + ((b-3)/2)(v_x w_xx + w_x v_xx)
        g = make_grid(20, 256)
        v = gaussian_field(g, amp=0.7, width=2.0, center=-1.0)
        w = Field(g, np.sin(np.pi * 3 * g.x / g.half_length) * np.exp(-(g.x**2) / 8))
        vx, vxx = derivative(v, 1), derivative(v, 2)
        wx, wxx = derivative(w, 1), derivative(w, 2)
        prod = dealiased_product
        want = helmholtz_inverse(
            (-b / 2.0) * (prod(v, wx) + prod(w, vx))
            + ((b - 3.0) / 2.0) * (prod(vx, wxx) + prod(wx, vxx))
        ).values
        got = christoffel_id(v, w, BParams(b=b, s=S)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestChristoffelAt:
    def test_identity_base_point_is_exact(self):
        g = make_grid(20, 256)
        v = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        assert np.array_equal(
            christoffel_at(identity(g), v, params).values,
            christoffel_id(v, v, params).values,
        )

    def test_transforms_at_identity(self, fft_calls):
        # one stacked forward transform in, 4 that assemble the flux form
        # Q_x (v, v_x, phi_x in; v_x / phi_x out and its truncation back in;
        # Q out), 2 for the cold start's S g0, whose residual already passes,
        # one inverse out
        g = make_grid(20, 256)
        phi, v = identity(g), gaussian_field(g)
        fft_calls.clear()
        christoffel_at(phi, v, BParams(b=2.0, s=S))
        assert len(fft_calls) == 8

    def test_zero_velocity(self):
        g = make_grid(20, 128)
        rng = np.random.RandomState(2)
        phi = random_small_diffeo(g, rng)
        out = christoffel_at(phi, Field.zeros(g), BParams(b=2.0, s=S))
        assert np.max(np.abs(out.values)) == 0.0

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_literal_pipeline_oracle(self, b, monkeypatch):
        from bfamily.diffeo import compose_field, invert

        g = make_grid(20, 2048)
        rng = np.random.RandomState(3)
        v = gaussian_field(g)
        params = BParams(b=b, s=S)
        # a small random map, then steep maps with min phi_x 0.75, 0.5, 0.27
        xi = 3 * np.pi / g.half_length
        maps = [random_small_diffeo(g, rng, scale=0.08)] + [
            Diffeomorphism(g, Field(g, (d / xi) * np.sin(xi * g.x)))
            for d in (0.25, 0.5, 0.73)
        ]

        def no_inversion(phi):
            raise AssertionError("christoffel_at must not invert the flow map")

        for phi in maps:
            with monkeypatch.context() as m:
                m.setattr("bfamily.dynamics.invert", no_inversion)
                fast = christoffel_at(phi, v, params)
            pulled = compose_field(v, invert(phi))
            literal = compose_field(christoffel_id(pulled, pulled, params), phi)
            rel = hs_norm(fast - literal, S) / hs_norm(literal, S)
            assert rel <= 1e-6


class TestSolveGeodesic:
    def test_zero_initial_velocity(self):
        g = make_grid(20, 64)
        traj = solve_geodesic(
            Field.zeros(g), BParams(b=2.0, s=S), SolverConfig(dt=0.05, T=0.3)
        )
        assert traj.termination == COMPLETED
        for st in traj.states:
            assert np.max(np.abs(st.phi.displacement.values)) == 0.0
            assert np.max(np.abs(st.phit.values)) == 0.0

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_matches_eulerian_solution(self, b):
        g = make_grid(20, 512)
        u0 = gaussian_field(g)
        u0 = (0.5 / hs_norm(u0, S)) * u0
        params = BParams(b=b, s=S)
        cfg = SolverConfig(dt=2e-3, T=0.5, snapshot_stride=10**9)
        eul = solve_eulerian(u0, params, cfg)
        lag = solve_geodesic(u0, params, cfg)
        rec = eulerian_from_lagrangian(lag.final_state)
        assert hs_norm(rec - eul.final_state, S) <= 1e-5

    def test_fourth_order_self_convergence(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)

        def run(dt):
            cfg = SolverConfig(dt=dt, T=0.5, snapshot_stride=10**9)
            return solve_geodesic(u0, params, cfg).final_state

        a, b_, c = run(0.1), run(0.05), run(0.025)
        e_ab = hs_norm(a.phit - b_.phit, S)
        e_bc = hs_norm(b_.phit - c.phit, S)
        assert e_ab / e_bc == pytest.approx(16.0, rel=0.45)

    def test_stage_predictor_cuts_transforms_not_accuracy(self, fft_calls):
        # each stage's solve starts from a prediction built from the step's
        # own stage values, and a warm stage's start rides in the 4
        # transforms that assemble Q_x; a cold-start RK4 on christoffel_at
        # must agree
        g = make_grid(20, 256)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=1e-3, T=0.1, snapshot_stride=10**9)
        fft_calls.clear()
        final = solve_geodesic(u0, params, cfg).final_state
        # 0.9 x the 4100 of assembling phi_x B from B (4960 with previous-stage starts)
        assert len(fft_calls) < 3690

        def rhs(disp, phit):
            gamma = christoffel_at(Diffeomorphism(g, Field(g, disp)), Field(g, phit), params)
            return phit, gamma.values

        disp, phit = np.zeros(g.n_points), u0.values
        for _ in range(100):
            k1 = rhs(disp, phit)
            k2 = rhs(disp + 5e-4 * k1[0], phit + 5e-4 * k1[1])
            k3 = rhs(disp + 5e-4 * k2[0], phit + 5e-4 * k2[1])
            k4 = rhs(disp + 1e-3 * k3[0], phit + 1e-3 * k3[1])
            disp, phit = (
                y + (1e-3 / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for y, a, b, c, d in zip((disp, phit), k1, k2, k3, k4)
            )
        for ours, ref in ((final.phi.displacement.values, disp), (final.phit.values, phit)):
            assert np.max(np.abs(ours - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_steep_map_resolution(self):
        # a wide bump carrying a narrow one: min phi_x reaches 0.158 at T = 1
        def displacement(n):
            g = make_grid(20, n)
            v = 4.5 * np.exp(-((g.x / 5.0) ** 2)) + 0.9 * np.exp(-((g.x / 0.6) ** 2))
            cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
            traj = solve_geodesic(Field(g, v), BParams(b=2.0, s=S), cfg)
            assert traj.termination == COMPLETED
            return traj.final_state.phi.displacement.values

        coarse, fine = displacement(512), displacement(1024)
        assert np.max(np.abs(coarse - fine[::2])) <= 1e-7

    def test_unconverged_christoffel_solve_raises_with_time(self, monkeypatch):
        monkeypatch.setattr("bfamily.dynamics.CHRISTOFFEL_RTOL", 0.0)
        g = make_grid(20, 64)
        with pytest.raises(SolverError, match="did not converge") as err:
            solve_geodesic(
                gaussian_field(g), BParams(b=2.0, s=S), SolverConfig(dt=0.01, T=0.1)
            )
        assert err.value.time == pytest.approx(0.01)

    def test_wave_breaking_ends_at_phix_guard(self):
        # the steepening amp-4 Gaussian drives min phi_x towards 0; the solve
        # must keep converging until the flow map degenerates
        g = make_grid(20, 512)
        traj = solve_geodesic(
            gaussian_field(g, amp=4.0),
            BParams(b=2.0, s=S),
            SolverConfig(dt=1e-3, T=3.0, snapshot_stride=10),
        )
        assert traj.termination == BLOWUP_PHIX
        assert np.min(traj.final_state.phi.phi_x) < 1e-2

    def test_phix_guard(self):
        g = make_grid(20, 128)
        u0 = gaussian_field(g, amp=1.0)
        traj = solve_geodesic(
            u0, BParams(b=2.0, s=S), SolverConfig(dt=0.01, T=1.0, min_phix=0.999)
        )
        assert traj.termination == BLOWUP_PHIX

    @pytest.mark.parametrize("min_phix", [0.5, 1e-300])
    def test_blowup_keeps_times_and_states_aligned(self, min_phix):
        # 0.5 ends at the guard, which stores the crossing step; 1e-300 ends
        # inside a stage of a later step, which stores nothing
        g = make_grid(20, 64)
        cfg = SolverConfig(dt=0.01, T=3.0, snapshot_stride=7, min_phix=min_phix)
        traj = solve_geodesic(gaussian_field(g, amp=4.0), BParams(b=2.0, s=S), cfg)
        assert traj.termination == BLOWUP_PHIX
        assert len(traj.times) == len(traj.states)
        floors = [np.min(st.phi.phi_x) for st in traj.states]
        assert min(floors[:-1]) >= min_phix
        on_stride = round(traj.times[-1] / 0.07, 9).is_integer()
        assert (floors[-1] < min_phix) == (not on_stride)

    def test_rejected_snapshot_keeps_times_and_states_aligned(self, monkeypatch):
        # a flow map that passes the guard but not Diffeomorphism's own check
        # ends the run with the snapshots before it, none without its state
        from bfamily.diffeo import Diffeomorphism

        made = []

        def fragile(grid, displacement):
            made.append(1)
            if len(made) == 3:
                raise PositivityError("rejected snapshot")
            return Diffeomorphism(grid, displacement)

        monkeypatch.setattr("bfamily.dynamics.Diffeomorphism", fragile)
        g = make_grid(20, 64)
        cfg = SolverConfig(dt=0.01, T=0.1, snapshot_stride=2)
        traj = solve_geodesic(gaussian_field(g), BParams(b=2.0, s=S), cfg)
        assert traj.termination == BLOWUP_PHIX
        assert traj.times.tolist() == [0.0, 0.02, 0.04]
        assert len(traj.states) == 3

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_matches_sample_space_rk4(self, b):
        # the half-spectrum march against RK4 on samples of the public
        # christoffel_at (cold-started, so the solves agree to ~1e-14)
        g = make_grid(20, 256)
        params = BParams(b=b, s=S)
        dt, steps = 0.01, 50

        def rhs(disp, vel):
            return vel, christoffel_at(Diffeomorphism(g, disp), vel, params)

        disp, vel = Field.zeros(g), gaussian_field(g)
        for _ in range(steps):
            a1, b1 = rhs(disp, vel)
            a2, b2 = rhs(disp + (0.5 * dt) * a1, vel + (0.5 * dt) * b1)
            a3, b3 = rhs(disp + (0.5 * dt) * a2, vel + (0.5 * dt) * b2)
            a4, b4 = rhs(disp + dt * a3, vel + dt * b3)
            disp = disp + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            vel = vel + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        cfg = SolverConfig(dt=dt, T=dt * steps, snapshot_stride=10**9)
        got = solve_geodesic(gaussian_field(g), params, cfg).final_state
        for ours, ref in ((got.phi.displacement, disp), (got.phit, vel)):
            rel = np.max(np.abs(ours.values - ref.values)) / np.max(np.abs(ref.values))
            assert rel <= 1e-13


class TestExpMap:
    def test_zero_maps_to_identity(self):
        g = make_grid(20, 64)
        phi = exp_map(Field.zeros(g), BParams(b=2.0, s=S), SolverConfig(dt=0.05, T=1.0))
        assert np.max(np.abs(phi.displacement.values)) == 0.0

    def test_is_time_one_geodesic_snapshot(self):
        g = make_grid(20, 256)
        v = gaussian_field(g, amp=0.2)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=0.01, T=1.0, snapshot_stride=10**9)
        phi = exp_map(v, params, cfg)
        traj = solve_geodesic(v, params, cfg)
        assert np.array_equal(
            phi.displacement.values, traj.final_state.phi.displacement.values
        )

    def test_derivative_at_zero_is_identity_slope_two(self):
        # ||exp(eps v) - id - eps v|| = O(eps^2): slope 2 on a log-log fit
        g = make_grid(20, 256)
        v = gaussian_field(g, amp=1.0)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=2e-3, T=1.0, snapshot_stride=10**9)
        eps_values = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
        errs = []
        for eps in eps_values:
            phi = exp_map(eps * v, params, cfg)
            errs.append(hs_norm(Field(g, phi.displacement.values) - eps * v, S))
        slope = np.polyfit(np.log(eps_values), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_blowup_propagates_as_domain_error(self):
        g = make_grid(20, 128)
        v = gaussian_field(g, amp=1.0)
        params, cfg = BParams(b=2.0, s=S), SolverConfig(dt=0.01, T=1.0, min_phix=0.999)
        with pytest.raises(ExpDomainError) as err:
            exp_map(v, params, cfg)
        ending = solve_geodesic(v, params, cfg).ending
        assert ending == "blowup_phix at t = 0.01"
        assert str(err.value) == f"initial velocity outside the exp domain ({ending})"


class TestDexp:
    def test_zero_direction(self):
        g = make_grid(20, 128)
        u0 = gaussian_field(g, amp=0.2)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=0.02, T=1.0)
        out = central_dexp(u0, Field.zeros(g), params, 0.05, cfg)
        assert np.max(np.abs(out.values)) == 0.0

    def test_at_zero_base_point_is_identity_map(self):
        g = make_grid(20, 256)
        v = gaussian_field(g, amp=1.0)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
        errs = []
        for eps in (0.1, 0.05):
            d = central_dexp(Field.zeros(g), v, params, eps, cfg)
            errs.append(hs_norm(d - v, S))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] < 0.01 * hs_norm(v, S)

    def test_eps_refinement_second_order(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g, amp=0.3)
        v = gaussian_field(g, amp=0.8, width=3.0, center=1.0)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
        d1 = central_dexp(u0, v, params, 0.2, cfg)
        d2 = central_dexp(u0, v, params, 0.1, cfg)
        d3 = central_dexp(u0, v, params, 0.05, cfg)
        ratio = hs_norm(d1 - d2, S) / hs_norm(d2 - d3, S)
        assert ratio == pytest.approx(4.0, rel=0.35)


class TestJacobiMarch:
    """exp_and_differential: the flow of u0 and its Jacobi field in one march."""

    def test_at_zero_base_point_returns_the_probe(self):
        # d exp_0 is the identity, so m_est is max|v| / ||v||_{H^2}
        g = make_grid(20, 512)
        v = gaussian_field(g, amp=4.5, width=5.0)
        cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
        phi, d = exp_and_differential(Field.zeros(g), v, BParams(b=2.0, s=S), cfg)
        assert np.max(np.abs(phi.displacement.values)) == 0.0
        assert np.max(np.abs(d.values - v.values)) <= 1e-10 * np.max(np.abs(v.values))
        m = np.max(np.abs(d.values)) / hs_norm(v, S)
        assert m == pytest.approx(np.max(np.abs(v.values)) / hs_norm(v, S), rel=1e-8)

    def test_central_difference_converges_at_order_two(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g, amp=0.3)
        v = gaussian_field(g, amp=0.8, width=3.0, center=1.0)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
        _, jacobi = exp_and_differential(u0, v, params, cfg)
        errs = [
            hs_norm(central_dexp(u0, v, params, eps, cfg) - jacobi, S)
            for eps in (0.1, 0.05, 0.025)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)

    def test_zero_probe_gives_exactly_zero(self):
        g = make_grid(20, 128)
        cfg = SolverConfig(dt=0.02, T=1.0)
        _, d = exp_and_differential(
            gaussian_field(g, amp=0.2), Field.zeros(g), BParams(b=2.0, s=S), cfg
        )
        assert np.max(np.abs(d.values)) == 0.0

    @pytest.mark.parametrize(
        "n, u0_args, dt",
        [(512, (0.25, 3.0), 5e-3), (256, (0.5, 2.0), 5e-3)],
        ids=["nonuniform-seed-0", "conserve-like"],
    )
    def test_base_flow_matches_solve_geodesic(self, n, u0_args, dt):
        g = make_grid(20, n)
        u0, v = gaussian_field(g, *u0_args), gaussian_field(g, amp=4.5, width=5.0)
        params, cfg = BParams(b=2.0, s=S), SolverConfig(dt=dt, T=1.0)
        phi, _ = exp_and_differential(u0, v, params, cfg)
        ref = exp_map(u0, params, cfg)
        diff = phi.displacement.values - ref.displacement.values
        assert np.max(np.abs(diff)) <= 1e-10

    def test_blowup_quotes_the_base_flows_ending(self):
        g = make_grid(20, 128)
        u0, v = gaussian_field(g, amp=1.0), gaussian_field(g, amp=4.5, width=5.0)
        params, cfg = BParams(b=2.0, s=S), SolverConfig(dt=0.01, T=1.0, min_phix=0.999)
        with pytest.raises(ExpDomainError) as err:
            exp_and_differential(u0, v, params, cfg)
        ending = solve_geodesic(u0, params, cfg).ending
        assert ending == "blowup_phix at t = 0.01"
        assert str(err.value) == f"initial velocity outside the exp domain ({ending})"


class TestFlowFromVelocity:
    def test_zero_velocity_keeps_identity(self):
        g = make_grid(20, 64)
        traj = solve_eulerian(
            Field.zeros(g), BParams(b=2.0, s=S), SolverConfig(dt=0.05, T=0.2)
        )
        flow = flow_from_velocity(traj)
        for st in flow.states:
            assert np.max(np.abs(st.phi.displacement.values)) == 0.0

    def test_uniform_velocity_translates(self):
        g = make_grid(20, 64)
        c = 0.7
        traj = solve_eulerian(
            Field(g, np.full(64, c)),
            BParams(b=2.0, s=S),
            SolverConfig(dt=0.05, T=0.2),
        )
        flow = flow_from_velocity(traj)
        want = c * flow.times[-1]
        assert np.allclose(
            flow.final_state.phi.displacement.values, want, atol=1e-12
        )

    def test_round_trip_against_geodesic(self):
        g = make_grid(20, 512)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        eul = solve_eulerian(u0, params, SolverConfig(dt=1e-3, T=0.5))
        flow = flow_from_velocity(eul)
        geo = solve_geodesic(
            u0, params, SolverConfig(dt=1e-3, T=0.5, snapshot_stride=10**9)
        )
        gap = np.max(
            np.abs(
                flow.final_state.phi.displacement.values
                - geo.final_state.phi.displacement.values
            )
        )
        assert gap <= 1e-5


class TestEulerianFromLagrangian:
    def test_identity_flow(self):
        g = make_grid(20, 128)
        vel = gaussian_field(g)
        state = SprayState(identity(g), vel)
        back = eulerian_from_lagrangian(state)
        assert np.max(np.abs(back.values - vel.values)) < 1e-12

    def test_zero_velocity(self):
        g = make_grid(20, 128)
        rng = np.random.RandomState(4)
        state = SprayState(random_small_diffeo(g, rng), Field.zeros(g))
        assert np.max(np.abs(eulerian_from_lagrangian(state).values)) < 1e-13


class TestConservedEnergyDiscriminator:
    def test_b2_conserves_h1_energy_b3_does_not(self):
        g = make_grid(20, 512)
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt=1e-3, T=1.0, snapshot_stride=10**9)

        def drift(b):
            traj = solve_eulerian(u0, BParams(b=b, s=S), cfg)
            e0 = hs_norm(traj.states[0], 1.0) ** 2
            e1 = hs_norm(traj.final_state, 1.0) ** 2
            return abs(e1 - e0) / e0

        assert drift(2.0) <= 1e-6
        assert drift(3.0) >= 1e-3


class TestIntegralFormResidual:
    @staticmethod
    def integral_residual(u0, params, dt, T):
        """Corrected-trapezoid quadrature of the stored right-hand sides."""
        cfg = SolverConfig(dt=dt, T=T, snapshot_stride=1)
        traj = solve_eulerian(u0, params, cfg)
        rhs_vals = [rhs_eulerian(st, params).values for st in traj.states]
        h = dt
        quad = h * (
            0.5 * rhs_vals[0]
            + sum(rhs_vals[1:-1])
            + 0.5 * rhs_vals[-1]
        )
        # Euler-Maclaurin endpoint correction with one-sided 4th-order slopes
        def slope(vals, left):
            c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
            if left:
                return sum(ci * vi for ci, vi in zip(c, vals[:5]))
            return -sum(ci * vi for ci, vi in zip(c, vals[-1:-6:-1]))

        quad = quad - (h**2 / 12.0) * (slope(rhs_vals, False) - slope(rhs_vals, True))
        resid = traj.final_state.values - u0.values - quad
        return hs_norm(Field(u0.grid, resid), params.s - 1)

    def test_fourth_order_in_dt(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        r1 = self.integral_residual(u0, params, 0.05, 0.5)
        r2 = self.integral_residual(u0, params, 0.025, 0.5)
        assert r1 / r2 == pytest.approx(16.0, rel=0.5)


class TestFormEquivalence:
    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_local_form_residual_band_limited(self, b):
        # u_t - u_xxt + (b+1) u u_x - b u_x u_xx - u u_xxx = 0 with u_t from
        # the nonlocal form; raw products, band-limited state
        g = make_grid(20, 512)
        rng = np.random.RandomState(5)
        v = np.zeros(512)
        for k in range(1, 33):
            xi = np.pi * k / 20.0
            v += rng.randn() / (1 + k**2) * np.cos(xi * g.x + rng.uniform(0, 2 * np.pi))
        u = Field(g, 0.4 * v)
        params = BParams(b=b, s=S)
        ut = rhs_eulerian(u, params)
        ux = derivative(u, 1)
        uxx = derivative(u, 2)
        uxxx = derivative(u, 3)
        resid = (
            ut.values
            - derivative(ut, 2).values
            + (b + 1) * u.values * ux.values
            - b * ux.values * uxx.values
            - u.values * uxxx.values
        )
        l2 = np.sqrt(g.spacing * np.sum(resid**2))
        assert l2 <= 1e-8
