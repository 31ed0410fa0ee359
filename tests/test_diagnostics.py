"""Tests for momentum transport, pushforward reconstruction, and the
disjoint-support inequality."""

import numpy as np
import pytest
from helpers import disjoint_support_ratio, helmholtz_inverse

from bfamily.diagnostics import (
    conservation_residual,
    pushforward_reconstruct,
)
from bfamily.diffeo import Diffeomorphism, compose_field, identity
from bfamily.dynamics import (
    BParams,
    SolverConfig,
    SprayState,
    eulerian_from_lagrangian,
    momentum,
    solve_eulerian,
    solve_geodesic,
    transported_momentum,
)
from bfamily.spectral import Field, hs_norm, make_grid

S = 2.0


def gaussian_field(grid, amp=0.5, width=2.0, center=0.0):
    return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


def bump_field(grid, radius, center=0.0, amp=1.0):
    t = (grid.x - center) / radius
    v = np.zeros(grid.n_points)
    inside = np.abs(t) < 1.0
    v[inside] = amp * np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return Field(grid, v)


class TestMomentum:
    def test_cosine_eigenfunction(self):
        g = make_grid(np.pi, 32)
        for k in (1, 3):
            u = Field(g, np.cos(k * g.x))
            want = (1 + k**2) * np.cos(k * g.x)
            assert np.max(np.abs(momentum(u).values - want)) < 1e-12

    def test_zero(self):
        g = make_grid(20, 64)
        assert np.max(np.abs(momentum(Field.zeros(g)).values)) == 0.0

    def test_inverse_pair(self):
        g = make_grid(20, 256)
        rng = np.random.RandomState(0)
        u = Field(g, rng.randn(256))
        back = helmholtz_inverse(momentum(u))
        assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(
            np.abs(u.values)
        )

    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    def test_is_transported_momentum_at_identity(self, b):
        # one Nyquist convention: y = u - D(D u) is S u, i.e. q at phi = id
        g = make_grid(20, 256)
        u = Field(g, np.random.RandomState(0).randn(256))
        y = momentum(u).values
        q = transported_momentum(SprayState(identity(g), u), b).values
        assert np.max(np.abs(y - q)) <= 1e-12 * np.max(np.abs(y))


class TestTransportedMomentum:
    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0])
    @pytest.mark.parametrize("d", [0.25, 0.5, 0.73])
    def test_matches_inversion_route(self, d, b):
        # flow coordinates against (y o phi) phi_x^b with y recovered through
        # phi^{-1}; min phi_x is 1 - d
        g = make_grid(20, 1024)
        xi = 3 * np.pi / g.half_length
        phi = Diffeomorphism(g, Field(g, 0.3 + d / xi * np.sin(xi * g.x)))
        state = SprayState(phi, gaussian_field(g, center=1.0))
        got = transported_momentum(state, b)
        y = momentum(eulerian_from_lagrangian(state))
        want = compose_field(y, phi).values * phi.phi_x**b
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        assert rel <= 1e-10


class TestConservationResidual:
    def test_time_zero_exactly_zero(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        traj = solve_geodesic(u0, params, SolverConfig(dt=0.05, T=0.2))
        report = conservation_residual(traj)
        assert report.residual_s_minus_2[0] == 0.0
        assert report.residual_sup[0] == 0.0
        assert report.relative

    def test_zero_datum_all_zero(self):
        g = make_grid(20, 64)
        params = BParams(b=2.0, s=S)
        traj = solve_geodesic(Field.zeros(g), params, SolverConfig(dt=0.05, T=0.2))
        report = conservation_residual(traj)
        assert np.all(report.residual_s_minus_2 == 0.0)
        assert np.all(report.residual_sup == 0.0)
        assert not report.relative  # q(0) = 0: the residuals are absolute

    def test_small_along_geodesic_and_fourth_order(self):
        # the identity holds analytically: the residual is discretization
        # error, fourth order in dt where it dominates the roundoff floor
        g = make_grid(20, 512)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)

        def final_residual(dt):
            cfg = SolverConfig(dt=dt, T=1.0, snapshot_stride=10**9)
            traj = solve_geodesic(u0, params, cfg)
            return conservation_residual(traj).residual_s_minus_2[-1]

        fine = final_residual(1e-3)
        assert fine <= 1e-5
        coarse, half = final_residual(0.05), final_residual(0.025)
        assert coarse / half == pytest.approx(16.0, rel=0.5)

    def test_never_evaluates_off_grid(self, monkeypatch):
        g = make_grid(20, 256)
        params = BParams(b=2.0, s=S)
        traj = solve_geodesic(gaussian_field(g), params, SolverConfig(dt=0.05, T=0.2))

        def off_grid(*args):
            raise AssertionError("conservation check evaluated off the grid")

        monkeypatch.setattr("bfamily.diffeo.evaluate_field", off_grid)
        report = conservation_residual(traj)
        assert 0.0 < report.max_residual <= 1e-5

    def test_rejects_eulerian_trajectory(self):
        g = make_grid(20, 64)
        params = BParams(b=2.0, s=S)
        traj = solve_eulerian(Field.zeros(g), params, SolverConfig(dt=0.05, T=0.2))
        with pytest.raises(TypeError):
            conservation_residual(traj)


class TestPushforwardReconstruct:
    def test_identity_flow_is_exact(self):
        g = make_grid(20, 256)
        y0 = momentum(gaussian_field(g))
        out = pushforward_reconstruct(y0, identity(g), 2.0)
        assert np.array_equal(out.values, y0.values)

    def test_grid_aligned_shift_b0(self):
        g = make_grid(20, 256)
        y0 = momentum(gaussian_field(g))
        c = 7 * g.spacing
        out = pushforward_reconstruct(
            y0, Diffeomorphism(g, Field(g, np.full(256, c))), 0.0
        )
        want = np.roll(y0.values, 7)  # y0(x - c) for c = 7h
        assert np.max(np.abs(out.values - want)) <= 1e-10

    def test_end_to_end_against_eulerian_momentum(self):
        # flow-only prediction of y(1) matches the evolved Eulerian momentum
        g = make_grid(20, 512)
        u0 = gaussian_field(g)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=1e-3, T=1.0, snapshot_stride=10**9)
        lag = solve_geodesic(u0, params, cfg)
        eul = solve_eulerian(u0, params, cfg)
        predicted = pushforward_reconstruct(
            momentum(u0), lag.final_state.phi, params.b
        )
        evolved = momentum(eul.final_state)
        rel = hs_norm(predicted - evolved, S - 2) / hs_norm(evolved, S - 2)
        assert rel <= 1e-4


class TestDisjointSupportRatio:
    def test_vacuous_with_zero_partner(self):
        g = make_grid(20, 256)
        f = bump_field(g, 1.0, center=-2.0)
        assert disjoint_support_ratio(f, Field.zeros(g), 1.3) == 1.0

    def test_l2_is_local(self):
        g = make_grid(20, 1024)
        f = bump_field(g, 0.8, center=-2.0)
        h = bump_field(g, 0.8, center=2.0)
        assert disjoint_support_ratio(f, h, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [-0.4, 0.5, 1.7])
    def test_positive_and_grid_stable_over_radius_sweep(self, s):
        # bumps at +-2 with radius r in (0, 1): the ratio stays strictly
        # positive and insensitive to refinement
        mins = {}
        for n in (1024, 2048):
            g = make_grid(20, n)
            ratios = []
            for r in np.arange(0.1, 0.95, 0.1):
                f = bump_field(g, r, center=-2.0)
                h = bump_field(g, r, center=2.0)
                ratios.append(disjoint_support_ratio(f, h, s))
            mins[n] = min(ratios)
        print(f"\ns={s}: min ratio {mins}")
        assert mins[1024] > 0.0
        assert abs(mins[2048] - mins[1024]) <= 0.2 * mins[1024]

    def test_swap_symmetric(self):
        g = make_grid(20, 512)
        f = bump_field(g, 0.7, center=-2.0)
        h = bump_field(g, 0.5, center=2.0, amp=1.4)
        a = disjoint_support_ratio(f, h, 0.9)
        b = disjoint_support_ratio(h, f, 0.9)
        assert a == pytest.approx(b, rel=1e-13)

    def test_translation_invariant(self):
        g = make_grid(20, 512)
        f = bump_field(g, 0.7, center=-2.0)
        h = bump_field(g, 0.7, center=2.0)
        base = disjoint_support_ratio(f, h, 1.1)
        m = 37
        f2 = Field(g, np.roll(f.values, m))
        h2 = Field(g, np.roll(h.values, m))
        shifted = disjoint_support_ratio(f2, h2, 1.1)
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_rejects_overlap(self):
        g = make_grid(20, 256)
        f = bump_field(g, 2.0, center=-0.5)
        h = bump_field(g, 2.0, center=0.5)
        with pytest.raises(ValueError):
            disjoint_support_ratio(f, h, 0.5)
