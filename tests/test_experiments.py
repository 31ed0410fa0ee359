"""Tests for the bump construction and the non-uniformity experiment."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import central_dexp, scaling_check

from bfamily import experiments
from bfamily.dynamics import FLOW_DT, BParams, SolverConfig, solve_eulerian, time_one_map
from bfamily.errors import ConfigError, ExpDomainError, UnderResolvedError
from bfamily.experiments import (
    ExperimentRow,
    NonUniformityConfig,
    build_bump,
    estimate_probe_geometry,
    nonuniformity_experiment,
)
from bfamily.spectral import Field, hs_norm, make_grid

S = 2.0


def gaussian_field(grid, amp, width, center=0.0):
    return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


def small_experiment_config(n_points=512, n_values=(1, 2, 4)):
    g = make_grid(20, n_points)
    u0 = gaussian_field(g, 0.25, 3.0)
    v = gaussian_field(g, 4.5, 5.0)
    params = BParams(b=2.0, s=S)
    solver = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
    return NonUniformityConfig(
        u0=u0, v=v, params=params, R=0.4, n_values=n_values, solver=solver,
    )


class TestBuildBump:
    def test_zero_target(self):
        g = make_grid(20, 256)
        out = build_bump(0.0, 1.0, S, 0.0, g)
        assert np.max(np.abs(out.values)) == 0.0

    def test_norm_postcondition(self):
        g = make_grid(20, 1024)
        for target in (0.1, 2.5):
            out = build_bump(1.0, 0.8, S, target, g)
            assert hs_norm(out, S) == pytest.approx(target, rel=1e-10)

    def test_support_containment(self):
        g = make_grid(20, 1024)
        out = build_bump(-2.0, 1.2, S, 1.0, g)
        outside = (g.x <= -3.2) | (g.x >= -0.8)
        assert np.max(np.abs(out.values[outside])) <= 1e-13 * np.max(
            np.abs(out.values)
        )

    def test_under_resolved_radius(self):
        g = make_grid(20, 256)
        with pytest.raises(UnderResolvedError):
            build_bump(0.0, 3.9 * g.spacing, S, 1.0, g)

    def test_support_must_stay_safe(self):
        g = make_grid(20, 256)
        with pytest.raises(ValueError):
            build_bump(14.9, 1.0, S, 1.0, g)


class TestEstimateProbeGeometry:
    def test_zero_base_point_reads_off_probe(self):
        g = make_grid(20, 256)
        v = gaussian_field(g, 1.0, 3.0, center=1.5)
        cfg = NonUniformityConfig(
            u0=Field.zeros(g), v=v, params=BParams(b=2.0, s=S), R=0.2,
            n_values=(1,), solver=SolverConfig(dt=5e-3, T=1.0),
        )
        x0, m, L_est = estimate_probe_geometry(cfg)
        assert abs(x0 - 1.5) <= 3 * g.spacing
        assert m == pytest.approx(np.max(np.abs(v.values)) / hs_norm(v, S), rel=0.02)
        assert L_est >= 1.0

    def test_negated_probe_has_the_same_geometry(self):
        # d exp is linear in v, so -v's differential is -d bit for bit: x0_est
        # is where |d| peaks, whatever the sign of d there
        cfg = small_experiment_config(n_points=128)
        negated = replace(cfg, v=-1.0 * cfg.v)
        assert estimate_probe_geometry(negated) == estimate_probe_geometry(cfg)

    def test_degenerate_probe_rejected_at_construction(self):
        g = make_grid(20, 256)
        with pytest.raises(ConfigError, match=r"^probe\.\*: probe direction must be nonzero$"):
            NonUniformityConfig(
                u0=Field.zeros(g), v=Field.zeros(g), params=BParams(b=2.0, s=S),
                R=0.2, n_values=(1,), solver=SolverConfig(dt=5e-3, T=1.0),
            )

    def test_m_stable_under_eps_refinement(self):
        # m from the central-difference oracle settles on the Jacobi m_est
        cfg = small_experiment_config(n_points=256)
        v_norm = hs_norm(cfg.v, S)
        m_values = [
            np.max(np.abs(central_dexp(cfg.u0, cfg.v, cfg.params, eps, cfg.solver).values))
            / v_norm
            for eps in (0.05, 0.025)
        ]
        assert abs(m_values[0] - m_values[1]) <= 0.05 * m_values[1]
        m_est = estimate_probe_geometry(cfg)[1]
        assert all(abs(m - m_est) <= 0.05 * m_est for m in m_values)


class TestScalingCheck:
    def test_lambda_one_is_exact(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g, 0.5, 2.0)
        resid = scaling_check(
            u0, 1.0, BParams(b=2.0, s=S), SolverConfig(dt=5e-3, T=0.2)
        )
        assert resid == 0.0

    def test_zero_datum(self):
        g = make_grid(20, 256)
        resid = scaling_check(
            Field.zeros(g), 2.0, BParams(b=2.0, s=S), SolverConfig(dt=5e-3, T=0.5)
        )
        assert resid == 0.0

    def test_gaussian_lambda_two(self):
        g = make_grid(20, 512)
        u0 = gaussian_field(g, 0.5, 2.0)
        resid = scaling_check(
            u0, 2.0, BParams(b=2.0, s=S), SolverConfig(dt=1e-3, T=0.5)
        )
        assert resid <= 1e-6


class TestTimeOneMap:
    def test_zero_datum(self):
        g = make_grid(20, 256)
        out = time_one_map(Field.zeros(g), BParams(b=2.0, s=S), SolverConfig(dt=0.01, T=1.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_blowup_is_outside_domain(self):
        g = make_grid(20, 256)
        u0 = gaussian_field(g, 0.5, 2.0)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=0.01, T=1.0, blowup_norm_cap=1e-3)
        with pytest.raises(ExpDomainError) as err:
            time_one_map(u0, params, cfg)
        ending = solve_eulerian(u0, params, cfg).ending
        assert ending == "blowup_norm at t = 0.01"
        assert str(err.value) == (
            f"initial datum outside the time-one existence set ({ending})"
        )

    def test_continuity_at_desk_scale(self):
        # the time-one map IS continuous: shrinking perturbations of fixed
        # shape produce shrinking output distances
        g = make_grid(20, 256)
        u0 = gaussian_field(g, 0.5, 2.0)
        delta = gaussian_field(g, 1.0, 3.0, center=1.0)
        params = BParams(b=2.0, s=S)
        cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
        base = time_one_map(u0, params, cfg)
        dists = []
        for k in (0, 2, 4, 6):
            pert = time_one_map(u0 + (0.1 / 2**k) * delta, params, cfg)
            dists.append(hs_norm(pert - base, S))
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 0.05 * dists[0]


@pytest.fixture(scope="module")
def report_and_config():
    cfg = small_experiment_config()
    return nonuniformity_experiment(cfg), cfg


class TestNonUniformityExperiment:

    def test_input_distance_is_algebraic(self, report_and_config):
        report, cfg = report_and_config
        v_norm = hs_norm(cfg.v, S)
        for row in report.rows:
            assert row.input_dist == pytest.approx(v_norm / row.n, rel=1e-12)

    def test_rn_scaling(self, report_and_config):
        report, _ = report_and_config
        rns = [r.r_n for r in report.rows]
        assert all(a > b for a, b in zip(rns, rns[1:]))
        products = [r.r_n * r.n for r in report.rows]
        assert np.ptp(products) <= 1e-12 * products[0]

    def test_witness_gap_bound_holds_for_resolved(self, report_and_config):
        report, cfg = report_and_config
        v_norm = hs_norm(cfg.v, S)
        resolved = report.resolved_rows()
        assert resolved, "expected at least one resolved n"
        for row in resolved:
            assert row.witness_gap >= report.m_est * v_norm / (2 * row.n)

    def test_under_resolved_rows_flagged_not_fatal(self, report_and_config):
        report, _ = report_and_config
        flagged = [r for r in report.rows if not r.resolved_ok]
        for row in flagged:
            assert np.isnan(row.output_dist)

    def test_separation_persistence(self, report_and_config):
        report, _ = report_and_config
        assert report.separation_persistence_ok()

    def test_deterministic_rerun(self, report_and_config):
        # reruns are bit-identical
        report, cfg = report_and_config
        again = nonuniformity_experiment(cfg)
        for a, b in zip(report.rows, again.rows):
            assert a == b or (
                np.isnan(a.output_dist) and np.isnan(b.output_dist) and a.n == b.n
            )
        assert (again.m_est, again.x0_est, again.L_est) == (
            report.m_est, report.x0_est, report.L_est
        )


def test_flow_step_time_error_is_far_below_the_witness(monkeypatch):
    # criterion-07 data at N = 512, row n = 1, with the flows at FLOW_DT and
    # at FLOW_DT / 4; solver.dt = FLOW_DT / 4 lets the finer step take over
    # (measured: 1.4e-8 relative in witness_gap, 1.1e-12 in m_est)
    cfg = small_experiment_config(n_values=(1,))
    cfg = replace(cfg, solver=replace(cfg.solver, dt=FLOW_DT / 4))
    coarse = nonuniformity_experiment(cfg)
    monkeypatch.setattr("bfamily.dynamics.FLOW_DT", FLOW_DT / 4)
    fine = nonuniformity_experiment(cfg)
    assert coarse.rows[0].resolved_ok and fine.rows[0].resolved_ok
    assert fine.rows[0].witness_gap == pytest.approx(coarse.rows[0].witness_gap, rel=1e-6)
    assert fine.m_est == pytest.approx(coarse.m_est, rel=1e-6)


@pytest.mark.parametrize(
    "dt, T, n, rows", [(5e-3, 1.0, 1, 1), (1e-3, 0.01, 1, 1), (0.05, 1.0, 16, 0)]
)
def test_flows_step_at_flow_dt_and_eulerian_legs_at_solver_dt(monkeypatch, dt, T, n, rows):
    # spies on the three marches as experiments sees them; every flow steps
    # at max(dt, FLOW_DT) to T = 1, and the Eulerian legs get solver as given
    # (n = 16 is under-resolved at N = 512: only the probe geometry marches)
    seen = []

    def spy(name):
        real = getattr(experiments, name)

        def wrapper(*args):
            seen.append((name, args[-1]))
            return real(*args)

        return wrapper

    for name in ("exp_and_differential", "exp_map", "time_one_map"):
        monkeypatch.setattr(f"bfamily.experiments.{name}", spy(name))
    solver = SolverConfig(dt=dt, T=T, snapshot_stride=10**9)
    if FLOW_DT > T:  # a step past T is refused unless T is set with it
        with pytest.raises(ValueError):
            replace(solver, dt=FLOW_DT)
    cfg = replace(small_experiment_config(n_values=(n,)), solver=solver)
    nonuniformity_experiment(cfg)

    marches = ["exp_and_differential"] + ["time_one_map", "exp_map"] * 2 * rows
    assert [name for name, _ in seen] == marches
    for name, config in seen:
        if name == "time_one_map":
            assert config is solver
        else:
            assert (config.dt, config.T) == (max(dt, FLOW_DT), 1.0)


def test_build_bump_alone_decides_which_n_run(monkeypatch):
    # under the stubbed geometry n = 1, 2, 4 all resolve; a build_bump that
    # refuses n = 2 must flag that row alone, and each resolved row marches
    # the very bump build_bump returned for it
    cfg = small_experiment_config()
    v_norm = hs_norm(cfg.v, S)
    built = {}

    def bump(center, radius, s, target, grid):
        n = round(v_norm / (8.0 * radius))  # radius = r_n = v_norm / (8n) here
        if n == 2:
            raise UnderResolvedError("refused")
        built[n] = build_bump(center, radius, s, target, grid)
        return built[n]

    def row(cfg, n, r_n, w_n, i0):
        assert w_n is built[n]
        return ExperimentRow(n, r_n, 0.0, 0.0, 0.0, 0.0, True)

    monkeypatch.setattr(
        "bfamily.experiments.estimate_probe_geometry", lambda cfg: (0.0, 1.0, 1.0)
    )
    monkeypatch.setattr("bfamily.experiments.build_bump", bump)
    monkeypatch.setattr("bfamily.experiments._resolved_row", row)
    report = nonuniformity_experiment(cfg)
    assert [(r.n, r.resolved_ok) for r in report.rows] == [(1, True), (2, False), (4, True)]
    assert np.isnan(report.rows[1].output_dist)
    assert sorted(built) == [1, 4]
