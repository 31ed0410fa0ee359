"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Scales follow the defaults (N = 1024-2048, L = 20, T <= 1);
every tolerance is pinned here, nothing is calibrated at run time.
"""

import numpy as np
import pytest
from helpers import FAST_SOLVE, check_golden, tree_digest

from bfamily.cli import main as cli_main
from bfamily.diagnostics import (
    conservation_residual,
    disjoint_support_ratio,
    momentum,
    pushforward_reconstruct,
)
from bfamily.dynamics import (
    BParams,
    SolverConfig,
    dexp,
    eulerian_from_lagrangian,
    exp_map,
    rhs_eulerian,
    solve_eulerian,
    solve_geodesic,
)
from bfamily.experiments import (
    NonUniformityConfig,
    build_bump,
    estimate_probe_geometry,
    nonuniformity_experiment,
    scaling_check,
)
from bfamily.spectral import Field, derivative, homogeneous_hs_norm, hs_norm, make_grid

S = 2.0
L = 20.0


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({detail})")


def gaussian(grid, amp, width, center=0.0):
    return Field(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


def standard_gaussian(grid):
    return gaussian(grid, 0.5, 2.0)


def mollifier_derivative(radius):
    def fn(x):
        t = x / radius
        out = np.zeros_like(x)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = (
            np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2) / radius
        )
        return out

    return fn


def bump_profile(grid, radius, center=0.0):
    t = (grid.x - center) / radius
    v = np.zeros(grid.n_points)
    inside = np.abs(t) < 1.0
    v[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return Field(grid, v)


def test_criterion_01_conservation_law():
    grid = make_grid(L, 2048)
    u0 = standard_gaussian(grid)

    def final_residual(b, dt):
        params = BParams(b=b, s=S)
        cfg = SolverConfig(dt=dt, T=1.0, snapshot_stride=10**9)
        traj = solve_geodesic(u0, params, cfg)
        assert traj.termination == "completed"
        return conservation_residual(traj, params).residual_s_minus_2[-1]

    residuals = {b: final_residual(b, 1e-3) for b in (0.0, 2.0, 3.0)}
    # at dt = 1e-3 the residual sits on the roundoff floor, so the
    # fourth-order refinement law is asserted where discretization dominates
    coarse = final_residual(2.0, 0.05)
    half = final_residual(2.0, 0.025)
    ratio = coarse / half
    ok = all(r <= 1e-4 for r in residuals.values()) and 8.0 <= ratio <= 32.0
    detail = (
        ", ".join(f"b={b:g}: {r:.2e}" for b, r in residuals.items())
        + f"; dt-halving ratio {ratio:.1f} (target ~16)"
    )
    report(1, "conservation-law", ok, detail)
    assert ok


def test_criterion_02_dual_formulation_equivalence():
    grid = make_grid(L, 1024)
    u0 = standard_gaussian(grid)
    gaps = {}
    for b in (0.0, 2.0, 3.0):
        params = BParams(b=b, s=S)
        cfg = SolverConfig(dt=1e-3, T=0.5, snapshot_stride=10**9)
        eul = solve_eulerian(u0, params, cfg)
        lag = solve_geodesic(u0, params, cfg)
        rec = eulerian_from_lagrangian(lag.final_state)
        gaps[b] = hs_norm(rec - eul.final_state, S)
    ok = all(g <= 1e-4 for g in gaps.values())
    report(
        2,
        "dual-formulation-equivalence",
        ok,
        ", ".join(f"b={b:g}: {g:.2e}" for b, g in gaps.items()),
    )
    assert ok


def test_criterion_03_local_nonlocal_form_residual():
    grid = make_grid(L, 1024)
    rng = np.random.RandomState(17)
    v = np.zeros(grid.n_points)
    for k in range(1, 65):
        xi = np.pi * k / L
        v += rng.randn() / (1 + k**2) * np.cos(xi * grid.x + rng.uniform(0, 2 * np.pi))
    u = Field(grid, 0.4 * v)
    worst = 0.0
    for b in (0.0, 2.0, 3.0):
        ut = rhs_eulerian(u, BParams(b=b, s=S))
        resid = (
            ut.values
            - derivative(ut, 2).values
            + (b + 1) * u.values * derivative(u, 1).values
            - b * derivative(u, 1).values * derivative(u, 2).values
            - u.values * derivative(u, 3).values
        )
        worst = max(worst, float(np.sqrt(grid.spacing * np.sum(resid**2))))
    ok = worst <= 1e-8
    report(3, "local-vs-nonlocal-form", ok, f"max L2 residual {worst:.2e}")
    assert ok


def test_criterion_04_exponential_map_first_order():
    grid = make_grid(L, 1024)
    v = gaussian(grid, 1.0, 2.0)
    params = BParams(b=2.0, s=S)
    cfg = SolverConfig(dt=5e-3, T=1.0, snapshot_stride=10**9)
    zero_disp = exp_map(Field.zeros(grid), params, cfg).displacement.values
    exact_identity = float(np.max(np.abs(zero_disp))) == 0.0
    eps_values = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    errs = [
        hs_norm(
            Field(grid, exp_map(eps * v, params, cfg).displacement.values) - eps * v, S
        )
        for eps in eps_values
    ]
    slope = float(np.polyfit(np.log(eps_values), np.log(errs), 1)[0])
    ok = exact_identity and abs(slope - 2.0) <= 0.1
    report(
        4,
        "exponential-map-first-order",
        ok,
        f"exp(0)=id exact: {exact_identity}, log-log slope {slope:.3f}",
    )
    assert ok


def test_criterion_05_scaling_law():
    grid = make_grid(L, 2048)
    u0 = standard_gaussian(grid)
    resid = scaling_check(
        u0, 2.0, 0.5, BParams(b=2.0, s=S), SolverConfig(dt=1e-3, T=0.5)
    )
    ok = resid <= 1e-6
    report(5, "time-amplitude-scaling", ok, f"lambda=2 residual {resid:.2e}")
    assert ok


def test_criterion_06_camassa_holm_discriminator():
    grid = make_grid(L, 2048)
    u0 = standard_gaussian(grid)
    cfg = SolverConfig(dt=1e-3, T=1.0, snapshot_stride=10**9)

    def drift(b):
        traj = solve_eulerian(u0, BParams(b=b, s=S), cfg)
        e0 = hs_norm(traj.states[0], 1.0) ** 2
        e1 = hs_norm(traj.final_state, 1.0) ** 2
        return abs(e1 - e0) / e0

    d2, d3 = drift(2.0), drift(3.0)
    ok = d2 <= 1e-6 and d3 >= 1e-3
    report(
        6,
        "camassa-holm-discriminator",
        ok,
        f"b=2 drift {d2:.2e} (<=1e-6), b=3 drift {d3:.2e} (>=1e-3)",
    )
    assert ok


def _experiment_config(grid, dt):
    return NonUniformityConfig(
        u0=gaussian(grid, 0.25, 3.0),
        v=gaussian(grid, 4.5, 5.0),
        params=BParams(b=2.0, s=S),
        R=0.4,
        n_values=(1, 2, 4, 8, 16),
        solver=SolverConfig(dt=dt, T=1.0, snapshot_stride=10**9),
        eps_dexp=0.05,
    )


def test_criterion_07_nonuniformity_witness():
    grid = make_grid(L, 2048)
    cfg = _experiment_config(grid, dt=4e-3)
    rep = nonuniformity_experiment(cfg)
    v_norm = hs_norm(cfg.v, S)
    resolved = rep.resolved_rows()

    gap_ok = all(
        row.witness_gap >= rep.m_est * v_norm / (2 * row.n) for row in resolved
    )
    input_ok = all(
        abs(row.input_dist - v_norm / row.n) <= 1e-12 * v_norm for row in rep.rows
    )
    disjoint_ok = all(row.disjoint_ok for row in resolved)
    persistence_ok = rep.separation_persistence_ok(0.1)
    enough = len(resolved) >= 2
    ok = gap_ok and input_ok and disjoint_ok and persistence_ok and enough
    outs = {r.n: r.output_dist for r in resolved}
    report(
        7,
        "nonuniformity-witness",
        ok,
        f"m={rep.m_est:.3f}, resolved n={sorted(outs)}, "
        f"gap-bound {gap_ok}, disjoint {disjoint_ok}, "
        f"outputs {', '.join(f'{n}: {d:.2f}' for n, d in sorted(outs.items()))}",
    )
    assert ok


def test_criterion_07b_separation_scale_stability():
    # the transported bump-momentum separation should track the bump norm
    # scale R with some fixed positive constant; no principled value for
    # that constant exists, so only positivity and order-of-magnitude
    # stability across R are checked
    grid = make_grid(L, 512)
    cfg = _experiment_config(grid, dt=5e-3)
    x0_est, m_est, L_est = estimate_probe_geometry(cfg)
    v_norm = hs_norm(cfg.v, S)
    radius = m_est * v_norm / 8.0 / L_est

    def w_part_separation(ball_radius):
        w = build_bump(x0_est, radius, S, ball_radius / 4.0, grid)
        x1 = cfg.u0 + w
        xt1 = x1 + cfg.v
        phi = exp_map(x1, cfg.params, cfg.solver)
        phit = exp_map(xt1, cfg.params, cfg.solver)
        yw = momentum(w)
        p = pushforward_reconstruct(yw, phi, cfg.params.b)
        pt = pushforward_reconstruct(yw, phit, cfg.params.b)
        return hs_norm(p - pt, S - 2)

    ratios = {R: w_part_separation(R) / R for R in (0.4, 0.2)}
    values = list(ratios.values())
    ok = all(v > 0 for v in values) and 0.1 <= values[0] / values[1] <= 10.0
    report(
        7,
        "separation/R stability (companion)",
        ok,
        ", ".join(f"R={R}: sep/R={v:.3f}" for R, v in ratios.items()),
    )
    assert ok


def test_criterion_08_disjoint_support_inequality():
    mins = {}
    for n in (1024, 2048):
        grid = make_grid(L, n)
        for s in (-0.4, 0.5, 1.7):
            ratios = [
                disjoint_support_ratio(
                    bump_profile(grid, r, -2.0), bump_profile(grid, r, 2.0), s
                )
                for r in np.arange(0.1, 0.95, 0.1)
            ]
            mins[(n, s)] = min(ratios)
    grid = make_grid(L, 1024)
    at_zero = disjoint_support_ratio(
        bump_profile(grid, 0.5, -2.0), bump_profile(grid, 0.5, 2.0), 0.0
    )
    stable = all(
        abs(mins[(2048, s)] - mins[(1024, s)]) <= 0.2 * mins[(1024, s)]
        for s in (-0.4, 0.5, 1.7)
    )
    positive = all(v > 0 for v in mins.values())
    ok = stable and positive and abs(at_zero - 1.0) <= 1e-12
    detail = ", ".join(
        f"s={s:g}: {mins[(1024, s)]:.3f}/{mins[(2048, s)]:.3f}" for s in (-0.4, 0.5, 1.7)
    )
    report(8, "disjoint-support-inequality", ok, detail + f"; s=0 ratio {at_zero:.15f}")
    assert ok


def test_criterion_09_homogeneous_norm_scaling():
    grid = make_grid(L, 1024)
    lam = 2.0
    errors = {}
    for s in (0.5, 1.7):
        f = Field.from_function(grid, mollifier_derivative(3.0))
        f_lam = Field.from_function(grid, lambda x: mollifier_derivative(3.0)(x / lam))
        ratio = homogeneous_hs_norm(f_lam, s) ** 2 / homogeneous_hs_norm(f, s) ** 2
        errors[s] = abs(ratio / lam ** (1 - 2 * s) - 1.0)
    ok = all(e <= 0.01 for e in errors.values())
    report(
        9,
        "homogeneous-norm-scaling",
        ok,
        ", ".join(f"s={s}: rel err {e:.2e}" for s, e in errors.items()),
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    digests = {}
    for formulation in ("eulerian", "lagrangian"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_SOLVE)
        pair = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{formulation}_{attempt}"
            code = cli_main(
                ["solve", "--config", str(cfg), "--out", str(out),
                 "--formulation", formulation]
            )
            assert code == 0
            pair.append(tree_digest(out))
        assert pair[0] == pair[1], f"{formulation} reruns differ"
        digests[formulation] = pair[0]
        check_golden(formulation, pair[0])
    ok = True
    report(
        10,
        "determinism-and-golden",
        ok,
        ", ".join(f"{k}: {v[:12]}" for k, v in digests.items()),
    )
    assert ok
