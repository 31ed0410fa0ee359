"""Command-line front door: batch solvers, diagnostics, and experiments.

Exit-code protocol: 0 success, 1 configuration error, 2 blow-up or other
numerical termination, 3 acceptance-tolerance failure.  All artifacts are
deterministic: identical configs produce identical bytes on the same
platform, and every manifest embeds the config hash.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

from .config import RunConfig, load_config, sweep_cell
from .diagnostics import conservation_residual
from .dynamics import COMPLETED, solve_eulerian, solve_geodesic
from .errors import (
    BFamilyError,
    ConfigError,
    DegenerateProbeError,
    ExpDomainError,
)
from .experiments import nonuniformity_experiment, scaling_check
from .io import (
    write_conservation_csv,
    write_diffeo_csv,
    write_experiment_csv,
    write_field_csv,
    write_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_ACCEPTANCE = 3

CONSERVE_TOL = 1e-4  # default momentum-transport tolerance, also in sweep cells


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _base_manifest(cfg: RunConfig, **extra) -> dict:
    payload = {
        "command": cfg.command,
        "config": cfg.canonical_text(),
        "config_hash": cfg.config_hash(),
    }
    payload.update(extra)
    return payload


def _effective(params, solver) -> dict:
    """Structured record of what actually ran (dt may be auto-derived)."""
    return {"params": asdict(params), "solver": asdict(solver)}


def _write_eulerian_snapshots(out: Path, traj) -> list:
    entries = []
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        name = f"u_{i:06d}.csv"
        write_field_csv(out / name, state)
        entries.append({"t": float(t), "files": [name]})
    return entries


def _write_lagrangian_snapshots(out: Path, traj) -> list:
    entries = []
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        phi_name = f"phi_{i:06d}.csv"
        vel_name = f"vel_{i:06d}.csv"
        write_diffeo_csv(out / phi_name, state.phi)
        write_field_csv(out / vel_name, state.phit)
        entries.append({"t": float(t), "files": [phi_name, vel_name]})
    return entries


def _setup(cfg: RunConfig, out: Path):
    """Build the datum, params and solver; create --out only once all are valid."""
    grid = cfg.build_grid()
    u0 = cfg.build_field(grid)
    params = cfg.build_params()
    solver = cfg.build_solver(u0)
    out.mkdir(parents=True, exist_ok=True)
    return u0, params, solver


def run_solve(cfg: RunConfig, out: Path, formulation: str) -> int:
    if formulation not in ("eulerian", "lagrangian"):
        raise ConfigError(f"unknown formulation '{formulation}'")
    u0, params, solver = _setup(cfg, out)
    if formulation == "eulerian":
        traj = solve_eulerian(u0, params, solver)
        snapshots = _write_eulerian_snapshots(out, traj)
    else:
        traj = solve_geodesic(u0, params, solver)
        snapshots = _write_lagrangian_snapshots(out, traj)
    manifest = _base_manifest(
        cfg,
        formulation=formulation,
        termination=traj.termination,
        times=[float(t) for t in traj.times],
        snapshots=snapshots,
        **_effective(params, solver),
    )
    write_json(out / "manifest.json", manifest)
    return EXIT_OK if traj.termination == COMPLETED else EXIT_BLOWUP


def run_conserve(cfg: RunConfig, out: Path, tol: float) -> int:
    u0, params, solver = _setup(cfg, out)
    traj = solve_geodesic(u0, params, solver)
    report = conservation_residual(traj, params, relative=True)
    write_conservation_csv(out / "report.csv", report)
    ok = traj.termination == COMPLETED and report.max_residual <= tol
    manifest = _base_manifest(
        cfg,
        termination=traj.termination,
        tol=tol,
        max_residual=report.max_residual,
        passed=ok,
        **_effective(params, solver),
    )
    write_json(out / "manifest.json", manifest)
    if traj.termination != COMPLETED:
        return EXIT_BLOWUP
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def run_nonuniform(cfg: RunConfig, out: Path, jobs: int = 1) -> int:
    experiment = cfg.build_experiment(cfg.build_grid())
    out.mkdir(parents=True, exist_ok=True)
    report = nonuniformity_experiment(experiment, jobs=jobs)
    write_experiment_csv(out / "report.csv", report)
    persistent = report.separation_persistence_ok()
    manifest = _base_manifest(
        cfg,
        m_est=report.m_est,
        x0_est=report.x0_est,
        L_est=report.L_est,
        resolved_n=[r.n for r in report.resolved_rows()],
        separation_persistent=persistent,
        **_effective(experiment.params, experiment.solver),
    )
    write_json(out / "manifest.json", manifest)
    return EXIT_OK if persistent else EXIT_ACCEPTANCE


def run_exp(cfg: RunConfig, out: Path) -> int:
    v, params, solver = _setup(cfg, out)
    traj = solve_geodesic(v, params, replace(solver, T=1.0))
    if traj.termination != COMPLETED:
        manifest = _base_manifest(
            cfg, termination=traj.termination, **_effective(params, solver)
        )
        write_json(out / "manifest.json", manifest)
        return EXIT_BLOWUP
    phi = traj.final_state.phi
    write_diffeo_csv(out / "phi.csv", phi)
    manifest = _base_manifest(
        cfg,
        termination=traj.termination,
        snapshot="phi.csv",
        **_effective(params, solver),
    )
    write_json(out / "manifest.json", manifest)
    return EXIT_OK


def run_scalecheck(cfg: RunConfig, out: Path, tol: float | None) -> int:
    u0, params, solver = _setup(cfg, out)
    lam = cfg["experiment.lambda"]
    residual = scaling_check(u0, lam, cfg["solver.T"], params, solver)
    manifest = _base_manifest(
        cfg,
        residual=residual,
        scale=lam,
        horizon=cfg["solver.T"],
        **_effective(params, solver),
    )
    write_json(out / "manifest.json", manifest)
    if tol is not None and residual > tol:
        return EXIT_ACCEPTANCE
    return EXIT_OK


# command -> runner(cfg, out, options); options carries the parsed flags
# (formulation, tol, jobs) of the command line or of a sweep cell
_RUNNERS = {
    "solve": lambda cfg, out, opt: run_solve(cfg, out, opt.formulation),
    "conserve": lambda cfg, out, opt: run_conserve(cfg, out, opt.tol),
    "nonuniform": lambda cfg, out, opt: run_nonuniform(cfg, out, opt.jobs),
    "exp": lambda cfg, out, opt: run_exp(cfg, out),
    "scalecheck": lambda cfg, out, opt: run_scalecheck(cfg, out, opt.tol),
}


def _exit_code(run, *args) -> int:
    """Run a command, mapping package errors onto the exit-code protocol."""
    try:
        return run(*args)
    except (ConfigError, DegenerateProbeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ExpDomainError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except BFamilyError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_BLOWUP


def _run_cell(payload) -> int:
    cfg, out_dir, formulation, tol = payload
    if cfg.command == "conserve" and tol is None:
        tol = CONSERVE_TOL
    options = argparse.Namespace(formulation=formulation, tol=tol, jobs=1)
    return _exit_code(_RUNNERS[cfg.command], cfg, Path(out_dir), options)


def run_sweep(cfg: RunConfig, out: Path, jobs: int, formulation: str, tol) -> int:
    wrapped = cfg["sweep.command"]
    if wrapped not in _RUNNERS:
        raise ConfigError(f"sweep.command must be one of {sorted(_RUNNERS)}")
    b_values = cfg["sweep.b"] or (cfg["params.b"],)
    n_values = cfg["sweep.N"] or (cfg["grid.N"],)
    out.mkdir(parents=True, exist_ok=True)
    cells = [
        (f"b{b:g}_N{n}", b, n, sweep_cell(cfg, b, n))
        for b in b_values
        for n in n_values
    ]

    index = []
    pending = []
    for name, b, n, cell_cfg in cells:
        cell_dir = out / name
        if (cell_dir / "manifest.json").exists():
            index.append(
                {"cell": name, "b": float(b), "N": int(n), "skipped": True, "exit_code": 0}
            )
            continue
        pending.append((name, b, n, (cell_cfg, str(cell_dir), formulation, tol)))

    results = {}
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_cell, [p[3] for p in pending]))
        for (name, _, _, _), code in zip(pending, codes):
            results[name] = code
    else:
        for name, _, _, payload in pending:
            results[name] = _run_cell(payload)

    for name, b, n, _ in pending:
        index.append(
            {
                "cell": name,
                "b": float(b),
                "N": int(n),
                "skipped": False,
                "exit_code": results[name],
            }
        )
    index.sort(key=lambda row: row["cell"])
    write_json(
        out / "index.json",
        {"command": wrapped, "config_hash": cfg.config_hash(), "cells": index},
    )
    return max((row["exit_code"] for row in index), default=EXIT_OK)


def build_parser() -> _Parser:
    parser = _Parser(prog="bfamily", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a key = value config")
        p.add_argument("--out", required=True, help="output directory")

    p_solve = sub.add_parser("solve", help="run one trajectory")
    common(p_solve)
    p_solve.add_argument(
        "--formulation", choices=("eulerian", "lagrangian"), default="eulerian"
    )

    p_cons = sub.add_parser("conserve", help="momentum-transport residual check")
    common(p_cons)
    p_cons.add_argument("--tol", type=float, default=CONSERVE_TOL)

    p_non = sub.add_parser("nonuniform", help="shrinking-bump separation experiment")
    common(p_non)
    p_non.add_argument("--jobs", type=int, default=1)

    p_exp = sub.add_parser("exp", help="evaluate the exponential map at T = 1")
    common(p_exp)

    p_scale = sub.add_parser("scalecheck", help="time-amplitude scaling residual")
    common(p_scale)
    p_scale.add_argument("--tol", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument(
        "--formulation", choices=("eulerian", "lagrangian"), default="eulerian"
    )
    p_sweep.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    return _exit_code(_main, argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, args.command)
    out = Path(args.out)
    if args.command == "sweep":
        return run_sweep(cfg, out, args.jobs, args.formulation, args.tol)
    return _RUNNERS[args.command](cfg, out, args)


if __name__ == "__main__":
    sys.exit(main())
