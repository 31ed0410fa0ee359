"""Command-line front door: batch solvers, diagnostics, and experiments.

DESCRIPTION, which --help shows, states the exit-code protocol.  Every
command but sweep writes one manifest.json, and `_run` is its only writer,
on the command line and in sweep cells alike.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
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
from .experiments import nonuniformity_experiment, parallel_map
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

CONSERVE_TOL = 1e-4  # default momentum-transport tolerance of conserve and sweep

DESCRIPTION = """\
Solve the Holm-Staley b-family on a periodic cell, in Eulerian form or as a
geodesic flow of diffeomorphisms, and check the identities along the flow.
Each command reads a key = value config and writes deterministic artifacts
into --out; exp_v(1) is the last phi_*.csv of solve --formulation lagrangian
at solver.T = 1.  Exit codes: 0 success, 1 configuration error, 2 blow-up or
other numerical termination, 3 acceptance-tolerance failure."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


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


def _make_out(out: Path):
    """Create --out; each command calls this only once its inputs are valid."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create --out: {err}") from err


def _setup(cfg: RunConfig, out: Path):
    """Build the datum, params and solver, then create --out."""
    grid = cfg.build_grid()
    u0 = cfg.build_field(grid)
    params = cfg.build_params()
    solver = cfg.build_solver(u0)
    _make_out(out)
    return u0, params, solver


def _termination_code(traj) -> int:
    """EXIT_OK for a completed march; a blow-up exits 2 with one stderr line."""
    if traj.termination == COMPLETED:
        return EXIT_OK
    print(f"blow-up: {traj.ending}", file=sys.stderr)
    return EXIT_BLOWUP


# Each runner takes (cfg, out, options), where options carries the parsed
# flags (formulation, tol, jobs) of the command line or of a sweep cell, and
# returns (exit code, params, solver, the command's manifest fields).


def run_solve(cfg: RunConfig, out: Path, options):
    formulation = options.formulation  # the parser's choices: eulerian, lagrangian
    u0, params, solver = _setup(cfg, out)
    if formulation == "eulerian":
        traj = solve_eulerian(u0, params, solver)
        snapshots = _write_eulerian_snapshots(out, traj)
    else:
        traj = solve_geodesic(u0, params, solver)
        snapshots = _write_lagrangian_snapshots(out, traj)
    fields = {
        "formulation": formulation,
        "termination": traj.termination,
        "times": [float(t) for t in traj.times],
        "snapshots": snapshots,
    }
    return _termination_code(traj), params, solver, fields


def run_conserve(cfg: RunConfig, out: Path, options):
    u0, params, solver = _setup(cfg, out)
    traj = solve_geodesic(u0, params, solver)
    report = conservation_residual(traj)
    write_conservation_csv(out / "report.csv", report)
    ok = traj.termination == COMPLETED and report.max_residual <= options.tol
    fields = {
        "termination": traj.termination,
        "tol": options.tol,
        "max_residual": report.max_residual,
        "passed": ok,
    }
    if code := _termination_code(traj):
        return code, params, solver, fields
    return (EXIT_OK if ok else EXIT_ACCEPTANCE), params, solver, fields


def run_nonuniform(cfg: RunConfig, out: Path, options):
    experiment = cfg.build_experiment(cfg.build_grid())
    _make_out(out)
    report = nonuniformity_experiment(experiment, jobs=options.jobs)
    write_experiment_csv(out / "report.csv", report)
    persistent = report.separation_persistence_ok()
    fields = {
        "m_est": report.m_est,
        "x0_est": report.x0_est,
        "L_est": report.L_est,
        "resolved_n": [r.n for r in report.resolved_rows()],
        "separation_persistent": persistent,
    }
    code = EXIT_OK if persistent else EXIT_ACCEPTANCE
    return code, experiment.params, experiment.solver, fields


_RUNNERS = {
    "solve": run_solve,
    "conserve": run_conserve,
    "nonuniform": run_nonuniform,
}


def _run(cfg: RunConfig, out: Path, options) -> int:
    """Run cfg's command and write its manifest.json: the runner's fields
    plus command, config, config_hash and the params and solver the command
    ran with (dt may be auto-derived, and nonuniform marches to T = 1)."""
    code, params, solver, fields = _RUNNERS[cfg.command](cfg, out, options)
    manifest = {
        "command": cfg.command,
        "config": cfg.canonical_text(),
        "config_hash": cfg.config_hash(),
        "params": asdict(params),
        "solver": asdict(solver),
        **fields,
    }
    write_json(out / "manifest.json", manifest)
    return code


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
    options = argparse.Namespace(formulation=formulation, tol=tol, jobs=1)
    return _exit_code(_run, cfg, Path(out_dir), options)


def run_sweep(cfg: RunConfig, out: Path, jobs: int, formulation: str, tol) -> int:
    wrapped = cfg["sweep.command"]
    if wrapped not in _RUNNERS:
        raise ConfigError(f"sweep.command must be one of {sorted(_RUNNERS)}")
    b_values = cfg["sweep.b"] or (cfg["params.b"],)
    n_values = cfg["sweep.N"] or (cfg["grid.N"],)
    cells = [
        (f"b{b:g}_N{n}", b, n, sweep_cell(cfg, b, n))
        for b in b_values
        for n in n_values
    ]
    names = [cell[0] for cell in cells]
    if clash := [name for i, name in enumerate(names) if name in names[:i]]:
        raise ConfigError(f"two sweep.b values share the cell name '{clash[0]}'")
    _make_out(out)

    # a cell whose manifest exists finished in an earlier run and is skipped
    pending = [c for c in cells if not (out / c[0] / "manifest.json").exists()]
    payloads = [(c[3], str(out / c[0]), formulation, tol) for c in pending]
    codes = dict(zip([c[0] for c in pending], parallel_map(_run_cell, payloads, jobs)))
    index = [
        {"cell": name, "b": float(b), "N": int(n), "skipped": name not in codes,
         "exit_code": codes.get(name, EXIT_OK)}
        for name, b, n, _ in sorted(cells, key=lambda cell: cell[0])
    ]
    write_json(
        out / "index.json",
        {"command": wrapped, "config_hash": cfg.config_hash(), "cells": index},
    )
    return max((row["exit_code"] for row in index), default=EXIT_OK)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got '{text}'")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got '{text}'")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="bfamily", description=DESCRIPTION)
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
    p_cons.add_argument("--tol", type=_tolerance, default=CONSERVE_TOL)

    p_non = sub.add_parser("nonuniform", help="shrinking-bump separation experiment")
    common(p_non)
    p_non.add_argument("--jobs", type=_jobs, default=1)

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=_jobs, default=1)
    p_sweep.add_argument(
        "--formulation", choices=("eulerian", "lagrangian"), default="eulerian"
    )
    p_sweep.add_argument("--tol", type=_tolerance, default=CONSERVE_TOL)
    return parser


def main(argv=None) -> int:
    return _exit_code(_main, argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, args.command)
    out = Path(args.out)
    if args.command == "sweep":
        return run_sweep(cfg, out, args.jobs, args.formulation, args.tol)
    return _run(cfg, out, args)


if __name__ == "__main__":
    sys.exit(main())
