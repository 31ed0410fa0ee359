"""Command-line front door: batch solvers, diagnostics, and experiments.

`_COMMANDS` is the one place where the commands and their flags are
declared; `_FLAGS` declares each flag once.  DESCRIPTION, which --help
shows, states the exit-code protocol.  Every command but sweep writes one
manifest.json, its exit code included, and `_run` is its only writer, on
the command line and in sweep cells alike; a run that exits with `config
error:` or `run failed:` (say an unconverged Christoffel solve) writes none,
so a sweep runs such a cell again on every resume.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, sweep_cell
from .diagnostics import conservation_residual
from .dynamics import COMPLETED, flow_solver, solve_eulerian, solve_geodesic
from .errors import BFamilyError, ConfigError, ExpDomainError
from .experiments import nonuniformity_experiment
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

CONSERVE_TOL = 1e-4  # acceptance criterion 01's pinned bound on conserve's max_residual

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


# each formulation of solve: its solver, and the (file prefix, writer, part)
# of each CSV one snapshot state is written to; the solver is looked up in
# this module when it runs, so a wrapper bound over it here is the one called
_FORMULATIONS = {
    "eulerian": (lambda *run: solve_eulerian(*run), lambda u: [("u", write_field_csv, u)]),
    "lagrangian": (lambda *run: solve_geodesic(*run), lambda state: [
        ("phi", write_diffeo_csv, state.phi), ("vel", write_field_csv, state.phit)]),
}


def _write_snapshots(out: Path, traj, files) -> list:
    """Write each snapshot's CSVs, files(state), into out; returns the manifest entries."""
    entries = []
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        names = []
        for prefix, write, part in files(state):
            names.append(f"{prefix}_{i:06d}.csv")
            write(out / names[-1], part)
        entries.append({"t": float(t), "files": names})
    return entries


@contextmanager
def _inputs(out: Path):
    """Build and check a command's inputs (RunConfig names each refusal's key), an input
    too large to allocate being a ConfigError; then create --out, cleared of older artifacts."""
    try:
        yield
    except MemoryError as err:
        raise ConfigError(str(err)) from err
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path in out.iterdir():  # --out holds this run's artifacts only
            if re.fullmatch(r"manifest\.json|report\.csv|(u|phi|vel)_\d{6}\.csv", path.name):
                path.unlink()
    except OSError as err:
        raise ConfigError(f"cannot create --out: {err}") from err


def _setup(cfg: RunConfig, out: Path, eulerian: bool):
    """Build the datum, params and solver (eulerian: for an Eulerian march), then create --out."""
    with _inputs(out):
        grid = cfg.build_grid()
        u0 = cfg.build_field(grid)
        params = cfg.build_params()
        solver = cfg.build_solver(u0, eulerian)
    return u0, params, solver


def _say(line: str):
    """One stderr line in one write: each exit's one line, and the one place
    any further line (say a progress line) is to be written."""
    sys.stderr.write(line + "\n")


def _termination_code(traj) -> int:
    """EXIT_OK for a completed march; a blow-up exits 2 with one stderr line."""
    if traj.termination == COMPLETED:
        return EXIT_OK
    _say(f"blow-up: {traj.ending}")
    return EXIT_BLOWUP


def run_solve(cfg: RunConfig, out: Path, options):
    formulation = options.formulation  # the parser's choices: _FORMULATIONS
    u0, params, solver = _setup(cfg, out, eulerian=formulation == "eulerian")
    solve, files = _FORMULATIONS[formulation]
    traj = solve(u0, params, solver)
    fields = {
        "formulation": formulation,
        "termination": traj.termination,
        "times": [float(t) for t in traj.times],
        "snapshots": _write_snapshots(out, traj, files),
    }
    return _termination_code(traj), params, solver, fields


def run_conserve(cfg: RunConfig, out: Path, options):
    u0, params, solver = _setup(cfg, out, eulerian=False)
    traj = solve_geodesic(u0, params, solver)
    report = conservation_residual(traj)
    write_conservation_csv(out / "report.csv", report)
    ok = traj.termination == COMPLETED and report.max_residual <= CONSERVE_TOL
    fields = {
        "termination": traj.termination,
        "tol": CONSERVE_TOL,
        "max_residual": report.max_residual,
        "passed": ok,
    }
    code = _termination_code(traj) or (EXIT_OK if ok else EXIT_ACCEPTANCE)
    return code, params, solver, fields


def run_nonuniform(cfg: RunConfig, out: Path, options):
    with _inputs(out):
        experiment = cfg.build_experiment(cfg.build_grid())
    flow_dt = flow_solver(experiment.solver).dt  # solver.dt is the Eulerian legs' step
    try:
        report = nonuniformity_experiment(experiment)
    except ExpDomainError as err:
        _say(f"blow-up: {err}")
        fields = {"blowup": str(err), "flow_dt": flow_dt}
        return EXIT_BLOWUP, experiment.params, experiment.solver, fields
    write_experiment_csv(out / "report.csv", report)
    persistent = report.separation_persistence_ok()
    fields = {
        "flow_dt": flow_dt,
        "m_est": report.m_est,
        "x0_est": report.x0_est,
        "L_est": report.L_est,
        "resolved_n": [r.n for r in report.resolved_rows()],
        "separation_persistent": persistent,
    }
    code = EXIT_OK if persistent else EXIT_ACCEPTANCE
    return code, experiment.params, experiment.solver, fields


def _run(cfg: RunConfig, out: Path, options) -> int:
    """Run cfg's command and write its manifest.json: the runner's fields
    plus command, config, config_hash and the params and solver the command
    ran with (dt may be auto-derived, and nonuniform marches to T = 1), and
    the exit code."""
    code, params, solver, fields = _COMMANDS[cfg.command][0](cfg, out, options)
    manifest = {
        "command": cfg.command,
        "config": cfg.canonical_text(),
        "config_hash": cfg.config_hash(),
        "exit_code": code,
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
    except ConfigError as err:
        _say(f"config error: {err}")
        return EXIT_CONFIG
    except BFamilyError as err:
        _say(f"run failed: {err}")
        return EXIT_BLOWUP


def run_sweep(cfg: RunConfig, out: Path, options) -> int:
    wrapped = cfg["sweep.command"]
    with _inputs(out):
        runnable = sorted(name for name in _COMMANDS if name != "sweep")
        if wrapped not in runnable:
            raise ConfigError(f"sweep.command must be one of {runnable}")
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

    # a cell is skipped, and reports the exit code its manifest records, only
    # when that manifest records this cell's config hash and this run's value
    # of every flag it records; any other cell is cleared and runs again
    done = {}
    for name, _, _, cell in cells:
        with suppress(FileNotFoundError, ValueError, KeyError):
            manifest = json.loads((out / name / "manifest.json").read_text())
            if manifest["config_hash"] == cell.config_hash() and all(
                manifest[flag] == getattr(options, flag) for flag in _FLAGS if flag in manifest
            ):
                done[name] = manifest["exit_code"]
    codes = dict(done)
    for name, _, _, cell in cells:
        if name not in done:
            shutil.rmtree(out / name, ignore_errors=True)
            codes[name] = _exit_code(_run, cell, out / name, options)
    index = [
        {"cell": name, "b": float(b), "N": int(n), "skipped": name in done,
         "exit_code": codes[name]}
        for name, b, n, _ in sorted(cells, key=lambda cell: cell[0])
    ]
    write_json(
        out / "index.json",
        {"command": wrapped, "config_hash": cfg.config_hash(), "cells": index},
    )
    return max((row["exit_code"] for row in index), default=EXIT_OK)


# each flag once: its name -> its add_argument keywords
_FLAGS = {
    "formulation": {"choices": tuple(_FORMULATIONS), "default": "eulerian"},
}

# Each command: its runner, its --help line and its flags, in --help order.
# A runner takes (cfg, out, options), options being the command line's parsed
# flags, which a sweep passes on to each cell; each but run_sweep, which
# writes no manifest, returns (exit code, params, solver, manifest fields) to _run.
_COMMANDS = {
    "solve": (run_solve, "run one trajectory", ("formulation",)),
    "conserve": (run_conserve, "momentum-transport residual check", ()),
    "nonuniform": (run_nonuniform, "shrinking-bump separation experiment", ()),
    "sweep": (run_sweep, "cartesian parameter sweep", ("formulation",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="bfamily", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help="path to a key = value config")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    # a march reports lost finiteness in its one line; numpy's warnings add nothing
    with np.errstate(all="ignore"):
        return _exit_code(_main, argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, args.command)
    if args.command == "sweep":
        return run_sweep(cfg, Path(args.out), args)
    return _run(cfg, Path(args.out), args)


if __name__ == "__main__":
    sys.exit(main())
