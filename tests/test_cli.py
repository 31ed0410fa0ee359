"""End-to-end tests of the command-line interface and its artifacts.

One harness: every test runs the CLI in-process, as `bfamily.cli.main(argv)`,
and reads its stderr with capsys. An uncaught exception fails a test as a
traceback would, and pytest's `filterwarnings = ["error"]` fails it on any
warning, so a fresh interpreter would add nothing but its start-up (about
0.2 s a case). Three tests start one, and test_public_api keeps it at those:
the `python -m bfamily.cli` smoke test of one exit 1 and one exit 2, --help,
and the import check that needs a clean sys.modules.

EXITS is the exit-line table, case id -> (argv, files, exit code, stderr,
--out afterwards):
- argv: the command line after `bfamily`, split at spaces; the harness adds
  `--config {tmp}/run.cfg`, and `--out {tmp}/out` unless the row names --out;
- files: the config text (str or bytes) written to run.cfg, or a dict of file
  name -> text (no run.cfg in it: no config file);
- stderr: every line, joined by newlines, as a template that must fullmatch:
  literal but for {tmp}, {num} (a computed number) and {text} (OS or numpy
  wording); "" is an empty stderr;
- --out afterwards: NO_OUT, NO_MANIFEST or MANIFEST.
{tmp} is the test's tmp directory in argv and files too. A run's manifest
must record its exit code and the ending its blow-up line quotes; a row that
checks more keeps one assertion in EXTRA.
"""

import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import FAST_SOLVE, check_golden, read_diffeo_csv, tree_digest

from bfamily.cli import _COMMANDS, _FLAGS, main
from bfamily.config import parse_config, sweep_cells
from bfamily.dynamics import exp_map, march_dt, solve_geodesic
from bfamily.errors import ConfigError, SolverError
from bfamily.io import read_experiment_rows, read_field_csv
from bfamily.spectral import derivative, make_grid


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _edit(text, *pairs):
    """text with each (key, value) set: in place where text has the key, else appended."""
    for key, value in pairs:
        line = f"{key} = {value}"
        text, found = re.subn(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        if not found:
            text = text.rstrip("\n") + f"\n{line}\n"
    return text


def _datum(text, prefix, family, **keys):
    """text with its prefix.* datum replaced by one of family with those keys."""
    kept = "".join(line + "\n" for line in text.splitlines() if not line.startswith(prefix + "."))
    pairs = [(f"{prefix}.{key}", value) for key, value in keys.items()]
    return _edit(kept, (f"{prefix}.family", family), *pairs)


NONUNIFORM_CFG = """
grid.L = 20
grid.N = 512
params.b = 2
params.s = 2
solver.dt = 0.005
solver.T = 1
solver.stride = 1000000
initial.family = gaussian
initial.amp = 0.25
initial.width = 3
probe.family = gaussian
probe.amp = 4.5
probe.width = 5
experiment.R = 0.4
experiment.n_values = 1,16
experiment.eps_dexp = 0.05
"""

SWEEP_CFG = """
sweep.command = solve
sweep.b = 0,2,3
grid.L = 20
grid.N = 64
params.s = 2
solver.dt = 0.01
solver.T = 0.1
solver.stride = 5
initial.family = gaussian
initial.amp = 0.3
initial.width = 2
initial.center = 0
"""

NONUNIFORM_64 = _edit(NONUNIFORM_CFG, ("grid.N", 64))
DERIVED_SOLVE = FAST_SOLVE.replace("solver.dt = 0.01\n", "")
DERIVED_NONUNIFORM = NONUNIFORM_CFG.replace("solver.dt = 0.005\n", "")
# x0_est lies near 15, so the n = 1 witness bump leaves |x| <= 0.75 L = 15
OFF_CENTRE_CFG = _edit(NONUNIFORM_CFG, ("experiment.n_values", 1), ("initial.center", 15),
                       ("probe.center", 15))
# the plain datum x_1 stays under the norm cap; x_1 + v leaves it at once
WITNESS_BLOWUP = ("n = 1, perturbed sequence: initial datum outside the time-one existence "
                  "set (blowup_norm at t = 0.005)")
# solve's datum read from field.csv, and the rows write_field_csv gives a zero
# field on its grid (line 1 is the header)
FILE_DATUM = _datum(FAST_SOLVE, "initial", "file", path="{tmp}/field.csv")
ZERO_ROWS = ["x,value", *(f"{x:.17g},0" for x in make_grid(20, 64).x)]


def _field(rows):
    """The files of a solve of FILE_DATUM whose field.csv holds rows."""
    return {"run.cfg": FILE_DATUM, "field.csv": "".join(row + "\n" for row in rows)}


def _row_set(line, row):
    """ZERO_ROWS with its line number `line` replaced by row."""
    return [*ZERO_ROWS[:line - 1], row, *ZERO_ROWS[line:]]


def _blocked(argv, text, out):
    """A run whose --out, out under {tmp}, is blocked by the file {tmp}/blocker."""
    files = {"run.cfg": text, "blocker": "not a directory\n"}
    line = "config error: cannot create --out: {text}: '{tmp}/" + out + "'"
    return (f"{argv} --out {{tmp}}/{out}", files, 1, line, NO_OUT)


NO_OUT = "no directory at --out"
NO_MANIFEST = "a directory without manifest.json or report.csv anywhere under it"
MANIFEST = "a directory with a manifest.json at or under it"

# a datum that is not finite (width 0), or finite with a slope that overflows
# the transform (amp 1e308) or a square, the first right-hand side's flux, that
# overflows (amp 1e200), with the step derived from it or set by solver.dt:
# the config error names the datum's keys, before --out exists. At amp 1e150
# the square is finite, and the first step overflows: a numerical end, exit 2
SLOPE = "the datum's peak or slope, or its square, is not finite"
NOT_FINITE = "field values must be finite"
OVERFLOWING_DATA = {  # case -> (command, config, key, value, reason)
    "solve": ("solve", DERIVED_SOLVE, "initial.amp", "1e308", SLOPE),
    "conserve": ("conserve", DERIVED_SOLVE, "initial.amp", "1e308", SLOPE),
    "nonuniform-initial": ("nonuniform", DERIVED_NONUNIFORM, "initial.amp", "1e308", SLOPE),
    "nonuniform-probe": ("nonuniform", DERIVED_NONUNIFORM, "probe.amp", "1e308", SLOPE),
    "solve-dt-set": ("solve", FAST_SOLVE, "initial.amp", "1e308", SLOPE),
    "conserve-dt-set": ("conserve", FAST_SOLVE, "initial.amp", "1e308", SLOPE),
    "nonuniform-initial-dt-set": ("nonuniform", NONUNIFORM_CFG, "initial.amp", "1e308", SLOPE),
    "nonuniform-probe-dt-set": ("nonuniform", NONUNIFORM_CFG, "probe.amp", "1e308", SLOPE),
    "solve-square": ("solve", FAST_SOLVE, "initial.amp", "1e200", SLOPE),
    "conserve-square": ("conserve", FAST_SOLVE, "initial.amp", "1e200", SLOPE),
    "conserve-square-derived": ("conserve", DERIVED_SOLVE, "initial.amp", "1e200", SLOPE),
    "nonuniform-initial-square": ("nonuniform", NONUNIFORM_CFG, "initial.amp", "1e200", SLOPE),
    "nonuniform-probe-square": ("nonuniform", NONUNIFORM_CFG, "probe.amp", "1e200", SLOPE),
    "solve-zero-width": ("solve", FAST_SOLVE, "initial.width", "0", NOT_FINITE),
    "nonuniform-probe-zero-width": ("nonuniform", NONUNIFORM_CFG, "probe.width", "0", NOT_FINITE),
}
UNDER_RESOLVED = "bump radius 0.5 under-resolved: need > 2.5 at N = 64"
OUTSIDE = "bump support leaves the safe region"
WEIGHTS = "gives H^s weights (1 + xi^2)^s that overflow at n_points"
CHOICES = "(choose from 'solve', 'conserve', 'nonuniform', 'sweep')"
RUNNABLE = "sweep.command must be one of ['conserve', 'nonuniform', 'solve']"
UNCONVERGED = ("Christoffel solve did not converge within 64 iterations "
               "(min phi_x = {num}, relative residual = nan) at t = 0.01")
HUGE = _edit(DERIVED_SOLVE, ("solver.T", 0.01))
OVERFLOWING = _edit(FAST_SOLVE, ("initial.amp", "1e150"))

# Every refused value is one line that opens with the key it names: a datum's
# prefix.* (or its one key), params.s, solver.*, experiment.*, grid.N, or
# grid.L for a grid whose spacing, top wavenumber or H^s weights
# (1 + xi^2)^s are not finite (every H^s norm on it would read nan, so the
# blow-up guard could never fire). A genuine numerical end exits 2.
EXITS = {
    # the config file, its lines and its keys
    "unknown-key": ("solve", FAST_SOLVE + "nonsense.key = 1\n", 1,
                    "config error: line 13: unknown key 'nonsense.key'", NO_OUT),
    "malformed-line": ("solve", "grid.L 20\n", 1,
                       "config error: line 1: expected 'key = value', got 'grid.L 20'", NO_OUT),
    "duplicate-key": ("solve", "grid.L = 20\ngrid.L = 10\n", 1,
                      "config error: line 2: duplicate key 'grid.L'", NO_OUT),
    "missing-config": ("solve", {}, 1, "config error: cannot read config: {text}: '{tmp}/run.cfg'",
                       NO_OUT),
    "non-utf8-config": ("solve", b"grid.N = 64\n\xff\xfe\n", 1,
                        "config error: cannot read config: 'utf-8' codec can't decode byte 0xff "
                        "in position 12: invalid start byte", NO_OUT),
    "inline-comment": ("solve", _edit(FAST_SOLVE, ("params.b", "2  # family")), 0, "", MANIFEST),
    "amp-nan": ("solve", _edit(FAST_SOLVE, ("initial.amp", "nan")), 1,
                "config error: line 10: cannot parse 'initial.amp = nan' as finite float", NO_OUT),
    "amp-inf": ("solve", _edit(FAST_SOLVE, ("initial.amp", "inf")), 1,
                "config error: line 10: cannot parse 'initial.amp = inf' as finite float", NO_OUT),
    "empty-n-values": ("nonuniform", _edit(NONUNIFORM_CFG, ("experiment.n_values", ",")), 1,
                       "config error: line 16: cannot parse 'experiment.n_values = ,' as int_list",
                       NO_OUT),
    "repeated-n-values": ("nonuniform", _edit(NONUNIFORM_CFG, ("experiment.n_values", "1,1")), 1,
                          "config error: line 16: repeated entry in 'experiment.n_values = 1,1'",
                          NO_OUT),
    "repeated-sweep-N": ("sweep", SWEEP_CFG + "sweep.N = 64,32,64\n", 1,
                         "config error: line 14: repeated entry in 'sweep.N = 64,32,64'", NO_OUT),
    "probe-file-without-path": ("nonuniform", "grid.N = 512\nprobe.family = file\n", 1,
                                "config error: file family requires 'probe.path'", NO_OUT),
    "sweep-without-command": ("sweep", SWEEP_CFG.replace("sweep.command = solve\n", ""), 1,
                              "config error: sweep requires 'sweep.command'", NO_OUT),
    # the command line: removed commands and flags, the sweep's command
    "scalecheck-removed": ("scalecheck", FAST_SOLVE, 1,
                           f"config error: argument command: invalid choice: 'scalecheck' {CHOICES}",
                           NO_OUT),
    "exp-removed": ("exp", FAST_SOLVE, 1,
                    f"config error: argument command: invalid choice: 'exp' {CHOICES}", NO_OUT),
    "sweep-jobs-removed": ("sweep --jobs 2", SWEEP_CFG, 1,
                           "config error: unrecognized arguments: --jobs 2", NO_OUT),
    "nonuniform-jobs-removed": ("nonuniform --jobs 2", NONUNIFORM_CFG, 1,
                                "config error: unrecognized arguments: --jobs 2", NO_OUT),
    # conserve and its sweep cells check the pinned CONSERVE_TOL; no flag moves it
    "conserve-tol": ("conserve --tol 1e-4", FAST_SOLVE, 1,
                     "config error: unrecognized arguments: --tol 1e-4", NO_OUT),
    "sweep-tol": ("sweep --tol 1e-4", FAST_SOLVE + "sweep.command = conserve\n", 1,
                  "config error: unrecognized arguments: --tol 1e-4", NO_OUT),
    "sweep-wraps-sweep": ("sweep", _edit(SWEEP_CFG, ("sweep.command", "sweep")), 1,
                          f"config error: {RUNNABLE}", NO_OUT),
    "sweep-unknown-command": ("sweep", _edit(SWEEP_CFG, ("sweep.command", "bogus")), 1,
                              f"config error: {RUNNABLE}", NO_OUT),
    "sweep-wraps-exp": ("sweep", _edit(SWEEP_CFG, ("sweep.command", "exp")), 1,
                        f"config error: {RUNNABLE}", NO_OUT),
    # b{b:g}_N{n} names both cells b1_N64
    "colliding-sweep-cells": ("sweep", _edit(SWEEP_CFG, ("sweep.b", "1.0000001,1.0000002")), 1,
                              "config error: two sweep.b values share the cell name 'b1_N64'",
                              NO_OUT),
    # the grid
    "grid-N-100": ("solve", _edit(FAST_SOLVE, ("grid.N", 100)), 1,
                   "config error: grid.N: n_points must be a power of two >= 16, got 100", NO_OUT),
    "grid-not-power-of-two": ("solve", _edit(FAST_SOLVE, ("grid.N", 1000)), 1,
                              "config error: grid.N: n_points must be a power of two >= 16, got 1000",
                              NO_OUT),
    # numpy refuses to size the wavenumbers, or to allocate them: 2**58 bytes
    # is more than any address space holds, so the allocation fails at once
    "grid-N-too-big": ("solve", _edit(FAST_SOLVE, ("grid.N", 2**62)), 1,
                       "config error: grid.N: {text}", NO_OUT),
    "grid-unallocatable": ("solve", _edit(FAST_SOLVE, ("grid.N", 2**56)), 1,
                           "config error: grid.N: {text}", NO_OUT),
    "nonuniform-grid-unallocatable": ("nonuniform", _edit(NONUNIFORM_CFG, ("grid.N", 2**56)), 1,
                                      "config error: grid.N: {text}", NO_OUT),
    # 2 L overflows, pi (N/2) / L overflows, or the spacing 2 L / N underflows to 0
    **{
        f"grid-L-{L}-{command}": (
            command, _edit(text, ("grid.L", L)), 1,
            "config error: grid.L: half_length {num} gives spacing {num} and top wavenumber "
            f"{{num}} at n_points {n}; both must be positive and finite", NO_OUT)
        for command, text, n in (("solve", FAST_SOLVE, 64), ("conserve", FAST_SOLVE, 64),
                                 ("nonuniform", NONUNIFORM_CFG, 512))
        for L in ("1e308", "1e-308", "5e-324")
    },
    "grid-L-weights-solve": (
        "solve", _edit(FAST_SOLVE, ("grid.L", 1e-100), ("solver.norm_cap", 1e-300)), 1,
        f"config error: grid.L: half_length 1e-100 {WEIGHTS} 64, s = 2", NO_OUT),
    "grid-L-weights-nonuniform": (
        "nonuniform", _edit(NONUNIFORM_CFG, ("grid.L", 1e-100)), 1,
        f"config error: grid.L: half_length 1e-100 {WEIGHTS} 512, s = 2", NO_OUT),
    # this mode datum's momentum u - u_xx overflows at once
    "grid-L-weights-mode": (
        "solve", _datum(_edit(FAST_SOLVE, ("grid.L", 3.14e-160)), "initial", "mode", k=1, amp=1e-10),
        1, f"config error: grid.L: half_length 3.14e-160 {WEIGHTS} 64, s = 2", NO_OUT),
    # at grid.L = 1e-60 the H^2 weights are finite, so the norm guard fires
    "grid-L-weights-fit": (
        "solve", _edit(FAST_SOLVE, ("grid.L", 1e-60), ("solver.norm_cap", 1e-300)), 2,
        "blow-up: blowup_norm at t = 0.01", MANIFEST),
    # params, solver and experiment
    "params-s": ("solve", _edit(FAST_SOLVE, ("params.s", 1.2)), 1,
                 "config error: params.s: Sobolev index must satisfy s > 3/2, got 1.2", NO_OUT),
    "solver-stride": ("solve", _edit(FAST_SOLVE, ("solver.stride", 0)), 1,
                      "config error: solver.*: snapshot_stride must be >= 1", NO_OUT),
    "solver-norm-cap": ("conserve", _edit(FAST_SOLVE, ("solver.norm_cap", -1)), 1,
                        "config error: solver.*: blow-up guards must be positive", NO_OUT),
    "solver-min-phix": ("solve", _edit(FAST_SOLVE, ("solver.min_phix", 0)), 1,
                        "config error: solver.*: blow-up guards must be positive", NO_OUT),
    # T / dt overflows to inf: no step count, so no march
    "step-count-overflows": (
        "solve", _edit(FAST_SOLVE, ("solver.dt", "1e-310"), ("solver.T", 1)), 1,
        "config error: solver.*: need 0 < dt <= T, T / dt finite: dt = 1e-310, T = 1", NO_OUT),
    "step-count-overflows-at-huge-T": (
        "solve", _edit(FAST_SOLVE, ("solver.dt", "1e-300"), ("solver.T", "1e300")), 1,
        "config error: solver.*: need 0 < dt <= T, T / dt finite: dt = 1e-300, T = 1e+300", NO_OUT),
    "nonuniform-step-count-overflows": (
        "nonuniform", _edit(NONUNIFORM_CFG, ("solver.dt", "1e-310")), 1,
        "config error: solver.*: need 0 < dt <= T, T / dt finite: dt = 1e-310, T = 1", NO_OUT),
    "experiment-R": ("nonuniform", _edit(NONUNIFORM_CFG, ("experiment.R", -1)), 1,
                     "config error: experiment.*: R must be positive", NO_OUT),
    "experiment-n-values": ("nonuniform", _edit(NONUNIFORM_CFG, ("experiment.n_values", "0,1")), 1,
                            "config error: experiment.*: n_values must be >= 1", NO_OUT),
    # the data: bumps, zero probes, overflowing data and datum files
    "bump-under-resolved": ("solve", _datum(FAST_SOLVE, "initial", "bump", center=0, radius=0.5),
                            1, f"config error: initial.*: {UNDER_RESOLVED}", NO_OUT),
    "bump-under-resolved-initial-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_64, "initial", "bump", center=0, radius=0.5), 1,
        f"config error: initial.*: {UNDER_RESOLVED}", NO_OUT),
    "bump-under-resolved-probe-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_64, "probe", "bump", center=0, radius=0.5), 1,
        f"config error: probe.*: {UNDER_RESOLVED}", NO_OUT),
    "bump-at-boundary": (
        "solve", _datum(_edit(FAST_SOLVE, ("grid.N", 1024)), "initial", "bump", center=14.8,
                        radius=1),
        1, f"config error: initial.*: {OUTSIDE}", NO_OUT),
    "bump-outside-initial-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_CFG, "initial", "bump", center=14.8, radius=1), 1,
        f"config error: initial.*: {OUTSIDE}", NO_OUT),
    "bump-outside-probe-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_CFG, "probe", "bump", center=14.8, radius=1), 1,
        f"config error: probe.*: {OUTSIDE}", NO_OUT),
    "probe-amp-zero": ("nonuniform", _edit(NONUNIFORM_CFG, ("probe.amp", 0)), 1,
                       "config error: probe.*: probe direction must be nonzero", NO_OUT),
    "probe-zero": ("nonuniform", _edit(NONUNIFORM_64, ("probe.amp", 0)), 1,
                   "config error: probe.*: probe direction must be nonzero", NO_OUT),
    **{
        f"datum-{case}": (command, _edit(text, (key, value)), 1,
                          f"config error: {key.split('.')[0]}.*: {reason}", NO_OUT)
        for case, (command, text, key, value, reason) in OVERFLOWING_DATA.items()
    },
    "missing-field-file": ("solve", _datum(FAST_SOLVE, "initial", "file", path="{tmp}/nope.csv"),
                           1, "config error: initial.path: {text}: '{tmp}/nope.csv'", NO_OUT),
    "csv-header-only": ("solve", _field(ZERO_ROWS[:1]), 1,
                        "config error: {tmp}/field.csv: no data rows", NO_OUT),
    "csv-one-value": ("solve", _field(_row_set(2, "1.0")), 1,
                      "config error: {tmp}/field.csv: line 2: malformed field row '1.0'", NO_OUT),
    "csv-not-a-float": ("solve", _field(_row_set(5, "-20,abc")), 1,
                        "config error: {tmp}/field.csv: line 5: malformed field row '-20,abc'",
                        NO_OUT),
    "csv-three-values": ("solve", _field(_row_set(9, "-20,1,2")), 1,
                         "config error: {tmp}/field.csv: line 9: malformed field row '-20,1,2'",
                         NO_OUT),
    "csv-x-off-the-grid": ("solve", _field(_row_set(7, "0.5,0")), 1,
                           "config error: {tmp}/field.csv: line 7: x column is not a uniform "
                           "[-L, L) grid", NO_OUT),
    "csv-63-rows": ("solve", _field(ZERO_ROWS[:-1]), 1,
                    "config error: {tmp}/field.csv: n_points must be a power of two >= 16, got 63",
                    NO_OUT),
    "csv-positive-first-x": ("solve", _field(_row_set(2, "1.0,0")), 1,
                             "config error: {tmp}/field.csv: line 2: half_length must be positive "
                             "and finite, got -1.0", NO_OUT),
    "csv-nan-value": ("solve", _field(_row_set(6, ZERO_ROWS[5].split(",")[0] + ",nan")), 1,
                      "config error: {tmp}/field.csv: line 6: field values must be finite", NO_OUT),
    # found once --out exists: the witness's bumps, a sweep's cells, --out itself
    "witness-bump-outside": (
        "nonuniform", OFF_CENTRE_CFG, 1,
        "config error: n = 1: witness bump support x0_est +/- radius = {num} +/- {num} leaves "
        "the safe region |x| <= 15", NO_MANIFEST),
    "sweep-witness-bump-outside": (
        "sweep", OFF_CENTRE_CFG + "sweep.command = nonuniform\n", 1,
        "config error: n = 1: witness bump support x0_est +/- radius = {num} +/- {num} leaves "
        "the safe region |x| <= 15", NO_MANIFEST),
    # a directory as the datum: reading it fails, hashing it must not
    "sweep-unreadable-datum": (
        "sweep", _datum(FAST_SOLVE, "initial", "file", path="{tmp}") + "sweep.command = solve\n",
        1, "config error: initial.path: {text}: '{tmp}'", NO_MANIFEST),
    # one cell runs, the other cannot allocate its grid, and the sweep goes on
    "sweep-unallocatable-cell": (
        "sweep", _edit(SWEEP_CFG, ("sweep.b", 2), ("sweep.N", f"64,{2**56}")), 1,
        "config error: grid.N: {text}", MANIFEST),
    "out-blocked-solve": _blocked("solve", FAST_SOLVE, "blocker"),
    "out-blocked-solve-under": _blocked("solve", FAST_SOLVE, "blocker/sub"),
    "out-blocked-nonuniform": _blocked("nonuniform", NONUNIFORM_CFG, "blocker"),
    "out-blocked-nonuniform-under": _blocked("nonuniform", NONUNIFORM_CFG, "blocker/sub"),
    "out-blocked-sweep": _blocked("sweep", SWEEP_CFG, "blocker"),
    "out-blocked-sweep-under": _blocked("sweep", SWEEP_CFG, "blocker/sub"),
    # numerical ends: blow-up guards and lost finiteness
    "blowup-guard": ("solve", FAST_SOLVE + "solver.norm_cap = 1e-4\n", 2,
                     "blow-up: blowup_norm at t = 0.01", MANIFEST),
    "witness-row-blowup": ("nonuniform", NONUNIFORM_CFG + "solver.norm_cap = 2\n", 2,
                           f"blow-up: {WITNESS_BLOWUP}", MANIFEST),
    # the derived step 0.5 h / max|u0| gives about 3e17 (amp 1e19) or 3e23
    # (amp 1e25) steps to T = 0.01, more than a list of steps could hold: the
    # march must start anyway and end at a blow-up guard
    "huge-solve-1e19": ("solve", _edit(HUGE, ("initial.amp", "1e19")), 2,
                        "blow-up: blowup_norm at t = {num}", MANIFEST),
    "huge-solve-1e25": ("solve", _edit(HUGE, ("initial.amp", "1e25")), 2,
                        "blow-up: blowup_norm at t = {num}", MANIFEST),
    "huge-solve-lagrangian-1e19": ("solve --formulation lagrangian",
                                   _edit(HUGE, ("initial.amp", "1e19")), 2,
                                   "blow-up: blowup_phix at t = {num}", MANIFEST),
    "huge-conserve-1e19": ("conserve", _edit(HUGE, ("initial.amp", "1e19")), 2,
                           "blow-up: blowup_phix at t = {num}", MANIFEST),
    # amplitude 1e150 squares to a finite 1e300, so the config stands, but the
    # first step overflows: the march reports the lost finiteness as its one
    # line, with no numpy RuntimeWarning before it; a sweep, one line per cell
    "overflow-solve": ("solve", OVERFLOWING, 2,
                       "run failed: solution lost finiteness at t = 0.01", NO_MANIFEST),
    "overflow-solve-lagrangian": ("solve --formulation lagrangian", OVERFLOWING, 2,
                                  f"run failed: {UNCONVERGED}", NO_MANIFEST),
    "overflow-conserve": ("conserve", OVERFLOWING, 2, f"run failed: {UNCONVERGED}", NO_MANIFEST),
    "overflow-sweep": ("sweep", _edit(OVERFLOWING, ("sweep.b", "0,2"), ("sweep.command", "solve")),
                       2, "\n".join(["run failed: solution lost finiteness at t = 0.01"] * 2),
                       NO_MANIFEST),
}


def _index(out):
    """(cell, N, exit code) of each cell in a sweep's index.json."""
    cells = json.loads((out / "index.json").read_text())["cells"]
    return [(cell["cell"], cell["N"], cell["exit_code"]) for cell in cells]


def _blocker_kept(tmp_path, out):
    return (tmp_path / "blocker").read_bytes() == b"not a directory\n"


# case -> check(tmp_path, out) of what the row's columns do not say
EXTRA = {
    "sweep-witness-bump-outside": lambda tmp_path, out: _index(out) == [("b2_N512", 512, 1)],
    "sweep-unreadable-datum": lambda tmp_path, out: _index(out) == [("b2_N64", 64, 1)],
    "sweep-unallocatable-cell": lambda tmp_path, out: _index(out) == [
        ("b2_N64", 64, 0), (f"b2_N{2**56}", 2**56, 1)],
    "overflow-sweep": lambda tmp_path, out: _index(out) == [("b0_N64", 64, 2), ("b2_N64", 64, 2)],
    "witness-row-blowup": lambda tmp_path, out: not (out / "report.csv").exists(),
    **{case: _blocker_kept for case in EXITS if case.startswith("out-blocked-")},
}

# what {num} and {text} stand for in a stderr template
WILDCARDS = {"{num}": r"-?(?:inf|nan|\d[\d.]*(?:e[-+]\d+)?)", "{text}": r".+"}


def stderr_pattern(template: str, tmp_path) -> str:
    """The regex of a row's stderr: the template's text literal, its lines
    each ended by a newline, {tmp} the tmp directory's path."""
    parts = re.split(r"(\{tmp\}|\{num\}|\{text\})", template + "\n" if template else "")
    wildcards = {**WILDCARDS, "{tmp}": re.escape(str(tmp_path))}
    return "".join(wildcards.get(part, re.escape(part)) for part in parts)


def out_state(out: Path) -> str:
    if not out.is_dir():
        return NO_OUT
    found = {path.name for path in out.rglob("*")} & {"manifest.json", "report.csv"}
    if "manifest.json" in found:
        return MANIFEST
    return NO_MANIFEST if not found else "a report.csv without a manifest.json"


def prepare(tmp_path, argv: str, files) -> tuple:
    """Write a row's files into tmp_path; returns the argv after `bfamily` and the --out path."""
    tmp = str(tmp_path)
    for name, text in (files if isinstance(files, dict) else {"run.cfg": files}).items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text.replace("{tmp}", tmp))
    command, *flags = argv.replace("{tmp}", tmp).split()
    if "--out" not in flags:
        flags += ["--out", f"{tmp}/out"]
    return [command, "--config", f"{tmp}/run.cfg", *flags], Path(flags[flags.index("--out") + 1])


def check_exit(tmp_path, case, code, err, out):
    """A finished run of EXITS[case] against its row."""
    _, _, want_code, template, state = EXITS[case]
    assert (code, out_state(out)) == (want_code, state), err
    assert re.fullmatch(stderr_pattern(template, tmp_path), err), err
    if (out / "manifest.json").is_file():  # it records the exit, and the ending the line quotes
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == code
        if code == 2:
            ending = manifest.get("blowup") or f"{manifest['termination']} at t = "
            assert err.startswith(f"blow-up: {ending}"), err
    assert EXTRA.get(case, lambda *_: True)(tmp_path, out)


@pytest.mark.parametrize("case", sorted(EXITS))
def test_exit_line(tmp_path, capsys, case):
    argv, out = prepare(tmp_path, *EXITS[case][:2])
    code = main(argv)
    check_exit(tmp_path, case, code, capsys.readouterr().err, out)


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this bfamily."""
    import bfamily

    return {**os.environ, "PYTHONPATH": str(Path(bfamily.__file__).parents[1])}


@pytest.mark.parametrize("case", ["amp-nan", "overflow-solve"])
def test_main_module_keeps_the_exit_line_protocol(tmp_path, case):
    # the __main__ path, run once for an exit 1 and once for an exit 2: the same
    # line and the same --out, with no traceback and no numpy warning before it
    import subprocess

    argv, out = prepare(tmp_path, *EXITS[case][:2])
    proc = subprocess.run([sys.executable, "-m", "bfamily.cli", *argv], capture_output=True,
                          text=True, env=fresh_env(), timeout=120)
    check_exit(tmp_path, case, proc.returncode, proc.stderr, out)


def test_help_states_the_exit_codes_without_developer_notes():
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "bfamily.cli", "--help"],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    text = " ".join(proc.stdout.split())  # undo argparse's line wrapping
    for code in ("0 success", "1 configuration error", "2 blow-up", "3 acceptance"):
        assert code in text
    assert "_run" not in proc.stdout


def test_config_does_not_import_io():
    # the field CSV reader is imported only when a config names a file family
    import subprocess

    code = "import sys, bfamily.config; sys.exit('bfamily.io' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=fresh_env(), timeout=120).returncode == 0


class TestFieldFileInput:
    def test_file_family_round_trip(self, tmp_path):
        from bfamily.io import write_field_csv
        from bfamily.spectral import Field

        grid = make_grid(20, 64)
        u0 = Field(grid, 0.3 * np.exp(-((grid.x / 2) ** 2)))
        write_field_csv(tmp_path / "u0.csv", u0)
        text = FAST_SOLVE.replace("initial.family = gaussian", "initial.family = file")
        text = "\n".join(
            line
            for line in text.splitlines()
            if not line.startswith("initial.") or line.startswith("initial.family")
        )
        cfg = write_config(tmp_path, text + f"\ninitial.path = {tmp_path}/u0.csv\n")
        out = tmp_path / "out"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        first = read_field_csv(out / manifest["snapshots"][0]["files"][0])
        assert np.array_equal(first.values, u0.values)


class TestSolve:
    def test_zero_datum_zero_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = 0"))
        out = tmp_path / "out"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "completed"
        for entry in manifest["snapshots"]:
            field = read_field_csv(out / entry["files"][0])
            assert np.max(np.abs(field.values)) == 0.0

    def test_lagrangian_zero_datum_identity(self, tmp_path):
        # a zero datum stays zero, and its flow is the identity at every snapshot
        cfg = write_config(tmp_path, FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = 0"))
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--out", str(out), "--formulation", "lagrangian"]
        assert run_cli("solve", *argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "completed"
        for entry in manifest["snapshots"]:
            phi = read_diffeo_csv(out / entry["files"][0])
            assert np.max(np.abs(phi.displacement.values)) == 0.0
            field = read_field_csv(out / entry["files"][-1])
            assert np.max(np.abs(field.values)) == 0.0

    def test_unconverged_lagrangian_solve_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bfamily.dynamics.CHRISTOFFEL_RTOL", 0.0)
        cfg = write_config(tmp_path, FAST_SOLVE)
        code = run_cli(
            "solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--formulation", "lagrangian",
        )
        assert code == 2
        line = ("run failed: Christoffel solve did not converge within 64 iterations "
                "(min phi_x = {num}, relative residual = {num}) at t = 0.01")
        err = capsys.readouterr().err
        assert re.fullmatch(stderr_pattern(line, tmp_path), err), err

    def test_guard_blowup_line_quotes_the_ending(self, tmp_path, capsys):
        text = FAST_SOLVE + "solver.min_phix = 0.999\n"
        cfg = write_config(tmp_path, text)
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), "--formulation", "lagrangian"]
        assert run_cli("solve", *argv) == 2
        run = parse_config(text, "solve")
        u0 = run.build_field(run.build_grid())
        traj = solve_geodesic(u0, run.build_params(), run.build_solver(u0, eulerian=False))
        assert traj.ending == "blowup_phix at t = 0.01"
        assert capsys.readouterr().err == f"blow-up: {traj.ending}\n"

    def test_last_lagrangian_snapshot_at_t_one_is_exp(self, tmp_path):
        # exp_v(1) is the last phi_*.csv of a Lagrangian solve to solver.T = 1,
        # at a given solver.dt and at the geodesic default (1/128 here)
        given = FAST_SOLVE.replace("solver.T = 0.1", "solver.T = 1")
        derived = given.replace("solver.dt = 0.01\n", "")
        for name, text in (("given", given), ("derived", derived)):
            out = tmp_path / name
            argv = ["--config", str(write_config(tmp_path, text)), "--out", str(out)]
            assert run_cli("solve", *argv, "--formulation", "lagrangian") == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["times"][-1] == 1.0
            assert manifest["solver"]["dt"] == (0.01 if name == "given" else 1 / 128)
            last = read_diffeo_csv(out / manifest["snapshots"][-1]["files"][0])
            run = parse_config(text, "solve")
            u0 = run.build_field(run.build_grid())
            phi = exp_map(u0, run.build_params(), run.build_solver(u0, eulerian=False))
            assert last.displacement.values.tobytes() == phi.displacement.values.tobytes()

    def test_lagrangian_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = run_cli(
            "solve", "--config", str(cfg), "--out", str(out), "--formulation", "lagrangian"
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["snapshots"][-1]
        phi = read_diffeo_csv(out / entry["files"][0])
        vel = read_field_csv(out / entry["files"][1])
        assert phi.grid.n_points == 64 and vel.grid.n_points == 64

    def test_csv_round_trip_exact(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        name = manifest["snapshots"][-1]["files"][0]
        field = read_field_csv(out / name)
        from bfamily.io import write_field_csv

        write_field_csv(tmp_path / "again.csv", field)
        assert (tmp_path / "again.csv").read_bytes() == (out / name).read_bytes()

    def test_csv_bytes_of_edge_values(self, tmp_path):
        # one %-format call for all rows writes the bytes of f"{v:.17g}" rows
        from bfamily.io import write_field_csv
        from bfamily.spectral import Field

        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16 + 2,
                 1.7976931348623157e308]
        values = np.array(edges + [-v for v in edges] + [0.0, 2.5])
        field = Field(make_grid(np.pi, 16), values)  # x needs all 17 digits
        write_field_csv(tmp_path / "edges.csv", field)
        rows = "".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(field.grid.x, values))
        assert (tmp_path / "edges.csv").read_bytes() == ("x,value\n" + rows).encode()
        back = read_field_csv(tmp_path / "edges.csv").values
        assert back.tobytes() == values.tobytes()

    def test_identical_configs_are_bit_exact(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out1)) == 0
        assert run_cli("solve", "--config", str(cfg), "--out", str(out2)) == 0
        assert tree_digest(out1) == tree_digest(out2)

    @pytest.mark.parametrize("formulation", ["eulerian", "lagrangian"])
    def test_golden_regression(self, tmp_path, formulation):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = run_cli(
            "solve", "--config", str(cfg), "--out", str(out), "--formulation", formulation
        )
        assert code == 0
        check_golden(formulation, tree_digest(out))


class TestConserve:
    def test_zero_datum_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = 0")
        )
        out = tmp_path / "out"
        assert run_cli("conserve", "--config", str(cfg), "--out", str(out)) == 0
        report = (out / "report.csv").read_text().strip().split("\n")
        assert report[0] == "t,res_hs2,res_sup,relative"
        assert all(line.split(",")[1] == "0" for line in report[1:])
        # q(0) = 0, so the residuals are absolute, not relative
        assert all(line.endswith(",0") for line in report[1:])

    def test_gaussian_passes_default_tolerance(self, tmp_path):
        text = FAST_SOLVE.replace("grid.N = 64", "grid.N = 256").replace(
            "solver.T = 0.1", "solver.T = 0.2"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli("conserve", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_residual"] <= 1e-4
        report = (out / "report.csv").read_text().strip().split("\n")
        assert all(line.endswith(",1") for line in report[1:])

    def test_report_rows_print_seventeen_significant_digits(self, tmp_path):
        from bfamily.diagnostics import ConservationReport
        from bfamily.io import write_conservation_csv

        report = ConservationReport(
            times=np.array([0.0, 0.1, 1 / 3]),
            residual_s_minus_2=np.array([-0.0, 7.9e-13, np.nan]),
            residual_sup=np.array([1e-300, np.inf, 2.0]),
            relative=True,
        )
        path = tmp_path / "report.csv"
        write_conservation_csv(path, report)
        assert path.read_text() == (
            "t,res_hs2,res_sup,relative\n"
            "0,-0,1e-300,1\n"
            "0.10000000000000001,7.8999999999999997e-13,inf,1\n"
            "0.33333333333333331,nan,2,1\n"
        )

    def test_residual_above_the_pinned_tolerance_exits_three(self, tmp_path):
        # at b = 0 this datum's residual is about 3.9e-4, above CONSERVE_TOL
        cfg = write_config(tmp_path, FAST_SOLVE.replace("params.b = 2", "params.b = 0"))
        out = tmp_path / "out"
        assert run_cli("conserve", "--config", str(cfg), "--out", str(out)) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tol"] == 1e-4 < manifest["max_residual"]
        assert manifest["passed"] is False and manifest["termination"] == "completed"

    def test_blowup_inside_a_stage_quotes_its_step_whatever_the_stride(self, tmp_path, capsys):
        # the flow map degenerates inside a stage of the step (1.14138, 1.14254],
        # past the last snapshot at either stride (1.04927 at the default 100)
        text = (
            FAST_SOLVE.replace("grid.N = 64", "grid.N = 256").replace("solver.dt = 0.01\n", "")
            .replace("solver.T = 0.1", "solver.T = 3")
            .replace("initial.amp = 0.3", "initial.amp = 4")
        )
        lines = []
        for stride in (100, 1):
            strided = text.replace("solver.stride = 5", f"solver.stride = {stride}")
            cfg = write_config(tmp_path, strided)
            assert run_cli("conserve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
            lines.append(capsys.readouterr().err)
        assert lines == ["blow-up: blowup_phix at t = 1.14254\n"] * 2


class TestNonuniform:
    def test_default_run(self, tmp_path):
        cfg = write_config(tmp_path, NONUNIFORM_CFG)
        out = tmp_path / "out"
        assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 0
        rows = read_experiment_rows(out / "report.csv")
        input_dists = [r.input_dist for r in rows]
        assert all(a > b for a, b in zip(input_dists, input_dists[1:]))
        assert rows[0].resolved_ok and not rows[1].resolved_ok
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["separation_persistent"] is True
        assert {"m_est", "x0_est", "L_est", "config_hash"} <= set(manifest)

    def test_report_round_trip_and_malformed_rows(self, tmp_path):
        from bfamily.experiments import ExperimentReport, ExperimentRow
        from bfamily.io import write_experiment_csv

        nan = float("nan")
        rows = [
            ExperimentRow(1, 0.5, 0.25, 0.1, 0.2, 0.3, True),
            ExperimentRow(16, 0.03125, 0.015625, nan, nan, nan, False),
        ]
        path, again = tmp_path / "report.csv", tmp_path / "again.csv"
        write_experiment_csv(path, ExperimentReport(rows, 1.0, 0.0, 1.0))
        header, first, second = path.read_text().splitlines()
        assert header == (
            "n,r_n,input_dist,output_dist,momentum_output_dist,"
            "witness_gap,resolved_ok"
        )
        assert first == (
            "1,0.5,0.25,0.10000000000000001,0.20000000000000001,"
            "0.29999999999999999,true"
        )
        assert second == "16,0.03125,0.015625,nan,nan,nan,false"
        write_experiment_csv(again, ExperimentReport(read_experiment_rows(path), 1, 0, 1))
        assert again.read_bytes() == path.read_bytes()
        for bad in (first.replace("true", "yes", 1), first.rsplit(",", 1)[0], "x" + first):
            path.write_text(f"{header}\n{bad}\n")
            with pytest.raises(ConfigError, match="malformed experiment row"):
                read_experiment_rows(path)


@pytest.mark.parametrize("formulation, solver", [
    ("eulerian", "solve_eulerian"), ("lagrangian", "solve_geodesic"),
])
def test_solve_calls_the_solver_bound_in_cli(tmp_path, monkeypatch, formulation, solver):
    # a tracer wraps each function where a module binds it: solve must call
    # bfamily.cli's binding when it runs, not an object it kept at import
    import bfamily.cli

    calls = []

    def counting(name):
        run = getattr(bfamily.cli, name)

        def wrapper(*args):
            calls.append(name)
            return run(*args)

        return wrapper

    for name in ("solve_eulerian", "solve_geodesic"):
        monkeypatch.setattr(bfamily.cli, name, counting(name))
    cfg = write_config(tmp_path, FAST_SOLVE)
    argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), "--formulation", formulation]
    assert run_cli("solve", *argv) == 0
    assert calls == [solver]


class TestSweep:
    def test_cells_run_the_b_by_n_product_in_order(self):
        cfg = parse_config(SWEEP_CFG + "sweep.N = 32,64\n", "sweep")
        cells = sweep_cells(cfg)
        assert [name for name, _ in cells] == [
            "b0_N32", "b0_N64", "b2_N32", "b2_N64", "b3_N32", "b3_N64"
        ]
        assert [(c.command, c["params.b"], c["grid.N"]) for _, c in cells] == [
            ("solve", b, n) for b in (0.0, 2.0, 3.0) for n in (32, 64)
        ]

    def test_cell_is_the_wrapped_commands_config(self):
        # every other value, defaults included, and no sweep.* key
        text = FAST_SOLVE.replace("params.b = 2", "sweep.b = 0.5").replace("grid.N = 64", "")
        cfg = parse_config(text + "sweep.command = conserve\nsweep.N = 128\n", "sweep")
        direct = _edit(FAST_SOLVE, ("params.b", 0.5), ("grid.N", 128))
        assert sweep_cells(cfg) == [("b0.5_N128", parse_config(direct, "conserve"))]

    def test_unset_lists_give_the_configs_own_cell(self):
        cfg = parse_config(FAST_SOLVE + "sweep.command = solve\n", "sweep")
        assert sweep_cells(cfg) == [("b2_N64", parse_config(FAST_SOLVE, "solve"))]

    def test_three_point_b_sweep(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["cells"]) == 3
        for cell in index["cells"]:
            assert (out / cell["cell"] / "manifest.json").exists()

    def test_one_by_one_sweep_matches_direct(self, tmp_path):
        sweep_cfg = write_config(
            tmp_path, SWEEP_CFG.replace("sweep.b = 0,2,3", "sweep.b = 2") , "sweep.cfg"
        )
        direct_cfg = write_config(tmp_path, FAST_SOLVE, "direct.cfg")
        out_sweep = tmp_path / "sweep_out"
        out_direct = tmp_path / "direct_out"
        assert run_cli("sweep", "--config", str(sweep_cfg), "--out", str(out_sweep)) == 0
        assert run_cli("solve", "--config", str(direct_cfg), "--out", str(out_direct)) == 0
        cell_dir = out_sweep / "b2_N64"
        assert tree_digest(cell_dir) == tree_digest(out_direct)

    def test_mode_family_cell_manifest_matches_direct(self, tmp_path):
        # the cell must carry the mode family's keys, defaults included
        mode = "\n".join(
            line
            for line in FAST_SOLVE.splitlines()
            if not line.startswith(("initial.width", "initial.center"))
        ).replace("initial.family = gaussian", "initial.family = mode")
        sweep_cfg = write_config(tmp_path, mode + "\nsweep.command = solve\n", "s.cfg")
        direct_cfg = write_config(tmp_path, mode, "direct.cfg")
        out_sweep, out_direct = tmp_path / "sweep_out", tmp_path / "direct_out"
        assert run_cli("sweep", "--config", str(sweep_cfg), "--out", str(out_sweep)) == 0
        assert run_cli("solve", "--config", str(direct_cfg), "--out", str(out_direct)) == 0
        direct = (out_direct / "manifest.json").read_bytes()
        assert b"initial.k = 1" in direct
        assert (out_sweep / "b2_N64" / "manifest.json").read_bytes() == direct

    def test_resume_skips_completed_cells(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        victim = out / "b0_N64" / "manifest.json"
        survivor_digest = tree_digest(out / "b2_N64")
        victim.unlink()
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        index = json.loads((out / "index.json").read_text())
        by_cell = {c["cell"]: c for c in index["cells"]}
        assert by_cell["b0_N64"]["skipped"] is False
        assert by_cell["b2_N64"]["skipped"] is True
        assert by_cell["b3_N64"]["skipped"] is True
        assert victim.exists()
        assert tree_digest(out / "b2_N64") == survivor_digest

    def test_resume_reports_the_recorded_exit_codes(self, tmp_path):
        text = FAST_SOLVE.replace("params.b = 2", "sweep.b = 0,2")
        cfg = write_config(tmp_path, text + "sweep.command = conserve\n")
        # the b = 0 cell's residual is above CONSERVE_TOL, the b = 2 cell's below
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 3
        assert run_cli(*argv) == 3  # every cell is skipped now
        index = json.loads((tmp_path / "o" / "index.json").read_text())
        assert [(c["skipped"], c["exit_code"]) for c in index["cells"]] == [(True, 3), (True, 0)]
        # a cut-short manifest, or one without an exit code, runs its cell again
        (tmp_path / "o" / "b0_N64" / "manifest.json").write_text('{"command": "con')
        older = tmp_path / "o" / "b2_N64" / "manifest.json"
        manifest = json.loads(older.read_text())
        del manifest["exit_code"]
        older.write_text(json.dumps(manifest))
        assert run_cli(*argv) == 3
        index = json.loads((tmp_path / "o" / "index.json").read_text())
        assert [(c["skipped"], c["exit_code"]) for c in index["cells"]] == [(False, 3), (False, 0)]
        assert json.loads(older.read_text())["exit_code"] == 0

    def test_resume_reruns_cells_of_another_config(self, tmp_path):
        text = FAST_SOLVE.replace("params.b = 2", "sweep.b = 0,2") + "sweep.command = conserve\n"
        out = tmp_path / "o"

        def skipped(text):
            argv = ["--config", str(write_config(tmp_path, text)), "--out", str(out)]
            assert run_cli("sweep", *argv) == 3  # the b = 0 cell misses CONSERVE_TOL
            return [c["skipped"] for c in json.loads((out / "index.json").read_text())["cells"]]

        assert skipped(text.replace("solver.T = 0.1", "solver.T = 0.05")) == [False, False]
        assert skipped(text) == [False, False]  # solver.T changed
        manifest = json.loads((out / "b0_N64" / "manifest.json").read_text())
        assert manifest["solver"]["T"] == 0.1
        assert skipped(text) == [True, True]

    def test_resume_clears_a_cell_run_with_another_formulation(self, tmp_path):
        sweep_cfg = write_config(tmp_path, FAST_SOLVE + "sweep.command = solve\n", "s.cfg")
        direct_cfg = write_config(tmp_path, FAST_SOLVE, "direct.cfg")
        out_sweep, out_direct = tmp_path / "sweep_out", tmp_path / "direct_out"
        flags = ("--formulation", "lagrangian")
        assert run_cli("sweep", "--config", str(sweep_cfg), "--out", str(out_sweep)) == 0
        assert run_cli("sweep", "--config", str(sweep_cfg), "--out", str(out_sweep), *flags) == 0
        assert run_cli("solve", "--config", str(direct_cfg), "--out", str(out_direct), *flags) == 0
        # the eulerian run's u_*.csv are gone, not just overwritten
        assert tree_digest(out_sweep / "b2_N64") == tree_digest(out_direct)

    def test_resume_reruns_a_cell_whose_file_datum_changed(self, tmp_path):
        from bfamily.io import write_field_csv
        from bfamily.spectral import Field

        grid, datum, out = make_grid(20, 64), tmp_path / "u0.csv", tmp_path / "o"
        kept = [line for line in FAST_SOLVE.splitlines() if not line.startswith("initial.")]
        text = "\n".join(kept + ["initial.family = file", f"initial.path = {datum}"])
        argv = ["--config", str(write_config(tmp_path, text + "\nsweep.command = solve\n"))]

        def skipped():
            assert run_cli("sweep", *argv, "--out", str(out)) == 0
            return [c["skipped"] for c in json.loads((out / "index.json").read_text())["cells"]]

        for amp, was_skipped in ((0.3, False), (0.6, False), (0.6, True)):
            u0 = Field(grid, amp * np.exp(-((grid.x / 2) ** 2)))
            write_field_csv(datum, u0)
            assert skipped() == [was_skipped]
            first = read_field_csv(out / "b2_N64" / "u_000000.csv")
            assert np.array_equal(first.values, u0.values)


    def test_cells_get_the_sweep_formulation(self, tmp_path):
        sweep_cfg = write_config(tmp_path, FAST_SOLVE + "sweep.command = solve\n", "s.cfg")
        direct_cfg = write_config(tmp_path, FAST_SOLVE, "direct.cfg")
        out_sweep, out_direct = tmp_path / "sweep_out", tmp_path / "direct_out"
        flags = ("--formulation", "lagrangian")
        assert run_cli("sweep", "--config", str(sweep_cfg), "--out", str(out_sweep), *flags) == 0
        assert run_cli("solve", "--config", str(direct_cfg), "--out", str(out_direct), *flags) == 0
        assert tree_digest(out_sweep / "b2_N64") == tree_digest(out_direct)
        assert any(out_direct.glob("phi_*.csv"))


MANIFEST_BASE = {"command", "config", "config_hash", "exit_code", "params", "solver"}
SOLVE_FIELDS = {"formulation", "termination", "times", "snapshots"}
CONSERVE_FIELDS = {"termination", "tol", "max_residual", "passed"}

# case -> (argv before --config, config text, exit code, command, its own fields)
MANIFEST_RUNS = {
    "solve-eulerian": (["solve"], FAST_SOLVE, 0, "solve", SOLVE_FIELDS),
    "solve-lagrangian": (
        ["solve", "--formulation", "lagrangian"], FAST_SOLVE, 0, "solve", SOLVE_FIELDS
    ),
    "conserve": (["conserve"], FAST_SOLVE, 0, "conserve", CONSERVE_FIELDS),
    "solve-lagrangian-blowup": (
        ["solve", "--formulation", "lagrangian"],
        FAST_SOLVE + "solver.min_phix = 0.999\n",
        2,
        "solve",
        SOLVE_FIELDS,
    ),
    # n = 16 is under-resolved at N = 512: a failed run still writes its manifest
    "nonuniform": (
        ["nonuniform"],
        NONUNIFORM_CFG.replace("experiment.n_values = 1,16", "experiment.n_values = 16")
        .replace("solver.T = 1", "solver.T = 0.5"),
        3,
        "nonuniform",
        {"flow_dt", "m_est", "x0_est", "L_est", "resolved_n", "separation_persistent"},
    ),
    # the probe geometry's march of the flow of u0 ends at the phi_x guard,
    # after its first step of flow_dt = 1/64
    "nonuniform-blowup": (
        ["nonuniform"], NONUNIFORM_CFG + "solver.min_phix = 0.999\n", 2, "nonuniform",
        {"blowup", "flow_dt"},
    ),
    "sweep-cell": (
        ["sweep"], FAST_SOLVE + "sweep.command = conserve\n", 0, "conserve",
        CONSERVE_FIELDS,
    ),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_RUNS))
def test_every_manifest_carries_the_base_keys(tmp_path, capsys, case):
    argv, text, code, command, fields = MANIFEST_RUNS[case]
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]) == code
    if argv[0] == "sweep":
        out = out / "b2_N64"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_BASE | fields
    assert manifest["command"] == command
    assert manifest["exit_code"] == code
    assert "sweep." not in manifest["config"]
    assert manifest["config_hash"] == hashlib.sha256(manifest["config"].encode()).hexdigest()
    assert manifest["params"] == {"b": 2.0, "s": 2.0}
    assert manifest["solver"]["dt"] == (0.005 if command == "nonuniform" else 0.01)
    if command == "nonuniform":  # it marches time-one maps, not to solver.T
        assert manifest["solver"]["T"] == 1.0
        assert manifest["flow_dt"] == 1 / 64  # the flows' step, not solver.dt
    if "termination" in fields:
        assert manifest["termination"] == ("completed" if code == 0 else "blowup_phix")
    if "blowup" in fields:
        ending = "initial velocity outside the exp domain (blowup_phix at t = 0.015625)"
        assert manifest["blowup"] == ending
    ending = manifest.get("blowup", "blowup_phix at t = 0.01")
    assert capsys.readouterr().err == (f"blow-up: {ending}\n" if code == 2 else "")


DERIVED_DT_RUNS = {
    "solve": ["solve"],
    "solve-lagrangian": ["solve", "--formulation", "lagrangian"],
    "conserve": ["conserve"],
}


@pytest.mark.parametrize("command", sorted(DERIVED_DT_RUNS))
def test_derived_dt_is_capped_at_the_marched_horizon(tmp_path, command):
    # no solver.dt, and solver.T below either rule's derived step
    text = FAST_SOLVE.replace("solver.dt = 0.01\n", "").replace("solver.T = 0.1", "solver.T = 1e-4")
    out = tmp_path / "out"
    argv = DERIVED_DT_RUNS[command]
    cfg = write_config(tmp_path, text)
    assert run_cli(argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["T"] == solver["dt"] == 1e-4


def test_derived_dt_follows_the_march(tmp_path):
    # one datum without solver.dt: each march derives march_dt of the datum it
    # starts from, for u0 1/256 if Eulerian and 1/128 if not; nonuniform's Eulerian
    # legs start from u0 + v at n = 1, whose slope bounds theirs, and its flows
    # keep flow_dt
    text = NONUNIFORM_CFG.replace("solver.dt = 0.005\n", "").replace(
        "experiment.n_values = 1,16", "experiment.n_values = 16"  # under-resolved: no rows
    )
    datum = "".join(
        line + "\n" for line in text.splitlines() if not line.startswith(("probe.", "experiment."))
    )
    run = parse_config(text, "nonuniform")
    grid = run.build_grid()
    legs_dt = march_dt(run.build_field(grid) + run.build_field(grid, "probe"), eulerian=True)
    assert legs_dt == pytest.approx(1.2146e-3, rel=1e-4)
    # a wave on which the advective term binds the Eulerian march alone:
    # 0.5 h / max|u0| = 2.44e-3 there, against 1e-3 / max|u0_x| = 3.18e-3, while
    # the flow's 2e-3 / max|u0_x| = 6.37e-3 is under its cap
    kept = [line for line in FAST_SOLVE.splitlines()
            if not line.startswith(("grid.N", "solver.dt", "solver.T", "initial."))]
    wave = "\n".join(kept + [
        "grid.N = 4096", "solver.T = 0.01", "initial.family = mode", "initial.k = 1",
        "initial.amp = 2",
    ])
    run = parse_config(wave, "solve")
    u0 = run.build_field(run.build_grid())
    runs = [
        (["conserve"], datum, 0, 1 / 128),
        (["solve", "--formulation", "lagrangian"], datum, 0, 1 / 128),
        (["solve"], datum, 0, 1 / 256),
        (["nonuniform"], text, 3, legs_dt),
        (["solve"], wave, 0, 0.5 * u0.grid.spacing / np.max(np.abs(u0.values))),
        (["solve", "--formulation", "lagrangian"], wave, 0,
         2e-3 / np.max(np.abs(derivative(u0, 1).values))),
    ]
    for i, (argv, config, code, dt) in enumerate(runs):
        out = tmp_path / f"out{i}"
        cfg = write_config(tmp_path, config)
        assert run_cli(argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver"]["dt"] == dt
        if argv[0] == "nonuniform":
            assert manifest["flow_dt"] == 1 / 64


def test_vanishing_differential_names_the_probe(tmp_path, capsys, monkeypatch):
    # found by the probe geometry's march, once --out exists: no manifest
    import bfamily.experiments

    real = bfamily.experiments.exp_and_differential

    def vanishing(*args):
        phi, d = real(*args)
        return phi, 0.0 * d

    monkeypatch.setattr(bfamily.experiments, "exp_and_differential", vanishing)
    cfg, out = write_config(tmp_path, NONUNIFORM_64), tmp_path / "out"
    assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 1
    line = "probe.*: differential of exp vanishes along the probe; change v"
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("where", ["row", "probe-geometry"])
def test_unconverged_witness_solve(tmp_path, capsys, monkeypatch, where):
    # a Christoffel solve that fails inside the n = 1 row's march of its plain
    # datum's flow is that row's blow-up, recorded in the manifest; inside the
    # probe geometry's march, before any row, it is a run failure without one
    import bfamily.dynamics
    import bfamily.experiments

    def unconverged(grid, *args):
        raise SolverError(f"Christoffel solve did not converge within {grid.n_points} iterations")

    if where == "row":  # the fault starts once the probe geometry is found
        geometry = bfamily.experiments.estimate_probe_geometry

        def then_unconverged(cfg):
            found = geometry(cfg)
            monkeypatch.setattr(bfamily.dynamics, "_solve_conjugated_helmholtz", unconverged)
            return found

        monkeypatch.setattr(bfamily.experiments, "estimate_probe_geometry", then_unconverged)
    else:
        monkeypatch.setattr(bfamily.dynamics, "_solve_conjugated_helmholtz", unconverged)
    text = _edit(NONUNIFORM_CFG, ("experiment.n_values", 1))
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 2
    failure = "Christoffel solve did not converge within 512 iterations at t = 0.015625"
    err = capsys.readouterr().err
    if where == "row":
        blowup = f"n = 1, plain sequence: {failure}"
        assert err == f"blow-up: {blowup}\n"
        assert json.loads((out / "manifest.json").read_text())["blowup"] == blowup
    else:
        assert err == f"run failed: {failure}\n"
        assert out.is_dir() and not any(out.iterdir())


def test_field_csv_may_start_with_blank_lines(tmp_path):
    from bfamily.io import write_field_csv
    from bfamily.spectral import Field

    grid = make_grid(20, 64)
    field = tmp_path / "field.csv"
    write_field_csv(field, Field(grid, np.cos(grid.x)))
    lines = field.read_text().splitlines()
    field.write_text("\n \n" + "\n".join(lines) + "\n")
    assert np.array_equal(read_field_csv(field).values, np.cos(grid.x))
    lines[4] = "-20,abc"  # the file's line 7
    field.write_text("\n \n" + "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r": line 7: malformed field row '-20,abc'"):
        read_field_csv(field)


def test_out_holds_only_this_runs_snapshots(tmp_path):
    # the T = 0.2 run's phi_000003.csv and phi_000004.csv are not the T = 0.1
    # run's, and its last phi_*.csv must be the T = 0.1 flow; other files stay
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    for T in ("0.2", "0.1"):
        cfg = write_config(tmp_path, FAST_SOLVE.replace("solver.T = 0.1", f"solver.T = {T}"))
        argv = ["--config", str(cfg), "--out", str(out), "--formulation", "lagrangian"]
        assert run_cli("solve", *argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {name for entry in manifest["snapshots"] for name in entry["files"]}
    assert {p.name for p in out.iterdir()} == {"manifest.json", "notes.txt"} | listed


def test_blowup_rerun_leaves_no_earlier_report(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, NONUNIFORM_CFG)
    assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "report.csv").exists()
    cfg = write_config(tmp_path, NONUNIFORM_CFG + "solver.norm_cap = 2\n")
    assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"blow-up: {WITNESS_BLOWUP}\n"
    assert json.loads((out / "manifest.json").read_text())["blowup"] == WITNESS_BLOWUP
    assert not (out / "report.csv").exists()


def test_readme_names_each_commands_flags_and_no_other():
    # the synopsis lists the commands of cli._COMMANDS in order, each with
    # exactly its declared flags in brackets; nowhere else in the section
    # may a flag appear that no command declares, so a removed one cannot linger
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = re.search(r"\n## Command line\n(.*?)\n## ", readme, re.S).group(1)
    usage = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = {
        line.split()[1]: tuple(re.findall(r"\[--([\w-]+)", line))
        for line in usage.splitlines()
        if line.startswith("bfamily ")
    }
    assert list(listed.items()) == [(name, flags) for name, (_, _, flags) in _COMMANDS.items()]
    assert set(re.findall(r"--([a-z][\w-]*)", section)) == {"config", "out", *_FLAGS}


def test_floating_point_errors_are_silenced_only_inside_the_command(tmp_path, capsys):
    from bfamily.dynamics import BParams, SolverConfig, solve_eulerian
    from bfamily.spectral import Field

    before = np.geterr()
    cfg = write_config(tmp_path, OVERFLOWING)
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "run failed: solution lost finiteness at t = 0.01\n"
    assert np.geterr() == before
    grid = make_grid(20, 64)
    u0 = Field(grid, 1e200 * np.exp(-((grid.x / 2) ** 2)))
    with pytest.warns(RuntimeWarning), pytest.raises(SolverError):
        solve_eulerian(u0, BParams(b=2.0, s=2.0), SolverConfig(dt=0.01, T=0.1))
