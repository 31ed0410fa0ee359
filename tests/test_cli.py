"""End-to-end tests of the command-line interface and its artifacts."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import FAST_SOLVE, check_golden, read_diffeo_csv, tree_digest

from bfamily.cli import _COMMANDS, _FLAGS, main
from bfamily.config import parse_config
from bfamily.dynamics import exp_map, march_dt, solve_geodesic
from bfamily.errors import ConfigError
from bfamily.io import read_experiment_rows, read_field_csv
from bfamily.spectral import derivative


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return path


class TestConfigErrors:
    def test_unknown_key_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SOLVE + "nonsense.key = 1\n")
        code = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown key" in err and "line" in err

    def test_malformed_line_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "grid.L 20\n")
        code = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "grid.L = 20\ngrid.L = 10\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1

    def test_bad_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE.replace("grid.N = 64", "grid.N = 100"))
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1

    def test_missing_config_file(self, tmp_path):
        assert (
            run_cli("solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o"))
            == 1
        )

    def test_inline_comments_allowed(self, tmp_path):
        cfg = write_config(
            tmp_path, FAST_SOLVE.replace("params.b = 2", "params.b = 2  # family")
        )
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    def test_missing_field_file_is_config_error(self, tmp_path):
        text = FAST_SOLVE.replace(
            "initial.family = gaussian", "initial.family = file"
        )
        text = "\n".join(
            line for line in text.splitlines() if not line.startswith("initial.")
            or line.startswith("initial.family")
        )
        cfg = write_config(tmp_path, text + f"\ninitial.path = {tmp_path}/nope.csv\n")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1


class TestFieldFileInput:
    def test_file_family_round_trip(self, tmp_path):
        from bfamily.io import write_field_csv
        from bfamily.spectral import Field, make_grid

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

    def test_blowup_guard_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE + "solver.norm_cap = 1e-4\n")
        out = tmp_path / "out"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "blowup_norm"

    def test_unconverged_lagrangian_solve_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bfamily.dynamics.CHRISTOFFEL_RTOL", 0.0)
        cfg = write_config(tmp_path, FAST_SOLVE)
        code = run_cli(
            "solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--formulation", "lagrangian",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("run failed:")
        assert "did not converge" in lines[0] and "t = 0.01" in lines[0]

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
        from bfamily.spectral import Field, make_grid

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
        from bfamily.errors import ConfigError
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

    def test_degenerate_probe_exit_one(self, tmp_path):
        cfg = write_config(
            tmp_path, NONUNIFORM_CFG.replace("probe.amp = 4.5", "probe.amp = 0")
        )
        out = tmp_path / "out"
        assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 1


def test_witness_row_blowup_names_n_and_sequence(tmp_path):
    # the plain datum x_1 stays under the norm cap; x_1 + v leaves it at once
    proc, out = run_fresh(tmp_path, "nonuniform", NONUNIFORM_CFG + "solver.norm_cap = 2\n")
    assert proc.returncode == 2, proc.stderr
    message = (
        "n = 1, perturbed sequence: initial datum outside the time-one existence set "
        "(blowup_norm at t = 0.005)"
    )
    assert proc.stderr == f"blow-up: {message}\n"
    assert json.loads((out / "manifest.json").read_text())["blowup"] == message
    assert not (out / "report.csv").exists()


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


class TestSweep:
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
        from bfamily.spectral import Field, make_grid

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

    def test_unreadable_file_datum_is_the_cells_own_config_error(self, tmp_path):
        # a directory as the datum: reading it fails, hashing it must not
        kept = [line for line in FAST_SOLVE.splitlines() if not line.startswith("initial.")]
        datum = ["initial.family = file", f"initial.path = {tmp_path}", "sweep.command = solve"]
        err, out = assert_config_error_after_out(tmp_path, "sweep", "\n".join(kept + datum))
        assert err.startswith("config error: initial.path:"), err
        index = json.loads((out / "index.json").read_text())
        assert [(c["cell"], c["exit_code"]) for c in index["cells"]] == [("b2_N64", 1)]

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
def test_every_manifest_carries_the_base_keys(tmp_path, case):
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
        assert manifest["blowup"].endswith("(blowup_phix at t = 0.015625)")


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


# a finite datum whose slope overflows the transform (amp 1e308) or whose
# square, the first right-hand side's flux, overflows (amp 1e200), with the
# step derived from it or set by solver.dt, or a datum that is not finite
# (width 0): the config error names the datum's keys, before --out exists.
# At amp 1e150 the square is finite, and solve at solver.dt = 0.01 blows up
# in its first step: a genuine numerical end, which stays exit 2
SLOPE = "the datum's peak or slope, or its square, is not finite"
NOT_FINITE = "field values must be finite"
DERIVED_SOLVE = FAST_SOLVE.replace("solver.dt = 0.01\n", "")
DERIVED_NONUNIFORM = NONUNIFORM_CFG.replace("solver.dt = 0.005\n", "")
OVERFLOWING_DATA = {
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


@pytest.mark.parametrize("case", sorted(OVERFLOWING_DATA))
def test_overflowing_datum_exits_one_naming_its_key(tmp_path, capsys, case):
    command, text, key, value, reason = OVERFLOWING_DATA[case]
    text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    prefix = key.split(".")[0]
    assert err == f"config error: {prefix}.*: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "conserve", "nonuniform"])
@pytest.mark.parametrize("L", ["1e308", "1e-308", "5e-324"])
def test_grid_fault_names_grid_L(tmp_path, capsys, command, L):
    # 2 L overflows, pi (N/2) / L overflows, or the spacing 2 L / N underflows to 0:
    # the fault is the grid's, not the datum's
    text = NONUNIFORM_CFG if command == "nonuniform" else FAST_SOLVE
    cfg, out = write_config(tmp_path, text.replace("grid.L = 20", f"grid.L = {L}")), tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.L: half_length ") and err.count("\n") == 1
    assert not out.exists()


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


UNDER_RESOLVED = "bump radius 0.5 under-resolved: need > 2.5 at N = 64"
OUTSIDE = "bump support leaves the safe region"
NONUNIFORM_64 = _edit(NONUNIFORM_CFG, ("grid.N", 64))
# Each refusal of a key's value, by the builder that reads the key, is one
# line that opens with the key it names: a datum's prefix.*, params.s,
# solver.*, experiment.*, grid.N, or grid.L for a grid whose H^s weights
# (1 + xi^2)^s overflow (every H^s norm on it would read nan, so the
# blow-up guard could never fire). Each entry is (command, config, the line
# after "config error: " as a regular expression).
NAMED_FAULTS = {
    "params-s": ("solve", _edit(FAST_SOLVE, ("params.s", 1.2)),
                 re.escape("params.s: Sobolev index must satisfy s > 3/2, got 1.2")),
    "solver-stride": ("solve", _edit(FAST_SOLVE, ("solver.stride", 0)),
                      re.escape("solver.*: snapshot_stride must be >= 1")),
    "solver-norm-cap": ("conserve", _edit(FAST_SOLVE, ("solver.norm_cap", -1)),
                        re.escape("solver.*: blow-up guards must be positive")),
    "solver-min-phix": ("solve", _edit(FAST_SOLVE, ("solver.min_phix", 0)),
                        re.escape("solver.*: blow-up guards must be positive")),
    "experiment-R": ("nonuniform", _edit(NONUNIFORM_CFG, ("experiment.R", -1)),
                     re.escape("experiment.*: R must be positive")),
    "experiment-n-values": ("nonuniform", _edit(NONUNIFORM_CFG, ("experiment.n_values", "0,1")),
                            re.escape("experiment.*: n_values must be >= 1")),
    "probe-zero": ("nonuniform", _edit(NONUNIFORM_64, ("probe.amp", 0)),
                   re.escape("probe.*: probe direction must be nonzero")),
    "bump-under-resolved-initial-solve": (
        "solve", _datum(FAST_SOLVE, "initial", "bump", center=0, radius=0.5),
        re.escape(f"initial.*: {UNDER_RESOLVED}")),
    "bump-under-resolved-initial-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_64, "initial", "bump", center=0, radius=0.5),
        re.escape(f"initial.*: {UNDER_RESOLVED}")),
    "bump-under-resolved-probe-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_64, "probe", "bump", center=0, radius=0.5),
        re.escape(f"probe.*: {UNDER_RESOLVED}")),
    "bump-outside-initial-solve": (
        "solve",
        _datum(_edit(FAST_SOLVE, ("grid.N", 1024)), "initial", "bump", center=14.8, radius=1),
        re.escape(f"initial.*: {OUTSIDE}")),
    "bump-outside-initial-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_CFG, "initial", "bump", center=14.8, radius=1),
        re.escape(f"initial.*: {OUTSIDE}")),
    "bump-outside-probe-nonuniform": (
        "nonuniform", _datum(NONUNIFORM_CFG, "probe", "bump", center=14.8, radius=1),
        re.escape(f"probe.*: {OUTSIDE}")),
    # numpy refuses to size the wavenumbers; the reason is numpy's own text
    "grid-N-too-big": ("solve", _edit(FAST_SOLVE, ("grid.N", 2**62)), r"grid\.N: .+"),
    "grid-L-weights-solve": (
        "solve", _edit(FAST_SOLVE, ("grid.L", 1e-100), ("solver.norm_cap", 1e-300)),
        re.escape("grid.L: half_length 1e-100 gives H^s weights (1 + xi^2)^s "
                  "that overflow at n_points 64, s = 2")),
    "grid-L-weights-nonuniform": (
        "nonuniform", _edit(NONUNIFORM_CFG, ("grid.L", 1e-100)),
        re.escape("grid.L: half_length 1e-100 gives H^s weights (1 + xi^2)^s "
                  "that overflow at n_points 512, s = 2")),
    # this mode datum's momentum u - u_xx overflows at once
    "grid-L-weights-mode": (
        "solve",
        _datum(_edit(FAST_SOLVE, ("grid.L", 3.14e-160)), "initial", "mode", k=1, amp=1e-10),
        re.escape("grid.L: half_length 3.14e-160 gives H^s weights (1 + xi^2)^s "
                  "that overflow at n_points 64, s = 2")),
}


@pytest.mark.parametrize("case", sorted(NAMED_FAULTS))
def test_refused_value_exits_one_naming_its_key(tmp_path, capsys, case):
    command, text, line = NAMED_FAULTS[case]
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"config error: {line}\n", err), err
    assert not out.exists()


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


def test_grid_whose_weights_fit_keeps_its_blow_up_guard(tmp_path, capsys):
    # at grid.L = 1e-60 the H^2 weights are finite, so the norm guard fires
    text = _edit(FAST_SOLVE, ("grid.L", 1e-60), ("solver.norm_cap", 1e-300))
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == "blow-up: blowup_norm at t = 0.01\n"


def _bump(center, radius, n):
    kept = [
        line
        for line in FAST_SOLVE.replace("grid.N = 64", f"grid.N = {n}").splitlines()
        if not line.startswith("initial.")
    ]
    return "\n".join(
        kept
        + ["initial.family = bump", f"initial.center = {center}", f"initial.radius = {radius}"]
    )


BAD_INPUTS = {
    "amp-nan": ("solve", FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = nan")),
    "amp-inf": ("solve", FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = inf")),
    "negative-R": (
        "nonuniform",
        NONUNIFORM_CFG.replace("experiment.R = 0.4", "experiment.R = -1"),
    ),
    "bump-at-boundary": ("solve", _bump(14.8, 1, 1024)),
    "bump-under-resolved": ("solve", _bump(0, 0.5, 64)),
    "grid-not-power-of-two": ("solve", FAST_SOLVE.replace("grid.N = 64", "grid.N = 1000")),
    "probe-file-without-path": ("nonuniform", "grid.N = 512\nprobe.family = file\n"),
    "empty-n-values": (
        "nonuniform",
        NONUNIFORM_CFG.replace("experiment.n_values = 1,16", "experiment.n_values = ,"),
    ),
    "repeated-n-values": (
        "nonuniform",
        NONUNIFORM_CFG.replace("experiment.n_values = 1,16", "experiment.n_values = 1,1"),
    ),
    "repeated-sweep-N": ("sweep", SWEEP_CFG + "sweep.N = 64,32,64\n"),
    # b{b:g}_N{n} names both cells b1_N64
    "colliding-sweep-cells": (
        "sweep",
        SWEEP_CFG.replace("sweep.b = 0,2,3", "sweep.b = 1.0000001,1.0000002"),
    ),
    "sweep-wraps-sweep": (
        "sweep",
        SWEEP_CFG.replace("sweep.command = solve", "sweep.command = sweep"),
    ),
    "sweep-unknown-command": (
        "sweep",
        SWEEP_CFG.replace("sweep.command = solve", "sweep.command = bogus"),
    ),
    "sweep-without-command": ("sweep", SWEEP_CFG.replace("sweep.command = solve\n", "")),
    # a zero probe direction is a ConfigError, so it exits 1 like any other
    "probe-amp-zero": (
        "nonuniform",
        NONUNIFORM_CFG.replace("probe.amp = 4.5", "probe.amp = 0"),
    ),
    # command-line flags after the config text
    "sweep-jobs-removed": ("sweep", SWEEP_CFG, "--jobs", "2"),
    "nonuniform-jobs-removed": ("nonuniform", NONUNIFORM_CFG, "--jobs", "2"),
    "scalecheck-removed": ("scalecheck", FAST_SOLVE),
    "exp-removed": ("exp", FAST_SOLVE),
    "sweep-wraps-exp": (
        "sweep",
        SWEEP_CFG.replace("sweep.command = solve", "sweep.command = exp"),
    ),
    "non-utf8-config": ("solve", b"grid.N = 64\n\xff\xfe\n"),
    # the datum is finite, but its slope overflows, so no flow step derives from it
    "conserve-slope-overflows": (
        "conserve",
        FAST_SOLVE.replace("solver.dt = 0.01\n", "").replace(
            "initial.amp = 0.3", "initial.amp = 1e308"
        ),
    ),
    # T / dt overflows to inf: no step count, so no march
    "step-count-overflows": (
        "solve",
        FAST_SOLVE.replace("solver.dt = 0.01", "solver.dt = 1e-310").replace(
            "solver.T = 0.1", "solver.T = 1"
        ),
    ),
    "step-count-overflows-at-huge-T": (
        "solve",
        FAST_SOLVE.replace("solver.dt = 0.01", "solver.dt = 1e-300").replace(
            "solver.T = 0.1", "solver.T = 1e300"
        ),
    ),
    "nonuniform-step-count-overflows": (
        "nonuniform",
        NONUNIFORM_CFG.replace("solver.dt = 0.005", "solver.dt = 1e-310"),
    ),
    # grid.L whose spacing or top wavenumber is not a positive finite number
    "grid-L-wavenumber-overflows": ("solve", FAST_SOLVE.replace("grid.L = 20", "grid.L = 1e-308")),
    "grid-L-spacing-underflows": ("conserve", FAST_SOLVE.replace("grid.L = 20", "grid.L = 5e-324")),
    "grid-L-spacing-overflows": (
        "nonuniform",
        NONUNIFORM_CFG.replace("grid.L = 20", "grid.L = 1e308"),
    ),
    # the wavenumbers alone take 2**58 bytes, more than any address space
    # holds, so the allocation fails at once and touches no memory
    "grid-unallocatable": ("solve", FAST_SOLVE.replace("grid.N = 64", f"grid.N = {2**56}")),
    "nonuniform-grid-unallocatable": (
        "nonuniform",
        NONUNIFORM_CFG.replace("grid.N = 512", f"grid.N = {2**56}"),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error_without_output(tmp_path, case):
    command, text, *flags = BAD_INPUTS[case]
    assert_config_error_without_output(tmp_path, command, text, *flags)


@pytest.mark.parametrize("command, text", [
    ("conserve", FAST_SOLVE), ("sweep", FAST_SOLVE + "sweep.command = conserve\n"),
], ids=["conserve", "sweep"])
def test_tol_is_an_unrecognized_argument(tmp_path, capsys, command, text):
    # conserve and its sweep cells check the pinned CONSERVE_TOL; no flag moves it
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out), "--tol", "1e-4") == 1
    assert capsys.readouterr().err == "config error: unrecognized arguments: --tol 1e-4\n"
    assert not out.exists()


def test_header_only_field_csv_is_config_error(tmp_path):
    field = tmp_path / "field.csv"
    field.write_text("x,value\n")
    kept = [line for line in FAST_SOLVE.splitlines() if not line.startswith("initial.")]
    text = "\n".join(kept + ["initial.family = file", f"initial.path = {field}"])
    err = assert_config_error_without_output(tmp_path, "solve", text)
    assert err.rstrip().endswith("no data rows")


@pytest.mark.parametrize(
    "line, row",
    [(2, "1.0"), (5, "-20,abc"), (9, "-20,1,2"), (7, "0.5,0")],
    ids=["one-value", "not-a-float", "three-values", "x-off-the-grid"],
)
def test_bad_field_csv_row_names_the_file_and_line(tmp_path, line, row):
    from bfamily.io import write_field_csv
    from bfamily.spectral import Field, make_grid

    field = tmp_path / "field.csv"
    write_field_csv(field, Field.zeros(make_grid(20, 64)))
    lines = field.read_text().splitlines()
    lines[line - 1] = row
    field.write_text("\n".join(lines) + "\n")
    kept = [line for line in FAST_SOLVE.splitlines() if not line.startswith("initial.")]
    text = "\n".join(kept + ["initial.family = file", f"initial.path = {field}"])
    err = assert_config_error_without_output(tmp_path, "solve", text)
    assert err.startswith(f"config error: {field}: line {line}: "), err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], "n_points must be a power of two >= 16, got 63"),
        (lambda lines: [lines[0], "1.0,0", *lines[2:]],
         "line 2: half_length must be positive and finite, got -1.0"),
        (lambda lines: [*lines[:5], lines[5].split(",")[0] + ",nan", *lines[6:]],
         "line 6: field values must be finite"),
    ],
    ids=["63-rows", "positive-first-x", "nan-value"],
)
def test_field_csv_grid_and_value_errors_name_the_file(tmp_path, edit, message):
    from bfamily.io import write_field_csv
    from bfamily.spectral import Field, make_grid

    field = tmp_path / "field.csv"
    write_field_csv(field, Field.zeros(make_grid(20, 64)))
    field.write_text("\n".join(edit(field.read_text().splitlines())) + "\n")
    kept = [line for line in FAST_SOLVE.splitlines() if not line.startswith("initial.")]
    text = "\n".join(kept + ["initial.family = file", f"initial.path = {field}"])
    err = assert_config_error_without_output(tmp_path, "solve", text)
    assert err == f"config error: {field}: {message}\n", err


def test_field_csv_may_start_with_blank_lines(tmp_path):
    from bfamily.io import write_field_csv
    from bfamily.spectral import Field, make_grid

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


def run_fresh(tmp_path, command, text, *flags, out=None):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr; returns the finished process and the --out path
    (tmp_path / "out" unless given)."""
    import bfamily

    cfg = write_config(tmp_path, text)
    out = tmp_path / "out" if out is None else out
    env = {**os.environ, "PYTHONPATH": str(Path(bfamily.__file__).parents[1])}
    argv = [command, "--config", str(cfg), "--out", str(out), *flags]
    proc = subprocess.run(
        [sys.executable, "-m", "bfamily.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc, out


def assert_config_error_without_output(tmp_path, command, text, *flags):
    proc, out = run_fresh(tmp_path, command, text, *flags)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert not out.exists()
    return proc.stderr


def assert_config_error_after_out(tmp_path, command, text, *flags):
    """A config error found once --out exists: exit 1 with one stderr line and
    no traceback, and no manifest.json or report.csv anywhere under --out."""
    proc, out = run_fresh(tmp_path, command, text, *flags)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert out.is_dir()
    assert not any(out.rglob("manifest.json")) and not any(out.rglob("report.csv"))
    return proc.stderr, out


# x0_est lies near 15, so the n = 1 witness bump leaves |x| <= 0.75 L = 15
OFF_CENTRE_CFG = (
    NONUNIFORM_CFG.replace("experiment.n_values = 1,16", "experiment.n_values = 1")
    + "initial.center = 15\nprobe.center = 15\n"
)
BUMP_OUTSIDE = r"n = 1: witness bump support x0_est \+/- radius = [\d.]+ \+/- [\d.]+ leaves"


def test_witness_bump_outside_the_safe_region_is_config_error(tmp_path):
    err, _ = assert_config_error_after_out(tmp_path, "nonuniform", OFF_CENTRE_CFG)
    assert re.search(BUMP_OUTSIDE, err), err


def test_sweep_cell_with_a_witness_bump_outside_exits_one(tmp_path):
    text = OFF_CENTRE_CFG + "sweep.command = nonuniform\n"
    err, out = assert_config_error_after_out(tmp_path, "sweep", text)
    assert re.search(BUMP_OUTSIDE, err), err
    index = json.loads((out / "index.json").read_text())
    assert [(c["cell"], c["exit_code"]) for c in index["cells"]] == [("b2_N512", 1)]


def test_unallocatable_sweep_cell_exits_one_and_the_sweep_goes_on(tmp_path):
    text = SWEEP_CFG.replace("sweep.b = 0,2,3", "sweep.b = 2") + f"sweep.N = 64,{2**56}\n"
    proc, out = run_fresh(tmp_path, "sweep", text)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    index = json.loads((out / "index.json").read_text())
    assert [(c["N"], c["exit_code"]) for c in index["cells"]] == [(64, 0), (2**56, 1)]


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


def test_blowup_rerun_leaves_no_earlier_report(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, NONUNIFORM_CFG)
    assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "report.csv").exists()
    cfg = write_config(tmp_path, NONUNIFORM_CFG + "solver.norm_cap = 2\n")
    assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 2
    assert "blowup" in json.loads((out / "manifest.json").read_text())
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "command, text",
    [("solve", FAST_SOLVE), ("nonuniform", NONUNIFORM_CFG), ("sweep", SWEEP_CFG)],
    ids=["solve", "nonuniform", "sweep"],
)
def test_out_blocked_by_a_file_is_config_error(tmp_path, command, text, under):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory\n")
    proc, _ = run_fresh(tmp_path, command, text, out=blocker / "sub" if under else blocker)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: cannot create --out:")
    assert proc.stderr.count("\n") == 1
    assert blocker.read_bytes() == b"not a directory\n"


def test_help_states_the_exit_codes_without_developer_notes():
    import bfamily

    env = {**os.environ, "PYTHONPATH": str(Path(bfamily.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bfamily.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    text = " ".join(proc.stdout.split())  # undo argparse's line wrapping
    for code in ("0 success", "1 configuration error", "2 blow-up", "3 acceptance"):
        assert code in text
    assert "_run" not in proc.stdout


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


def test_config_does_not_import_io():
    # the field CSV reader is imported only when a config names a file family
    import bfamily

    env = {**os.environ, "PYTHONPATH": str(Path(bfamily.__file__).parents[1])}
    code = "import sys, bfamily.config; sys.exit('bfamily.io' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


# No solver.dt, so the derived step 0.5 h / max|u0| gives about 3e17 (amp 1e19)
# or 3e23 (amp 1e25) steps to T = 0.01, more than a list of steps could hold;
# the march must start anyway and end at a blow-up guard.
HUGE_RUNS = {
    "solve-1e19": (["solve"], "1e19"),
    "solve-1e25": (["solve"], "1e25"),
    "solve-lagrangian-1e19": (["solve", "--formulation", "lagrangian"], "1e19"),
    "conserve-1e19": (["conserve"], "1e19"),
}


@pytest.mark.parametrize("case", sorted(HUGE_RUNS))
def test_huge_step_count_is_blowup_without_traceback(tmp_path, case):
    argv, amp = HUGE_RUNS[case]
    text = (
        FAST_SOLVE.replace("solver.dt = 0.01\n", "")
        .replace("solver.T = 0.1", "solver.T = 0.01")
        .replace("initial.amp = 0.3", f"initial.amp = {amp}")
    )
    proc, out = run_fresh(tmp_path, argv[0], text, *argv[1:])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    termination = json.loads((out / "manifest.json").read_text())["termination"]
    assert termination.startswith("blowup_")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"blow-up: {termination} at t = ")


# amplitude 1e150 squares to a finite 1e300, so the config stands, but the
# first step overflows: the march reports the lost finiteness as its one
# line, with no numpy RuntimeWarning before it (at 1e200 the square itself
# overflows, a config error: test_overflowing_datum_exits_one_naming_its_key)
OVERFLOWING_RUNS = {
    "solve-eulerian": ["solve"],
    "solve-lagrangian": ["solve", "--formulation", "lagrangian"],
    "conserve": ["conserve"],
    "sweep": ["sweep"],  # one line per cell
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_RUNS))
def test_floating_point_overflow_is_one_line_without_warnings(tmp_path, case):
    argv = OVERFLOWING_RUNS[case]
    text = FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = 1e150")
    if argv[0] == "sweep":
        text = text.replace("params.b = 2", "sweep.b = 0,2") + "sweep.command = solve\n"
    proc, _ = run_fresh(tmp_path, argv[0], text, *argv[1:])
    assert proc.returncode == 2, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == (2 if argv[0] == "sweep" else 1), proc.stderr
    assert all(line.startswith("run failed: ") for line in lines), proc.stderr


def test_floating_point_errors_are_silenced_only_inside_the_command(tmp_path):
    from bfamily.dynamics import BParams, SolverConfig, solve_eulerian
    from bfamily.errors import SolverError
    from bfamily.spectral import Field, make_grid

    before = np.geterr()
    cfg = write_config(tmp_path, FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = 1e150"))
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert np.geterr() == before
    grid = make_grid(20, 64)
    u0 = Field(grid, 1e200 * np.exp(-((grid.x / 2) ** 2)))
    with pytest.warns(RuntimeWarning), pytest.raises(SolverError):
        solve_eulerian(u0, BParams(b=2.0, s=2.0), SolverConfig(dt=0.01, T=0.1))
