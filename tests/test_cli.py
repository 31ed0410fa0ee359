"""End-to-end tests of the command-line interface and its artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import FAST_SOLVE, check_golden, tree_digest

from bfamily.cli import main
from bfamily.io import read_diffeo_csv, read_experiment_rows, read_field_csv


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
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

    def test_gaussian_passes_default_tolerance(self, tmp_path):
        text = FAST_SOLVE.replace("grid.N = 64", "grid.N = 256").replace(
            "solver.T = 0.1", "solver.T = 0.2"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_cli("conserve", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_residual"] <= 1e-4

    def test_tight_tolerance_fails_exit_three(self, tmp_path):
        text = FAST_SOLVE.replace("grid.N = 64", "grid.N = 256").replace(
            "solver.dt = 0.01", "solver.dt = 0.1"
        ).replace("solver.T = 0.1", "solver.T = 0.2").replace(
            "solver.stride = 5", "solver.stride = 1"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = run_cli(
            "conserve", "--config", str(cfg), "--out", str(out), "--tol", "1e-15"
        )
        assert code == 3


class TestExpCommand:
    def test_zero_datum_identity(self, tmp_path):
        cfg = write_config(
            tmp_path, FAST_SOLVE.replace("initial.amp = 0.3", "initial.amp = 0")
        )
        out = tmp_path / "out"
        assert run_cli("exp", "--config", str(cfg), "--out", str(out)) == 0
        phi = read_diffeo_csv(out / "phi.csv")
        assert np.max(np.abs(phi.displacement.values)) == 0.0

    def test_outside_domain_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE + "solver.min_phix = 0.999\n")
        out = tmp_path / "out"
        assert run_cli("exp", "--config", str(cfg), "--out", str(out)) == 2


class TestScalecheck:
    def test_residual_recorded(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE + "experiment.lambda = 2\n")
        out = tmp_path / "out"
        assert run_cli("scalecheck", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["residual"] <= 1e-6

    def test_tolerance_gate(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = run_cli(
            "scalecheck", "--config", str(cfg), "--out", str(out), "--tol", "0"
        )
        assert code in (0, 3)  # zero datum scaling could be exactly zero
        # a nonzero datum with tol 0 must fail unless the residual is exact 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (code == 0) == (manifest["residual"] <= 0)


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

    def test_degenerate_probe_exit_one(self, tmp_path):
        cfg = write_config(
            tmp_path, NONUNIFORM_CFG.replace("probe.amp = 4.5", "probe.amp = 0")
        )
        out = tmp_path / "out"
        assert run_cli("nonuniform", "--config", str(cfg), "--out", str(out)) == 1


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

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out1)) == 0
        assert (
            run_cli("sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "3")
            == 0
        )
        a = {p.relative_to(out1).as_posix(): p.read_bytes() for p in sorted(out1.rglob("*.csv"))}
        b = {p.relative_to(out2).as_posix(): p.read_bytes() for p in sorted(out2.rglob("*.csv"))}
        assert a == b


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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error_without_output(tmp_path, case):
    # a fresh interpreter, so an uncaught exception would show as a traceback
    import bfamily

    command, text = BAD_INPUTS[case]
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(bfamily.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bfamily.cli", command, "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert not out.exists()
