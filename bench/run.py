"""Benchmark of the bfamily CLI, measured from outside the program.

    python3 bench/run.py --workload eulerian --seed 0 --seconds 35 --trace 0

One client drives the CLI as a closed loop: each command runs in a fresh
interpreter (PYTHONPATH=src, one BLAS/OpenMP thread) and the next starts
only after the previous one ended and its outputs were checked against the
acceptance tolerances.  Commands repeat while the next one is expected to
finish inside --seconds (at least one runs).  Set-up (interpreter start,
``import bfamily``, ``load_config``, grid and initial field) is timed in
separate fresh interpreters before the loop.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each round is one untraced and one traced command, and it
carries the per-layer metrics of bench/tracer.py.  Earlier lines record
the environment and each metric's median, tail percentile and sample
count.  The exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import DETERMINISTIC, METRICS, aggregate
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole run ends well inside 180 s

CLI = "import sys; from bfamily.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = (
    "import sys, bfamily; from bfamily.config import load_config; "
    "cfg = load_config(sys.argv[1], sys.argv[2]); grid = cfg.build_grid(); "
    "[cfg.build_field(grid, p) for p in sys.argv[3:]]"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "margin_digits": "digits",
}


class Run:
    """One child process: wall time, rusage and exit code."""

    def __init__(self, argv, env, cwd, log, timeout):
        with open(log, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stderr = Path(log).read_text().strip()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(workload, seed, config_text):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # the profile string of tests/helpers.platform_profile
        "platform_profile": (
            f"py{sys.version_info.major}.{sys.version_info.minor}"
            f"-np{numpy.__version__}-{sys.platform}-{platform.machine()}"
        ),
        "workload": workload,
        "seed": seed,
        "config": config_text,
    }


def tail(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]!r}"
    return "no percentile has ten samples beyond it"


def report(name, values, unit):
    print(
        f"{name}: median {statistics.median(values)!r} {unit}, {tail(values)}, "
        f"n={len(values)}"
    )


class Bench:
    def __init__(self, workload, seed, seconds, work):
        self.workload = WORKLOADS[workload]
        self.seconds = seconds
        self.work = work
        self.env = child_env()
        self.started = time.perf_counter()
        self.config = work / f"{workload}.cfg"
        self.config.write_text(self.workload.config(seed))
        self.attempted = self.failed = 0
        sampled = ("wall_s", "cpu_s", "peak_rss_mb", "margin_digits")
        self.samples = {name: [] for name in sampled}
        self.traced = []
        self.counter = 0  # child processes started

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv):
        self.counter += 1
        log = self.work / f"stderr_{self.counter}.txt"
        timeout = max(self.remaining(), 1.0)
        return Run([sys.executable, *argv], self.env, ROOT, log, timeout)

    def setup_times(self):
        command = self.workload.command[0]
        prefixes = ["initial", "probe"] if command == "nonuniform" else ["initial"]
        argv = ["-c", SETUP, str(self.config), command, *prefixes]
        times = []
        for i in range(SETUP_REPEATS + 1):
            run = self.spawn(argv)
            if run.code != 0:
                raise SystemExit(f"set-up failed (exit {run.code}): {run.stderr}")
            if i:  # the first one fills the bytecode cache
                times.append(run.wall_s)
        return times

    def command(self, traced):
        """Run the workload's command once; return the Run, or None on failure."""
        tag = f"{self.attempted}{'t' if traced else ''}"
        out = self.work / f"out_{tag}"
        spans = self.work / f"spans_{tag}.json"
        args = [*self.workload.command, "--config", str(self.config), "--out", str(out)]
        prefix = [str(BENCH / "tracer.py"), str(spans)] if traced else ["-c", CLI]
        self.attempted += 1
        run = self.spawn(prefix + args)
        try:
            if run.code != 0:
                raise CheckFailed(f"exit code {run.code}: {run.stderr[-500:]}")
            run.margin_digits = self.workload.check(out, self.config)
            if traced:
                run.layer = aggregate(json.loads(spans.read_text()))
        except Exception as err:  # any failed check counts against error_rate
            self.failed += 1
            print(f"run {self.attempted} failed: {err!r}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            spans.unlink(missing_ok=True)
        return run

    def record(self, run):
        for name, values in self.samples.items():
            values.append(getattr(run, name))

    def loop(self, trace):
        """Closed loop: repeat while the next round should end inside --seconds."""
        started = time.perf_counter()
        rounds = []
        while True:
            begun = time.perf_counter()
            run = self.command(traced=False)
            if run is not None:
                self.record(run)
            if trace:
                traced = self.command(traced=True)
                if traced is not None:
                    self.traced.append(traced)
            rounds.append(time.perf_counter() - begun)
            expected = statistics.median(rounds)
            elapsed = time.perf_counter() - started
            if elapsed + expected > self.seconds or expected > self.remaining():
                return

    def run(self, trace):
        setups = self.setup_times()
        self.loop(trace)
        rate = self.failed / self.attempted
        print(f"error_rate: {self.failed}/{self.attempted} = {rate!r}")
        if not self.samples["wall_s"] or (trace and not self.traced):
            raise SystemExit("no run completed correctly")
        if trace:
            return self.layer_metrics()
        report("setup_s", setups, "s")
        metrics = {"setup_s": statistics.median(setups)}
        for name, values in self.samples.items():
            report(name, values, END_TO_END[name])
            metrics[name] = statistics.median(values)
        return {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    def layer_metrics(self):
        layers = [run.layer for run in self.traced]
        first = layers[0]
        for name in DETERMINISTIC:
            if any(layer["metrics"][name] != first["metrics"][name] for layer in layers):
                raise SystemExit(f"{name} differs between traced runs of one input")
        idle = [layer for layer in self.workload.layers if first["calls"][layer] == 0]
        if idle:
            raise SystemExit(f"layers recorded no calls: {', '.join(idle)}")
        violations = self.workload.guard(first)
        if violations:
            raise SystemExit("regime guard failed: " + "; ".join(violations))
        print("layer calls: " + json.dumps(first["calls"]))
        metrics = dict(first["metrics"])  # counts are equal in every traced run
        for name in metrics.keys() - set(DETERMINISTIC):
            metrics[name] = statistics.median(layer["metrics"][name] for layer in layers)
        traced_wall = [run.wall_s for run in self.traced]
        untraced_wall = statistics.median(self.samples["wall_s"])
        metrics["trace.overhead_s"] = statistics.median(traced_wall) - untraced_wall
        report("traced wall_s", traced_wall, "s")
        return {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in METRICS.items()
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bfamily" / "cli.py").is_file():
        print(f"error: no bfamily sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the output checks

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        env = environment(args.workload, args.seed, bench.config.read_text())
        print("env " + json.dumps(env))
        metrics = bench.run(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
