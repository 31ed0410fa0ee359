"""Per-layer tracing of one CLI run, from outside the package.

Run as a script, it installs span wrappers around every public function of
the bfamily modules and counting wrappers around numpy.fft's
fft/ifft/rfft/irfft, runs ``bfamily.cli.main`` with the remaining
arguments, and writes the spans as JSON when the run ends:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json solve --config C --out D

A span is [name, parent index, start, end, child seconds, fft calls,
fft seconds, attributes]; FFT calls are leaves and are folded into the
span that made them rather than stored one by one.  ``aggregate`` turns
the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

import numpy as np

LAYERS = (
    "spectral", "diffeo", "dynamics", "diagnostics", "experiments", "io", "config", "cli"
)
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
# calls under solve_geodesic that make up the literal invert/compose fallback
FALLBACK = ("invert", "compose_field", "evaluate_field")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _solve_attrs(args, kwargs, traj):
    """Steps taken, from the run's end time and step size."""
    dt = _arg(args, kwargs, 2, "config").dt
    return {"steps": math.ceil(float(traj.times[-1]) / dt - 1e-9)}


def _geodesic_attrs(args, kwargs, traj):
    attrs = _solve_attrs(args, kwargs, traj)
    attrs["min_phi_x"] = min(float(state.phi.phi_x.min()) for state in traj.states)
    return attrs


def _points_attrs(args, kwargs, result):
    return {"points": int(np.size(_arg(args, kwargs, 1, "points")))}


def _bytes_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _annotator(name):
    if name.startswith("write_"):
        return _bytes_attrs
    return {
        "solve_eulerian": _solve_attrs,
        "solve_geodesic": _geodesic_attrs,
        "evaluate_field": _points_attrs,
    }.get(name)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fft_calls = 0
        self.fft_s = 0.0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        annotate = _annotator(name.rsplit(".", 1)[1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0, 0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += rec[3] - rec[2]
            if annotate is not None:
                rec[7] = annotate(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self.fft_calls += 1
                self.fft_s += took
                if stack:
                    rec = spans[stack[-1]]
                    rec[4] += took
                    rec[5] += 1
                    rec[6] += took

        return wrapper

    def install(self):
        """Wrap each public function at every module attribute bound to it.

        Modules bind imported names at import time, so the wrapper replaces
        the function under every bfamily.* name that is the same object,
        not only where it is defined.  Private helpers are never hooked.
        """
        import bfamily  # noqa: F401  (imports every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bfamily.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self.span(f"{layer}.{attr}", obj))
        for attr in FFT_NAMES:
            obj = getattr(np.fft, attr)
            wrappers[id(obj)] = (obj, self.counted(obj))

        targets = [np.fft] + [
            mod
            for name, mod in sys.modules.items()
            if name == "bfamily" or name.startswith("bfamily.")
        ]
        for module in targets:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, path):
        doc = {"spans": self.spans, "fft_calls": self.fft_calls, "fft_s": self.fft_s}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# per-layer metrics: name -> (unit, better)
METRICS = {
    "spectral.fft.calls": ("count", "lower"),
    "spectral.fft.self_s": ("s", "lower"),
    "spectral.fft.calls_per_step": ("count", "lower"),
    "spectral.hs_norm.calls": ("count", "lower"),
    "spectral.hs_norm.self_s": ("s", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.solve_eulerian.self_s": ("s", "lower"),
    "dynamics.solve_geodesic.self_s": ("s", "lower"),
    "dynamics.christoffel.fft_per_step": ("count", "lower"),
    "dynamics.fallbacks": ("count", "lower"),
    "dynamics.fallback_ratio": ("ratio", "lower"),
    "dynamics.min_phi_x": ("ratio", "higher"),
    "diffeo.invert.calls": ("count", "lower"),
    "diffeo.invert.self_s": ("s", "lower"),
    "diffeo.evaluate_field.calls": ("count", "lower"),
    "diffeo.evaluate_field.points": ("count", "lower"),
    "diffeo.evaluate_field.self_s": ("s", "lower"),
    "diffeo.compose_field.calls": ("count", "lower"),
    "diagnostics.conservation_residual.self_s": ("s", "lower"),
    "diagnostics.pushforward_reconstruct.self_s": ("s", "lower"),
    "experiments.dexp.self_s": ("s", "lower"),
    "experiments.exp_map.calls": ("count", "lower"),
    "experiments.time_one_map.self_s": ("s", "lower"),
    "io.write.calls": ("count", "lower"),
    "io.write.bytes": ("B", "lower"),
    "io.write.self_s": ("s", "lower"),
    "config.load_config.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that repeat exactly between traced runs of the same inputs
DETERMINISTIC = tuple(
    name for name, (unit, _) in METRICS.items() if unit in ("count", "B")
) + ("dynamics.fallback_ratio", "dynamics.min_phi_x")


def aggregate(doc) -> dict:
    """Per-layer record of one traced run.

    Functions are matched by name, wherever they are defined, so a function
    moved between modules keeps its metric.  Returns the metrics (all but
    trace.overhead_s), the span count per layer (numpy.fft calls count for
    spectral) and the min phi_x of every geodesic solve.
    """
    spans = doc["spans"]
    calls, self_s, attr_sum = {}, {}, {}
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_calls["spectral"] += doc["fft_calls"]
    in_geodesic = [False] * len(spans)
    in_fallback = [False] * len(spans)
    min_phi_x = []
    fallbacks = christoffel_fft = 0
    geodesic_steps = 0
    # parents precede their children in the span list
    for i, (name, parent, start, end, child, ffts, _, attrs) in enumerate(spans):
        layer, func = name.rsplit(".", 1)
        if func.startswith("write_"):
            func = "write"
        layer_calls[layer] += 1
        calls[func] = calls.get(func, 0) + 1
        self_s[func] = self_s.get(func, 0.0) + (end - start - child)
        for key, value in (attrs or {}).items():
            attr_sum[(func, key)] = attr_sum.get((func, key), 0) + value
        under_geodesic = parent >= 0 and in_geodesic[parent]
        if func == "solve_geodesic":
            min_phi_x.append(attrs["min_phi_x"])
            geodesic_steps += attrs["steps"]
        if func == "invert" and under_geodesic:
            fallbacks += 1
        in_geodesic[i] = under_geodesic or func == "solve_geodesic"
        in_fallback[i] = (parent >= 0 and in_fallback[parent]) or (
            under_geodesic and func in FALLBACK
        )
        if in_geodesic[i] and not in_fallback[i]:
            christoffel_fft += ffts

    steps = attr_sum.get(("solve_eulerian", "steps"), 0) + geodesic_steps

    def per(count, base):
        return count / base if base else 0.0

    metrics = {
        "spectral.fft.calls": doc["fft_calls"],
        "spectral.fft.self_s": doc["fft_s"],
        "spectral.fft.calls_per_step": per(doc["fft_calls"], steps),
        "spectral.hs_norm.calls": calls.get("hs_norm", 0),
        "spectral.hs_norm.self_s": self_s.get("hs_norm", 0.0),
        "dynamics.steps": steps,
        "dynamics.solve_eulerian.self_s": self_s.get("solve_eulerian", 0.0),
        "dynamics.solve_geodesic.self_s": self_s.get("solve_geodesic", 0.0),
        "dynamics.christoffel.fft_per_step": per(christoffel_fft, geodesic_steps),
        "dynamics.fallbacks": fallbacks,
        # four Christoffel evaluations per RK4 step
        "dynamics.fallback_ratio": per(fallbacks, 4 * geodesic_steps),
        # 1.0 (the identity) when the run computes no flow map
        "dynamics.min_phi_x": min(min_phi_x, default=1.0),
        "diffeo.invert.calls": calls.get("invert", 0),
        "diffeo.invert.self_s": self_s.get("invert", 0.0),
        "diffeo.evaluate_field.calls": calls.get("evaluate_field", 0),
        "diffeo.evaluate_field.points": attr_sum.get(("evaluate_field", "points"), 0),
        "diffeo.evaluate_field.self_s": self_s.get("evaluate_field", 0.0),
        "diffeo.compose_field.calls": calls.get("compose_field", 0),
        "diagnostics.conservation_residual.self_s": self_s.get(
            "conservation_residual", 0.0
        ),
        "diagnostics.pushforward_reconstruct.self_s": self_s.get(
            "pushforward_reconstruct", 0.0
        ),
        "experiments.dexp.self_s": self_s.get("dexp", 0.0),
        "experiments.exp_map.calls": calls.get("exp_map", 0),
        "experiments.time_one_map.self_s": self_s.get("time_one_map", 0.0),
        "io.write.calls": calls.get("write", 0),
        "io.write.bytes": attr_sum.get(("write", "bytes"), 0),
        "io.write.self_s": self_s.get("write", 0.0),
        "config.load_config.self_s": self_s.get("load_config", 0.0),
    }
    return {"metrics": metrics, "calls": layer_calls, "geodesic_min_phi_x": min_phi_x}


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from bfamily.cli import main as cli_main  # the wrapped entry point

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
