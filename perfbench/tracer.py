"""Span tracer for the per-layer run.

``Tracer.install`` wraps each traced public function of ``flexctl`` and
rebinds every module-level name that refers to it (``controller.phi``,
``plant.phi``, ``simulator.discretize``, ``cli.run``, ...), so calls made
inside the library are seen as well as calls made by the benchmark. Spans
are kept in memory as parallel lists with the index of their parent span;
a span's self time is its duration minus the time its child spans cover.
Counters that need a call's arguments or result are taken after the span
has closed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path inside the module)
LAYERS = (
    ("matseries.phi", "flexctl.matseries", "phi"),
    ("matseries.expm_via_phi", "flexctl.matseries", "expm_via_phi"),
    ("plant.continuous_matrices", "flexctl.plant", "continuous_matrices"),
    ("plant.energy_rate", "flexctl.plant", "energy_rate"),
    ("plant.energy", "flexctl.plant", "energy"),
    ("discretizer.discretize", "flexctl.discretizer", "discretize"),
    ("controller.control_input", "flexctl.controller", "control_input"),
    ("stability.check_conditions", "flexctl.stability", "check_conditions"),
    ("stability.v1_margin", "flexctl.stability", "v1_margin"),
    ("stability.stability_map", "flexctl.stability", "stability_map"),
    ("scheduler.Scheduler.next_period", "flexctl.scheduler", "Scheduler.next_period"),
    ("simulator.run", "flexctl.simulator", "run"),
    ("simulator.write_trace_csv", "flexctl.simulator", "write_trace_csv"),
    ("simulator.rk4_crosscheck", "flexctl.simulator", "rk4_crosscheck"),
    ("checks.run_identity_checks", "flexctl.checks", "run_identity_checks"),
    ("checks.integral_oracle", "flexctl.checks", "integral_oracle"),
    ("checks.expm", "flexctl.checks", "expm"),  # scipy's oracle as checks sees it
    ("cli.main", "flexctl.cli", "main"),
    ("cli.write_manifest", "flexctl.cli", "write_manifest"),
)

# per-layer metrics beyond <layer>.calls and <layer>.self_s, with units
EXTRA_METRICS = {
    "matseries.phi.calls_per_step": "1/step",
    "matseries.phi.repeat_frac": "ratio",
    "controller.gain_fallback_frac": "ratio",
    "controller.saturated_frac": "ratio",
    "simulator.step_us": "us",
    "simulator.write_trace_csv.bytes": "bytes",
    "simulator.rk4_crosscheck.substeps": "count",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    units = {}
    for label, _, _ in LAYERS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.active = False
        self.labels: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._names = [label for label, _, _ in LAYERS]
        self._restore: list[tuple[object, str, object]] = []
        # counters
        self._seen_phi: set[bytes] = set()
        self.phi_repeats = 0
        self.steps = 0
        self.fallbacks = 0
        self.saturated = 0
        self.csv_bytes = 0
        self.substeps = 0

    def begin_op(self) -> None:
        """Start recording one operation; phi repeats are counted within it."""
        self._seen_phi.clear()
        self.active = True

    def install(self) -> None:
        originals = []
        for idx, (label, module_name, path) in enumerate(LAYERS):
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            originals.append((idx, owner, attr, fn))
        flexctl_modules = [m for name, m in sys.modules.items()
                           if m is not None and (name == "flexctl" or name.startswith("flexctl."))]
        for idx, owner, attr, fn in originals:
            wrapper = self._wrap(idx, fn)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in flexctl_modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, idx: int, fn):
        hook = self._hooks().get(self._names[idx])
        labels, parents, starts, ends, stack = self.labels, self.parents, self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(labels)
            labels.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                starts[span] = start
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        return {
            "matseries.phi": self._on_phi,
            "controller.control_input": self._on_control,
            "simulator.run": self._on_run,
            "simulator.write_trace_csv": self._on_csv,
            "simulator.rk4_crosscheck": self._on_rk4,
        }

    def _on_phi(self, args, kwargs, result) -> None:
        M = np.asarray(args[0] if args else kwargs["M"], dtype=float)
        options = args[1] if len(args) > 1 else kwargs.get("options")
        key = repr((M.shape, options)).encode() + M.tobytes()
        if key in self._seen_phi:
            self.phi_repeats += 1
        else:
            self._seen_phi.add(key)

    def _on_control(self, args, kwargs, result) -> None:
        self.fallbacks += result.guard_event == "gain_fallback"
        self.saturated += bool(result.saturated)

    def _on_run(self, args, kwargs, result) -> None:
        self.steps += len(result)

    def _on_csv(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.csv_bytes += Path(path).stat().st_size

    def _on_rk4(self, args, kwargs, result) -> None:
        bound = inspect.signature(sys.modules["flexctl.simulator"].rk4_crosscheck).bind(*args, **kwargs)
        bound.apply_defaults()
        trace, t_end, dt = bound.arguments["trace"], bound.arguments["t_end"], bound.arguments["dt"]
        for rec, nxt in zip(trace[:-1], trace[1:]):
            if t_end is not None and nxt.t > t_end:
                break
            self.substeps += math.ceil(rec.h_k / dt)

    def _span_arrays(self):
        return (np.array(self.labels, dtype=np.int64), np.array(self.parents, dtype=np.int64),
                np.array(self.starts), np.array(self.ends))

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        labels, parents, starts, ends = self._span_arrays()
        duration = ends - starts
        covered = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        self_time = duration - covered
        out: dict[str, float] = {}
        for idx, label in enumerate(self._names):
            mask = labels == idx
            out[f"{label}.calls"] = int(np.sum(mask))
            out[f"{label}.self_s"] = float(np.sum(self_time[mask]))
        phi_calls = out["matseries.phi.calls"]
        controls = out["controller.control_input.calls"]
        run_idx = self._names.index("simulator.run")
        run_total = float(np.sum(duration[labels == run_idx]))
        out["matseries.phi.calls_per_step"] = phi_calls / self.steps if self.steps else 0.0
        out["matseries.phi.repeat_frac"] = self.phi_repeats / phi_calls if phi_calls else 0.0
        out["controller.gain_fallback_frac"] = self.fallbacks / controls if controls else 0.0
        out["controller.saturated_frac"] = self.saturated / controls if controls else 0.0
        out["simulator.step_us"] = run_total / self.steps * 1e6 if self.steps else 0.0
        out["simulator.write_trace_csv.bytes"] = self.csv_bytes
        out["simulator.rk4_crosscheck.substeps"] = self.substeps
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path: Path) -> None:
        t0 = min(self.starts, default=0.0)
        spans = zip(self.labels, self.parents, self.starts, self.ends)
        with path.open("w") as f:
            f.write("span,parent,name,start_s,end_s\n")
            for span, (label, parent, start, end) in enumerate(spans):
                f.write(f"{span},{parent},{self._names[label]},{start - t0:.9f},{end - t0:.9f}\n")
