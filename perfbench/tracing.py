"""Spans around the public functions of each wavelq module, from outside the library.

A traced pass replaces module attributes with timing wrappers and restores
them afterwards; the library source is not touched.  Names that a module
imported from another one are wrapped where they are looked up (for example
``closed_loop.controllability_gramian``), so each call is seen exactly once.
Spans nest, and a layer's self time is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict


def _n_modes(result, args):
    return result.n_modes


def _steps(result, args):
    return result.n_samples - 1


def _bytes(result, args):
    return os.path.getsize(args[-1])


# (module, attribute, span name, measure of the call or None)
WRAPPED = [
    ("models", "build_synthetic", "models.build", _n_modes),
    ("models", "build_synthetic_exponential", "models.build", _n_modes),
    ("models", "build_interval_wave", "models.build", _n_modes),
    ("models", "build_star_network", "models.build", _n_modes),
    ("models", "build_rectangle", "models.build", _n_modes),
    ("models", "fit_weak_observability", "models.gramian", None),
    ("closed_loop", "controllability_gramian", "models.gramian", None),
    ("riccati", "solve_are", "riccati.solve_are", lambda result, args: result.dim),
    ("riccati", "integrate_dre", "riccati.integrate_dre", None),
    ("riccati", "bounds_report", "riccati.bounds", None),
    ("closed_loop", "simulate_collocated", "closed_loop.simulate", _steps),
    ("closed_loop", "simulate_riccati_feedback", "closed_loop.simulate", _steps),
    ("closed_loop", "simulate_backward_observer", "closed_loop.simulate", _steps),
    ("closed_loop", "hum_null_control", "closed_loop.hum", None),
    ("closed_loop", "fit_decay", "closed_loop.fit", None),
    ("closed_loop", "default_decay_window", "closed_loop.fit", None),
    ("spectral", "energy_norm_squared", "spectral.norm", None),
    ("closed_loop", "energy_norm_squared", "spectral.norm", None),
    ("turnpike", "solve_tracking", "turnpike.tracking",
     lambda result, args: result.times.size),
    ("turnpike", "tracking_os_residual", "turnpike.os_residual", None),
    ("turnpike", "solve_stationary", "turnpike.stationary", None),
    ("turnpike", "averaged_metrics", "turnpike.metrics", None),
    ("serialize", "trajectory_to_csv", "serialize.write", _bytes),
    ("serialize", "turnpike_to_csv", "serialize.write", _bytes),
    ("serialize", "observability_to_csv", "serialize.write", _bytes),
    ("serialize", "controls_to_csv", "serialize.write", _bytes),
    ("serialize", "save_riccati", "serialize.write", _bytes),
    ("serialize", "save_system", "serialize.write", _bytes),
]

# per-layer metric -> (unit, how it is computed from one pass's spans)
LAYER_METRICS = {
    "models.build_s": ("s", "self", "models.build"),
    "models.gramian_s": ("s", "self", "models.gramian"),
    "models.n_modes": ("count", "max", "models.build"),
    "riccati.solve_are_s": ("s", "self", "riccati.solve_are"),
    "riccati.solve_are_calls": ("count", "calls", "riccati.solve_are"),
    "riccati.are_dim": ("count", "max", "riccati.solve_are"),
    "riccati.integrate_dre_s": ("s", "self", "riccati.integrate_dre"),
    "riccati.bounds_s": ("s", "self", "riccati.bounds"),
    "closed_loop.simulate_s": ("s", "self", "closed_loop.simulate"),
    "closed_loop.steps": ("count", "sum", "closed_loop.simulate"),
    "closed_loop.hum_s": ("s", "self", "closed_loop.hum"),
    "closed_loop.hum_calls": ("count", "calls", "closed_loop.hum"),
    "closed_loop.fit_s": ("s", "self", "closed_loop.fit"),
    "spectral.norm_s": ("s", "self", "spectral.norm"),
    "spectral.norm_calls": ("count", "calls", "spectral.norm"),
    "turnpike.tracking_s": ("s", "self", "turnpike.tracking"),
    "turnpike.tracking_calls": ("count", "calls", "turnpike.tracking"),
    "turnpike.os_residual_s": ("s", "self", "turnpike.os_residual"),
    "turnpike.stationary_s": ("s", "self", "turnpike.stationary"),
    "turnpike.metrics_s": ("s", "self", "turnpike.metrics"),
    "turnpike.samples_recorded": ("count", "sum", "turnpike.tracking"),
    "serialize.write_s": ("s", "self", "serialize.write"),
    "serialize.bytes_written": ("bytes", "sum", "serialize.write"),
    "cli.self_s": ("s", "self", "cli.run_experiment"),
}


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, run id, measure]``.

    Wrapped functions record a span only inside an open ``span`` of the
    benchmark, so checks that call the library after a run are not counted.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, measure):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = measure
        self._stack.pop()

    def _wrap(self, fn, name: str, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            value = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(result, args)
                return result
            finally:
                self._close(idx, value)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, measure in WRAPPED:
                module = importlib.import_module(f"wavelq.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, measure))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def pass_metrics(self, run_id: int) -> dict:
        """The per-layer metrics of one traced pass."""
        idxs = [i for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time = defaultdict(float)
        for i in idxs:
            _, start, end, parent, _, _ = self.spans[i]
            if parent is not None:
                child_time[parent] += end - start
        self_s, calls, total, peak = (defaultdict(float), defaultdict(int),
                                      defaultdict(float), defaultdict(float))
        for i in idxs:
            name, start, end, _, _, value = self.spans[i]
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
            if value is not None:
                total[name] += value
                peak[name] = max(peak[name], value)
        by = {"self": self_s, "calls": calls, "sum": total, "max": peak}
        out = {metric: by[how][name] for metric, (_, how, name) in LAYER_METRICS.items()}
        steps = out["closed_loop.steps"]
        out["closed_loop.us_per_step"] = 1e6 * out["closed_loop.simulate_s"] / steps if steps else 0.0
        return out


UNITS = {m: unit for m, (unit, _, _) in LAYER_METRICS.items()}
UNITS["closed_loop.us_per_step"] = "us"
UNITS["trace.overhead_s"] = "s"  # median traced pass minus median untraced pass
