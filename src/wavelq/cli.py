"""Config-driven experiment runner.

A run is described by a single JSON config file::

    {
      "model":      {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 64},
      "experiment": {"kind": "decay_riccati", "horizon": 70.0, "window": [10.0, 32.0]},
      "seed": 1,
      "output_dir": "out"
    }

``MODEL_FIELDS`` and ``EXPERIMENT_FIELDS`` declare every key once per kind, as a
parser that knows its type, range and default.  ``validate_config`` returns the
resolved config (defaults filled in, numbers as floats), and resolving it again
changes nothing; errors name the offending field.  Numbers must be finite JSON
numbers, not booleans; the string ``"inf"`` is accepted only for ``rho``/``eta``.
Every experiment writes CSV results, a ``summary.json`` with the fitted constants
and residuals, and a ``manifest.json`` with the hash of the config as given,
library version, seed, wall time, checksums of the produced files (a run
unlinks those of the previous manifest that it does not write again), the
numpy version, and the name, version and current thread count of its BLAS.  One seed
drives all random draws through a counter-based generator, so re-running a config
with the same seed reproduces the CSV and summary bytes exactly.

Exit codes: 0 success, 2 config/validation error (also ``--seed`` below 0),
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import closed_loop as cl
from . import models as md
from . import riccati as rc
from . import serialize as io
from . import spectral as sp
from . import turnpike as tp
from .spectral import DomainError, NormScale


class ConfigError(ValueError):
    """Invalid configuration; the message names the field."""


def _require(cond: bool, field: str, msg: str):
    if not cond:
        raise ConfigError(f"{field}: {msg}")


# ---------------------------------------------------------------------------
# field parsers: each turns a raw JSON value into its resolved, JSON-shaped form

_REQUIRED = object()


class _Field(NamedTuple):
    parse: Callable  # (value, field name) -> resolved value; raises ConfigError
    default: object = _REQUIRED  # None: left out of the resolved config when absent


def _number(lo=-np.inf, hi=np.inf, *, positive=False, inf=False, default=_REQUIRED) -> _Field:
    """A finite number in [lo, hi] (or > 0), as a float; also "inf" when ``inf``."""
    def parse(v, name):
        if inf and v == "inf":
            return v
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and abs(v) <= sys.float_info.max, name,
                 "must be a finite number" + (' or "inf"' if inf else ""))
        v = float(v)
        _require(v > 0.0 if positive else lo <= v <= hi, name,
                 "must be positive" if positive else f"must lie in [{lo:g}, {hi:g}]")
        return v
    return _Field(parse, default)


def _numbers(min_len, max_len=None, *, increasing=False, default=_REQUIRED, **entry) -> _Field:
    """A list of ``_number(**entry)`` values, optionally strictly increasing."""
    item = _number(**entry).parse

    def parse(v, name):
        _require(isinstance(v, list) and min_len <= len(v) <= (max_len or len(v)), name,
                 f"must be a list of {min_len if max_len else f'at least {min_len}'} numbers")
        vs = [item(x, f"{name}[{i}]") for i, x in enumerate(v)]
        _require(not increasing or all(a < b for a, b in zip(vs, vs[1:])), name,
                 "must be strictly increasing")
        return vs
    return _Field(parse, default)


def _integer(lo: int, default=_REQUIRED) -> _Field:
    def parse(v, name):
        _require(isinstance(v, int) and not isinstance(v, bool), name, "must be an integer")
        _require(v >= lo, name, f"must be >= {lo}")
        return v
    return _Field(parse, default)


def _choice(*options) -> _Field:
    """One of ``options``; the first is the default."""
    def parse(v, name):
        _require(isinstance(v, str) and v in options, name, f"must be one of {options}")
        return v
    return _Field(parse, options[0])


def _parse_region(v, name):
    if v == "full_domain":
        return v
    _require(isinstance(v, dict) and set(v) == {"subinterval"}, name,
             'expected "full_domain" or {"subinterval": [a, b]}')
    ab = _numbers(2, 2, increasing=True, lo=0.0, hi=np.pi + 1e-12).parse
    return {"subinterval": ab(v["subinterval"], f"{name}.subinterval")}


def _parse_path(v, name):
    _require(isinstance(v, str) and v, name, "must be a nonempty string")
    return v


_REGION = _Field(_parse_region, "full_domain")
_POSITIVE = _number(positive=True)
_MAYBE_POSITIVE = _number(positive=True, default=None)


# model kind -> {key: field}; the keys are the keyword arguments of the builder
MODEL_FIELDS = {
    "synthetic": {"rho": _number(positive=True, inf=True),
                  "eta": _number(positive=True, inf=True),
                  "n_modes": _integer(1)},
    "synthetic_exponential": {"alpha_control": _number(0.0), "alpha_obs": _number(0.0),
                              "n_modes": _integer(1)},
    "interval": {"n_modes": _integer(1), "control": _REGION, "observation": _REGION},
    "star": {"lengths": _numbers(2, positive=True), "controlled_edge": _integer(0),
             "observed_edge": _integer(0), "lambda_max": _POSITIVE},
    "rectangle": {"a": _number(0.0), "b": _number(hi=np.pi + 1e-12),
                  "max_frequency": _POSITIVE},
}
# model kind -> name of its builder in ``models`` (looked up at call time)
_BUILDERS = {"synthetic": "build_synthetic", "synthetic_exponential": "build_synthetic_exponential",
             "interval": "build_interval_wave", "star": "build_star_network",
             "rectangle": "build_rectangle"}

_DECAY_FIELDS = {"horizon": _POSITIVE, "dt": _MAYBE_POSITIVE,
                 "window": _numbers(2, 2, increasing=True, default=None),
                 "tail_exponent": _MAYBE_POSITIVE, "smoothness_k": _MAYBE_POSITIVE,
                 "s": _MAYBE_POSITIVE, "signs": _choice("random", "alternating")}
EXPERIMENT_FIELDS = {
    "observability": {"horizon": _POSITIVE, "shells": _numbers(3, increasing=True, positive=True),
                      "side": _choice("control", "observation")},
    "bounds": {"n_random": _integer(1, default=100)},
    "decay_collocated": _DECAY_FIELDS,
    "decay_riccati": _DECAY_FIELDS,
    "null_control": {"t0": _POSITIVE, "n_draws": _integer(1, default=1),
                     "tail_exponent": _number(positive=True, default=1.6)},
    "turnpike": {"horizons": _numbers(2, increasing=True, positive=True),
                 "tail_exponent": _number(positive=True, default=2.5),
                 "z_tail": _number(positive=True, default=2.0),
                 "k": _number(positive=True, default=1.0),
                 "ktilde": _number(positive=True, default=1.0),
                 "dt_record": _MAYBE_POSITIVE},
}
MODEL_KINDS = tuple(MODEL_FIELDS)
EXPERIMENT_KINDS = tuple(EXPERIMENT_FIELDS)


def _check_star(m):
    for key in ("controlled_edge", "observed_edge"):
        _require(m[key] < len(m["lengths"]), f"model.{key}", "must be < the number of edges")


def _decay_tail(e):
    # the initial data's tail exponent: given, else the planted-rate tail
    # (s + 1)/2, else class-critical data smoothness_k + 0.6, else 1.6
    if "tail_exponent" not in e:
        e["tail_exponent"] = ((e["s"] + 1.0) / 2.0 if "s" in e
                              else e["smoothness_k"] + 0.5 + 0.1 if "smoothness_k" in e
                              else 1.6)


# kind -> rule over several keys of a resolved section (checks, or fills in a value)
_CROSS_FIELD = {"star": _check_star,
                "rectangle": lambda m: _require(m["a"] < m["b"], "model.a",
                                               "a < b required, see model.b"),
                "decay_collocated": _decay_tail, "decay_riccati": _decay_tail}


def _resolve(section: dict, prefix: str, fields: dict) -> dict:
    for key in section:
        _require(key in fields, f"{prefix}{key}", "unknown key")
    out = {}
    for key, field in fields.items():
        if key in section:
            out[key] = field.parse(section[key], prefix + key)
        else:
            _require(field.default is not _REQUIRED, prefix + key, "required")
            if field.default is not None:
                out[key] = field.default
    return out


def _kind_section(tables: dict) -> _Field:
    """A section whose ``kind`` picks its table of fields."""
    def parse(v, name):
        _require(isinstance(v, dict), name, "must be an object")
        kind = v.get("kind")
        _require(isinstance(kind, str) and kind in tables, f"{name}.kind",
                 f"must be one of {tuple(tables)}")
        out = _resolve(v, f"{name}.", {"kind": _choice(kind), **tables[kind]})
        if kind in _CROSS_FIELD:
            _CROSS_FIELD[kind](out)
        return out
    return _Field(parse)


_CONFIG_FIELDS = {"model": _kind_section(MODEL_FIELDS),
                  "experiment": _kind_section(EXPERIMENT_FIELDS),
                  "seed": _integer(0, default=0),
                  "output_dir": _Field(_parse_path, "out")}


def validate_config(cfg: dict) -> dict:
    """The resolved config: defaults filled in, numbers as floats; raises ConfigError.

    The input is not modified, and a resolved config resolves to itself.
    """
    _require(isinstance(cfg, dict), "config", "must be a JSON object")
    return _resolve(cfg, "", _CONFIG_FIELDS)


def _builder_arg(v):
    """A resolved model value as its builder takes it."""
    if v == "inf":
        return np.inf
    if isinstance(v, dict):
        return ("subinterval", *v["subinterval"])
    return v


def build_model(model: dict) -> md.SpectralSystem:
    """Resolve a model section and build it with the ``models`` builder of its kind."""
    fields = _CONFIG_FIELDS["model"].parse(model, "model")
    builder = getattr(md, _BUILDERS[fields.pop("kind")])
    return builder(**{key: _builder_arg(v) for key, v in fields.items()})


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _scale_payload(scale: NormScale) -> dict:
    return {"kind": scale.kind, "param": scale.param}


# ---------------------------------------------------------------------------
# experiment runners (each takes a resolved experiment section, returns a
# summary dict and writes CSVs)


def _run_observability(system, exp, outdir, rng):
    side = exp["side"]
    report = md.fit_weak_observability(system, exp["horizon"], exp["shells"],
                                       use_control=(side == "control"))
    io.observability_to_csv(report, os.path.join(outdir, "observability.csv"))
    return {
        "experiment": "observability",
        "side": side,
        "fitted_exponent": report.fitted_exponent,
        "rho_hat": "inf" if np.isinf(report.rho_hat) else report.rho_hat,
        "fit_r2": report.fit_r2,
        "shell_edges": [float(v) for v in report.shell_edges],
        "shell_constants": [float(v) for v in report.shell_constants],
        "warnings": report.warnings,
    }, ["observability.csv"]


def _default_scales(system):
    weak = NormScale.graded(-1.0 / system.eta) if system.eta not in (None, np.inf) \
        else NormScale.energy()
    strong = NormScale.graded(1.0 / system.rho) if system.rho not in (None, np.inf) \
        else NormScale.energy()
    return weak, strong


def _run_bounds(system, exp, outdir, rng):
    # exp["n_random"] is still validated but no longer read: the constants are exact
    sol = rc.solve_are(system)
    weak, strong = _default_scales(system)
    report = rc.bounds_report(sol, system, weak, strong)
    io.save_riccati(sol, os.path.join(outdir, "riccati.json"))
    return {
        "experiment": "bounds",
        "c1_hat": report.c1_hat,
        "c2_hat": report.c2_hat,
        "weak_scale": _scale_payload(weak),
        "strong_scale": _scale_payload(strong),
        "are_residual": sol.residual,
        "are_backward_error": sol.backward_error,
        "are_method": sol.method,
    }, ["riccati.json"]


def _run_decay(system, exp, outdir, rng, riccati: bool):
    x0 = cl.smooth_initial_state(system.lambdas, exp["tail_exponent"], rng=rng,
                                 signs=exp["signs"]).to_vector()
    horizon = exp["horizon"]
    dt = exp.get("dt")  # None: the simulator's own step
    if riccati:
        traj = cl.simulate_riccati_feedback(system, rc.solve_are(system), x0, horizon, dt=dt)
    else:
        traj = cl.simulate_collocated(system, x0, horizon, dt=dt)
    window = tuple(exp["window"]) if "window" in exp else cl.default_decay_window(traj)
    fit = cl.fit_decay(traj, window)
    io.trajectory_to_csv(traj, os.path.join(outdir, "trajectory.csv"))
    summary = {
        "experiment": "decay_riccati" if riccati else "decay_collocated",
        "fitted_exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "fit_r2": fit.r2,
        "window": [float(window[0]), float(window[1])],
        "n_fit_samples": fit.n_samples,
        "energy_identity_defect": cl.energy_identity_defect(traj),
        "n_modes": system.n_modes,
    }
    io.write_json(os.path.join(outdir, "fit.json"), summary)
    return summary, ["trajectory.csv", "fit.json"]


def _run_null_control(system, exp, outdir, rng):
    t0, n_draws = exp["t0"], exp["n_draws"]
    strong = _default_scales(system)[1]
    x0s = np.array([cl.smooth_initial_state(system.lambdas, exp["tail_exponent"], rng=rng)
                    .to_vector() for _ in range(n_draws)])
    hums = cl.hum_null_control(system, x0s, t0)
    first = hums[0]
    costs = np.array([hum.cost for hum in hums])
    residuals = [hum.terminal_residual for hum in hums]
    ratios_strong = costs / sp.energy_norm_squared(x0s, system.lambdas, strong)
    ratios_h = costs / sp.energy_norm_squared(x0s, system.lambdas, NormScale.energy())
    io.controls_to_csv(first.times, first.controls, os.path.join(outdir, "control.csv"))
    return {
        "experiment": "null_control",
        "t0": t0,
        "n_draws": n_draws,
        "gramian_condition": first.gramian_condition,
        "certified": first.certified,
        "costs": costs.tolist(),
        "terminal_residuals": residuals,
        "cost_over_strong_norm": ratios_strong.tolist(),
        "cost_over_energy_norm": ratios_h.tolist(),
        "strong_scale": _scale_payload(strong),
    }, ["control.csv"]


def _run_turnpike(system, exp, outdir, rng):
    horizons, k, ktilde = exp["horizons"], exp["k"], exp["ktilde"]
    dt_record = exp.get("dt_record")  # None: the tracking solver's own grid
    x0 = cl.smooth_initial_state(system.lambdas, exp["tail_exponent"], rng=rng).to_vector()
    signs = rng.choice([-1.0, 1.0], size=system.n_modes)
    z = system.lambdas ** (-exp["z_tail"]) * signs
    stationary = tp.solve_stationary(system, z)
    are = rc.solve_are(system)
    # the last horizon's integrals come with its sweep, the others from their boundary values
    last = tp.solve_tracking(system, z, x0, horizons[-1], stationary=stationary,
                             dt_record=dt_record, are=are)
    integrals = tp.tracking_integrals(system, z, x0, horizons[:-1], stationary=stationary,
                                      dt_record=dt_record, are=are)

    report = tp.averaged_metrics(integrals + [last], stationary, k=k, ktilde=ktilde)
    io.turnpike_to_csv(report, os.path.join(outdir, "turnpike.csv"))
    io.trajectory_to_csv(last.trajectory, os.path.join(outdir, "trajectory.csv"))

    def rate(values):  # the slope of log(values) against log(T); None unless all are positive
        return float(md.fit_line(np.log(report.horizons), np.log(values))[0]) if np.all(values > 0.0) else None
    return {
        "experiment": "turnpike",
        "horizons": horizons,
        "avg_tracking": [float(v) for v in report.avg_tracking],
        "avg_state_gap": [float(v) for v in report.avg_state_gap],
        "bound_proxy": [float(v) for v in report.bound_values],
        "avg_tracking_rate": rate(report.avg_tracking),
        "avg_state_gap_rate": rate(report.avg_state_gap),
        "stationary_residual": stationary.optimality_residual,
        "os_residual_last_run": tp.tracking_os_residual(last),
        "cost_identity_rel_defect_last_run": abs(last.cost_quadrature - last.value_formula_cost)
        / max(last.cost_quadrature, 1e-300),
        "k": k,
        "ktilde": ktilde,
    }, ["turnpike.csv", "trajectory.csv"]


# experiment kind -> runner(system, exp, outdir, rng) -> (summary, files)
_RUNNERS = {
    "observability": _run_observability,
    "bounds": _run_bounds,
    "decay_collocated": functools.partial(_run_decay, riccati=False),
    "decay_riccati": functools.partial(_run_decay, riccati=True),
    "null_control": _run_null_control,
    "turnpike": _run_turnpike,
}


def run_experiment(cfg: dict, outdir: str, seed: int, threads: int, quiet: bool) -> dict:
    """Execute the configured experiment; returns the summary dict.

    ``cfg`` may be raw or resolved; the manifest hashes it as given.
    ``threads`` is ignored (every run is sequential); callers still pass it positionally.
    """
    t_start = time.time()
    resolved = validate_config(cfg)
    os.makedirs(outdir, exist_ok=True)
    system = build_model(resolved["model"])
    exp = resolved["experiment"]
    rng = _rng(seed)

    kind = exp["kind"]
    summary, files = _RUNNERS[kind](system, exp, outdir, rng)

    summary["model_label"] = system.label
    summary["n_modes"] = system.n_modes
    summary["seed"] = seed
    io.write_json(os.path.join(outdir, "summary.json"), summary)
    files = files + ["summary.json"]
    _unlink_stale_outputs(outdir, files)

    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "library_version": __version__,
        "seed": seed,
        "wall_time_s": time.time() - t_start,
        "files": {name: _sha256_file(os.path.join(outdir, name)) for name in files},
        "numpy": np.__version__,
        "blas": _blas_facts(),
    }
    io.write_json(os.path.join(outdir, "manifest.json"), manifest)
    if not quiet:
        print(f"[wavelq] {kind} on {system.label}: wrote {', '.join(files)} to {outdir}")
    return summary


def _blas_facts() -> dict:
    """Name and version of numpy's BLAS build, and the thread count its OpenBLAS runs now.

    The last bits of some outputs depend on the thread count.  Each entry is
    None where it cannot be read.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    get_threads = _openblas_thread_getter()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": get_threads() if get_threads else None}


@functools.cache
def _openblas_thread_getter():
    """The ``*openblas_get_num_threads*`` function of the OpenBLAS bundled with numpy, or None."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def _unlink_stale_outputs(outdir: str, files: list):
    """Unlink the plain file names of the previous manifest that ``files`` lacks, if it parses."""
    try:
        with open(os.path.join(outdir, "manifest.json")) as f:
            listed = json.load(f)["files"].keys()
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return
    for name in listed:
        if name in files or name in ("", ".", "..") or "/" in name or "\0" in name:
            continue
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.unlink(os.path.join(outdir, name))


def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except ValueError as e:  # undecodable bytes, integers beyond the conversion limit
        raise ConfigError(f"config: invalid JSON: {e}")


_SUBCOMMAND_KINDS = {
    "observability": ("observability",),
    "bounds": ("bounds",),
    "decay": ("decay_collocated", "decay_riccati"),
    "null-control": ("null_control",),
    "turnpike": ("turnpike",),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavelq",
        description="Spectral-truncation LQ experiments: observability, Riccati "
                    "bounds, decay rates, null control, and turnpike metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", *_SUBCOMMAND_KINDS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--output", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")  # exits 2

    try:
        cfg = _load_config(args.config)
        resolved = validate_config(cfg)
    except ConfigError as e:
        print(f"wavelq: config error: {e}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(resolved, sort_keys=True, indent=2))
        return 0

    kind = resolved["experiment"]["kind"]
    if args.command != "run" and kind not in _SUBCOMMAND_KINDS[args.command]:
        print(f"wavelq: config error: experiment.kind: '{kind}' does not match subcommand "
              f"'{args.command}' (expects one of {_SUBCOMMAND_KINDS[args.command]})",
              file=sys.stderr)
        return 2

    outdir = args.output if args.output is not None else resolved["output_dir"]
    seed = args.seed if args.seed is not None else resolved["seed"]

    try:
        run_experiment(cfg, outdir, seed, 1, args.quiet)
    except (DomainError, ConfigError) as e:
        print(f"wavelq: config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # numeric failure: partial outputs stay in outdir
        print(f"wavelq: numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
