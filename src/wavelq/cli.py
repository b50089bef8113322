"""Config-driven experiment runner.

A run is described by a single JSON config file::

    {
      "model":      {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 64},
      "experiment": {"kind": "decay_riccati", "horizon": 70.0, "window": [10.0, 32.0]},
      "seed": 1,
      "output_dir": "out"
    }

Unknown keys are rejected; validation errors name the offending field.  Every
experiment writes CSV results, a ``summary.json`` with the fitted constants
and residuals, and a ``manifest.json`` with the config hash, library version,
seed, wall time and checksums of the produced files.  One seed drives all
random draws through a counter-based generator, so re-running a config with
the same seed reproduces the CSV and summary bytes exactly.

Exit codes: 0 success, 2 config/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import closed_loop as cl
from . import models as md
from . import riccati as rc
from . import serialize as io
from . import turnpike as tp
from .spectral import DomainError, NormScale


class ConfigError(ValueError):
    """Invalid configuration; the message names the field."""


EXPERIMENT_KINDS = ("observability", "bounds", "decay_collocated", "decay_riccati",
                    "null_control", "turnpike")
MODEL_KINDS = ("synthetic", "synthetic_exponential", "interval", "star", "rectangle")


def _require(cond: bool, field: str, msg: str):
    if not cond:
        raise ConfigError(f"{field}: {msg}")


def _check_keys(section: dict, field: str, allowed: set):
    unknown = set(section) - allowed
    _require(not unknown, f"{field}.{sorted(unknown)[0]}" if unknown else field,
             "unknown key" if unknown else "")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(section, field, key, *, positive=False, allow_inf=False, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{field}.{key}: required")
    v = section[key]
    if allow_inf and v == "inf":
        return np.inf
    _require(_is_number(v) and (np.isfinite(v) or (allow_inf and v == np.inf)),
             f"{field}.{key}", "must be a finite number")
    v = float(v)
    if positive:
        _require(v > 0.0, f"{field}.{key}", "must be positive")
    return v


def _integer(section, field, key, *, minimum=1, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{field}.{key}: required")
    v = section[key]
    _require(isinstance(v, int) and not isinstance(v, bool), f"{field}.{key}",
             "must be an integer")
    _require(v >= minimum, f"{field}.{key}", f"must be >= {minimum}")
    return v


def _region(section, field, key):
    v = section.get(key, "full_domain")
    if v == "full_domain":
        return "full_domain"
    if isinstance(v, dict) and set(v) == {"subinterval"}:
        ab = v["subinterval"]
        _require(isinstance(ab, list) and len(ab) == 2 and all(map(_is_number, ab))
                 and np.all(np.isfinite(ab)), f"{field}.{key}.subinterval",
                 "must be [a, b] with finite numbers a, b")
        a, b = float(ab[0]), float(ab[1])
        _require(a < b, f"{field}.{key}.subinterval", "a < b required")
        return ("subinterval", a, b)
    raise ConfigError(f"{field}.{key}: expected 'full_domain' or {{'subinterval': [a, b]}}")


def validate_config(cfg: dict) -> dict:
    """Validate and normalize a raw config dict; raises ConfigError."""
    _require(isinstance(cfg, dict), "config", "must be a JSON object")
    _check_keys(cfg, "config", {"model", "experiment", "seed", "output_dir"})
    _require("model" in cfg, "model", "required")
    _require("experiment" in cfg, "experiment", "required")

    model = cfg["model"]
    _require(isinstance(model, dict), "model", "must be an object")
    kind = model.get("kind")
    _require(kind in MODEL_KINDS, "model.kind", f"must be one of {MODEL_KINDS}")
    if kind == "synthetic":
        _check_keys(model, "model", {"kind", "rho", "eta", "n_modes", "spectrum"})
        _number(model, "model", "rho", positive=True, allow_inf=True)
        _number(model, "model", "eta", positive=True, allow_inf=True)
        _integer(model, "model", "n_modes")
        _require(model.get("spectrum", "linear") == "linear", "model.spectrum",
                 "only 'linear' is supported in configs")
    elif kind == "synthetic_exponential":
        _check_keys(model, "model", {"kind", "alpha_control", "alpha_obs", "n_modes"})
        _number(model, "model", "alpha_control")
        _number(model, "model", "alpha_obs")
        _integer(model, "model", "n_modes")
    elif kind == "interval":
        _check_keys(model, "model", {"kind", "n_modes", "control", "observation"})
        _integer(model, "model", "n_modes")
        _region(model, "model", "control")
        _region(model, "model", "observation")
    elif kind == "star":
        _check_keys(model, "model", {"kind", "lengths", "controlled_edge",
                                     "observed_edge", "lambda_max"})
        lengths = model.get("lengths")
        _require(isinstance(lengths, list) and len(lengths) >= 2, "model.lengths",
                 "must be a list of >= 2 positive lengths")
        _require(all(isinstance(v, (int, float)) and v > 0 for v in lengths),
                 "model.lengths", "entries must be positive numbers")
        ne = len(lengths)
        ce = _integer(model, "model", "controlled_edge", minimum=0)
        oe = _integer(model, "model", "observed_edge", minimum=0)
        _require(ce < ne, "model.controlled_edge", f"must be < {ne}")
        _require(oe < ne, "model.observed_edge", f"must be < {ne}")
        _number(model, "model", "lambda_max", positive=True)
    elif kind == "rectangle":
        _check_keys(model, "model", {"kind", "a", "b", "max_frequency"})
        a = _number(model, "model", "a")
        bb = _number(model, "model", "b")
        _require(a < bb, "model.a", "a < b required")
        _require(0.0 <= a and bb <= np.pi + 1e-12, "model.a", "strip must lie in [0, pi]")
        _number(model, "model", "max_frequency", positive=True)

    exp = cfg["experiment"]
    _require(isinstance(exp, dict), "experiment", "must be an object")
    ekind = exp.get("kind")
    _require(ekind in EXPERIMENT_KINDS, "experiment.kind",
             f"must be one of {EXPERIMENT_KINDS}")
    if ekind == "observability":
        _check_keys(exp, "experiment", {"kind", "horizon", "shells", "side"})
        _number(exp, "experiment", "horizon", positive=True)
        shells = exp.get("shells")
        _require(isinstance(shells, list) and len(shells) >= 3, "experiment.shells",
                 "must be a list of >= 3 shell edges")
        _require(all(_is_number(v) and 0 < v < np.inf for v in shells), "experiment.shells",
                 "entries must be positive finite numbers")
        _require(exp.get("side", "control") in ("control", "observation"),
                 "experiment.side", "must be 'control' or 'observation'")
    elif ekind == "bounds":
        _check_keys(exp, "experiment", {"kind", "method", "n_random"})
        _require(exp.get("method", "newton_kleinman") in ("newton_kleinman", "dre_limit"),
                 "experiment.method", "must be 'newton_kleinman' or 'dre_limit'")
        _integer(exp, "experiment", "n_random", minimum=1, default=100)
    elif ekind in ("decay_collocated", "decay_riccati"):
        _check_keys(exp, "experiment", {"kind", "horizon", "dt", "window",
                                        "tail_exponent", "smoothness_k", "s", "signs"})
        _number(exp, "experiment", "horizon", positive=True)
        for key in ("dt", "tail_exponent", "smoothness_k", "s"):
            if key in exp:
                _number(exp, "experiment", key, positive=True)
        if "window" in exp:
            w = exp["window"]
            _require(isinstance(w, list) and len(w) == 2 and all(map(_is_number, w))
                     and w[0] < w[1],
                     "experiment.window", "must be [t_start, t_end] with t_start < t_end")
        _require(exp.get("signs", "random") in ("random", "alternating"),
                 "experiment.signs", "must be 'random' or 'alternating'")
    elif ekind == "null_control":
        _check_keys(exp, "experiment", {"kind", "t0", "n_draws", "tail_exponent"})
        _number(exp, "experiment", "t0", positive=True)
        _integer(exp, "experiment", "n_draws", minimum=1, default=1)
        if "tail_exponent" in exp:
            _number(exp, "experiment", "tail_exponent", positive=True)
    elif ekind == "turnpike":
        _check_keys(exp, "experiment", {"kind", "horizons", "tail_exponent", "z_tail",
                                        "k", "ktilde", "dt_record"})
        for key in ("tail_exponent", "z_tail", "k", "ktilde", "dt_record"):
            if key in exp:
                _number(exp, "experiment", key, positive=True)
        hs = exp.get("horizons")
        _require(isinstance(hs, list) and len(hs) >= 2, "experiment.horizons",
                 "must be a list of >= 2 horizons")
        _require(all(isinstance(v, (int, float)) and v > 0 for v in hs),
                 "experiment.horizons", "entries must be positive")
        _require(all(hs[i] < hs[i + 1] for i in range(len(hs) - 1)),
                 "experiment.horizons", "must be strictly increasing")

    seed = cfg.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "seed", "must be a nonnegative integer")
    out = cfg.get("output_dir", "out")
    _require(isinstance(out, str) and out, "output_dir", "must be a nonempty string")
    return cfg


def build_model(model: dict) -> md.SpectralSystem:
    kind = model["kind"]
    if kind == "synthetic":
        rho = np.inf if model["rho"] == "inf" else float(model["rho"])
        eta = np.inf if model["eta"] == "inf" else float(model["eta"])
        return md.build_synthetic(rho, eta, model["n_modes"])
    if kind == "synthetic_exponential":
        return md.build_synthetic_exponential(float(model["alpha_control"]),
                                              float(model["alpha_obs"]), model["n_modes"])
    if kind == "interval":
        return md.build_interval_wave(model["n_modes"],
                                      control=_region(model, "model", "control"),
                                      observation=_region(model, "model", "observation"))
    if kind == "star":
        return md.build_star_network(model["lengths"], model["controlled_edge"],
                                     model["observed_edge"], float(model["lambda_max"]))
    if kind == "rectangle":
        return md.build_rectangle(float(model["a"]), float(model["b"]),
                                  float(model["max_frequency"]))
    raise ConfigError(f"model.kind: unhandled kind {kind!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _draw_state(system, exp, rng) -> np.ndarray:
    if "tail_exponent" in exp:
        tail = float(exp["tail_exponent"])
    elif "s" in exp:
        tail = (float(exp["s"]) + 1.0) / 2.0
    elif "smoothness_k" in exp:
        tail = float(exp["smoothness_k"]) + 0.5 + 0.1
    else:
        tail = 1.6
    return cl.smooth_initial_state(system.lambdas, tail, rng=rng,
                                   signs=exp.get("signs", "random")).to_vector()


def _scale_payload(scale: NormScale) -> dict:
    return {"kind": scale.kind, "param": scale.param}


# ---------------------------------------------------------------------------
# experiment runners (each returns a summary dict and writes CSVs)


def _run_observability(system, exp, outdir, rng, threads):
    side = exp.get("side", "control")
    report = md.fit_weak_observability(system, float(exp["horizon"]), exp["shells"],
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


def _run_bounds(system, exp, outdir, rng, threads):
    sol = rc.solve_are(system, method=exp.get("method", "newton_kleinman"))
    weak, strong = _default_scales(system)
    report = rc.bounds_report(sol, system, weak, strong,
                              n_random=exp.get("n_random", 100), rng=rng)
    io.save_riccati(sol, os.path.join(outdir, "riccati.json"))
    return {
        "experiment": "bounds",
        "c1_hat": report.c1_hat,
        "c2_hat": report.c2_hat,
        "probe_count": report.probe_count,
        "excluded_probes": report.excluded,
        "weak_scale": _scale_payload(weak),
        "strong_scale": _scale_payload(strong),
        "are_residual": sol.residual,
        "are_method": sol.method,
    }, ["riccati.json"]


def _run_decay(system, exp, outdir, rng, threads, riccati: bool):
    x0 = _draw_state(system, exp, rng)
    horizon = float(exp["horizon"])
    dt = float(exp["dt"]) if "dt" in exp else None
    if riccati:
        sol = rc.solve_are(system)
        traj = cl.simulate_riccati_feedback(system, sol, x0, horizon, dt=dt)
        A_cl = rc.closed_loop_matrix(system, sol)
    else:
        traj = cl.simulate_collocated(system, x0, horizon, dt=dt)
        A, B, _ = rc.first_order_matrices(system)
        A_cl = A - B @ B.T
    window = tuple(exp["window"]) if "window" in exp else cl.default_decay_window(A_cl, horizon)
    fit = cl.fit_decay(traj, NormScale.energy(), window)
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
    with open(os.path.join(outdir, "fit.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    return summary, ["trajectory.csv", "fit.json"]


def _run_null_control(system, exp, outdir, rng, threads):
    t0 = float(exp["t0"])
    n_draws = exp.get("n_draws", 1)
    tail = float(exp.get("tail_exponent", 1.6))
    costs, ratios_strong, ratios_h, residuals = [], [], [], []
    first = None
    from .spectral import energy_norm_squared
    strong = NormScale.graded(1.0 / system.rho) if system.rho not in (None, np.inf) \
        else NormScale.energy()
    for _ in range(n_draws):
        x0 = cl.smooth_initial_state(system.lambdas, tail, rng=rng).to_vector()
        hum = cl.hum_null_control(system, x0, t0)
        if first is None:
            first = hum
        costs.append(hum.cost)
        residuals.append(hum.terminal_residual)
        ratios_strong.append(hum.cost / energy_norm_squared(x0, system.lambdas, strong))
        ratios_h.append(hum.cost / energy_norm_squared(x0, system.lambdas, NormScale.energy()))
    io.controls_to_csv(first.times, first.controls, os.path.join(outdir, "control.csv"))
    return {
        "experiment": "null_control",
        "t0": t0,
        "n_draws": n_draws,
        "gramian_condition": first.gramian_condition,
        "certified": first.certified,
        "costs": costs,
        "terminal_residuals": residuals,
        "cost_over_strong_norm": ratios_strong,
        "cost_over_energy_norm": ratios_h,
        "strong_scale": _scale_payload(strong),
    }, ["control.csv"]


def _run_turnpike(system, exp, outdir, rng, threads: int):
    horizons = [float(h) for h in exp["horizons"]]
    tail = float(exp.get("tail_exponent", 2.5))
    z_tail = float(exp.get("z_tail", 2.0))
    k = float(exp.get("k", 1.0))
    ktilde = float(exp.get("ktilde", 1.0))
    dt_record = float(exp["dt_record"]) if "dt_record" in exp else None
    x0 = cl.smooth_initial_state(system.lambdas, tail, rng=rng).to_vector()
    signs = rng.choice([-1.0, 1.0], size=system.n_modes)
    z = system.lambdas ** (-z_tail) * signs
    stationary = tp.solve_stationary(system, z)

    def run_one(T):
        return tp.solve_tracking(system, z, x0, T, stationary=stationary,
                                 dt_record=dt_record)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run_one, horizons))
    else:
        runs = [run_one(T) for T in horizons]

    report = tp.averaged_metrics(runs, stationary, k=k, ktilde=ktilde)
    io.turnpike_to_csv(report, os.path.join(outdir, "turnpike.csv"))
    io.trajectory_to_csv(runs[-1].trajectory, os.path.join(outdir, "trajectory.csv"))
    log_h = np.log(report.horizons)
    track_rate = float(np.polyfit(log_h, np.log(report.avg_tracking), 1)[0]) \
        if np.all(report.avg_tracking > 0.0) else None
    gap_rate = float(np.polyfit(log_h, np.log(report.avg_state_gap), 1)[0]) \
        if np.all(report.avg_state_gap > 0.0) else None
    return {
        "experiment": "turnpike",
        "horizons": horizons,
        "avg_tracking": [float(v) for v in report.avg_tracking],
        "avg_state_gap": [float(v) for v in report.avg_state_gap],
        "bound_proxy": [float(v) for v in report.bound_values],
        "avg_tracking_rate": track_rate,
        "avg_state_gap_rate": gap_rate,
        "stationary_residual": stationary.optimality_residual,
        "os_residual_last_run": tp.tracking_os_residual(runs[-1]),
        "cost_identity_rel_defect_last_run": abs(runs[-1].cost_quadrature
                                                 - runs[-1].value_formula_cost)
        / max(runs[-1].cost_quadrature, 1e-300),
        "k": k,
        "ktilde": ktilde,
    }, ["turnpike.csv", "trajectory.csv"]


# experiment kind -> runner(system, exp, outdir, rng, threads) -> (summary, files)
_RUNNERS = {
    "observability": _run_observability,
    "bounds": _run_bounds,
    "decay_collocated": functools.partial(_run_decay, riccati=False),
    "decay_riccati": functools.partial(_run_decay, riccati=True),
    "null_control": _run_null_control,
    "turnpike": _run_turnpike,
}


def run_experiment(cfg: dict, outdir: str, seed: int, threads: int, quiet: bool) -> dict:
    """Execute the configured experiment; returns the summary dict."""
    t_start = time.time()
    os.makedirs(outdir, exist_ok=True)
    system = build_model(cfg["model"])
    exp = cfg["experiment"]
    rng = _rng(seed)

    kind = exp["kind"]
    summary, files = _RUNNERS[kind](system, exp, outdir, rng, threads)

    summary["model_label"] = system.label
    summary["n_modes"] = system.n_modes
    summary["seed"] = seed
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    files = files + ["summary.json"]

    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "library_version": __version__,
        "seed": seed,
        "wall_time_s": time.time() - t_start,
        "files": {name: _sha256_file(os.path.join(outdir, name)) for name in files},
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    if not quiet:
        print(f"[wavelq] {kind} on {system.label}: wrote {', '.join(files)} to {outdir}")
    return summary


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")


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
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for independent runs")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = validate_config(_load_config(args.config))
    except ConfigError as e:
        print(f"wavelq: config error: {e}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(cfg, sort_keys=True, indent=2))
        return 0

    if args.command != "run":
        allowed = _SUBCOMMAND_KINDS[args.command]
        if cfg["experiment"]["kind"] not in allowed:
            print(f"wavelq: config error: experiment.kind: "
                  f"'{cfg['experiment']['kind']}' does not match subcommand "
                  f"'{args.command}' (expects one of {allowed})", file=sys.stderr)
            return 2

    outdir = args.output if args.output is not None else cfg.get("output_dir", "out")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    env_cap = os.environ.get("WAVELQ_MAX_THREADS")
    threads = args.threads if args.threads is not None else 1
    if env_cap is not None:
        try:
            threads = min(threads, max(1, int(env_cap)))
        except ValueError:
            print(f"wavelq: config error: WAVELQ_MAX_THREADS: must be an integer, "
                  f"got {env_cap!r}", file=sys.stderr)
            return 2

    try:
        run_experiment(cfg, outdir, seed, threads, args.quiet)
    except (DomainError, ConfigError) as e:
        print(f"wavelq: config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # numeric failure: partial outputs stay in outdir
        print(f"wavelq: numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
