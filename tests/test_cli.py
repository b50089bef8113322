import contextlib
import errno
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavelq
from wavelq.cli import (ConfigError, EXPERIMENT_FIELDS, MODEL_FIELDS, main, run_experiment,
                        validate_config)
from wavelq.serialize import OutputError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _exit_code(argv):
    """main's exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def _tiny_decay_cfg(outdir):
    return {
        "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 8},
        "experiment": {"kind": "decay_riccati", "horizon": 10.0,
                       "window": [1.0, 8.0], "tail_exponent": 1.0},
        "seed": 5,
        "output_dir": str(outdir),
    }


class TestValidation:
    def test_all_shipped_configs_validate(self, capsys):
        configs = sorted(CONFIG_DIR.glob("*.json"))
        assert configs, "no shipped configs found"
        for cfg in configs:
            assert main(["validate", "--config", str(cfg)]) == 0

    def test_rectangle_strip_order_rejected(self, tmp_path, capsys):
        cfg = {"model": {"kind": "rectangle", "a": 2.0, "b": 1.0, "max_frequency": 8.0},
               "experiment": {"kind": "bounds"}}
        code = main(["run", "--config", _write(tmp_path, cfg)])
        assert code == 2
        assert "model.a" in capsys.readouterr().err
        assert "a < b required" in str(pytest.raises(ConfigError, validate_config, cfg).value)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _tiny_decay_cfg(tmp_path / "o")
        cfg["model"]["bogus"] = 1
        assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err
        # solve_are picks its own iteration: the ARE has no method key
        cfg["model"].pop("bogus")
        cfg["experiment"] = {"kind": "bounds", "method": "dre_limit"}
        assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
        assert "experiment.method: unknown key" in capsys.readouterr().err
        # the synthetic families run on lambda_n = n: there is no spectrum key
        cfg["experiment"].pop("method")
        cfg["model"]["spectrum"] = "linear"
        assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
        assert "model.spectrum: unknown key" in capsys.readouterr().err
        # a decay run's tail exponent is tail_exponent or smoothness_k: there is no s key
        cfg["model"].pop("spectrum")
        cfg["experiment"] = dict(_tiny_decay_cfg(tmp_path)["experiment"], s=1.0)
        assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
        assert "experiment.s: unknown key" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'single': quotes\n}")
        assert main(["run", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("override, flags, field", [
        ({"model": {"kind": "interval", "n_modes": 4,
                    "control": {"subinterval": ["x", 1.0]}}}, [], "model.control.subinterval"),
        ({"experiment": {"kind": "observability", "horizon": 5.0,
                         "shells": ["a", "b", "c"]}}, [], "experiment.shells"),
        ({"experiment": {"kind": "observability", "horizon": 5.0,
                         "shells": [1.0, 1.0, 1.0]}}, [], "experiment.shells"),
        ({"model": {"kind": "synthetic_exponential", "alpha_control": float("nan"),
                    "alpha_obs": 0.1, "n_modes": 4}}, [], "model.alpha_control"),
        ({"model": {"kind": "synthetic_exponential", "alpha_control": -1.0,
                    "alpha_obs": 0.1, "n_modes": 4}}, [], "model.alpha_control"),
        ({"experiment": {"kind": "decay_riccati", "horizon": 10.0,
                         "window": ["a", 8.0]}}, [], "experiment.window"),
        ({"model": {"kind": "star", "lengths": [float("inf"), 1.0], "controlled_edge": 0,
                    "observed_edge": 1, "lambda_max": 6.0}}, [], "model.lengths"),
        ({"model": {"kind": "star", "lengths": [True, 2.0], "controlled_edge": 0,
                    "observed_edge": 1, "lambda_max": 6.0}}, [], "model.lengths"),
        ({"model": {"kind": "star", "lengths": [1.0, 2.0], "controlled_edge": 0,
                    "observed_edge": 1, "lambda_max": 1.0}}, [], "lambda_max"),
        ({"experiment": {"kind": "turnpike", "horizons": [1.0, float("inf")]}}, [],
         "experiment.horizons"),
        ({"experiment": {"kind": "turnpike", "horizons": [True, 2.0]}}, [],
         "experiment.horizons"),
        ({}, ["--seed", "-1"], "--seed"),
        # runs are sequential: there is no such flag, whatever its value
        ({}, ["--threads", "2"], "--threads"),
        ({}, ["--threads", "0"], "--threads"),
    ], ids=["subinterval-not-number", "shells-not-numbers", "repeated-shells", "nan-alpha",
            "negative-alpha", "window-not-number", "star-inf-length", "star-bool-length",
            "star-without-modes", "inf-horizon", "bool-horizon", "negative-seed", "two-threads",
            "zero-threads"])
    def test_contract_holes_exit_2_naming_the_field(self, tmp_path, capsys, override, flags,
                                                    field):
        cfg = dict(_tiny_decay_cfg(tmp_path / "o"), **override)
        argv = ["run", "--config", _write(tmp_path, cfg), "--quiet", *flags]
        assert _exit_code(argv) == 2
        assert field in capsys.readouterr().err

    def test_validate_prints_the_resolved_config(self, tmp_path, capsys):
        cfg = {"model": {"kind": "synthetic", "rho": 2, "eta": "inf", "n_modes": 8},
               "experiment": {"kind": "bounds"}}
        assert main(["validate", "--config", _write(tmp_path, cfg)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == validate_config(cfg)
        assert printed["model"]["rho"] == 2.0 and isinstance(printed["model"]["rho"], float)
        assert printed["experiment"] == {"kind": "bounds", "n_random": 100}
        assert (printed["seed"], printed["output_dir"]) == (0, "out")

    @pytest.mark.parametrize("given, tail", [
        ({"tail_exponent": 2.0}, 2.0),
        ({"smoothness_k": 1.0}, 1.0 + 0.5 + 0.1),
        ({}, 1.6),
        ({"tail_exponent": 2.0, "smoothness_k": 1.0}, 2.0),
    ], ids=["tail_exponent", "smoothness_k", "neither", "both"])
    def test_decay_tail_exponent_resolves(self, given, tail):
        for kind in ("decay_collocated", "decay_riccati"):
            cfg = {"model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 8},
                   "experiment": {"kind": kind, "horizon": 10.0, **given}}
            assert validate_config(cfg)["experiment"]["tail_exponent"] == tail

    def test_subcommand_kind_mismatch(self, tmp_path, capsys):
        cfg = _tiny_decay_cfg(tmp_path / "o")
        assert main(["turnpike", "--config", _write(tmp_path, cfg)]) == 2


class TestRun:
    def test_decay_smoke_produces_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = _tiny_decay_cfg(out)
        assert main(["run", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        for name in ("trajectory.csv", "fit.json", "summary.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert set(manifest["files"]) == {"trajectory.csv", "fit.json", "summary.json"}
        # the BLAS facts the last bits of some outputs depend on
        assert manifest["numpy"] == np.__version__
        assert set(manifest["blas"]) == {"name", "version", "threads"}
        assert manifest["blas"]["threads"] is None or manifest["blas"]["threads"] >= 1

    def test_decay_subcommand_accepts_both_kinds(self, tmp_path):
        out = tmp_path / "out2"
        cfg = _tiny_decay_cfg(out)
        assert main(["decay", "--config", _write(tmp_path, cfg), "--quiet"]) == 0

    def test_writes_only_inside_output_dir(self, tmp_path):
        out = tmp_path / "only_here"
        cfg = _tiny_decay_cfg(out)
        cfg_path = _write(tmp_path, cfg)
        before = set(os.listdir(tmp_path))
        assert main(["run", "--config", cfg_path, "--quiet"]) == 0
        after = set(os.listdir(tmp_path))
        assert after - before == {"only_here"}

    def test_same_seed_bit_identical(self, tmp_path):
        cfg = _tiny_decay_cfg(tmp_path / "a")
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--quiet"]) == 0
        assert main(["run", "--config", path, "--output", str(tmp_path / "b"),
                     "--quiet"]) == 0
        for name in ("trajectory.csv", "summary.json", "fit.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_seed_changes_random_outputs(self, tmp_path):
        cfg = {
            "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 8},
            "experiment": {"kind": "null_control", "t0": 6.0, "n_draws": 2},
            "seed": 1,
            "output_dir": str(tmp_path / "s1"),
        }
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--quiet"]) == 0
        assert main(["run", "--config", path, "--seed", "2", "--output",
                     str(tmp_path / "s2"), "--quiet"]) == 0
        a = (tmp_path / "s1" / "control.csv").read_bytes()
        b = (tmp_path / "s2" / "control.csv").read_bytes()
        assert a != b

    def test_bounds_summary_has_positive_c1(self, tmp_path):
        out = tmp_path / "bounds"
        cfg = {
            "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 8},
            "experiment": {"kind": "bounds"},
            "seed": 3,
            "output_dir": str(out),
        }
        assert main(["bounds", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["c1_hat"] > 0.0
        assert summary["c2_hat"] < float("inf")
        assert summary["weak_scale"] == {"kind": "graded", "param": -0.5}

    def test_turnpike_row_count(self, tmp_path):
        out = tmp_path / "tp"
        cfg = {
            "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 4},
            "experiment": {"kind": "turnpike", "horizons": [4.0, 8.0],
                           "dt_record": 0.05},
            "seed": 4,
            "output_dir": str(out),
        }
        assert main(["turnpike", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        lines = (out / "turnpike.csv").read_text().splitlines()
        assert lines[0] == "horizon,avg_tracking,avg_state_gap,bound_proxy"
        assert len(lines) == 3

    def test_turnpike_averages_equal_those_of_one_sweep_per_horizon(self, tmp_path, monkeypatch):
        from wavelq import serialize, turnpike
        from wavelq.models import stacked_blocks
        seen, sweeps, dichotomies = {}, [], []
        closed_form, sweep, dichotomy = (turnpike.tracking_integrals, turnpike.solve_tracking,
                                         turnpike._dichotomy)

        def spy(system, z, x0, horizons, **kw):
            seen.update(system=system, z=z, x0=x0, kw=kw)
            return closed_form(system, z, x0, horizons, **kw)

        def counted(system, z, x0, horizon, **kw):
            sweeps.append(horizon)
            return sweep(system, z, x0, horizon, **kw)

        def counted_dichotomy(*args):
            dichotomies.append(args[-1])
            return dichotomy(*args)

        monkeypatch.setattr(turnpike, "tracking_integrals", spy)
        monkeypatch.setattr(turnpike, "solve_tracking", counted)
        monkeypatch.setattr(turnpike, "_dichotomy", counted_dichotomy)
        out = tmp_path / "tp"
        horizons = [3.0, 5.5, 8.0]
        cfg = {"model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 6},
               "experiment": {"kind": "turnpike", "horizons": horizons, "dt_record": 0.05},
               "seed": 11, "output_dir": str(out)}
        assert main(["turnpike", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        assert sweeps == [8.0]  # one sweep, for the last horizon's trajectory
        # each stack's dichotomy is solved once per horizon, the last one's inside the sweep
        assert len(dichotomies) == len(stacked_blocks(seen["system"].records)) * len(horizons)
        summary = json.loads((out / "summary.json").read_text())
        stationary = seen["kw"]["stationary"]
        closed = closed_form(seen["system"], seen["z"], seen["x0"], horizons, **seen["kw"])
        serialize.turnpike_to_csv(turnpike.averaged_metrics(closed, stationary, k=summary["k"],
                                                            ktilde=summary["ktilde"]),
                                  tmp_path / "closed.csv")
        assert (out / "turnpike.csv").read_bytes() == (tmp_path / "closed.csv").read_bytes()
        runs = [sweep(seen["system"], seen["z"], seen["x0"], T, **seen["kw"]) for T in horizons]
        report = turnpike.averaged_metrics(runs, stationary)
        for name in ("avg_tracking", "avg_state_gap"):
            np.testing.assert_allclose(summary[name], getattr(report, name), rtol=1e-12, atol=0.0)
        assert summary["os_residual_last_run"] == turnpike.tracking_os_residual(runs[-1])
        serialize.trajectory_to_csv(runs[-1].trajectory, tmp_path / "swept.csv")
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "swept.csv").read_bytes()

    def test_observability_run(self, tmp_path):
        out = tmp_path / "obs"
        cfg = {
            "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 64},
            "experiment": {"kind": "observability", "horizon": 15.0,
                           "shells": [4.0, 8.0, 16.0]},
            "seed": 5,
            "output_dir": str(out),
        }
        assert main(["observability", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["rho_hat"] - 2.0) <= 0.3


    def test_rerun_into_the_same_directory_writes_the_same_bytes(self, tmp_path):
        cfg = {"model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 4},
               "experiment": {"kind": "turnpike", "horizons": [3.0, 6.0], "dt_record": 0.05},
               "seed": 7}
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            run_experiment(cfg, str(out), 7, 1, True)
            manifest = json.loads((out / "manifest.json").read_text())
            written = {name: (out / name).read_bytes() for name in manifest["files"]}
            assert manifest["files"] == {name: hashlib.sha256(data).hexdigest()
                                         for name, data in written.items()}
            runs.append(written)
        assert runs[0] == runs[1]
        assert sorted(os.listdir(out)) == sorted([*runs[0], "manifest.json"])

    def test_a_run_unlinks_what_the_previous_manifest_listed_and_it_did_not_write(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("not listed")
        decay = _tiny_decay_cfg(out)
        run_experiment(decay, str(out), 5, 1, True)
        run_experiment({**decay, "experiment": {"kind": "bounds", "n_random": 5}},
                       str(out), 5, 1, True)
        assert sorted(os.listdir(out)) == ["manifest.json", "notes.txt", "riccati.json",
                                           "summary.json"]

    @pytest.mark.parametrize("manifest", [
        '{"files": {"../outside.txt": "", "": "", ".": "", "..": "", "sub": "", "gone.csv": ""}}',
        '{"files": ["../outside.txt"]}', '["../outside.txt"]', '{"files": 3}', "not json"])
    def test_a_foreign_or_malformed_manifest_unlinks_no_other_path(self, tmp_path, manifest):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "manifest.json").write_text(manifest)
        (tmp_path / "outside.txt").write_text("kept")
        run_experiment(_tiny_decay_cfg(out), str(out), 5, 1, True)
        assert (tmp_path / "outside.txt").read_text() == "kept"
        assert sorted(os.listdir(out)) == ["fit.json", "manifest.json", "sub", "summary.json",
                                           "trajectory.csv"]

    def test_a_fifo_is_never_unlinked(self, tmp_path):
        # a stale FIFO the previous manifest lists is left in place; one at an output path
        # stops the run with an OutputError naming it, and stays
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "old.csv")
        (out / "manifest.json").write_text('{"files": {"old.csv": ""}}')
        run_experiment(_tiny_decay_cfg(out), str(out), 5, 1, True)
        assert stat.S_ISFIFO(os.lstat(out / "old.csv").st_mode)
        assert "old.csv" not in json.loads((out / "manifest.json").read_text())["files"]

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        os.mkfifo(fresh / "trajectory.csv")
        with pytest.raises(OutputError, match=re.escape(str(fresh / "trajectory.csv"))) as refused:
            run_experiment(_tiny_decay_cfg(fresh), str(fresh), 5, 1, True)
        assert refused.value.errno == errno.EEXIST
        assert stat.S_ISFIFO(os.lstat(fresh / "trajectory.csv").st_mode)

    def test_turnpike_without_a_stabilizing_are_solution_runs(self, tmp_path, capsys):
        # three equal edges with control and observation on one: the modes that
        # vanish on that edge leave no stabilizing ARE solution; solve_are splits
        # them off with the minimal solution 0, and tracking runs through it
        cfg = {
            "model": {"kind": "star", "lengths": [1.0, 1.0, 1.0], "controlled_edge": 0,
                      "observed_edge": 0, "lambda_max": 8.0},
            "experiment": {"kind": "turnpike", "horizons": [5.0, 10.0]},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["run", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["os_residual_last_run"] <= 1e-6


class TestFailurePaths:
    def test_directory_at_an_output_path_exits_4(self, tmp_path, capsys):
        cfg = _tiny_decay_cfg(tmp_path / "out")
        (tmp_path / "out" / "summary.json").mkdir(parents=True)
        assert main(["run", "--config", _write(tmp_path, cfg), "--quiet"]) == 4
        assert capsys.readouterr().err.startswith(
            f"wavelq: output error: {tmp_path / 'out' / 'summary.json'}: ")
        assert (tmp_path / "out" / "summary.json").is_dir()

    def test_fifo_at_an_output_path_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "trajectory.csv")
        assert main(["run", "--config", _write(tmp_path, _tiny_decay_cfg(out)), "--quiet"]) == 4
        assert capsys.readouterr().err == (f"wavelq: output error: {out / 'trajectory.csv'}: "
                                           "not a regular file or a symlink, left in place\n")
        assert stat.S_ISFIFO(os.lstat(out / "trajectory.csv").st_mode)

    def test_output_naming_a_regular_file_exits_4(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg = _write(tmp_path, _tiny_decay_cfg(tmp_path / "out"))
        for output in (taken, taken / "sub"):
            assert main(["run", "--config", cfg, "--output", str(output), "--quiet"]) == 4
            assert capsys.readouterr().err.startswith(f"wavelq: output error: {output}: ")
        assert taken.read_text() == "kept\n"

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # uncontrolled costly modes (star with rationally related uncontrolled
        # edges) make the ARE infeasible: numeric failure, not config error
        cfg = {
            "model": {"kind": "star", "lengths": [1.0, 3.141592653589793,
                                                  6.283185307179586],
                      "controlled_edge": 0, "observed_edge": 1, "lambda_max": 12.0},
            "experiment": {"kind": "bounds"},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["run", "--config", _write(tmp_path, cfg), "--quiet"]) == 3
        assert "numeric failure" in capsys.readouterr().err


def test_raw_and_resolved_configs_write_the_same_bytes(tmp_path):
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        raw, resolved = tmp_path / path.stem / "raw", tmp_path / path.stem / "resolved"
        run_experiment(cfg, str(raw), cfg["seed"], 1, True)
        run_experiment(validate_config(cfg), str(resolved), cfg["seed"], 1, True)
        for out in raw.iterdir():
            if out.suffix == ".csv" or out.name == "summary.json":
                assert out.read_bytes() == (resolved / out.name).read_bytes(), out


# The CLI contract over every config field: one small valid config per model kind
# and per experiment kind (at most 8 modes), with one field replaced.
MODELS = {
    "synthetic": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 4},
    "synthetic_exponential": {"kind": "synthetic_exponential", "alpha_control": 0.1,
                              "alpha_obs": 0.1, "n_modes": 4},
    "interval": {"kind": "interval", "n_modes": 4, "control": {"subinterval": [0.4, 1.9]},
                 "observation": "full_domain"},
    "star": {"kind": "star", "lengths": [1.0, 1.3], "controlled_edge": 0,
             "observed_edge": 1, "lambda_max": 6.0},
    "rectangle": {"kind": "rectangle", "a": 1.0, "b": 2.0, "max_frequency": 3.0},
}
EXPERIMENTS = {
    "observability": {"kind": "observability", "horizon": 8.0, "shells": [1.0, 2.0, 4.0],
                      "side": "control"},
    "bounds": {"kind": "bounds", "n_random": 3},
    "decay_collocated": {"kind": "decay_collocated", "horizon": 6.0, "dt": 0.05,
                         "window": [1.0, 5.0], "tail_exponent": 1.0, "signs": "random"},
    "decay_riccati": {"kind": "decay_riccati", "horizon": 6.0, "dt": 0.05,
                      "window": [1.0, 5.0], "smoothness_k": 1.0},
    "null_control": {"kind": "null_control", "t0": 7.0, "n_draws": 1, "tail_exponent": 1.6},
    "turnpike": {"kind": "turnpike", "horizons": [2.0, 4.0], "tail_exponent": 2.5,
                 "z_tail": 2.0, "k": 1.0, "ktilde": 1.0, "dt_record": 0.1},
}
MODEL_BASES = {kind: {"model": m, "experiment": EXPERIMENTS["bounds"]}
               for kind, m in MODELS.items()}
EXPERIMENT_BASES = {kind: {"model": MODELS["synthetic"], "experiment": e}
                    for kind, e in EXPERIMENTS.items()}
# (base config, section or None for the top level, key to replace): every declared key
TARGETS = ([(MODEL_BASES["synthetic"], None, key) for key in ("seed", "output_dir")]
           + [(base, "model", key) for kind, base in MODEL_BASES.items()
              for key in ("kind", *MODEL_FIELDS[kind])]
           + [(base, "experiment", key) for kind, base in EXPERIMENT_BASES.items()
              for key in ("kind", *EXPERIMENT_FIELDS[kind])])
# values that no field accepts, but "inf" for rho and eta and strings for output_dir
BAD_VALUES = [None, True, False, float("inf"), float("-inf"), float("nan"), "inf", "x", [],
              {"subinterval": [2.0, 1.0]}, {"subinterval": [-1.0, 1.0]},
              {"subinterval": [0.5]}, {"subinterval": "x"}]
BAD_ENTRIES = [None, True, float("nan"), float("inf"), "x"]


def _always_bad(key, value):
    """Whether field ``key`` must reject ``value`` whatever the rest of the config."""
    if key == "output_dir":
        return not (isinstance(value, str) and value)
    if isinstance(value, list):
        return not value or any(isinstance(v, bool) or v != 1.0 for v in value)
    if isinstance(value, int) and not isinstance(value, bool):
        return False  # 0 and -1 are in range for some fields
    return not (value == "inf" and key in ("rho", "eta"))


def test_importing_the_cli_loads_no_oracle_only_scipy_package():
    # scipy.optimize, scipy.sparse and scipy.integrate serve only the test oracles;
    # importing them would add about 0.15 s to every run's start
    src = str(Path(wavelq.__file__).resolve().parents[1])
    code = ("import sys, wavelq.cli; print(*sorted(m for m in sys.modules if m.split('.')[:2] "
            "in (['scipy', 'optimize'], ['scipy', 'sparse'], ['scipy', 'integrate'])))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == []


def test_base_configs_run(tmp_path):
    for i, cfg in enumerate([*MODEL_BASES.values(), *EXPERIMENT_BASES.values()]):
        cfg = dict(cfg, output_dir=str(tmp_path / str(i)))
        assert main(["run", "--config", _write(tmp_path, cfg), "--quiet"]) == 0, cfg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(value=st.one_of(st.sampled_from(BAD_VALUES + [0, -1]),
                       st.lists(st.sampled_from(BAD_ENTRIES + [1.0]), max_size=4)))
def test_cli_contract_for_any_field_value(value):
    for base, section, key in TARGETS:
        cfg = json.loads(json.dumps(base))
        (cfg if section is None else cfg[section])[key] = value
        field = key if section is None else f"{section}.{key}"
        try:
            resolved = validate_config(cfg)
        except ConfigError:
            resolved = None
        assert resolved is None or not _always_bad(key, value), field
        if resolved is not None:
            assert validate_config(json.loads(json.dumps(resolved, allow_nan=False))) == resolved
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = _exit_code(["run", "--config", _write(Path(tmp), cfg), "--quiet",
                                   "--output", os.path.join(tmp, "out")])
        assert code in (0, 2, 3), field
        if resolved is None:
            assert code == 2 and field in err.getvalue(), (field, err.getvalue())
