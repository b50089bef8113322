import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wavelq.cli import (ConfigError, EXPERIMENT_FIELDS, MODEL_FIELDS, main, run_experiment,
                        validate_config)

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

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'single': quotes\n}")
        assert main(["run", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("override, env, field", [
        ({"model": {"kind": "interval", "n_modes": 4,
                    "control": {"subinterval": ["x", 1.0]}}}, None, "model.control.subinterval"),
        ({"experiment": {"kind": "observability", "horizon": 5.0,
                         "shells": ["a", "b", "c"]}}, None, "experiment.shells"),
        ({"model": {"kind": "synthetic_exponential", "alpha_control": float("nan"),
                    "alpha_obs": 0.1, "n_modes": 4}}, None, "model.alpha_control"),
        ({"experiment": {"kind": "decay_riccati", "horizon": 10.0,
                         "window": ["a", 8.0]}}, None, "experiment.window"),
        ({}, "abc", "WAVELQ_MAX_THREADS"),
        ({"experiment": {"kind": "observability", "horizon": 5.0,
                         "shells": [1.0, 1.0, 1.0]}}, None, "experiment.shells"),
    ])
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys, monkeypatch,
                                                override, env, field):
        cfg = dict(_tiny_decay_cfg(tmp_path / "o"), **override)
        if env is not None:
            monkeypatch.setenv("WAVELQ_MAX_THREADS", env)
        assert main(["run", "--config", _write(tmp_path, cfg), "--quiet"]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("override, flags, field", [
        ({"model": {"kind": "star", "lengths": [float("inf"), 1.0], "controlled_edge": 0,
                    "observed_edge": 1, "lambda_max": 6.0}}, [], "model.lengths"),
        ({"model": {"kind": "star", "lengths": [True, 2.0], "controlled_edge": 0,
                    "observed_edge": 1, "lambda_max": 6.0}}, [], "model.lengths"),
        ({"experiment": {"kind": "turnpike", "horizons": [1.0, float("inf")]}}, [],
         "experiment.horizons"),
        ({"experiment": {"kind": "turnpike", "horizons": [True, 2.0]}}, [],
         "experiment.horizons"),
        ({"model": {"kind": "synthetic_exponential", "alpha_control": -1.0,
                    "alpha_obs": 0.1, "n_modes": 4}}, [], "model.alpha_control"),
        ({"model": {"kind": "star", "lengths": [1.0, 2.0], "controlled_edge": 0,
                    "observed_edge": 1, "lambda_max": 1.0}}, [], "lambda_max"),
        ({}, ["--seed", "-1"], "--seed"),
        ({}, ["--threads", "0"], "--threads"),
    ], ids=["star-inf-length", "star-bool-length", "inf-horizon", "bool-horizon",
            "negative-alpha", "star-without-modes", "negative-seed", "zero-threads"])
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
        assert printed["experiment"] == {"kind": "bounds", "method": "newton_kleinman",
                                         "n_random": 100}
        assert (printed["seed"], printed["output_dir"]) == (0, "out")

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


class TestFailurePaths:
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


class TestThreads:
    def test_thread_count_does_not_change_results(self, tmp_path):
        cfg = {
            "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 6},
            "experiment": {"kind": "turnpike", "horizons": [4.0, 8.0, 12.0],
                           "dt_record": 0.05},
            "seed": 11,
            "output_dir": str(tmp_path / "t1"),
        }
        path = _write(tmp_path, cfg)
        assert main(["run", "--config", path, "--threads", "1", "--quiet"]) == 0
        assert main(["run", "--config", path, "--threads", "3", "--output",
                     str(tmp_path / "t3"), "--quiet"]) == 0
        assert (tmp_path / "t1" / "turnpike.csv").read_bytes() == \
            (tmp_path / "t3" / "turnpike.csv").read_bytes()

    def test_env_cap_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVELQ_MAX_THREADS", "1")
        cfg = {
            "model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 4},
            "experiment": {"kind": "turnpike", "horizons": [3.0, 6.0],
                           "dt_record": 0.05},
            "seed": 12,
            "output_dir": str(tmp_path / "env"),
        }
        assert main(["run", "--config", _write(tmp_path, cfg), "--threads", "8",
                     "--quiet"]) == 0


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
    "bounds": {"kind": "bounds", "method": "newton_kleinman", "n_random": 3},
    "decay_collocated": {"kind": "decay_collocated", "horizon": 6.0, "dt": 0.05,
                         "window": [1.0, 5.0], "tail_exponent": 1.0, "signs": "random"},
    "decay_riccati": {"kind": "decay_riccati", "horizon": 6.0, "dt": 0.05,
                      "window": [1.0, 5.0], "smoothness_k": 1.0, "s": 1.0},
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
