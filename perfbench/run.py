"""wavelq benchmark: one workload's experiments through ``wavelq.cli.run_experiment``.

Run from the repository root::

    python3 perfbench/run.py --workload rectangle_strip --seed 1 --seconds 30 --trace 0

The run is a closed loop: one caller in one process runs the workload's
experiments one after another (``threads=1``), pass after pass, until the
next pass would end after ``--seconds``.  BLAS keeps its default thread
count, which the run records.  Every experiment's outputs are checked.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics instead of the end-to-end ones.  The last line of standard output is
the JSON result; the lines before it print every metric with its unit and
the machine and run facts.  ``--out DIR`` also keeps the full record (and the
spans of a traced run) in DIR for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import compare
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5

# Timed from interpreter start to this line's output: import wavelq, validate the configs.
SETUP_PROGRAM = """\
import json, sys
sys.path.insert(0, "src")
from wavelq.cli import validate_config
for cfg in json.load(sys.stdin):
    validate_config(cfg)
print("ready", flush=True)
"""


def measure_setup(configs: list[dict]) -> list[float]:
    payload = json.dumps(configs)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROGRAM], cwd=ROOT, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
            proc.stdin.write(payload)
            proc.stdin.close()
            ready = proc.stdout.readline().strip() == "ready"
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait() != 0 or not ready:
                raise RuntimeError("the set-up program failed")
    return samples


def _blas_threads(np) -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(np)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


class Run:
    """The passes of one benchmark run and what their checks found."""

    def __init__(self, configs: list[dict], workdir: str):
        self.configs = configs
        self.outdirs = [os.path.join(workdir, str(i)) for i in range(len(configs))]
        self.attempted = 0
        self.failures: list[str] = []
        self.residuals: list[float] = []
        self.reported: dict[str, float] = {}
        self.first_outputs: list[dict | None] = [None] * len(configs)

    def one_pass(self, tracer: tracing.Tracer | None) -> float:
        """Run every experiment once; returns the time spent in run_experiment."""
        from wavelq.cli import run_experiment

        elapsed = 0.0
        for i, (cfg, outdir) in enumerate(zip(self.configs, self.outdirs)):
            self.attempted += 1
            span = tracer.span("cli.run_experiment") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    run_experiment(cfg, outdir, cfg["seed"], 1, True)
            except Exception:
                self._fail(i, "raised:\n" + traceback.format_exc())
                continue
            finally:
                elapsed += time.perf_counter() - t0
            self._check(i, cfg, outdir)
        return elapsed

    def _fail(self, i: int, why: str):
        self.failures.append(f"experiment {i} ({self.configs[i]['experiment']['kind']}): {why}")
        print(f"[perfbench] {self.failures[-1]}", file=sys.stderr)

    def _check(self, i: int, cfg: dict, outdir: str):
        try:
            failed, residuals, reported = checks.check_outputs(cfg, outdir)
            with open(os.path.join(outdir, "manifest.json")) as f:
                files = json.load(f)["files"]
        except Exception:
            self._fail(i, "checking the outputs raised:\n" + traceback.format_exc())
            return
        if self.first_outputs[i] is None:
            self.first_outputs[i] = files
        elif files != self.first_outputs[i]:
            failed.append("outputs differ from the first pass with the same seed")
        if failed:
            self._fail(i, "; ".join(failed))
        self.residuals += residuals.values()
        for key, value in reported.items():
            self.reported[key] = max(value, self.reported.get(key, value))


def run_passes(run: Run, seconds: float, trace: bool):
    """Untraced pass times, traced pass times and the tracer of a run."""
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer.run_id = len(traced)
            with tracer.installed():
                traced.append(run.one_pass(tracer))
        else:
            plain.append(run.one_pass(None))
        passes = plain + traced
        done = time.perf_counter() - start
        enough = len(traced) == len(plain) if trace else True
        if enough and done + statistics.median(passes) > seconds:
            return plain, traced, tracer


def report_line(name: str, unit: str, samples: list[float], value: float):
    _, q1, q3, _ = compare.stats(samples)
    print(f"  {name:28s} {value:14.6g} {unit:6s} median of n={len(samples)}, "
          f"quartiles [{q1:.6g}, {q3:.6g}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory that keeps the full record")
    args = parser.parse_args(argv)

    if not (SRC / "wavelq" / "__init__.py").is_file():
        print(f"perfbench: no wavelq sources under {SRC}", file=sys.stderr)
        return 2
    configs = workloads.generate(args.workload, args.seed)
    setup = measure_setup(configs)

    sys.path.insert(0, str(SRC))
    import wavelq
    from wavelq.cli import validate_config

    if Path(wavelq.__file__).resolve().parent != SRC / "wavelq":
        print(f"perfbench: imported wavelq from {wavelq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for cfg in configs:
        validate_config(cfg)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        run = Run(configs, workdir)
        plain, traced, tracer = run_passes(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    failed = len(run.failures)
    facts = machine_facts()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced passes of {len(configs)} experiments")
    print("facts " + json.dumps(facts, sort_keys=True))
    print("configs " + json.dumps(configs, sort_keys=True))
    print(f"  failed_frac = {failed}/{run.attempted} = {failed / run.attempted:.6g}")
    for key, value in run.reported.items():
        print(f"  {key} (worst, no tolerance) = {value:.6g}")

    if args.trace:
        per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
        for p, t, u in zip(per_pass, traced, plain):
            p["trace.overhead_s"] = t - u
        units = tracing.UNITS
        values = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        for name, value in values.items():
            report_line(name, units[name], [p[name] for p in per_pass], value)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (run.attempted - failed) / run.attempted,
            "residual_digits": checks.residual_digits(run.residuals) if run.residuals else 0.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
                 "residual_digits": "digits"}
        samples = {"setup_s": setup, "wall_s": plain}
        for name, value in values.items():
            report_line(name, units[name], samples.get(name, [value]), value)

    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, facts=facts, configs=configs, failures=run.failures,
                      samples={"setup_s": setup, "wall_s": plain, "traced_wall_s": traced})
        (out / f"{stem}.json").write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
        if tracer is not None:
            with open(out / f"{stem}.spans.jsonl", "w") as f:
                for name, start, end, parent, run_id, value in tracer.spans:
                    f.write(json.dumps({"name": name, "start": start, "end": end,
                                        "parent": parent, "run": run_id, "value": value}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
