"""Correctness checks on one experiment's written outputs.

The tolerances are the ones pinned in ``tests/test_acceptance.py``.  Each check
reads the files the run wrote and recomputes what it needs through the public
``wavelq`` API, so a change that skips or fakes a step in the library still
has to produce outputs that pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

ENERGY_IDENTITY_TOL = 1e-6
OS_RESIDUAL_TOL = 1e-6
HUM_RESIDUAL_TOL = 1e-8  # times ||x0||


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _non_finite(value, where: str):
    """Paths of the numbers in a JSON value that are missing or not finite."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _non_finite(v, f"{where}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{where}[{i}]")
    elif value is None or (isinstance(value, float) and not math.isfinite(value)):
        yield where


def are_backward_error(E: np.ndarray, A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> float:
    """||R|| / (||Q|| + 2 ||A|| ||E|| + ||E||^2 ||B B^T||), Frobenius norms."""
    BBT = B @ B.T
    R = Q + E @ A + A.T @ E - E @ BBT @ E
    nE = np.linalg.norm(E)
    scale = np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * nE + nE**2 * np.linalg.norm(BBT)
    return float(np.linalg.norm(R) / scale)


def check_outputs(cfg: dict, outdir: str) -> tuple[list[str], dict, dict]:
    """Check one finished experiment.

    Returns ``(failures, residuals, reported)``: the failed checks, the
    normalized residuals that feed ``residual_digits``, and quantities that
    are reported without a tolerance.
    """
    from wavelq.cli import build_model
    from wavelq.riccati import first_order_matrices
    from wavelq.serialize import load_riccati

    failures, residuals, reported = [], {}, {}
    with open(os.path.join(outdir, "manifest.json")) as f:
        manifest = json.load(f)
    for name, digest in manifest["files"].items():
        if _sha256(os.path.join(outdir, name)) != digest:
            failures.append(f"manifest checksum of {name} does not match the file")
    with open(os.path.join(outdir, "summary.json")) as f:
        summary = json.load(f)
    failures += [f"summary number {p} is not finite" for p in _non_finite(summary, "summary")]

    kind = cfg["experiment"]["kind"]
    if kind in ("decay_collocated", "decay_riccati"):
        defect = summary["energy_identity_defect"]
        residuals["energy_identity_defect"] = defect
        if not defect <= ENERGY_IDENTITY_TOL:
            failures.append(f"energy-identity defect {defect:.3e} > {ENERGY_IDENTITY_TOL:g}")
    elif kind == "turnpike":
        os_res = summary["os_residual_last_run"]
        residuals["os_residual"] = os_res
        reported["cost_identity_defect"] = summary["cost_identity_rel_defect_last_run"]
        if not os_res <= OS_RESIDUAL_TOL:
            failures.append(f"turnpike OS residual {os_res:.3e} > {OS_RESIDUAL_TOL:g}")
    elif kind == "null_control":
        # the energy scale is the plain state norm, so cost / ratio = ||x0||^2
        x0_norms = [math.sqrt(c / r) for c, r in zip(summary["costs"],
                                                     summary["cost_over_energy_norm"])]
        rel = max(res / nrm for res, nrm in zip(summary["terminal_residuals"], x0_norms))
        residuals["hum_terminal_residual"] = rel
        if summary["certified"] and not rel <= HUM_RESIDUAL_TOL:
            failures.append(f"HUM terminal residual {rel:.3e} ||x0|| > {HUM_RESIDUAL_TOL:g} ||x0||")
    elif kind == "bounds":
        sol = load_riccati(os.path.join(outdir, "riccati.json"))
        A, B, Q = first_order_matrices(build_model(cfg["model"]))
        residuals["are_backward_error"] = are_backward_error(sol.E, A, B, Q)
    return failures, residuals, reported


def residual_digits(residuals: list[float]) -> float:
    """-log10 of the worst normalized residual, floored at machine epsilon."""
    if not all(math.isfinite(r) for r in residuals):
        return 0.0
    return -math.log10(max(max(residuals), float(np.finfo(float).eps)))
