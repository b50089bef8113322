"""Structured text formats: JSON for systems/Riccati solutions, CSV for results.

JSON schemas (dense arrays are row-major lists):

wavelq-system-v1:   label, lambdas, B_mod{rows,cols,data}, Q_obs{rows,cols,data},
                    rho, eta (null when not planted)
wavelq-riccati-v1:  E{rows,cols,data}, horizon ("inf" for algebraic solutions),
                    residual, method

CSV files carry a header row; floats are printed with 17 significant digits so
re-runs are byte-identical.  Trajectory CSV columns: time, energy, value,
control_norm_sq, obs_norm_sq (nan where a column does not apply).  Turnpike
CSV columns: horizon, avg_tracking, avg_state_gap, bound_proxy.

Every output is written as a new file through ``open_output``: the entry at
the path is unlinked first, never truncated and rewritten.  So a symlink or
hard link at an output path is replaced, not written through, a read-only
file in a writable directory is replaced, and a file in a directory without
write permission cannot be rewritten.  On ext4 with its default
``auto_da_alloc``, truncating an existing file (or renaming over it) forces a
flush at close that costs tens of milliseconds, unlink-then-create well under
one; on tmpfs both are cheap.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .closed_loop import Trajectory
from .models import SpectralSystem
from .riccati import RiccatiSolution
from .turnpike import TurnpikeReport


def open_output(path):
    """A new text file at ``path`` with ``\\n`` line ends; any old entry is unlinked first."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "x", encoding="utf-8", newline="\n")


def write_json(path, payload: dict, indent: int | None = 2) -> None:
    """``payload`` as sorted-key JSON plus a final newline, in a new file.

    Encoded in one piece: for ``indent=None`` that takes the C encoder, while
    streaming through ``json.dump`` always takes the pure-Python one.  Both
    write the same bytes.
    """
    text = json.dumps(payload, sort_keys=True, indent=indent)
    with open_output(path) as f:
        f.write(text + "\n")


def _matrix_payload(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
            "data_row_major": M.ravel(order="C").tolist()}


def _matrix_from_payload(payload: dict) -> np.ndarray:
    data = np.asarray(payload["data_row_major"], dtype=float)
    return data.reshape(int(payload["rows"]), int(payload["cols"]))


def system_to_dict(system: SpectralSystem) -> dict:
    return {
        "schema": "wavelq-system-v1",
        "label": system.label,
        "lambdas": system.lambdas.tolist(),
        "B_mod": _matrix_payload(system.B_mod),
        "Q_obs": _matrix_payload(system.Q_obs),
        "rho": None if system.rho is None else float(system.rho),
        "eta": None if system.eta is None else float(system.eta),
    }


def system_from_dict(payload: dict) -> SpectralSystem:
    if payload.get("schema") != "wavelq-system-v1":
        raise ValueError("not a wavelq-system-v1 payload")
    return SpectralSystem.from_dense(
        lambdas=np.asarray(payload["lambdas"], dtype=float),
        B_mod=_matrix_from_payload(payload["B_mod"]),
        Q_obs=_matrix_from_payload(payload["Q_obs"]),
        label=payload.get("label", ""),
        rho=payload.get("rho"),
        eta=payload.get("eta"),
    )


def save_system(system: SpectralSystem, path) -> None:
    write_json(path, system_to_dict(system), indent=None)


def load_system(path) -> SpectralSystem:
    with open(path) as f:
        return system_from_dict(json.load(f))


def riccati_to_dict(sol: RiccatiSolution) -> dict:
    return {
        "schema": "wavelq-riccati-v1",
        "E": _matrix_payload(sol.E),
        "horizon": "inf" if np.isinf(sol.horizon) else float(sol.horizon),
        "residual": float(sol.residual),
        "method": sol.method,
    }


def riccati_from_dict(payload: dict) -> RiccatiSolution:
    if payload.get("schema") != "wavelq-riccati-v1":
        raise ValueError("not a wavelq-riccati-v1 payload")
    horizon, E = payload["horizon"], _matrix_from_payload(payload["E"])
    return RiccatiSolution([(np.arange(E.shape[0] // 2)[None], E[None])],
                           horizon=np.inf if horizon == "inf" else float(horizon),
                           residual=float(payload["residual"]),
                           method=payload["method"])


def save_riccati(sol: RiccatiSolution, path) -> None:
    write_json(path, riccati_to_dict(sol), indent=None)


def load_riccati(path) -> RiccatiSolution:
    with open(path) as f:
        return riccati_from_dict(json.load(f))


def _write_rows(f, columns) -> None:
    """One CSV line per row of the given equal-length columns, each row formatted once."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    f.writelines(row % values for values in zip(*columns))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    n = traj.n_samples
    nan = np.full(n, np.nan)
    values = traj.values if traj.values is not None else nan
    cps = traj.control_power if traj.control_power is not None else nan
    ops = traj.obs_power if traj.obs_power is not None else nan
    with open_output(path) as f:
        f.write("time,energy,value,control_norm_sq,obs_norm_sq\n")
        _write_rows(f, (traj.times, traj.energies, values, cps, ops))


def turnpike_to_csv(report: TurnpikeReport, path) -> None:
    with open_output(path) as f:
        f.write("horizon,avg_tracking,avg_state_gap,bound_proxy\n")
        _write_rows(f, (report.horizons, report.avg_tracking, report.avg_state_gap,
                        report.bound_values))


def observability_to_csv(report, path) -> None:
    with open_output(path) as f:
        f.write("shell_lambda,shell_constant\n")
        _write_rows(f, (report.shell_edges, report.shell_constants))


def controls_to_csv(times: np.ndarray, controls: np.ndarray, path) -> None:
    controls = np.atleast_2d(controls)
    m = controls.shape[1]
    with open_output(path) as f:
        f.write("time," + ",".join(f"u_{i}" for i in range(m)) + "\n")
        _write_rows(f, (times, *controls.T))
