"""Structured text formats: JSON for systems/Riccati solutions, CSV for results.

JSON schemas (dense arrays are row-major lists):

wavelq-system-v1:   label, lambdas, B_mod{rows,cols,data}, Q_obs{rows,cols,data},
                    rho, eta (null when not planted)
wavelq-riccati-v2:  horizon ("inf" for algebraic solutions), method, residual,
                    stacks: one {E, modes} per stack of ``RiccatiSolution.stacks``,
                    modes (blocks, k) nested, E its forms (blocks, 2k, 2k) flat
                    row-major; the stacks hold every mode exactly once
wavelq-riccati-v1:  E{rows,cols,data}, horizon, residual, method (read only:
                    the dense matrix, loaded as one block of every mode)

CSV files carry a header row; floats are printed with 17 significant digits so
re-runs are byte-identical.  The rows are formatted and written a chunk at a
time, with the bytes of one ``"%.17g"`` per number.  Trajectory CSV columns:
time, energy, value, control_norm_sq, obs_norm_sq (nan where a column does not
apply).  Turnpike CSV columns: horizon, avg_tracking, avg_state_gap,
bound_proxy.

Every output is written as a new file through ``open_output``: a regular file
or symlink at the path is unlinked first, never truncated and rewritten; any
other entry (a directory, FIFO or device node) stays.  Any OSError from
making or writing an output, that refusal included, is raised as
``OutputError`` (an OSError) naming the path.  So a symlink or hard link at an
output path is replaced, not written through, a read-only file in a writable
directory is replaced, and a file in a directory without write permission
cannot be rewritten.  On ext4 with its default ``auto_da_alloc``, truncating
an existing file (or renaming over it) forces a flush at close that costs tens
of milliseconds, unlink-then-create well under one; on tmpfs both are cheap.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import stat

import numpy as np

from .closed_loop import Trajectory
from .models import SpectralSystem
from .riccati import RiccatiSolution
from .spectral import DimensionError
from .turnpike import TurnpikeReport


class OutputError(OSError):
    """An output directory or file that could not be made or written; ``filename`` names it."""


@contextlib.contextmanager
def output_errors(path):
    """Re-raise an OSError from making or writing the output ``path`` as an OutputError."""
    try:
        yield
    except OSError as e:
        raise OutputError(e.errno, e.strerror or str(e), e.filename or os.fspath(path)) from e


def unlink_file(path) -> None:
    """Unlink the regular file or symlink at ``path``, if any; any other entry raises FileExistsError."""
    with contextlib.suppress(FileNotFoundError):
        if stat.S_IFMT(os.lstat(path).st_mode) not in (stat.S_IFREG, stat.S_IFLNK):
            raise FileExistsError(errno.EEXIST, "not a regular file or a symlink, left in place",
                                  os.fspath(path))
        os.unlink(path)


@contextlib.contextmanager
def open_output(path):
    """A new text file at ``path`` with ``\\n`` line ends, after ``unlink_file(path)``, as a context.

    An OSError from unlinking, opening, writing or closing it is raised as OutputError.
    """
    with output_errors(path):
        unlink_file(path)
        with open(path, "x", encoding="utf-8", newline="\n") as f:
            yield f


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
        np.asarray(payload["lambdas"], dtype=float), _matrix_from_payload(payload["B_mod"]),
        _matrix_from_payload(payload["Q_obs"]), label=payload.get("label", ""),
        rho=payload.get("rho"), eta=payload.get("eta"))


def save_system(system: SpectralSystem, path) -> None:
    write_json(path, system_to_dict(system), indent=None)


def load_system(path) -> SpectralSystem:
    with open(path) as f:
        return system_from_dict(json.load(f))


_RICCATI_SCHEMA = "wavelq-riccati-v2"


def _riccati_head(sol: RiccatiSolution) -> dict:
    return {"schema": _RICCATI_SCHEMA,
            "horizon": "inf" if np.isinf(sol.horizon) else float(sol.horizon),
            "residual": float(sol.residual), "method": sol.method}


def _stack_payload(modes: np.ndarray, E: np.ndarray) -> dict:
    return {"modes": modes.tolist(), "E": E.ravel(order="C").tolist()}


def riccati_to_dict(sol: RiccatiSolution) -> dict:
    return {**_riccati_head(sol), "stacks": [_stack_payload(m, E) for m, E in sol.stacks]}


def _stack_from_payload(payload: dict):
    modes = np.asarray(payload["modes"], dtype=int)
    E = np.asarray(payload["E"], dtype=float)
    if modes.ndim != 2 or not modes.size or E.size != modes.shape[0] * (2 * modes.shape[1]) ** 2:
        raise DimensionError("a stack's forms must be (blocks, 2k, 2k) for its modes (blocks, k)")
    return modes, E.reshape(modes.shape[0], 2 * modes.shape[1], 2 * modes.shape[1])


def riccati_from_dict(payload: dict) -> RiccatiSolution:
    """The solution of a v2 payload, on its stacks, or of a v1 payload, as one block of every mode."""
    schema = payload.get("schema")
    if schema == _RICCATI_SCHEMA:
        stacks = [_stack_from_payload(s) for s in payload["stacks"]]
        held = np.sort(np.concatenate([np.zeros(0, int), *(m.ravel() for m, _ in stacks)]))
        if not np.array_equal(held, np.arange(held.size)):
            raise DimensionError("the stacks must hold every mode exactly once")
    elif schema == "wavelq-riccati-v1":
        E = _matrix_from_payload(payload["E"])
        stacks = [(np.arange(E.shape[0] // 2)[None], E[None])]
    else:
        raise ValueError(f"not a {_RICCATI_SCHEMA} or wavelq-riccati-v1 payload")
    horizon = payload["horizon"]
    return RiccatiSolution(stacks, horizon=np.inf if horizon == "inf" else float(horizon),
                           residual=float(payload["residual"]), method=payload["method"])


def save_riccati(sol: RiccatiSolution, path) -> None:
    """The bytes of ``write_json(path, riccati_to_dict(sol), indent=None)``, one stack at a time.

    Each stack is encoded on its own, so neither the dense E nor a list of
    every entry is formed.  The stacks go last: "stacks" sorts after the
    other keys.
    """
    head = json.dumps(_riccati_head(sol), sort_keys=True)
    with open_output(path) as f:
        f.write(head[:-1] + ', "stacks": [')
        for i, (modes, E) in enumerate(sol.stacks):
            f.write((", " if i else "") + json.dumps(_stack_payload(modes, E), sort_keys=True))
        f.write("]}\n")


def load_riccati(path) -> RiccatiSolution:
    with open(path) as f:
        return riccati_from_dict(json.load(f))


# the numbers formatted and written at once: the time per number is flat from 1 << 10
# up, and by measurement 1 << 10 and 1 << 12 left the peak resident memory of the
# benchmark's interval run 0.5-0.8 MB above the row-at-a-time writer's, 1 << 11 did not
_CSV_CHUNK_VALUES = 1 << 11


def _write_rows(f, columns) -> None:
    """One CSV line per row of the given equal-length columns, written a chunk of rows at a time.

    Each chunk's slices of the columns are stacked into one array, whose
    numbers as Python floats (``tolist``) fill the chunk's repeated row format
    in one ``%``, written with one ``write``.  The bytes are those of
    formatting each row on its own, ``"%.17g"`` per number.
    """
    rows = max(1, _CSV_CHUNK_VALUES // len(columns))
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), rows):
        chunk = np.column_stack([c[start:start + rows] for c in columns])
        f.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


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
