import errno
import io
import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from wavelq.closed_loop import (Trajectory, hum_null_control, simulate_collocated,
                                simulate_riccati_feedback, smooth_initial_state)
from wavelq.models import (build_interval_wave, build_rectangle, build_star_network, build_synthetic,
                           controllability_gramian, observability_gramian, shell_constant)
from wavelq.riccati import RiccatiSolution, bounds_report, solve_are
from wavelq.serialize import (
    _CSV_CHUNK_VALUES,
    OutputError,
    _write_rows,
    controls_to_csv,
    load_riccati,
    load_system,
    observability_to_csv,
    riccati_from_dict,
    riccati_to_dict,
    save_riccati,
    save_system,
    system_from_dict,
    system_to_dict,
    trajectory_to_csv,
    turnpike_to_csv,
    write_json,
)
from wavelq.spectral import DimensionError, DomainError, NormScale
from wavelq.turnpike import TurnpikeReport, solve_tracking, tracking_integrals


def test_system_round_trip(tmp_path):
    sys_ = build_interval_wave(5, control=("subinterval", 0.4, 2.0))
    path = tmp_path / "system.json"
    save_system(sys_, path)
    back = load_system(path)
    assert np.array_equal(back.lambdas, sys_.lambdas)
    assert np.array_equal(back.B_mod, sys_.B_mod)
    assert np.array_equal(back.Q_obs, sys_.Q_obs)
    assert back.label == sys_.label
    assert back.rho is None and back.eta is None


@pytest.mark.parametrize("build", [
    lambda: build_interval_wave(12, control=("subinterval", 0.4, 1.9)),
    lambda: build_star_network([1.0, np.pi / 2, np.sqrt(2.0)], 0, 1, 12.0),
    lambda: build_rectangle(1.0, 2.0, 12.0),
    lambda: build_synthetic(2.0, 2.0, 16),
], ids=["interval", "star", "rectangle", "synthetic"])
def test_reloaded_system_computes_the_same_bits(build, tmp_path):
    # the file holds B_mod and Q_obs only, and every solver forms B B* from the records' B
    sys_ = build()
    save_system(sys_, tmp_path / "system.json")
    back = load_system(tmp_path / "system.json")
    assert len(back.records) == len(sys_.records)
    for r, s in zip(back.records, sys_.records, strict=True):
        for got, ref in ((r.modes, s.modes), (r.controls, s.controls), (r.B, s.B), (r.Q, s.Q)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
    T = 2.0 * np.pi
    x0 = np.random.default_rng(3).standard_normal(2 * sys_.n_modes) / sys_.lambdas.repeat(2)
    runs = []
    for s in (sys_, back):
        hum = hum_null_control(s, x0, T)
        shells = [shell_constant(s, lo, 2.0 * lo, T, use_control=side)
                  for lo in (2.0, 4.0) for side in (True, False)]
        runs.append((observability_gramian(s, T), observability_gramian(s, T, use_control=False),
                     controllability_gramian(s, T), shells, hum.cost, hum.terminal_residual,
                     solve_are(s).E))
    for got, ref in zip(*runs, strict=True):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("name, bad", [("B_mod", np.nan), ("Q_obs", np.inf)])
def test_system_payload_with_a_non_finite_entry_is_rejected(name, bad):
    # json reads NaN and Infinity; on the diagonal an Infinity would also pass Q_obs's
    # symmetry check, as inf - inf is nan
    payload = system_to_dict(build_interval_wave(3, control=("subinterval", 0.4, 2.0)))
    payload[name]["data_row_major"][4] = bad  # entry (1, 1)
    with pytest.raises(DomainError, match="finite"):
        system_from_dict(json.loads(json.dumps(payload)))


def test_synthetic_round_trip_keeps_exponents(tmp_path):
    sys_ = build_synthetic(2.0, 4.0, 6)
    path = tmp_path / "system.json"
    save_system(sys_, path)
    back = load_system(path)
    assert back.rho == 2.0 and back.eta == 4.0


def test_riccati_round_trip(tmp_path):
    sys_ = build_synthetic(2.0, 2.0, 4)
    sol = solve_are(sys_)
    path = tmp_path / "riccati.json"
    save_riccati(sol, path)
    back = load_riccati(path)
    assert np.array_equal(back.E, sol.E)
    assert np.isinf(back.horizon)
    assert back.method == sol.method


def _v1_payload(sol: RiccatiSolution) -> dict:
    """The dense wavelq-riccati-v1 payload of a solution, built by hand."""
    E = sol.E
    return {"schema": "wavelq-riccati-v1", "horizon": "inf" if np.isinf(sol.horizon) else sol.horizon,
            "residual": sol.residual, "method": sol.method,
            "E": {"rows": E.shape[0], "cols": E.shape[1], "data_row_major": E.ravel().tolist()}}


@pytest.mark.parametrize("build", [
    lambda: build_rectangle(1.0, 2.0, 8.0),
    lambda: build_star_network([1.0, np.pi / 2, np.sqrt(2.0)], 0, 1, 12.0),
], ids=["rectangle", "star"])
def test_riccati_v2_round_trip_is_bit_exact(build, tmp_path):
    sol = solve_are(build())
    save_riccati(sol, tmp_path / "riccati.json")
    assert json.loads((tmp_path / "riccati.json").read_text())["schema"] == "wavelq-riccati-v2"
    back = load_riccati(tmp_path / "riccati.json")
    assert len(back.stacks) == len(sol.stacks)
    for (m, E), (m_ref, E_ref) in zip(back.stacks, sol.stacks, strict=True):
        assert m.shape == m_ref.shape and np.array_equal(m, m_ref)
        assert E.shape == E_ref.shape and np.array_equal(E, E_ref)
    assert (back.horizon, back.residual, back.method) == (sol.horizon, sol.residual, sol.method)


def test_hand_built_v1_payload_loads_as_one_block_of_every_mode():
    sol = solve_are(build_rectangle(1.0, 2.0, 8.0))
    back = riccati_from_dict(json.loads(json.dumps(_v1_payload(sol))))
    assert len(back.stacks) == 1 and np.array_equal(back.stacks[0][0], np.arange(sol.dim // 2)[None])
    assert np.array_equal(back.E, sol.E)
    assert (back.horizon, back.residual, back.method) == (sol.horizon, sol.residual, sol.method)


@pytest.mark.parametrize("schema", ["v1", "v2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_riccati_payload_with_a_non_finite_entry_is_rejected(bad, schema):
    # json.load reads NaN and Infinity, and a NaN passes every comparison of the symmetry check
    sol = solve_are(build_synthetic(2.0, 2.0, 3))
    if schema == "v1":
        payload = _v1_payload(sol)
        payload["E"]["data_row_major"][7] = bad
    else:
        payload = riccati_to_dict(sol)
        payload["stacks"][0]["E"][7] = bad
    with pytest.raises(DomainError, match="finite"):
        riccati_from_dict(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("schema", ["v1", "v2"])
def test_riccati_payload_of_odd_dimension_is_rejected(schema):
    # v1: a dense E of odd size; v2: a stack's forms whose size does not fit its modes
    sol = solve_are(build_synthetic(2.0, 2.0, 3))
    if schema == "v1":
        payload = _v1_payload(sol)
        payload["E"] = {"rows": 5, "cols": 5, "data_row_major": np.eye(5).ravel().tolist()}
    else:
        payload = riccati_to_dict(sol)
        payload["stacks"][0]["E"] = np.eye(5).ravel().tolist()
    with pytest.raises(DimensionError, match="2k"):
        riccati_from_dict(payload)


@pytest.mark.parametrize("edit", ["missing", "duplicated"])
def test_riccati_v2_payload_must_hold_every_mode_once(edit):
    payload = riccati_to_dict(solve_are(build_rectangle(1.0, 2.0, 8.0)))
    stacks = payload["stacks"]
    assert len(stacks) > 1
    if edit == "missing":
        del stacks[-1]
    else:
        stacks.append(dict(stacks[0]))
    with pytest.raises(DimensionError, match="exactly once"):
        riccati_from_dict(payload)


def test_reloaded_solution_drives_the_same_loop_and_tracking(tmp_path):
    # riccati.json keeps the stacks, so a solution reloaded on the rectangle's x2-index blocks
    # serves every reader that asks for its stacks' forms
    sys_ = build_rectangle(1.0, 2.0, 8.0)
    assert len(sys_.records) > 1
    sol = solve_are(sys_)
    save_riccati(sol, tmp_path / "riccati.json")
    back = load_riccati(tmp_path / "riccati.json")
    x0 = smooth_initial_state(sys_.lambdas, 1.5, rng=np.random.default_rng(0))
    want, got = simulate_riccati_feedback(sys_, sol, x0, 2.0), simulate_riccati_feedback(sys_, back, x0, 2.0)
    for name in ("energies", "values", "control_power", "obs_power"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.dissipation == want.dissipation
    z = sys_.lambdas ** -2.0

    def tracking(are):
        run = solve_tracking(sys_, z, x0, 3.0, are=are)
        out = [run.deviation_cost_exact, run.mean_deviation_a, run.value_formula_cost,
               run.cost_quadrature, run.trajectory.energies]
        for i in tracking_integrals(sys_, z, x0, [1.0, 3.0], are=are):
            out += [i.deviation_cost_exact, i.mean_deviation_a, i.value_formula_cost]
        return out

    for a, b in zip(tracking(back), tracking(sol), strict=True):
        assert np.array_equal(a, b)
    for weak, strong in ((NormScale.energy(), NormScale.energy()),
                         (NormScale.graded(-0.5), NormScale.graded(0.5))):
        got, want = bounds_report(back, sys_, weak, strong), bounds_report(sol, sys_, weak, strong)
        assert (got.c1_hat, got.c2_hat) == (want.c1_hat, want.c2_hat)


def test_reloaded_solution_of_a_one_block_system_drives_the_same_loop(tmp_path):
    sys_ = build_interval_wave(6, control=("subinterval", 0.4, 1.9))
    assert len(sys_.records) == 1
    sol = solve_are(sys_)
    save_riccati(sol, tmp_path / "riccati.json")
    back = load_riccati(tmp_path / "riccati.json")
    x0 = smooth_initial_state(sys_.lambdas, 1.5, rng=np.random.default_rng(0))
    want, got = simulate_riccati_feedback(sys_, sol, x0, 2.0), simulate_riccati_feedback(sys_, back, x0, 2.0)
    for name in ("energies", "values", "control_power", "obs_power"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_riccati_json_and_hum_form_no_dense_array(tmp_path):
    # rectangle at lambda_max 48, d = 3510: a quarter of one d x d float64 matrix is 23.5 MiB
    sys_ = build_rectangle(1.0, 2.0, 48.0)
    d = 2 * sys_.n_modes
    sol = solve_are(sys_)
    rng = np.random.default_rng(0)
    x0s = np.array([smooth_initial_state(sys_.lambdas, 1.6, rng=rng) for _ in range(10)])
    peaks = []
    tracemalloc.start()
    try:
        save_riccati(sol, tmp_path / "riccati.json")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        hums = hum_null_control(sys_, x0s, 10.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert d == 3510 and len(hums) == 10
    assert max(peaks) < d * d * 8 / 4, peaks


def test_trajectory_csv_schema(tmp_path):
    sys_ = build_synthetic(2.0, 2.0, 4)
    x0 = smooth_initial_state(sys_.lambdas, 1.5, rng=np.random.default_rng(0))
    traj = simulate_collocated(sys_, x0, 3.0)
    path = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,energy,value,control_norm_sq,obs_norm_sq"
    assert len(lines) == traj.n_samples + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == traj.energies[0]


def test_turnpike_csv_schema(tmp_path):
    rep = TurnpikeReport(horizons=np.array([1.0, 2.0]),
                         avg_tracking=np.array([0.5, 0.25]),
                         avg_state_gap=np.array([0.1, 0.05]),
                         bound_values=np.array([1.0, 0.6]),
                         k_used=1.0, ktilde_used=1.0)
    path = tmp_path / "turnpike.csv"
    turnpike_to_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "horizon,avg_tracking,avg_state_gap,bound_proxy"
    assert len(lines) == 3


def test_float_precision_survives_round_trip(tmp_path):
    sys_ = build_synthetic(2.0, 2.0, 3)
    sol = solve_are(sys_)
    path = tmp_path / "r.json"
    save_riccati(sol, path)
    assert np.array_equal(load_riccati(path).E, sol.E)  # bit-exact via 17 digits


def test_riccati_json_matches_streamed_reference(tmp_path):
    # per-stack encoding writes the bytes a streamed json.dump of the same payload writes
    big = 1.7976931348623157e308
    E = np.array([[0.1, -0.0, 5e-324, 2.0], [-0.0, big, -1.0 / 3.0, 0.5],
                  [5e-324, -1.0 / 3.0, 0.0, -7.0], [2.0, 0.5, -7.0, 1e-300]])
    modes = [np.array([[1, 3]]), np.array([[0], [2], [4]])]
    forms = [E[None], np.array([[[1e-300, -0.0], [-0.0, 2.5]], [[3.0, 1.0 / 7.0], [1.0 / 7.0, 0.0]],
                                [[big, -big], [-big, big]]])]
    sol = RiccatiSolution(list(zip(modes, forms)), horizon=np.inf, residual=2.5e-310,
                          method="doubling")
    path, ref = tmp_path / "riccati.json", tmp_path / "reference.json"
    save_riccati(sol, path)
    payload = {"schema": "wavelq-riccati-v2", "horizon": "inf", "residual": 2.5e-310,
               "method": "doubling",
               "stacks": [{"modes": [[int(i) for i in row] for row in m],
                           "E": [float(v) for v in F.ravel()]} for m, F in zip(modes, forms)]}
    with open(ref, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
    assert path.read_bytes() == ref.read_bytes()


def _fmt_reference(x) -> str:
    return format(float(x), ".17g")


def test_csv_rows_match_per_value_formatting(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0 / 3.0, -2.5e-310, 1.7976931348623157e308]
    n = len(special)
    traj = Trajectory(times=np.linspace(0.0, 1.0, n), energies=np.array(special),
                      kind="collocated",
                      values=np.array(special[::-1]), control_power=np.roll(special, 3))
    path = tmp_path / "trajectory.csv"
    trajectory_to_csv(traj, path)
    rows = [",".join(_fmt_reference(v) for v in row)
            for row in zip(traj.times, traj.energies, traj.values,
                           traj.control_power, np.full(n, np.nan))]  # no obs_power: nan
    assert path.read_bytes() == (
        "time,energy,value,control_norm_sq,obs_norm_sq\n" + "".join(r + "\n" for r in rows)).encode()

    controls = np.array([special, special[::-1]]).T
    path = tmp_path / "control.csv"
    controls_to_csv(traj.times, controls, path)
    rows = [",".join(_fmt_reference(v) for v in (t, *u)) for t, u in zip(traj.times, controls)]
    assert path.read_bytes() == ("time,u_0,u_1\n" + "".join(r + "\n" for r in rows)).encode()


ROW_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e-5, 1e16, 1e17,
                123456789012345678.0]


@pytest.mark.parametrize("n_cols", [1, 5, 65])  # 65: the shape of control.csv
@pytest.mark.parametrize("n_rows", ["none", "one", "chunk-1", "chunk", "chunk+1"])
def test_chunked_rows_write_the_bytes_of_one_format_per_row(n_rows, n_cols):
    chunk = max(1, _CSV_CHUNK_VALUES // n_cols)
    n = {"none": 0, "one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[n_rows]
    rng = np.random.default_rng(n * 100 + n_cols)
    values = rng.standard_normal(n * n_cols) * 10.0 ** rng.integers(-300, 300, n * n_cols)
    spots = rng.permutation(values.size)[:len(ROW_SPECIALS)]
    values[spots] = ROW_SPECIALS[:spots.size]
    columns = values.reshape(n_cols, n)
    f = io.StringIO()
    _write_rows(f, columns)
    row = ",".join(["%.17g"] * n_cols) + "\n"
    assert f.getvalue() == "".join(row % r for r in zip(*columns))


def _writers():
    """One call of every output writer, as (name, write(path))."""
    sys_ = build_synthetic(2.0, 2.0, 3)
    traj = simulate_collocated(sys_, np.ones(6), 1.0)
    rep = TurnpikeReport(horizons=np.array([1.0]), avg_tracking=np.array([0.5]),
                         avg_state_gap=np.array([0.1]), bound_values=np.array([1.0]),
                         k_used=1.0, ktilde_used=1.0)

    class Shells:
        shell_edges, shell_constants = np.array([1.0, 2.0]), np.array([0.5, 0.25])

    return [
        ("save_system", lambda path: save_system(sys_, path)),
        ("save_riccati", lambda path: save_riccati(solve_are(sys_), path)),
        ("trajectory_to_csv", lambda path: trajectory_to_csv(traj, path)),
        ("turnpike_to_csv", lambda path: turnpike_to_csv(rep, path)),
        ("observability_to_csv", lambda path: observability_to_csv(Shells, path)),
        ("controls_to_csv", lambda path: controls_to_csv(traj.times, np.ones((traj.n_samples, 2)),
                                                         path)),
        ("write_json", lambda path: write_json(path, {"b": [1.0, 2.5], "a": None})),
    ]


WRITERS = _writers()


@pytest.mark.parametrize("name, write", WRITERS, ids=[name for name, _ in WRITERS])
def test_rewrite_creates_a_new_file(tmp_path, name, write):
    path = tmp_path / "out"
    write(path)
    fresh = path.read_bytes()
    path.write_bytes(b"output of an earlier run\n")
    with open(path, "rb") as old:
        write(path)
        # the open handle still reads the old file: it was unlinked, not truncated
        assert old.read() == b"output of an earlier run\n"
    assert path.read_bytes() == fresh


@pytest.mark.parametrize("name, write", WRITERS, ids=[name for name, _ in WRITERS])
def test_links_and_read_only_files_are_replaced(tmp_path, name, write):
    target = tmp_path / "target"
    target.write_bytes(b"not an output\n")
    write(tmp_path / "expected")
    expected = (tmp_path / "expected").read_bytes()

    for path, make in ((tmp_path / "symlink", lambda p: p.symlink_to(target)),
                       (tmp_path / "hardlink", lambda p: os.link(target, p))):
        make(path)
        write(path)
        assert not path.is_symlink() and path.read_bytes() == expected
        assert target.read_bytes() == b"not an output\n"

    read_only = tmp_path / "read_only"
    read_only.write_bytes(b"old\n")
    read_only.chmod(0o444)
    write(read_only)
    assert read_only.read_bytes() == expected


@pytest.mark.parametrize("name, write", WRITERS, ids=[name for name, _ in WRITERS])
def test_a_fifo_or_directory_at_the_path_stays_and_is_named(tmp_path, name, write):
    fifo, folder, link = tmp_path / "fifo", tmp_path / "folder", tmp_path / "link"
    os.mkfifo(fifo)
    folder.mkdir()
    for path in (fifo, folder):
        with pytest.raises(OutputError, match=re.escape(str(path))) as refused:
            write(path)
        assert refused.value.errno == errno.EEXIST and refused.value.filename == str(path)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert folder.is_dir() and not any(folder.iterdir())
    # a symlink to a FIFO is itself replaced, and the FIFO stays
    link.symlink_to(fifo)
    write(link)
    assert link.is_file() and not link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode)
