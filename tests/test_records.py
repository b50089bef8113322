"""Block records of SpectralSystem against the dense builders they replace.

The oracles here are the dense constructions the library used before systems
were stored per block: each builder filled n x n matrices ``B_mod``, ``Q_obs``
and ``B B*``, and a frontier search over their exact nonzeros found the
blocks.  Every record (its B_mod and Q_obs pieces; no record holds B B*) and
every assembled matrix must equal them bit for bit.  The star is the one
exception: its B_mod factors the closed-form overlap K by a quadrature, so
its B_mod B_mod^T is checked against K to rounding instead.
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelq.cli import build_model
from wavelq.closed_loop import (hum_null_control, simulate_backward_observer, simulate_collocated,
                                simulate_riccati_feedback)
from wavelq.models import (
    SpectralSystem,
    _rectangle_modes,
    _star_eigenpairs,
    build_interval_wave,
    build_rectangle,
    build_star_network,
    build_synthetic,
    build_synthetic_exponential,
    controllability_gramian,
    cosine_product_integral,
    fit_weak_observability,
    observability_gramian,
    psd_sqrt,
    sine_product_integral,
)
from wavelq.riccati import integrate_dre, solve_are
from wavelq.turnpike import solve_tracking

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "demos" / "configs").glob("*.json"))


# ---------------------------------------------------------------------------
# dense oracles


def rectangle_modes_oracle(max_frequency):
    """The (m, n) pairs in mode order, from a sorted list of pairs."""
    mmax = int(np.floor(max_frequency))
    pairs = [(m, n) for m in range(1, mmax + 1) for n in range(1, mmax + 1)
             if m * m + n * n <= max_frequency**2]
    pairs.sort(key=lambda p: (np.hypot(p[0], p[1]), p[0], p[1]))
    return np.array(pairs, dtype=int)


def dense_rectangle(a, b, max_frequency):
    idx = rectangle_modes_oracle(max_frequency)
    lam = np.hypot(idx[:, 0].astype(float), idx[:, 1].astype(float))
    n_modes = lam.size
    K = np.zeros((n_modes, n_modes))
    B = np.zeros((n_modes, n_modes))
    for n in np.unique(idx[:, 1]):
        rows = np.flatnonzero(idx[:, 1] == n)
        ms = idx[rows, 0].astype(float)
        block = (2.0 / np.pi) * sine_product_integral(ms, ms, a, b)
        block = 0.5 * (block + block.T)
        K[np.ix_(rows, rows)] = block
        B[np.ix_(rows, rows)] = psd_sqrt(block)
    return lam, B, np.diag(lam**2), K


def dense_interval(n_modes, control, observation):
    lam = np.arange(1, n_modes + 1, dtype=float)
    if control == "full_domain":
        B, K = np.eye(n_modes), np.eye(n_modes)
    else:
        a, b = control["subinterval"]
        K = (2.0 / np.pi) * sine_product_integral(lam, lam, a, b)
        B = psd_sqrt(K)
    if observation == "full_domain":
        Q = np.diag(lam**2)
    else:
        a, b = observation["subinterval"]
        Q = (2.0 / np.pi) * np.outer(lam, lam) * cosine_product_integral(lam, lam, a, b)
        Q = 0.5 * (Q + Q.T)
    return lam, B, Q, K


def dense_star(lengths, controlled_edge, observed_edge, lambda_max):
    lengths = np.asarray(lengths, dtype=float)
    lams, amps = _star_eigenpairs(lengths, float(lambda_max))
    ae = amps[:, controlled_edge]
    K = np.outer(ae, ae) * sine_product_integral(lams, lams, 0.0, lengths[controlled_edge])
    K = 0.5 * (K + K.T)
    ao = amps[:, observed_edge]
    Q = (np.outer(ao, ao) * np.outer(lams, lams)
         * cosine_product_integral(lams, lams, 0.0, lengths[observed_edge]))
    Q = 0.5 * (Q + Q.T)
    return lams, Q, K


def dense_synthetic(rho, eta, n_modes):
    lam = np.arange(1, n_modes + 1, dtype=float)
    B = np.diag(lam ** (-(0.0 if np.isinf(rho) else 1.0 / rho)))
    Q = np.diag(lam ** (2.0 - 2.0 * (0.0 if np.isinf(eta) else 1.0 / eta)))
    return lam, B, Q, B @ B.T


def dense_synthetic_exponential(alpha_control, alpha_obs, n_modes):
    lam = np.arange(1, n_modes + 1, dtype=float)
    B = np.diag(np.exp(-alpha_control * lam))
    Q = np.diag(lam**2 * np.exp(-2.0 * alpha_obs * lam))
    return lam, B, Q, B @ B.T


def dense_from_config(model):
    kind = model["kind"]
    if kind == "rectangle":
        return dense_rectangle(model["a"], model["b"], model["max_frequency"])
    if kind == "interval":
        return dense_interval(model["n_modes"], model["control"], model["observation"])
    return dense_synthetic(model["rho"], model["eta"], model["n_modes"])


def search_records(B, Q, bbt):
    """(modes, controls, B, Q) per block: the frontier search over exact nonzeros of bbt and Q."""
    Q = 0.5 * (Q + Q.T)
    linked = (bbt != 0.0) | (Q != 0.0)
    n = Q.shape[0]
    seen = np.zeros(n, dtype=bool)
    out = []
    for seed in range(n):
        if seen[seed]:
            continue
        member = np.zeros(n, dtype=bool)
        member[seed] = True
        front = member
        while front.any():
            front = linked[front].any(axis=0) & ~member
            member |= front
        seen |= member
        modes = np.flatnonzero(member)
        rows = np.ix_(modes, modes)
        controls = np.flatnonzero(B[modes].any(axis=0))
        out.append((modes, controls, B[np.ix_(modes, controls)], Q[rows]))
    return out


def assert_matches_dense(sys_, lam, B, Q, bbt):
    assert np.array_equal(sys_.lambdas, lam)
    expected = search_records(B, Q, bbt)
    assert len(sys_.records) == len(expected)
    for r, want in zip(sys_.records, expected, strict=True):
        for got, ref in zip((r.modes, r.controls, r.B, r.Q), want, strict=True):
            assert got.shape == ref.shape and np.array_equal(got, ref)
    assert np.array_equal(sys_.B_mod, B)
    assert np.array_equal(sys_.Q_obs, 0.5 * (Q + Q.T))


def assert_factor_matches_dense(sys_, lam, Q, K):
    """A system whose B_mod is a factor of the overlap K, not its ``psd_sqrt`` (the star's).

    The frequencies, the blocks (the search over exact nonzeros of K and Q) and
    Q_obs match bit for bit, and B_mod B_mod^T is K to 1e-13 of its largest entry.
    """
    assert np.array_equal(sys_.lambdas, lam)
    assert [r.modes.tolist() for r in sys_.records] == [m.tolist() for m, *_ in search_records(K, Q, K)]
    assert np.array_equal(sys_.Q_obs, 0.5 * (Q + Q.T))
    assert np.abs(sys_.B_mod @ sys_.B_mod.T - K).max() <= 1e-13 * np.abs(K).max()


# ---------------------------------------------------------------------------
# builders against the dense oracles


@pytest.mark.parametrize("max_frequency", [12.0, 16.0, 40.0])
def test_rectangle_records_match_dense_builder(max_frequency):
    assert_matches_dense(build_rectangle(1.0, 2.0, max_frequency),
                         *dense_rectangle(1.0, 2.0, max_frequency))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_records_match_dense_builder(path):
    model = json.loads(path.read_text())["model"]
    if model["kind"] == "star":
        assert_factor_matches_dense(build_model(model), *dense_star(
            model["lengths"], model["controlled_edge"], model["observed_edge"], model["lambda_max"]))
    else:
        assert_matches_dense(build_model(model), *dense_from_config(model))


@pytest.mark.parametrize("args", [(2.0, 2.0, 32), (np.inf, np.inf, 8), (1.0, 4.0, 17)])
def test_synthetic_records_match_dense_builder(args):
    assert_matches_dense(build_synthetic(*args), *dense_synthetic(*args))


@pytest.mark.parametrize("args", [(0.4, 0.4, 48), (1.0, 0.5, 800)])
def test_exponential_records_match_dense_builder(args):
    # at (1.0, 0.5, 800) exp(-lambda) underflows to 0 from lambda = 746 on: those
    # modes keep their zero control column in B_mod but no control in their record
    sys_ = build_synthetic_exponential(*args)
    assert_matches_dense(sys_, *dense_synthetic_exponential(*args))


def test_interval_with_full_domain_control_matches_dense_builder():
    sys_ = build_interval_wave(7, control="full_domain", observation=("subinterval", 0.5, 2.0))
    assert_matches_dense(sys_, *dense_interval(7, "full_domain", {"subinterval": [0.5, 2.0]}))


@pytest.mark.parametrize("max_frequency", [np.sqrt(50.0), 7.5, 12.0, np.sqrt(325.0), 25.0, 65.0])
def test_rectangle_modes_match_sorted_pairs(max_frequency):
    # ties in hypot: sqrt(50) from (1,7), (5,5), (7,1); sqrt(325) from (1,18), (6,17),
    # (10,15) and their mirrors; 65 from four pairs and their mirrors
    assert np.array_equal(_rectangle_modes(max_frequency), rectangle_modes_oracle(max_frequency))


# ---------------------------------------------------------------------------
# dense input -> records -> dense


@st.composite
def dense_systems(draw):
    """Sparse B_mod and symmetric Q_obs with zeros, tiny entries and all-zero controls."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([0.0, 0.0, 0.0, 1e-160, -1.0, 0.5, 2.0])
    B = rng.choice(values, size=(n, m)) * rng.uniform(0.5, 1.5, (n, m))
    Q = np.triu(rng.choice(values, size=(n, n)) * rng.uniform(0.5, 1.5, (n, n)))
    Q = Q + np.triu(Q, 1).T
    return np.sort(rng.uniform(0.5, 4.0, n)), B, Q


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=dense_systems())
def test_dense_round_trip_is_exact(case):
    lam, B, Q = case
    sys_ = SpectralSystem.from_dense(lam, B, Q)
    assert np.array_equal(sys_.B_mod, B) and sys_.B_mod.shape == B.shape
    assert np.array_equal(sys_.Q_obs, Q)
    assert np.array_equal(np.sort(np.concatenate([r.modes for r in sys_.records])), np.arange(lam.size))
    controls = np.concatenate([r.controls for r in sys_.records])
    assert np.unique(controls).size == controls.size  # each control acts on one block
    for i, a in enumerate(r.modes for r in sys_.records):
        for j, b in enumerate(r.modes for r in sys_.records):
            if i != j:
                assert not Q[np.ix_(a, b)].any() and not (B[a] @ B[b].T).any()


@pytest.mark.parametrize("B", [[[1.0, 1.0], [1.0, -1.0]], [[1e-200, 0.0], [1e-200, 0.0]]],
                         ids=["orthogonal_rows", "underflowing_product"])
def test_modes_sharing_a_control_share_a_block(B):
    # B B* is diagonal here (exactly, or after underflow), yet both controls act on both modes
    B = np.array(B)
    assert not (B @ B.T)[0, 1]
    sys_ = SpectralSystem.from_dense([1.0, 2.0], B, np.eye(2))
    assert [r.modes.tolist() for r in sys_.records] == [[0, 1]]
    assert np.array_equal(sys_.B_mod, B)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(a=st.floats(0.0, 2.5), width=st.floats(0.3, 3.0), max_frequency=st.floats(1.5, 14.0))
def test_rectangle_blocks_equal_the_search_on_its_matrices(a, width, max_frequency):
    sys_ = build_rectangle(a, min(a + width, np.pi), max_frequency)
    searched = SpectralSystem.from_dense(sys_.lambdas, sys_.B_mod, sys_.Q_obs)
    assert [r.modes.tolist() for r in searched.records] == [r.modes.tolist() for r in sys_.records]


@pytest.mark.parametrize("sys_", [build_synthetic(2.0, 2.0, 9), build_synthetic(np.inf, 1.0, 5),
                                  build_synthetic_exponential(0.3, 0.5, 7)], ids=lambda s: s.label)
def test_synthetic_blocks_equal_the_search_on_their_matrices(sys_):
    searched = SpectralSystem.from_dense(sys_.lambdas, sys_.B_mod, sys_.Q_obs)
    assert [r.modes.tolist() for r in searched.records] == [r.modes.tolist() for r in sys_.records]


# ---------------------------------------------------------------------------
# no stale B B*, no dense holder


def test_system_rebuilt_with_a_new_control_follows_it():
    sys_ = build_synthetic(2.0, 2.0, 3)
    sys_.B_mod  # assembled and cached before the rebuild
    B = np.array([[1.0], [1.0], [0.0]])
    new = SpectralSystem.from_dense(sys_.lambdas, B, sys_.Q_obs)
    assert np.array_equal(new.B_mod, B)
    assert [r.modes.tolist() for r in new.records] == [[0, 1], [2]]
    T = 2.0
    W = observability_gramian(new, T)
    ref = SpectralSystem.from_dense(sys_.lambdas[:2], B[:2], np.diag(sys_.lambdas[:2]))
    assert np.array_equal(W[:4, :4], observability_gramian(ref, T))
    assert not W[4:].any() and not W[:, 4:].any()
    # the records are the only stored form: there is no B_mod field to replace
    with pytest.raises(TypeError):
        dataclasses.replace(sys_, B_mod=B)


def test_cached_dense_matrices_are_read_only():
    sys_ = build_rectangle(1.0, 2.0, 6.0)
    for M in (sys_.B_mod, sys_.Q_obs):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def test_rectangle_observability_holds_no_dense_matrix():
    # n = 3149 modes: one dense n x n array is 75.7 MiB; the records hold 4.2 MiB
    build_rectangle(1.0, 2.0, 8.0)  # first calls import what they need outside the trace
    fit_weak_observability(build_rectangle(1.0, 2.0, 12.0), 6 * np.pi, [2.0, 3.0, 5.0])
    tracemalloc.start()
    try:
        sys_ = build_rectangle(1.0, 2.0, 64.0)
        fit_weak_observability(sys_, 6 * np.pi, [5.0, 10.0, 20.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys_.n_modes == 3149
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the solvers read the records: no system is built per block


@pytest.mark.parametrize("sys_", [build_rectangle(1.0, 2.0, 8.0),
                                  build_star_network([1.0, 1.3, 1.7], 0, 1, 8.0)],
                         ids=lambda s: s.label)
def test_solvers_build_no_system_per_block(sys_, monkeypatch):
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(2 * sys_.n_modes) / sys_.lambdas.repeat(2)
    z = rng.standard_normal(sys_.n_modes)
    built = []
    post_init = SpectralSystem.__post_init__

    def counted(self):
        built.append(self.label)
        post_init(self)

    monkeypatch.setattr(SpectralSystem, "__post_init__", counted)
    are = solve_are(sys_)
    integrate_dre(sys_, 1.0, snapshot_times=[0.5, 1.0])
    simulate_collocated(sys_, x0, 2.0)
    simulate_riccati_feedback(sys_, are, x0, 2.0)
    simulate_backward_observer(sys_, x0, 2.0)
    solve_tracking(sys_, z, x0, 2.0, are=are)
    observability_gramian(sys_, 2.0)
    controllability_gramian(sys_, 2.0)
    fit_weak_observability(sys_, 6.0, [1.5, 2.5, 4.0])
    hum_null_control(sys_, x0, 2.0 * np.pi)
    assert built == []


def test_a_trailing_zero_control_column_changes_no_bit():
    # one block: the record drops the zero column, so both systems run the same numbers
    rng = np.random.default_rng(11)
    lam = np.array([1.0, 1.7, 2.4, 3.1])
    B = rng.standard_normal((4, 2))
    C = rng.standard_normal((4, 4))
    x0, z = rng.standard_normal(8), rng.standard_normal(4)
    narrow = SpectralSystem.from_dense(lam, B, C @ C.T)
    wide = SpectralSystem.from_dense(lam, np.column_stack([B, np.zeros(4)]), C @ C.T)
    assert len(wide.records) == 1 and wide.n_controls == 3
    runs = []
    for sys_ in (narrow, wide):
        are = solve_are(sys_)
        collocated = simulate_collocated(sys_, x0, 3.0)
        feedback = simulate_riccati_feedback(sys_, are, x0, 3.0)
        tracking = solve_tracking(sys_, z, x0, 3.0, are=are)
        controls = -(tracking.deviation_adjoints[:, 1::2] @ sys_.B_mod)
        runs.append([are.E, tracking.deviation_states, controls[:, :2]]
                    + [getattr(traj, name) for traj in (collocated, feedback, tracking.trajectory)
                       for name in ("energies", "values", "control_power", "obs_power")
                       if getattr(traj, name) is not None]
                    + [collocated.dissipation, feedback.dissipation])
    for a, b in zip(*runs, strict=True):
        assert np.array_equal(a, b)
    assert not controls[:, 2].any()
