import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from wavelq.closed_loop import hum_null_control
from wavelq.cli import build_model
from wavelq.models import (
    SpectralSystem,
    build_interval_wave,
    build_rectangle,
    build_star_network,
    build_synthetic,
    build_synthetic_exponential,
    controllability_gramian,
    energy_index,
    observability_gramian,
    shell_constant,
    stacked_blocks,
)
from wavelq.riccati import (
    RiccatiSolution,
    StabilizabilityError,
    block_matrices,
    bounds_report,
    closed_loop_matrix,
    first_order_matrices,
    hamiltonian_matrix,
    integrate_dre,
    riccati_step,
    solve_are,
    stack_matrices,
    step_map,
    value,
)
from wavelq.spectral import DomainError, NormScale, energy_norm_squared

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def single_mode_system(lam=1.0, gain=1.0, q=1.0):
    return SpectralSystem.from_dense([lam], np.array([[gain]]), np.array([[q]]))


def exact_single_mode_are():
    e2 = np.sqrt(2.0) - 1.0
    e3 = np.sqrt(2.0 * e2)
    e1 = np.sqrt(2.0) * e3
    return np.array([[e1, e2], [e2, e3]])


class TestFirstOrderMatrices:
    def test_skew_symmetry_exact(self):
        A, _, _ = first_order_matrices(build_synthetic(2.0, 2.0, 5))
        assert np.abs(A + A.T).max() == 0.0

    def test_eigenvalues_are_pm_i_lambda(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        A, _, _ = first_order_matrices(sys_)
        eigs = np.sort_complex(np.linalg.eigvals(A))
        expected = np.sort_complex(np.concatenate([1j * sys_.lambdas, -1j * sys_.lambdas]))
        assert np.abs(eigs - expected).max() <= 1e-12

    def test_full_observation_lifts_to_identity_on_xi(self):
        sys_ = build_interval_wave(4)  # Q_obs = diag(lambda^2)
        _, _, Q = first_order_matrices(sys_)
        expected = np.zeros((8, 8))
        expected[np.ix_(range(0, 8, 2), range(0, 8, 2))] = np.eye(4)
        assert np.abs(Q - expected).max() <= 1e-14

    def test_b_stacks_on_velocity_rows(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        _, B, _ = first_order_matrices(sys_)
        assert np.abs(B[0::2, :]).max() == 0.0
        assert np.allclose(B[1::2, :], sys_.B_mod)

    @pytest.mark.parametrize("sys_", [build_rectangle(1.0, 2.0, 9.0), build_synthetic(2.0, 2.0, 5),
                                      build_interval_wave(5, control=("subinterval", 0.4, 1.9)),
                                      build_star_network([np.pi, np.pi, 1.0], 0, 2, 8.0)],
                             ids=lambda s: s.label)
    def test_block_and_stack_matrices_are_pieces_of_the_dense_ones(self, sys_):
        A, B, Q = first_order_matrices(sys_)
        for stack in stacked_blocks(sys_):
            A_s, B_s, Q_s = stack_matrices(sys_.lambdas, stack)
            for r, A_k, B_k, Q_k in zip(stack, A_s, B_s, Q_s):
                e = energy_index(r.modes)
                A_b, B_b, Q_b = block_matrices(sys_.lambdas, r)
                assert np.array_equal(A_b, A[np.ix_(e, e)]) and np.array_equal(A_k, A_b)
                assert np.array_equal(Q_b, Q[np.ix_(e, e)]) and np.array_equal(Q_k, Q_b)
                assert np.array_equal(B_b, B[np.ix_(e, r.controls)])
                assert np.array_equal(B_k[:, :r.controls.size], B_b)
                assert not B_k[:, r.controls.size:].any()
                # the other controls do not act on the block
                assert not np.delete(B[e], r.controls, axis=1).any()


def rk_dre(system, taus):
    """DOP853 oracle for the DRE at each time in taus: E(0) = 0, E packed as its upper triangle."""
    A, B, Q = first_order_matrices(system)
    dim = A.shape[0]
    iu = np.triu_indices(dim)

    def unpack(y):
        E = np.zeros((dim, dim))
        E[iu] = y
        E.T[iu] = y
        return E

    def rhs(_t, y):
        E = unpack(y)
        EB = E @ B
        return (Q + E @ A + A.T @ E - EB @ EB.T)[iu]

    order = np.argsort(taus)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, max(taus)), np.zeros(iu[0].size),
                                    method="DOP853", t_eval=np.asarray(taus)[order],
                                    rtol=1e-10, atol=1e-12,
                                    max_step=np.pi / (4.0 * system.lambdas.max()))
    assert sol.success
    out = [None] * len(taus)
    for k, i in enumerate(order):
        out[i] = unpack(sol.y[:, k])
    return out


def random_system(n=4, m=2, seed=0):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.5, 4.0, n))
    C = rng.standard_normal((n, n))
    return SpectralSystem.from_dense(lam, rng.standard_normal((n, m)), C @ C.T / n)


def without_control(sys_):
    """The system with one control column that acts on no mode."""
    return SpectralSystem.from_dense(sys_.lambdas, np.zeros((sys_.n_modes, 1)), sys_.Q_obs)


DRE_ORACLE_CASES = {
    "random_synthetic": (lambda: random_system(), [6.0]),
    "no_control": (lambda: without_control(build_synthetic(2.0, 2.0, 3)), [4.0]),
    "no_cost": (lambda: SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2))), [5.0]),
    "interval_subinterval": (lambda: build_interval_wave(6, control=("subinterval", 0.4, 2.0)),
                             [3.0]),
    "off_grid_snapshots": (lambda: build_synthetic(2.0, 2.0, 4), [0.37, 1.0, 2.9, np.e]),
}


class TestDre:
    @pytest.mark.parametrize("case", sorted(DRE_ORACLE_CASES))
    def test_matches_rk_oracle(self, case):
        build, taus = DRE_ORACLE_CASES[case]
        sys_ = build()
        snaps = integrate_dre(sys_, max(taus), snapshot_times=taus)
        for snap, tau, E_ref in zip(snaps, taus, rk_dre(sys_, taus), strict=True):
            assert snap.horizon == tau
            assert np.abs(snap.E - E_ref).max() <= 1e-8 * np.abs(E_ref).max()

    def test_starts_at_zero_exactly(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        snaps = integrate_dre(sys_, 1.0, snapshot_times=[0.0, 1.0])
        assert np.all(snaps[0].E == 0.0)

    def test_no_control_matches_observation_gramian(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        zsys = without_control(sys_)
        T = 3.7
        E = integrate_dre(zsys, T)[0].E
        W = observability_gramian(zsys, T, use_control=False)
        assert np.abs(E - W).max() <= 1e-8 * np.abs(W).max()

    def test_monotone_quadratic_form(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        taus = np.linspace(0.0, 10.0, 10)
        snaps = integrate_dre(sys_, 10.0, snapshot_times=taus)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(8)
            vals = [x @ s.E @ x for s in snaps]
            assert all(vals[i + 1] >= vals[i] - 1e-8 for i in range(len(vals) - 1))

    def test_converges_to_are_by_tau_40(self):
        sys_ = single_mode_system()
        E40 = integrate_dre(sys_, 40.0)[0].E
        assert np.abs(E40 - exact_single_mode_are()).max() <= 1e-6


class TestAre:
    def test_single_mode_closed_form_both_methods(self):
        # the Newton-Kleinman solve and the DRE at a converged horizon
        sys_ = single_mode_system()
        sol = solve_are(sys_)
        assert sol.method == "newton_kleinman"
        assert sol.residual <= 1e-9 * (1.0 + np.linalg.norm(sol.E) ** 2)
        for E in (sol.E, integrate_dre(sys_, 80.0)[0].E):
            assert np.abs(E - exact_single_mode_are()).max() <= 1e-8

    def test_matches_scipy_care(self):
        sys_ = build_synthetic(2.0, 2.0, 6)
        A, B, Q = first_order_matrices(sys_)
        X = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(B.shape[1]))
        sol = solve_are(sys_)
        assert np.abs(sol.E - X).max() <= 1e-7 * (1.0 + np.abs(X).max())

    def test_zero_cost_gives_zero_minimal_solution(self):
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2)))
        sol = solve_are(sys_)
        assert np.abs(sol.E).max() <= 1e-12

    def test_block_diagonal_decoupling(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        E = solve_are(sys_).E
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert np.abs(E[2 * i:2 * i + 2, 2 * j:2 * j + 2]).max() <= 1e-10

    def test_methods_agree_on_probes(self):
        sys_ = build_synthetic(2.0, 2.0, 5)
        nk = solve_are(sys_)
        dre = integrate_dre(sys_, 160.0)[0]  # the minimal solution, up to its convergence
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(10)
            v_nk = value(nk, x)
            v_dre = value(dre, x)
            assert v_dre <= v_nk + 1e-6 * (1.0 + v_nk)  # minimality
            assert abs(v_nk - v_dre) <= 1e-6 * (1.0 + v_nk)

    def test_uncontrolled_costly_mode_raises(self):
        # mode 2 has no control authority but carries observation cost
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.array([[1.0], [0.0]]), np.diag([1.0, 4.0]))
        with pytest.raises(StabilizabilityError):
            solve_are(sys_)

    def test_closed_loop_marginal_stability(self):
        for builder in (lambda: build_synthetic(2.0, 2.0, 8),
                        lambda: build_interval_wave(6, control=("subinterval", 0.4, 2.0))):
            sys_ = builder()
            sol = solve_are(sys_)
            eigs = np.linalg.eigvals(closed_loop_matrix(sys_, sol))
            assert eigs.real.max() <= 1e-8


def dense_backward_error(sol, sys_):
    """||R|| / (||Q|| + 2 ||A|| ||E|| + ||E||^2 ||B B^T||) on the whole system, Frobenius norms."""
    A, B, Q = first_order_matrices(sys_)
    BBT = B @ B.T
    R = Q + sol.E @ A + A.T @ sol.E - sol.E @ BBT @ sol.E
    nE = np.linalg.norm(sol.E)
    return np.linalg.norm(R) / (np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * nE
                                + nE**2 * np.linalg.norm(BBT))


BACKWARD_ERROR_SYSTEMS = {
    "bounds_synthetic": lambda: build_model(
        json.loads((CONFIG_DIR / "bounds_synthetic.json").read_text())["model"]),
    "rectangle_12": lambda: build_rectangle(1.0, 2.0, 12.0),
    "rectangle_16": lambda: build_rectangle(1.0, 2.0, 16.0),
    # modes that vanish on edge 0 leave no stabilizing solution: the DRE limit
    "star_111": lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0),
}


@pytest.mark.parametrize("case, method", [
    ("bounds_synthetic", "newton_kleinman"), ("rectangle_12", "newton_kleinman"),
    ("rectangle_16", "newton_kleinman"), ("star_111", "dre_limit")])
def test_both_methods_reach_backward_error_1e_14(case, method):
    sys_ = BACKWARD_ERROR_SYSTEMS[case]()
    sol = solve_are(sys_)
    assert sol.method == method
    assert dense_backward_error(sol, sys_) <= 1e-14
    assert sol.backward_error <= 1e-14


class TestRiccatiSolution:
    def test_symmetry_check_forms_no_matrix_of_the_size_of_e(self):
        E = np.random.default_rng(7).standard_normal((2000, 2000))
        E += E.T
        # a first call outside the trace, so nothing it imports or caches is counted
        RiccatiSolution(E=E[:3, :3] + E[:3, :3].T, horizon=1.0, residual=0.0, method="dre")
        tracemalloc.start()
        try:
            RiccatiSolution(E=E, horizon=np.inf, residual=0.0, method="newton_kleinman")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < E.nbytes / 4

    @pytest.mark.parametrize("at", [(1, 2), (250, 10), (10, 250)])
    def test_asymmetry_of_twice_the_tolerance_raises(self, at):
        # 300 rows span more than one band of the check
        E = np.random.default_rng(8).uniform(-1.0, 1.0, (300, 300))
        E += E.T
        E[0, 0] = 5.0
        tol = 1e-10 * (1.0 + 5.0)
        RiccatiSolution(E=E, horizon=np.inf, residual=0.0, method="newton_kleinman")
        near = E.copy()
        near[at] += 0.5 * tol
        RiccatiSolution(E=near, horizon=np.inf, residual=0.0, method="newton_kleinman")
        E[at] += 2.0 * tol
        with pytest.raises(DomainError):
            RiccatiSolution(E=E, horizon=np.inf, residual=0.0, method="newton_kleinman")


class TestValue:
    def test_zero_state(self):
        sol = solve_are(single_mode_system())
        assert value(sol, np.zeros(2)) == 0.0

    def test_single_mode_value_is_e1(self):
        sol = solve_are(single_mode_system())
        e1 = np.sqrt(2.0) * np.sqrt(2.0 * (np.sqrt(2.0) - 1.0))
        assert value(sol, np.array([1.0, 0.0])) == pytest.approx(e1, abs=1e-8)

    def test_no_control_value_is_free_flow_cost(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        zsys = without_control(sys_)
        T = 5.0
        snap = integrate_dre(zsys, T)[0]
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(6)
        W = observability_gramian(zsys, T, use_control=False)
        assert value(snap, x0) == pytest.approx(x0 @ W @ x0, rel=1e-8)


def per_probe_bounds(E_hat, system, weak, strong, n_random, rng):
    """(c1, c2, used, excluded) from one value and two norm calls per probe, as a loop."""
    dim = E_hat.dim
    probes = [np.eye(dim)[:, k] for k in range(dim)]
    raw = rng.standard_normal((int(n_random), dim))
    probes += [r / np.linalg.norm(r) for r in raw]
    c1, c2, excluded, used = np.inf, 0.0, 0, 0
    for x in probes:
        val = value(E_hat, x)
        wn = energy_norm_squared(x, system.lambdas, weak)
        sn = energy_norm_squared(x, system.lambdas, strong)
        if wn <= 0.0:
            if val > 0.0:
                excluded += 1
                continue
            wn = np.nan
        used += 1
        if np.isfinite(wn):
            c1 = min(c1, val / wn)
        if sn > 0.0:
            c2 = max(c2, val / sn)
    return max(c1, 0.0), c2, used, excluded


BOUNDS_ORACLE_CASES = {
    "synthetic": (lambda: build_synthetic(2.0, 2.0, 16),
                  NormScale.graded(-0.5), NormScale.graded(0.5)),
    "rectangle": (lambda: build_rectangle(1.0, 2.0, 8.0),
                  NormScale.energy(), NormScale.graded(0.5)),
    "exp_weight": (lambda: build_synthetic_exponential(0.3, 0.2, 12),
                   NormScale.exp_weight(0.2), NormScale.energy()),
    "sobolev_excluded": (lambda: build_synthetic(2.0, 2.0, 8),
                         NormScale.sobolev_state(0.25), NormScale.graded(0.5)),
    "zero_cost": (lambda: SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2))),
                  NormScale.energy(), NormScale.energy()),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_ORACLE_CASES))
def test_bounds_report_matches_per_probe_oracle(case):
    build, weak, strong = BOUNDS_ORACLE_CASES[case]
    sys_ = build()
    # with zero cost the DRE stays exactly at the minimal solution 0; Newton-Kleinman nears it
    sol = integrate_dre(sys_, 10.0)[0] if case == "zero_cost" else solve_are(sys_)
    rep = bounds_report(sol, sys_, weak, strong, n_random=40, rng=np.random.default_rng(9))
    c1, c2, used, excluded = per_probe_bounds(sol, sys_, weak, strong, 40,
                                              np.random.default_rng(9))
    assert rep.c1_hat == pytest.approx(c1, rel=1e-14, abs=0.0)
    assert rep.c2_hat == pytest.approx(c2, rel=1e-14, abs=0.0)
    assert (rep.probe_count, rep.excluded) == (used, excluded)
    if case == "sobolev_excluded":
        assert excluded == sol.dim // 2  # the canonical zeta probes
    if case == "zero_cost":
        assert c1 == 0.0


class TestBounds:
    def test_synthetic_two_sided(self):
        sys_ = build_synthetic(2.0, 2.0, 16)
        sol = solve_are(sys_)
        rep = bounds_report(sol, sys_, NormScale.graded(-0.5), NormScale.graded(0.5),
                            rng=np.random.default_rng(3))
        assert rep.c1_hat > 0.0
        assert np.isfinite(rep.c2_hat)
        assert rep.probe_count >= 32 + 100

    def test_probe_count_is_canonical_plus_n_random(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        sol = solve_are(sys_)
        rep = bounds_report(sol, sys_, NormScale.energy(), NormScale.energy(), n_random=5,
                            rng=np.random.default_rng(7))
        assert rep.probe_count == sol.dim + 5

    def test_zero_cost_gives_zero_lower_constant(self):
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2)))
        sol = integrate_dre(sys_, 10.0)[0]  # the minimal solution 0, exactly
        rep = bounds_report(sol, sys_, NormScale.energy(), NormScale.energy(),
                            rng=np.random.default_rng(4))
        assert rep.c1_hat == 0.0

    def test_exactly_observable_energy_scales(self):
        sys_ = build_synthetic(np.inf, np.inf, 8)
        sol = solve_are(sys_)
        rep = bounds_report(sol, sys_, NormScale.energy(), NormScale.energy(),
                            rng=np.random.default_rng(5))
        assert rep.c1_hat > 0.0
        assert np.isfinite(rep.c2_hat)

    def test_bounds_hold_on_probes_by_construction(self):
        sys_ = build_synthetic(2.0, 2.0, 8)
        sol = solve_are(sys_)
        weak, strong = NormScale.graded(-0.5), NormScale.graded(0.5)
        rep = bounds_report(sol, sys_, weak, strong, rng=np.random.default_rng(6))
        rng = np.random.default_rng(6)
        probes = [np.eye(16)[:, k] for k in range(16)]
        raw = rng.standard_normal((100, 16))
        probes += [r / np.linalg.norm(r) for r in raw]
        for x in probes:
            val = value(sol, x)
            assert rep.c1_hat * energy_norm_squared(x, sys_.lambdas, weak) <= val * (1 + 1e-12)
            assert val <= rep.c2_hat * energy_norm_squared(x, sys_.lambdas, strong) * (1 + 1e-12)


class TestExponentialWeightScales:
    def test_two_sided_bounds_with_exp_weights(self):
        # exponentially weighted observability: the bound scales are the
        # matching exp-weight norms
        sys_ = build_synthetic_exponential(0.3, 0.2, 12)
        sol = solve_are(sys_)
        # weak side: the planted observation weight exp(-2*0.2*lambda); the
        # exp-weight family only covers weak norms (alpha >= 0), so the upper
        # probe uses the energy norm (finite at any truncation)
        rep = bounds_report(sol, sys_, NormScale.exp_weight(0.2), NormScale.energy(),
                            rng=np.random.default_rng(8))
        assert rep.c1_hat > 0.0 and np.isfinite(rep.c2_hat)

    def test_are_solution_is_psd(self):
        for sys_ in (build_synthetic(2.0, 2.0, 8),
                     build_interval_wave(6, control=("subinterval", 0.5, 2.2))):
            sol = solve_are(sys_)
            scale = np.abs(sol.E).max()
            assert scipy.linalg.eigvalsh(sol.E)[0] >= -1e-8 * scale


# ---------------------------------------------------------------------------
# block dispatch against monolithic oracles on the whole system


@st.composite
def block_systems(draw):
    """A system with 1-3 coupled blocks of 1-3 modes each, on randomly permuted mode indices."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    # per block, which of B B^T and Q_obs couples its modes (the other is diagonal)
    links = draw(st.lists(st.sampled_from(["both", "control", "observation"]),
                          min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    perm = rng.permutation(n)
    B = np.zeros((n, n))
    Q = np.zeros((n, n))
    start = 0
    for size, link in zip(sizes, links):
        rows = np.ix_(perm[start:start + size], perm[start:start + size])
        B[rows] = np.diag(rng.uniform(0.5, 2.0, size))
        if link != "observation":
            B[rows] += rng.standard_normal((size, size))
        C = rng.standard_normal((size, size))
        Q[rows] = C @ C.T + 0.1 * np.eye(size) if link != "control" \
            else np.diag(rng.uniform(0.1, 2.0, size))
        start += size
    sys_ = SpectralSystem.from_dense(np.sort(rng.uniform(0.5, 4.0, n)), B, Q)
    return sys_, len(sizes), rng.standard_normal(2 * n)


def mono_dre(sys_, taus):
    """Davison-Maki sweep of the whole system in steps of at most pi/(4 lambda_max)."""
    A, B, Q = first_order_matrices(sys_)
    M = hamiltonian_matrix(A, B, Q)
    E, t_now, out = np.zeros_like(A), 0.0, []
    for tau in taus:
        steps = int(np.ceil((tau - t_now) / (np.pi / (4.0 * sys_.lambdas.max()))))
        Phi, _ = step_map(M, (tau - t_now) / steps)
        for _ in range(steps):
            E = riccati_step(E, Phi)
        out.append(E)
        t_now = tau
    return out


@settings(max_examples=25, derandomize=True, deadline=None)
@given(case=block_systems())
def test_block_dispatch_matches_monolithic_oracles(case):
    sys_, n_blocks, x0 = case
    assert len(sys_.blocks) == n_blocks
    A, B, Q = first_order_matrices(sys_)
    BBT = B @ B.T

    X = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(B.shape[1]))
    sol = solve_are(sys_)
    assert np.abs(sol.E - X).max() <= 1e-8 * (1.0 + np.abs(X).max())
    R = Q + sol.E @ A + A.T @ sol.E - sol.E @ BBT @ sol.E
    assert sol.residual == pytest.approx(np.linalg.norm(R), rel=1e-6, abs=1e-14)
    assert np.linalg.norm(R) <= 1e-9 * (1.0 + np.linalg.norm(sol.E) ** 2)
    nE = np.linalg.norm(sol.E)
    assert sol.backward_error == pytest.approx(sol.residual / (
        np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * nE + nE**2 * np.linalg.norm(BBT)),
        rel=1e-12)
    # each block alone, from the dense matrices rather than its record
    worst = max(solve_are(SpectralSystem.from_dense(
        sys_.lambdas[m], sys_.B_mod[m], sys_.Q_obs[np.ix_(m, m)], bbt=sys_.bbt[np.ix_(m, m)]
    )).backward_error for m in sys_.blocks)
    assert sol.backward_error <= worst * (1.0 + 1e-12)

    taus = [0.7, 2.0]
    for snap, E_ref in zip(integrate_dre(sys_, 2.0, snapshot_times=taus), mono_dre(sys_, taus)):
        assert np.abs(snap.E - E_ref).max() <= 1e-9 * np.abs(E_ref).max()

    T = 3.0
    for use_control, M in ((True, BBT), (False, Q)):
        W = step_map(A, T, cost=M)[1]
        assert np.abs(observability_gramian(sys_, T, use_control) - W).max() <= 1e-12 * np.abs(W).max()
        lo = np.median(sys_.lambdas)
        shell = np.flatnonzero(sys_.lambdas >= lo)
        e = np.column_stack([2 * shell, 2 * shell + 1]).ravel()
        ref = scipy.linalg.eigvalsh(W[np.ix_(e, e)])[0] / (T / 2.0)
        assert shell_constant(sys_, lo, 10.0, T, use_control) == pytest.approx(
            max(ref, 0.0), abs=1e-12 * np.abs(W).max())
    Wc = step_map(A.T, T, cost=BBT)[1]
    assert np.abs(controllability_gramian(sys_, T) - Wc).max() <= 1e-12 * np.abs(Wc).max()

    t0 = 6.0
    hum = hum_null_control(sys_, x0, t0, n_samples=5)
    gamma = np.linalg.solve(step_map(A.T, t0, cost=BBT)[1], scipy.linalg.expm(A * t0) @ x0)
    assert hum.certified
    assert hum.cost == pytest.approx(gamma @ scipy.linalg.expm(A * t0) @ x0, rel=1e-8)
    for t, u in zip(hum.times, hum.controls):
        u_ref = -B.T @ scipy.linalg.expm(A * (t - t0)) @ gamma
        assert np.abs(u - u_ref).max() <= 1e-8 * (1.0 + np.abs(u_ref).max())
