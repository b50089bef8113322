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
    MethodError,
    RiccatiSolution,
    StabilizabilityError,
    _expm,
    _lyapunov,
    _squarings,
    block_matrices,
    bounds_report,
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


# ---------------------------------------------------------------------------
# the numpy matrix exponential against scipy.linalg.expm


def relative_error(X, ref):
    return np.linalg.norm(X - ref) / np.linalg.norm(ref)


def expm_stacks():
    """(name, stack) of the generators the library exponentiates, at the steps it takes."""
    rect = build_rectangle(1.0, 2.0, 12.0)
    for stack in stacked_blocks(rect):
        M = hamiltonian_matrix(*stack_matrices(rect.lambdas, stack))
        for h in (np.pi / (4.0 * 12.0), 0.05, 0.4):
            yield f"rectangle Hamiltonians {M.shape}, h={h:.3g}", M * h
    interval = build_interval_wave(64, control=("subinterval", 0.4, 1.9))
    A, B, _ = block_matrices(interval.lambdas, interval.records[0])
    BBT = B @ B.T
    d = A.shape[0]
    Z = np.zeros((2 * d, 2 * d))
    Z[:d, :d], Z[:d, d:], Z[d:, d:] = -(A - BBT).T, BBT, A - BBT
    for h in (np.pi / (8.0 * 64.0), 8.0 * np.pi / (8.0 * 64.0), 0.05):
        yield f"interval Van Loan {Z.shape}, h={h:.3g}", (Z * h)[None]
    syn = build_synthetic(2.0, 2.0, 12)
    (stack,) = stacked_blocks(syn)
    A, B, Q = stack_matrices(syn.lambdas, stack)
    for h in (0.02, 0.16):
        yield f"synthetic closed loops {A.shape}, h={h:.3g}", (A - B @ B.swapaxes(-1, -2)) * h
        yield f"synthetic Hamiltonians {A.shape}, h={h:.3g}", hamiltonian_matrix(A, B, Q) * h


def norm_sweep_stack(norm):
    """2x2 synthetic closed loops and Hamiltonians and 6x6 skew matrices, each of 1-norm ``norm``."""
    syn = build_synthetic(2.0, 2.0, 12)
    A, B, Q = stack_matrices(syn.lambdas, stacked_blocks(syn)[0])
    S = np.random.default_rng(5).standard_normal((4, 6, 6))
    out = []
    for G in (A - B @ B.swapaxes(-1, -2), hamiltonian_matrix(A, B, Q), S - S.swapaxes(-1, -2)):
        out.extend(G * (norm / np.abs(G).sum(axis=-2).max(axis=-1))[:, None, None])
    return out


class TestExpm:
    @pytest.mark.parametrize("name,stack", list(expm_stacks()), ids=lambda v: v if isinstance(v, str) else "")
    def test_library_generators_match_scipy(self, name, stack):
        got = _expm(stack)
        for X, G in zip(got, stack):
            assert relative_error(X, scipy.linalg.expm(G)) <= 1e-13, name

    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_norm_sweep_matches_scipy(self, norm):
        # The exponential's relative condition number grows like ||A||, so two evaluations
        # agree only to about u ||A||: against 50-digit mpmath on these matrices at norm 1e3,
        # scipy 1.17's expm erred by up to 9e-12 and _expm by up to 1e-13.
        for G in norm_sweep_stack(norm):
            assert relative_error(_expm(G), scipy.linalg.expm(G)) <= 1e-13 * max(1.0, norm)

    def test_a_slice_has_the_bits_it_has_alone(self):
        syn = build_synthetic(2.0, 2.0, 12)
        A, B, Q = stack_matrices(syn.lambdas, stacked_blocks(syn)[0])
        M = hamiltonian_matrix(A, B, Q)
        # per slice norms from 1e-3 to 1e3, which take from 0 to 8 squarings
        norms = np.resize([1e-3, 0.1, 0.5, 1.5, 3.0, 30.0, 1e3], len(M))
        mixed = M * (norms / np.abs(M).sum(axis=-2).max(axis=-1))[:, None, None]
        # and a dense slice of 1-norm 67.1 whose backward-error term adds 2 squarings to eta's 1
        dense = np.array([[-20.6, -9.1, -1.3, -16.7], [3.7, -1.0, -4.4, -9.0],
                          [24.1, 13.8, 14.5, 35.1], [7.5, 3.5, -1.6, 6.3]])
        powers = np.linalg.matrix_power(dense, 4)[None], np.linalg.matrix_power(dense, 6)[None]
        assert _squarings(dense[None], *powers)[0] == 3
        mixed = np.concatenate([mixed, dense[None]])
        for stack in (mixed, next(expm_stacks())[1]):
            got = _expm(stack)
            for X, G in zip(got, stack):
                assert np.array_equal(X, _expm(G))
        twelve = mixed[1:]
        assert np.array_equal(_expm(twelve.reshape(3, 4, 4, 4)), _expm(twelve).reshape(3, 4, 4, 4))

    def test_zero_matrix_gives_the_identity_exactly(self):
        assert np.array_equal(_expm(np.zeros((3, 5, 5))), np.broadcast_to(np.eye(5), (3, 5, 5)))
        assert np.array_equal(_expm(np.zeros((1, 1))), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# Newton-Kleinman's numpy Lyapunov solve against scipy's Bartels-Stewart solve


LYAPUNOV_SYSTEMS = {
    "rectangle_12": lambda: build_rectangle(1.0, 2.0, 12.0),
    "star_generic": lambda: build_star_network([1.0, np.pi / 2.0, np.sqrt(2.0)], 0, 0, 16.0),
    "interval_32": lambda: build_interval_wave(32, control=("subinterval", 0.4, 1.9)),
    "synthetic_12": lambda: build_synthetic(2.0, 2.0, 12),
}


def lyapunov_stacks():
    """(name, F, C) of Newton-Kleinman steps per stack: from the identity and at the ARE solution."""
    for name, build in LYAPUNOV_SYSTEMS.items():
        sys_ = build()
        E = solve_are(sys_).E
        for stack in stacked_blocks(sys_):
            A, B, Q = stack_matrices(sys_.lambdas, stack)
            BBT = B @ B.swapaxes(-1, -2)
            e = energy_index(np.array([r.modes for r in stack]))
            for start, X in (("identity", np.eye(A.shape[-1])), ("solution", E[e[:, :, None], e[:, None, :]])):
                yield f"{name} {A.shape} from the {start}", A - BBT @ X, Q + X @ BBT @ X


def two_control_widths():
    """Two 2-mode blocks of one stack, acting through two controls and through one."""
    B = np.array([[1.0, 0.3, 0.0], [0.2, 0.8, 0.0], [0.0, 0.0, 0.7], [0.0, 0.0, 0.4]])
    Q = np.zeros((4, 4))
    Q[:2, :2] = [[1.0, 0.4], [0.4, 2.0]]
    Q[2:, 2:] = [[0.5, 0.1], [0.1, 1.5]]
    return SpectralSystem.from_dense([1.0, 1.5, 2.5, 3.0], B, Q)


class TestLyapunov:
    @pytest.mark.parametrize("name,F,C", list(lyapunov_stacks()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_closed_loops_match_scipy(self, name, F, C):
        got = _lyapunov(F, C)
        for X, F_b, C_b in zip(got, F, C):
            assert relative_error(X, scipy.linalg.solve_continuous_lyapunov(F_b.T, -C_b)) <= 1e-12, name

    def test_a_slice_has_the_bits_it_has_alone(self):
        sys_ = build_rectangle(1.0, 2.0, 12.0)
        stack = max(stacked_blocks(sys_), key=len)
        A, B, Q = stack_matrices(sys_.lambdas, stack)
        BBT = B @ B.swapaxes(-1, -2)
        F, C = A - BBT, Q + BBT
        got = _lyapunov(F, C)
        for k in range(len(F)):
            assert np.array_equal(got[k], _lyapunov(F[k], C[k]))
            assert np.array_equal(got[k], _lyapunov(F[k:k + 1], C[k:k + 1])[0])

    def test_a_jordan_block_first_closed_loop_still_converges(self):
        # b^2 = 2 on one mode of frequency 1 makes A - B B^T a Jordan block at -1
        sys_ = single_mode_system(gain=np.sqrt(2.0))
        A, B, Q = first_order_matrices(sys_)
        w, V = np.linalg.eig(A - B @ B.T)
        assert np.abs(w + 1.0).max() <= 1e-7 and np.linalg.cond(V) >= 1e6
        sol = solve_are(sys_)
        assert sol.method == "newton_kleinman"
        assert sol.backward_error <= 1e-14
        assert dense_backward_error(sol, sys_) <= 1e-14
        X = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(1))
        assert np.abs(sol.E - X).max() <= 1e-13 * np.abs(X).max()

    @pytest.mark.parametrize("F", [
        np.array([[0.1, 1.0], [-1.0, 0.1]]),  # unstable
        np.array([[0.0, 1.0], [-1.0, 0.0]]),  # marginal
        np.array([[-1.0, 1.0], [0.0, -1.0]]),  # defective
        np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]]),  # defective
    ], ids=["unstable", "marginal", "defective_2", "defective_3"])
    def test_an_unstable_or_defective_closed_loop_raises(self, F):
        C = np.eye(F.shape[0])
        with pytest.raises(MethodError):
            _lyapunov(F, C)
        # one bad slice fails the stack
        good = -np.diag(np.arange(1.0, F.shape[0] + 1.0)) + 0.1 * np.tri(F.shape[0], k=-1)
        assert np.all(np.isfinite(_lyapunov(good, C)))
        with pytest.raises(MethodError):
            _lyapunov(np.stack([good, F]), np.stack([C, C]))

    def test_blocks_of_one_stack_with_different_control_widths(self):
        sys_ = two_control_widths()
        assert [[r.controls.size for r in stack] for stack in stacked_blocks(sys_)] == [[2, 1]]
        sol = solve_are(sys_)
        for r in sys_.records:
            alone = SpectralSystem.from_dense(sys_.lambdas[r.modes], r.B, r.Q)
            e = energy_index(r.modes)
            assert np.abs(sol.E[np.ix_(e, e)] - solve_are(alone).E).max() <= 1e-14 * np.abs(sol.E).max()
        assert dense_backward_error(sol, sys_) <= 1e-14


class TestDre:
    @pytest.mark.parametrize("case", sorted(DRE_ORACLE_CASES))
    def test_matches_rk_oracle(self, case):
        build, taus = DRE_ORACLE_CASES[case]
        sys_ = build()
        snaps = integrate_dre(sys_, max(taus), snapshot_times=taus)
        for snap, tau, E_ref in zip(snaps, taus, rk_dre(sys_, taus), strict=True):
            assert snap.horizon == tau
            assert np.abs(snap.E - E_ref).max() <= 1e-8 * np.abs(E_ref).max()

    @pytest.mark.parametrize("tau", [-0.5, 1.5, np.nan])
    def test_snapshot_times_outside_the_horizon_are_rejected(self, tau):
        with pytest.raises(DomainError, match="snapshot times"):
            integrate_dre(build_synthetic(2.0, 2.0, 3), 1.0, snapshot_times=[0.5, tau])

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

    def test_zero_cost_blocks_return_exact_zero(self):
        # A is skew, so without cost no solution stabilizes: the minimal one, 0, is returned
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2)))
        sol = solve_are(sys_)
        assert not sol.E.any()
        assert (sol.backward_error, sol.residual, sol.method) == (0.0, 0.0, "dre_limit")

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
            A, B, _ = first_order_matrices(sys_)
            eigs = np.linalg.eigvals(A - B @ (B.T @ sol.E))
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


def dense_bounds(E_hat, system, weak, strong):
    """(c1, c2, x1, x2): the extreme generalized eigenpairs of E against diag(w) on the whole system."""
    w1, v1 = scipy.linalg.eigh(E_hat.E, np.diag(np.repeat(weak.density_weights(system.lambdas), 2)))
    w2, v2 = scipy.linalg.eigh(E_hat.E, np.diag(np.repeat(strong.density_weights(system.lambdas), 2)))
    return w1[0], w2[-1], v1[:, 0], v2[:, -1]


BOUNDS_ORACLE_CASES = {
    "synthetic": (lambda: build_synthetic(2.0, 2.0, 16),
                  NormScale.graded(-0.5), NormScale.graded(0.5)),
    "rectangle": (lambda: build_rectangle(1.0, 2.0, 8.0),
                  NormScale.energy(), NormScale.graded(0.5)),
    "exp_weight": (lambda: build_synthetic_exponential(0.3, 0.2, 12),
                   NormScale.exp_weight(0.2), NormScale.energy()),
    "star": (lambda: build_star_network([1.0, np.pi / 2.0, np.sqrt(2.0)], 0, 0, 16.0),
             NormScale.energy(), NormScale.energy()),
    "zero_cost": (lambda: SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2))),
                  NormScale.energy(), NormScale.energy()),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_ORACLE_CASES))
def test_bounds_report_matches_dense_oracle(case):
    build, weak, strong = BOUNDS_ORACLE_CASES[case]
    sys_ = build()
    sol = solve_are(sys_)
    rep = bounds_report(sol, sys_, weak, strong)
    c1, c2, x1, x2 = dense_bounds(sol, sys_, weak, strong)
    scale = max(abs(c1), abs(c2))
    assert rep.c1_hat == pytest.approx(c1, rel=1e-12, abs=1e-12 * scale)
    assert rep.c2_hat == pytest.approx(c2, rel=1e-12, abs=1e-12 * scale)
    # the extreme eigenvectors attain the constants
    lam = sys_.lambdas
    assert value(sol, x1) == pytest.approx(rep.c1_hat * energy_norm_squared(x1, lam, weak),
                                           rel=1e-12, abs=1e-12 * scale)
    assert value(sol, x2) == pytest.approx(rep.c2_hat * energy_norm_squared(x2, lam, strong),
                                           rel=1e-12, abs=1e-12 * scale)
    # and every random state's ratios lie between them
    probes = np.random.default_rng(9).standard_normal((200, sol.dim))
    vals = np.einsum("ij,ij->i", probes @ sol.E, probes)
    assert (vals / energy_norm_squared(probes, lam, weak)).min() >= rep.c1_hat - 1e-12 * scale
    assert (vals / energy_norm_squared(probes, lam, strong)).max() <= rep.c2_hat + 1e-12 * scale
    if case == "zero_cost":
        assert (rep.c1_hat, rep.c2_hat) == (0.0, 0.0)


class TestBounds:
    def test_synthetic_two_sided(self):
        sys_ = build_synthetic(2.0, 2.0, 16)
        sol = solve_are(sys_)
        rep = bounds_report(sol, sys_, NormScale.graded(-0.5), NormScale.graded(0.5))
        assert rep.c1_hat > 0.0
        assert np.isfinite(rep.c2_hat)

    @pytest.mark.parametrize("build, weak, strong, c1, c2", [
        pytest.param(lambda: build_synthetic(2.0, 2.0, 32), NormScale.graded(-0.5),
                     NormScale.graded(0.5), 0.64359, 1.55377, id="synthetic_32"),
        pytest.param(lambda: build_rectangle(1.0, 2.0, 12.0), NormScale.energy(),
                     NormScale.energy(), 0.98415, 3.94351, id="rectangle_12"),
    ])
    def test_exact_constants(self, build, weak, strong, c1, c2):
        sys_ = build()
        rep = bounds_report(solve_are(sys_), sys_, weak, strong)
        assert (round(rep.c1_hat, 5), round(rep.c2_hat, 5)) == (c1, c2)

    def test_zero_cost_gives_zero_lower_constant(self):
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2)))
        sol = solve_are(sys_)  # the minimal solution 0, exactly
        rep = bounds_report(sol, sys_, NormScale.energy(), NormScale.energy())
        assert rep.c1_hat == 0.0

    def test_exactly_observable_energy_scales(self):
        sys_ = build_synthetic(np.inf, np.inf, 8)
        sol = solve_are(sys_)
        rep = bounds_report(sol, sys_, NormScale.energy(), NormScale.energy())
        assert rep.c1_hat > 0.0
        assert np.isfinite(rep.c2_hat)

    def test_bounds_hold_on_probes_by_construction(self):
        sys_ = build_synthetic(2.0, 2.0, 8)
        sol = solve_are(sys_)
        weak, strong = NormScale.graded(-0.5), NormScale.graded(0.5)
        rep = bounds_report(sol, sys_, weak, strong)
        rng = np.random.default_rng(6)
        probes = [np.eye(16)[:, k] for k in range(16)]
        raw = rng.standard_normal((100, 16))
        probes += [r / np.linalg.norm(r) for r in raw]
        for x in probes:
            val = value(sol, x)
            assert rep.c1_hat * energy_norm_squared(x, sys_.lambdas, weak) <= val * (1 + 1e-12)
            assert val <= rep.c2_hat * energy_norm_squared(x, sys_.lambdas, strong) * (1 + 1e-12)

    def test_position_only_scale_has_no_bounds(self):
        sys_ = build_synthetic(2.0, 2.0, 8)
        with pytest.raises(DomainError):
            bounds_report(solve_are(sys_), sys_, NormScale.sobolev_state(0.25),
                          NormScale.graded(0.5))


class TestExponentialWeightScales:
    def test_two_sided_bounds_with_exp_weights(self):
        # exponentially weighted observability: the bound scales are the
        # matching exp-weight norms
        sys_ = build_synthetic_exponential(0.3, 0.2, 12)
        sol = solve_are(sys_)
        # weak side: the planted observation weight exp(-2*0.2*lambda); the
        # exp-weight family only covers weak norms (alpha >= 0), so the upper
        # bound uses the energy norm (finite at any truncation)
        rep = bounds_report(sol, sys_, NormScale.exp_weight(0.2), NormScale.energy())
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
    # each block alone, from the dense matrices rather than its record: the stacked solve
    # gives each block the solution it has alone
    alone = [solve_are(SpectralSystem.from_dense(
        sys_.lambdas[m], sys_.B_mod[m], sys_.Q_obs[np.ix_(m, m)])) for m in sys_.blocks]
    for m, part in zip(sys_.blocks, alone):
        e = energy_index(m)
        assert np.array_equal(sol.E[np.ix_(e, e)], part.E)
    assert sol.backward_error <= max(part.backward_error for part in alone) * (1.0 + 1e-12)

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
