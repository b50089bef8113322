import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from wavelq import riccati
from wavelq.closed_loop import hum_null_control, simulate_riccati_feedback, smooth_initial_state
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
    _squarings,
    bounds_report,
    first_order_matrices,
    hamiltonian_matrix,
    integrate_dre,
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
        for stack in stacked_blocks(sys_.records):
            _, _, (A_s, B_s, Q_s) = stack_matrices(sys_.lambdas, stack)
            for r, A_k, B_k, Q_k in zip(stack, A_s, B_s, Q_s):
                e = energy_index(r.modes)
                assert np.array_equal(A_k, A[np.ix_(e, e)])
                assert np.array_equal(Q_k, Q[np.ix_(e, e)])
                assert np.array_equal(B_k[:, :r.controls.size], B[np.ix_(e, r.controls)])
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
    for stack in stacked_blocks(rect.records):
        M = hamiltonian_matrix(*stack_matrices(rect.lambdas, stack)[2])
        for h in (np.pi / (4.0 * 12.0), 0.05, 0.4):
            yield f"rectangle Hamiltonians {M.shape}, h={h:.3g}", M * h
    interval = build_interval_wave(64, control=("subinterval", 0.4, 1.9))
    assert len(interval.records) == 1
    A, B, _ = first_order_matrices(interval)
    BBT = B @ B.T
    d = A.shape[0]
    Z = np.zeros((2 * d, 2 * d))
    Z[:d, :d], Z[:d, d:], Z[d:, d:] = -(A - BBT).T, BBT, A - BBT
    for h in (np.pi / (8.0 * 64.0), 8.0 * np.pi / (8.0 * 64.0), 0.05):
        yield f"interval Van Loan {Z.shape}, h={h:.3g}", (Z * h)[None]
    syn = build_synthetic(2.0, 2.0, 12)
    (stack,) = stacked_blocks(syn.records)
    _, _, (A, B, Q) = stack_matrices(syn.lambdas, stack)
    for h in (0.02, 0.16):
        yield f"synthetic closed loops {A.shape}, h={h:.3g}", (A - B @ B.swapaxes(-1, -2)) * h
        yield f"synthetic Hamiltonians {A.shape}, h={h:.3g}", hamiltonian_matrix(A, B, Q) * h


def norm_sweep_stack(norm):
    """2x2 synthetic closed loops and Hamiltonians and 6x6 skew matrices, each of 1-norm ``norm``."""
    syn = build_synthetic(2.0, 2.0, 12)
    _, _, (A, B, Q) = stack_matrices(syn.lambdas, stacked_blocks(syn.records)[0])
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
        _, _, (A, B, Q) = stack_matrices(syn.lambdas, stacked_blocks(syn.records)[0])
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
# the Newton correction's Lyapunov solve, a doubled limit, against scipy's Bartels-Stewart solve


LYAPUNOV_SYSTEMS = {
    "rectangle_12": lambda: build_rectangle(1.0, 2.0, 12.0),
    "star_generic": lambda: build_star_network([1.0, np.pi / 2.0, np.sqrt(2.0)], 0, 0, 16.0),
    "interval_32": lambda: build_interval_wave(32, control=("subinterval", 0.4, 1.9)),
    "synthetic_12": lambda: build_synthetic(2.0, 2.0, 12),
}


def lyapunov_stacks():
    """(name, F, C) of Newton steps per stack: from the identity and at the ARE solution."""
    for name, build in LYAPUNOV_SYSTEMS.items():
        sys_ = build()
        E = solve_are(sys_).E
        for stack in stacked_blocks(sys_.records):
            _, _, (A, B, Q) = stack_matrices(sys_.lambdas, stack)
            BBT = B @ B.swapaxes(-1, -2)
            e = energy_index(np.array([r.modes for r in stack]))
            for start, X in (("identity", np.eye(A.shape[-1])), ("solution", E[e[:, :, None], e[:, None, :]])):
                yield f"{name} {A.shape} from the {start}", A - BBT @ X, Q + X @ BBT @ X


def lyapunov_limit(F, C, h=0.1):
    """The solution X of F^T X + X F = -C as ``solve_are``'s Newton step forms it: the doubled
    limit of the triple (e^{F h}, 0, W), W the Van Loan integral of C over the step."""
    Phi, W = step_map(F, h, cost=C)
    return riccati._doubled_limit(Phi, np.zeros_like(Phi), W)


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
        got = lyapunov_limit(F, C)
        for X, F_b, C_b in zip(got, F, C):
            assert relative_error(X, scipy.linalg.solve_continuous_lyapunov(F_b.T, -C_b)) <= 1e-12, name

    def test_a_slice_has_the_bits_it_has_alone(self):
        sys_ = build_rectangle(1.0, 2.0, 12.0)
        stack = max(stacked_blocks(sys_.records), key=len)
        _, _, (A, B, Q) = stack_matrices(sys_.lambdas, stack)
        BBT = B @ B.swapaxes(-1, -2)
        F, C = A - BBT, Q + BBT
        got = lyapunov_limit(F, C)
        for k in range(len(F)):
            assert np.array_equal(got[k], lyapunov_limit(F[k:k + 1], C[k:k + 1])[0])

    def test_a_jordan_block_closed_loop_converges(self):
        # b^2 = 2 on one mode of frequency 1 makes A - B B^T a Jordan block at -1
        sys_ = single_mode_system(gain=np.sqrt(2.0))
        A, B, Q = first_order_matrices(sys_)
        w, V = np.linalg.eig(A - B @ B.T)
        assert np.abs(w + 1.0).max() <= 1e-7 and np.linalg.cond(V) >= 1e6
        sol = solve_are(sys_)
        assert sol.method == "doubling"
        assert sol.backward_error <= 1e-14
        assert dense_backward_error(sol, sys_) <= 1e-14
        X = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(1))
        assert np.abs(sol.E - X).max() <= 1e-13 * np.abs(X).max()
        # and its Lyapunov limit matches Bartels-Stewart, where an eigenbasis is singular
        F = A - B @ B.T
        assert relative_error(lyapunov_limit(F[None], Q[None])[0],
                              scipy.linalg.solve_continuous_lyapunov(F.T, -Q)) <= 1e-12

    @pytest.mark.parametrize("F", [
        np.array([[0.1, 1.0], [-1.0, 0.1]]),  # unstable
        np.array([[0.0, 1.0], [-1.0, 0.0]]),  # marginal
    ], ids=["unstable", "marginal"])
    def test_an_unstable_or_marginal_closed_loop_has_no_limit(self, F):
        # the slice gets nan, and the other slices of its stack their own limits
        C = np.eye(F.shape[0])
        assert np.isnan(lyapunov_limit(F[None], C[None])).all()
        good = np.array([[-1.0, 1.0], [-1.0, -0.5]])
        got = lyapunov_limit(np.stack([good, F]), np.stack([C, C]))
        assert np.array_equal(got[0], lyapunov_limit(good[None], C[None])[0]) and np.isnan(got[1]).all()

    @pytest.mark.parametrize("F", [
        np.array([[-1.0, 1.0], [0.0, -1.0]]),
        np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]]),
    ], ids=["defective_2", "defective_3"])
    def test_a_defective_closed_loop_has_its_limit(self, F):
        C = np.eye(F.shape[0])
        want = scipy.linalg.solve_continuous_lyapunov(F.T, -C)
        assert relative_error(lyapunov_limit(F[None], C[None])[0], want) <= 1e-12

    def test_blocks_of_one_stack_with_different_control_widths(self):
        sys_ = two_control_widths()
        assert [[r.controls.size for r in stack] for stack in stacked_blocks(sys_.records)] == [[2, 1]]
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


DRE_CLOSED_FORM_SYSTEMS = {
    "rectangle_16": lambda: build_rectangle(1.0, 2.0, 16.0),
    "synthetic_2_32": lambda: build_synthetic(2.0, 2.0, 32),
    "star_generic_16": lambda: build_star_network([1.0, np.pi / 2.0, np.sqrt(2.0)], 0, 0, 16.0),
}


@pytest.mark.parametrize("case", sorted(DRE_CLOSED_FORM_SYSTEMS))
def test_dre_matches_the_closed_form_from_the_are(case):
    # with the ARE solution P and A_cl = A - B B^T P, E(tau) = P - Phi^T P (I - W P)^-1 Phi,
    # Phi = e^{A_cl tau} and W the Gramian of B under A_cl over [0, tau]: one Van Loan
    # exponential per tau, with neither the step grid nor the doubling of integrate_dre
    sys_ = DRE_CLOSED_FORM_SYSTEMS[case]()
    A, B, _ = first_order_matrices(sys_)
    P = solve_are(sys_).E
    A_cl = A - B @ (B.T @ P)
    taus = [0.1, 1.0, 5.0, 20.0]
    for snap, tau in zip(integrate_dre(sys_, 20.0, snapshot_times=taus), taus, strict=True):
        PhiT, W = step_map(A_cl.T, tau, cost=B @ B.T)
        # Phi^T P (I - W P)^-1 Phi = Phi^T (I - P W)^-1 P Phi
        want = P - PhiT @ np.linalg.solve(np.eye(P.shape[0]) - P @ W, P @ PhiT.T)
        assert np.abs(snap.E - want).max() <= 1e-11 * np.abs(snap.E).max(), tau


def test_dre_cost_is_logarithmic_in_the_steps(monkeypatch):
    # every stack crosses each interval between snapshots with one binary power of its step
    # triple, in steps of at most pi/(4 lambda_max): about 2 log2(steps) compositions, where
    # a sweep takes one Riccati step per step (13038 on the last interval here)
    sys_ = build_synthetic(2.0, 2.0, 32)
    taus = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
    calls, powers = count_riccati_steps(monkeypatch), []
    power = riccati.binary_power

    def counted(step, n, compose):
        before = len(calls)
        out = power(step, n, compose)
        powers.append((n, len(calls) - before))
        return out

    monkeypatch.setattr(riccati, "binary_power", counted)
    integrate_dre(sys_, 640.0, snapshot_times=taus)
    assert len(stacked_blocks(sys_.records)) == 1  # so the stack's largest frequency is the system's
    max_step = np.pi / (4.0 * sys_.lambdas.max())
    assert len(powers) == len(taus)
    for (steps, composed), lo, hi in zip(powers, [0.0] + taus, taus):
        assert steps == int(np.ceil((hi - lo) / max_step))
        assert composed <= 2 * int(np.ceil(np.log2(steps)))
    assert len(calls) == sum(composed for _, composed in powers)


class TestAre:
    def test_single_mode_closed_form_both_methods(self):
        # the doubled limit and the DRE at a converged horizon
        sys_ = single_mode_system()
        sol = solve_are(sys_)
        assert sol.method == "doubling"
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
        assert (sol.backward_error, sol.residual, sol.method) == (0.0, 0.0, "doubling")

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
    # modes that vanish on edge 0 leave no stabilizing solution: they are split off
    # with the minimal solution 0, the DRE limit there
    "star_111": lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0),
}


@pytest.mark.parametrize("case", sorted(BACKWARD_ERROR_SYSTEMS))
def test_both_methods_reach_backward_error_1e_14(case):
    sys_ = BACKWARD_ERROR_SYSTEMS[case]()
    sol = solve_are(sys_)
    assert sol.method == "doubling"
    assert dense_backward_error(sol, sys_) <= 1e-14
    assert sol.backward_error <= 1e-14


# ---------------------------------------------------------------------------
# the forward error against the closed form of a single-mode block


def single_mode_closed_form(lam, b, q):
    """E = [[p, r], [r, s]] of one mode of frequency lam, control weight b on zeta, cost q on xi.

    s^2 = 2q / (b^2 (1 + sqrt(1 + b^2 q / lam^2))), r = b^2 s^2 / (2 lam) and
    p = s + b^2 r s / lam; every operation adds positive numbers, so each entry
    is exact to a few ulps.  Also returns the closed loop's damping, the least
    |Re mu| of the eigenvalues of A - B B^T E (mu^2 + b^2 s mu + lam (lam + b^2 r) = 0).
    """
    b2 = b * b
    s = np.sqrt(2.0 * q / (b2 * (1.0 + np.sqrt(1.0 + b2 * q / lam**2))))
    r = b2 * s * s / (2.0 * lam)
    p = s + b2 * r * s / lam
    disc = (b2 * s) ** 2 - 4.0 * lam * (lam + b2 * r)
    damping = 0.5 * b2 * s if disc < 0.0 else 0.5 * (b2 * s - np.sqrt(disc))
    return np.array([[p, r], [r, s]]), damping


@pytest.mark.parametrize("build", [
    lambda: build_synthetic(2.0, 2.0, 64), lambda: build_synthetic(0.5, 0.5, 256),
    lambda: build_synthetic_exponential(0.3, 0.05, 50),
    lambda: build_synthetic_exponential(0.3, 0.2, 50),
    # weakly controlled: the weakest block's damping is at the resolution of an eigensolver
    lambda: build_synthetic_exponential(0.5, 0.1, 40)],
    ids=["synthetic_2_64", "synthetic_0.5_256", "exponential_0.05", "exponential_0.2",
         "exponential_0.5_0.1"])
def test_single_mode_blocks_match_the_closed_form_to_their_condition(build):
    # the forward error is about the backward error times kappa = lambda / damping
    # (Byers 1985; Sun 1998), and solve_are holds the backward error to about 1e-14
    sys_ = build()
    E = solve_are(sys_).E
    for r in sys_.records:
        (k,), lam = r.modes, sys_.lambdas[r.modes[0]]
        want, damping = single_mode_closed_form(lam, r.B[0, 0], r.Q[0, 0] / lam**2)
        err = np.abs(E[2 * k:2 * k + 2, 2 * k:2 * k + 2] - want).max() / np.abs(want).max()
        assert err <= 1e-14 * lam / damping, (k, err)


# ---------------------------------------------------------------------------
# one route: the free directions split off, then each block's doubled DRE limit


def count_riccati_steps(monkeypatch):
    """Record every composition of DRE step triples, the Riccati solvers' only kernel call."""
    calls = []
    compose = riccati._compose_triples

    def counted(*args):
        calls.append(args[0][0].shape[-1])
        return compose(*args)

    monkeypatch.setattr(riccati, "_compose_triples", counted)
    return calls


@pytest.mark.parametrize("build", [
    lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 32.0),
    lambda: build_synthetic_exponential(0.3, 0.2, 50)],
    ids=["star_111_32", "exponential_0.2"])
def test_solve_are_sweeps_no_dre(build, monkeypatch):
    # each stack composes its triple with itself, once per round, then at most once per
    # round for the Newton step: no sweep over a horizon's steps
    sys_ = build()
    calls = count_riccati_steps(monkeypatch)
    sol = solve_are(sys_)
    assert sol.method == "doubling" and calls
    # the stacks have distinct block sizes, so the size of a call's triple names its stack
    assert max(calls.count(d) for d in set(calls)) <= 2 * riccati._ROUNDS
    assert dense_backward_error(sol, sys_) <= 1e-14


@pytest.mark.parametrize("compose, rounds", [
    (lambda first, second: (first[0], first[1], 2.0 * first[2]), 80),
    (lambda first, second: (first[0], first[1], np.full_like(first[2], np.nan)), 1)],
    ids=["round_cap", "non_finite"])
def test_a_doubling_that_does_not_settle_raises_method_error(compose, rounds, monkeypatch):
    # H doubling every round never settles; a non-finite iterate leaves at once
    calls = []
    monkeypatch.setattr(riccati, "_compose_triples", lambda *args: calls.append(1) or compose(*args))
    with pytest.raises(MethodError, match="no finite limit within 80 rounds"):
        solve_are(build_synthetic(2.0, 2.0, 3))
    assert len(calls) == rounds


def test_a_controlled_unobserved_direction_gets_the_minimal_solution():
    # frequency 1 twice: (0, 1) is controlled but carries no cost, so no stabilizing solution
    # exists; the doubled limit is the DRE's, the minimal solution, however weak the control
    for b2 in (1.0, 1e-6, 1e-11):
        b = np.sqrt(b2)
        sys_ = SpectralSystem.from_dense([1.0, 1.0, 2.0], np.array([[1.0, 0.0], [b, b], [0.3, 0.0]]),
                                         np.diag([1.0, 0.0, 1.0]))
        sol = solve_are(sys_)
        dre = integrate_dre(sys_, 2000.0)[0].E
        assert np.abs(sol.E - dre).max() <= 1e-14 * np.abs(dre).max(), b2
        assert sol.backward_error <= 1e-14


@pytest.mark.parametrize("spread", [1e-8, 1e-7])
def test_nearly_free_directions_report_their_backward_error(spread):
    # frequencies closer than an eigensolver resolves but not grouped by the split: the
    # difference direction is nearly free, and the closed loop's damping is about spread^2
    sys_ = SpectralSystem.from_dense([1.0, 1.0 + spread], np.ones((2, 1)), np.ones((2, 2)))
    sol = solve_are(sys_)
    assert sol.backward_error <= 1e-10
    assert sol.backward_error == pytest.approx(dense_backward_error(sol, sys_), rel=1e-6)


def star_free_directions(sys_):
    """Energy-coordinate bases of the directions at each shared pole that B_mod does not reach."""
    lam, B = sys_.lambdas, sys_.B_mod
    for pole in np.unique(lam[np.flatnonzero(np.diff(lam) == 0.0)]):
        g = np.flatnonzero(lam == pole)
        u, sv, _ = np.linalg.svd(B[g], full_matrices=True)
        rank = int(np.sum(sv > 1e-10))
        V = np.zeros((2 * lam.size, 2 * (g.size - rank)))
        for j, v in enumerate(u[:, rank:].T):
            V[2 * g, 2 * j], V[2 * g + 1, 2 * j + 1] = v, v
        yield pole, V


def test_star_matches_the_dre_at_a_converged_horizon():
    sys_ = build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0)
    E = solve_are(sys_).E
    dre = integrate_dre(sys_, 160.0)[0].E
    assert np.abs(E - dre).max() <= 1e-11 * np.abs(dre).max()


def test_split_off_directions_stay_neutral_in_the_closed_loop():
    sys_ = build_star_network([1.0, 1.0, 1.0], 0, 0, 16.0)
    sol = solve_are(sys_)
    A, B, _ = first_order_matrices(sys_)
    free = list(star_free_directions(sys_))
    assert len(free) == 5
    for pole, V in free:
        # the minimal solution is 0 there, so the closed loop is the free flow on them
        assert np.abs(sol.E @ V).max() <= 1e-14 * np.abs(sol.E).max()
        assert np.abs(B @ (B.T @ sol.E @ V)).max() <= 1e-15 * pole
        traj = simulate_riccati_feedback(sys_, sol, V[:, 0] + V[:, 1], 20.0)
        assert np.abs(traj.energies - 2.0).max() <= 1e-13


@pytest.mark.parametrize("build", [
    lambda: SpectralSystem.from_dense([1.0, 2.0], np.zeros((2, 1)), np.zeros((2, 2))),
    # the shared-pole modes that vanish on edge 2 have neither control nor cost
    lambda: build_star_network([np.pi, np.pi, 1.0], 2, 2, 8.0)], ids=["from_dense", "star_pi_pi_1"])
def test_records_with_every_direction_free_get_the_exact_zero(build):
    sys_ = build()
    free = [r.modes for r in sys_.records if not r.controls.size and not r.Q.any()]
    assert free
    sol = solve_are(sys_)
    e = energy_index(np.concatenate(free))
    assert sol.method == "doubling" and (sol.E[e] == 0.0).all()
    assert sol.backward_error <= 1e-14
    if sol.E.any():
        assert sol.backward_error == pytest.approx(dense_backward_error(sol, sys_), rel=1e-3)


def test_backward_error_is_that_of_the_system_not_of_its_split_records():
    # modes 0 and 1 differ in frequency by 1e-10 and share their row of B_mod, so (1, -1)
    # splits off as free; Q costs it 8e-12 (below the floor) and couples it to mode 2 by
    # 2.8e-6, and the split solves the problem without either
    d = 2e-6
    v = np.array([1.0 + d, 1.0 - d, 1.0])
    sys_ = SpectralSystem.from_dense([1.0, 1.0 + 1e-10, 2.0], [[1.0, 0.0], [1.0, 0.0], [0.3, 1.0]],
                                     np.outer(v, v) + np.diag([0.0, 0.0, 1.0]))
    sol = solve_are(sys_)
    A, B, Q = first_order_matrices(sys_)
    R = Q + sol.E @ A + A.T @ sol.E - sol.E @ B @ B.T @ sol.E
    assert dense_backward_error(sol, sys_) > 1e-9
    assert sol.backward_error == pytest.approx(dense_backward_error(sol, sys_), rel=1e-6)
    assert sol.residual == pytest.approx(np.linalg.norm(R), rel=1e-6)


def one_stack(E):
    """The solution stacks of a dense E as one stack of one block of every mode."""
    return [(np.arange(E.shape[0] // 2)[None], E[None])]


class TestRiccatiSolution:
    def test_symmetry_check_forms_no_matrix_of_the_size_of_e(self):
        E = np.random.default_rng(7).standard_normal((2000, 2000))
        E += E.T
        # a first call outside the trace, so nothing it imports or caches is counted
        RiccatiSolution(one_stack(E[:4, :4] + E[:4, :4].T), horizon=1.0, residual=0.0, method="dre")
        tracemalloc.start()
        try:
            RiccatiSolution(one_stack(E), horizon=np.inf, residual=0.0, method="doubling")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < E.nbytes / 4

    def test_solvers_and_readers_form_no_matrix_of_the_size_of_e(self):
        # d = 1540: one d x d array is 18.1 MiB, and each call peaks below half of it
        sys_ = build_rectangle(1.0, 2.0, 32.0)
        d = 2 * sys_.n_modes
        x0 = smooth_initial_state(sys_.lambdas, 1.5, rng=np.random.default_rng(0)).to_vector()
        sol, energy = solve_are(sys_), NormScale.energy()
        calls = {"solve_are": lambda: solve_are(sys_),
                 "integrate_dre": lambda: integrate_dre(sys_, 1.0),
                 "simulate_riccati_feedback": lambda: simulate_riccati_feedback(sys_, sol, x0, 0.5),
                 "bounds_report": lambda: bounds_report(sol, sys_, energy, energy),
                 "value": lambda: value(sol, x0)}
        for name, call in calls.items():
            call()  # a first call outside the trace, so nothing it imports or caches is counted
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * d * d * 8, (name, peak / 2**20)

    @pytest.mark.parametrize("at", [(1, 2), (250, 10), (10, 250)])
    def test_asymmetry_of_twice_the_tolerance_raises(self, at):
        # 300 rows span more than one band of the check
        E = np.random.default_rng(8).uniform(-1.0, 1.0, (300, 300))
        E += E.T
        E[0, 0] = 5.0
        tol = 1e-10 * (1.0 + 5.0)
        RiccatiSolution(one_stack(E), horizon=np.inf, residual=0.0, method="doubling")
        near = E.copy()
        near[at] += 0.5 * tol
        RiccatiSolution(one_stack(near), horizon=np.inf, residual=0.0, method="doubling")
        E[at] += 2.0 * tol
        with pytest.raises(DomainError):
            RiccatiSolution(one_stack(E), horizon=np.inf, residual=0.0, method="doubling")

    @pytest.mark.parametrize("at", [(0, 2, 150, 10), (0, 1, 10, 150), (1, 0, 1, 2)])
    def test_asymmetry_in_any_block_of_any_stack_raises(self, at):
        # a stack of four 200-coordinate blocks spans three bands; the tolerance is the whole
        # solution's, set by the 5.0 in the second stack
        rng = np.random.default_rng(9)
        big, small = rng.uniform(-1.0, 1.0, (4, 200, 200)), rng.uniform(-1.0, 1.0, (2, 4, 4))
        big += big.swapaxes(-1, -2)
        small += small.swapaxes(-1, -2)
        small[0, 0, 0] = 5.0
        tol = 1e-10 * (1.0 + 5.0)

        def solution(forms):
            return RiccatiSolution([(np.arange(400).reshape(4, 100), forms[0]),
                                    (np.arange(400, 404).reshape(2, 2), forms[1])],
                                   horizon=np.inf, residual=0.0, method="doubling")

        solution((big, small))
        near = [big.copy(), small.copy()]
        near[at[0]][at[1:]] += 0.5 * tol
        solution(near)
        near[at[0]][at[1:]] += 1.5 * tol
        with pytest.raises(DomainError):
            solution(near)


class TestValue:
    def test_zero_state(self):
        sol = solve_are(single_mode_system())
        assert value(sol, np.zeros(2)) == 0.0

    def test_single_mode_value_is_e1(self):
        sol = solve_are(single_mode_system())
        e1 = np.sqrt(2.0) * np.sqrt(2.0 * (np.sqrt(2.0) - 1.0))
        assert value(sol, np.array([1.0, 0.0])) == pytest.approx(e1, abs=1e-8)

    def test_value_summed_over_the_stacks_is_the_dense_form(self):
        sys_ = build_rectangle(1.0, 2.0, 12.0)
        sol = solve_are(sys_)
        assert len(sol.stacks) > 1
        for x in np.random.default_rng(3).standard_normal((5, sol.dim)):
            assert value(sol, x) == pytest.approx(x @ sol.E @ x, rel=1e-13)

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
    d = A.shape[0]
    E, t_now, out = np.zeros_like(A), 0.0, []
    for tau in taus:
        steps = int(np.ceil((tau - t_now) / (np.pi / (4.0 * sys_.lambdas.max()))))
        Phi, _ = step_map(M, (tau - t_now) / steps)
        for _ in range(steps):
            # q = E x carried one step back: (Phi22 - E Phi12) E_new = E Phi11 - Phi21
            E = np.linalg.solve(Phi[d:, d:] - E @ Phi[:d, d:], E @ Phi[:d, :d] - Phi[d:, :d])
            E = 0.5 * (E + E.T)
        out.append(E)
        t_now = tau
    return out


@settings(max_examples=25, derandomize=True, deadline=None)
@given(case=block_systems())
def test_block_dispatch_matches_monolithic_oracles(case):
    sys_, n_blocks, x0 = case
    assert len(sys_.records) == n_blocks
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
        sys_.lambdas[m], sys_.B_mod[m], sys_.Q_obs[np.ix_(m, m)])) for m in (r.modes for r in sys_.records)]
    for m, part in zip((r.modes for r in sys_.records), alone):
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
