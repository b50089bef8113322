import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from wavelq.closed_loop import (
    _CHUNK_ELEMENTS,
    _CHUNK_STEPS,
    Trajectory,
    default_decay_window,
    energy_identity_defect,
    fit_decay,
    hum_null_control,
    sequence_lemma_check,
    simulate_backward_observer,
    simulate_collocated,
    simulate_riccati_feedback,
    smooth_initial_state,
)
from wavelq.models import (SpectralSystem, apply_free_flow, build_interval_wave, build_rectangle,
                           build_star_network, build_synthetic, build_synthetic_exponential,
                           controllability_gramian, energy_index, fit_weak_observability,
                           observability_gramian, shell_constant, stacked_blocks)
from wavelq.riccati import first_order_matrices, integrate_dre, solve_are, step_map
from wavelq.spectral import DomainError, NormScale, energy_norm_squared
from wavelq.turnpike import g_weight, solve_tracking, tracking_integrals


def single_mode_system(lam=1.0, gain=1.0, q=1.0):
    return SpectralSystem.from_dense([lam], np.array([[gain]]), np.array([[q]]))


def dense_generator(sys_, loop, sol=None):
    """The d x d closed-loop generator of ``loop`` on the whole system."""
    A, B, _ = first_order_matrices(sys_)
    if loop == "collocated":
        return A - B @ B.T
    if loop == "riccati":
        return A - B @ (B.T @ sol.E)
    D = np.zeros_like(A)
    D[1::2, 1::2] = sys_.Q_obs  # C*C on the velocities
    return A - D


def dense_window(A_cl, horizon):
    """[10, min(300, T_trunc / 2, horizon)] from one eigvals of the whole generator, or None."""
    re = np.abs(np.linalg.eigvals(A_cl).real)
    damped = re[re > 1e-12]
    end = min(300.0, 0.25 / damped.min() if damped.size else np.inf, horizon)
    return (10.0, end) if end > 10.0 else None


class TestCollocated:
    def test_conservative_flow_preserves_energy(self):
        sys_ = SpectralSystem.from_dense([1.0, 2.0, 3.0], np.zeros((3, 1)), np.zeros((3, 3)))
        x0 = np.array([1.0, 0.0, 0.5, -0.5, 0.2, 0.9])
        traj = simulate_collocated(sys_, x0, 100.0)
        drift = np.abs(traj.energies / traj.energies[0] - 1.0).max()
        assert drift <= 1e-9

    def test_single_mode_damped_oscillator_spectrum(self):
        sys_ = single_mode_system()
        A, B, _ = first_order_matrices(sys_)
        eigs = np.sort_complex(np.linalg.eigvals(A - B @ B.T))
        assert np.abs(eigs - np.sort_complex(np.roots([1.0, 1.0, 1.0]))).max() <= 1e-12

    def test_energy_nonincreasing_and_identity(self):
        sys_ = build_synthetic(2.0, 2.0, 16)
        x0 = smooth_initial_state(sys_.lambdas, 1.2, rng=np.random.default_rng(0))
        traj = simulate_collocated(sys_, x0, 50.0)
        assert np.all(np.diff(traj.energies) <= 1e-10 * traj.energies[0])
        assert energy_identity_defect(traj) <= 1e-6

    def test_planted_rate_at_least_k_rho(self):
        # class-critical data in D(A^k), k = 1: Lemma-type rate k*rho is met
        sys_ = build_synthetic(2.0, 2.0, 64)
        x0 = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
        traj = simulate_collocated(sys_, x0, 40.0)
        window = default_decay_window(traj)
        fit = fit_decay(traj, window)
        assert fit.exponent >= 0.85 * 1.0 * 2.0

    def test_propagation_methods_agree(self):
        # the exact expm propagator against an adaptive RK oracle: the oracle's states agree
        # to 1e-6 per coordinate, which carries over to the recorded x^T M x by
        # |x^T M x - y^T M y| <= ||M|| (||x|| + ||y||) ||x - y||, ||x - y|| <= sqrt(d) 1e-6
        sys_ = single_mode_system()
        x0 = np.array([1.0, 0.3])
        te = simulate_collocated(sys_, x0, horizon=5.0, dt=0.002)
        A, B, _ = first_order_matrices(sys_)
        A_cl = A - B @ B.T
        tr = scipy.integrate.solve_ivp(lambda _t, x: A_cl @ x, (0.0, 5.0), x0,
                                       method="DOP853", t_eval=te.times,
                                       rtol=1e-11, atol=1e-13, max_step=np.pi / 8.0)
        assert tr.success
        X = tr.y.T
        bound = (np.linalg.norm(X, axis=1) + np.sqrt(te.energies)) * np.sqrt(x0.size) * 1e-6
        for got, M in ((te.energies, np.eye(2)), (te.control_power, B @ B.T)):
            want = np.einsum("ij,jk,ik->i", X, M, X)
            assert np.all(np.abs(got - want) <= np.linalg.norm(M, 2) * bound)


class TestRiccatiFeedback:
    def test_zero_state_stays_zero(self):
        sys_ = single_mode_system()
        sol = solve_are(sys_)
        traj = simulate_riccati_feedback(sys_, sol, np.zeros(2), 5.0)
        # the energies are sums of squares of the states, so 0 only where every state is 0
        for series in (traj.energies, traj.values, traj.control_power, traj.obs_power):
            assert not series.any()

    def test_single_mode_stable_and_lyapunov_decreasing(self):
        sys_ = single_mode_system()
        sol = solve_are(sys_)
        eigs = np.linalg.eigvals(dense_generator(sys_, "riccati", sol))
        assert eigs.real.max() < 0.0
        traj = simulate_riccati_feedback(sys_, sol, np.array([1.0, 0.0]), 20.0)
        assert np.all(np.diff(traj.values) <= 1e-8)

    def test_lyapunov_dissipation_identity(self):
        sys_ = build_synthetic(2.0, 2.0, 12)
        sol = solve_are(sys_)
        x0 = smooth_initial_state(sys_.lambdas, 1.5, rng=np.random.default_rng(1))
        traj = simulate_riccati_feedback(sys_, sol, x0, 60.0)
        assert energy_identity_defect(traj) <= 1e-6

    def test_class_tail_data_decays_at_least_predicted_rate(self):
        # data with coefficient tail lambda^-(1/rho+1/eta+s)-1-eps decays at
        # least as fast as the predicted (t+1)^-s (the bound is not tight for
        # per-mode-decoupled systems, so only >= is asserted here)
        sys_ = build_synthetic(2.0, 2.0, 64)
        sol = solve_are(sys_)
        lam = sys_.lambdas
        signs = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
        a, b = lam**-3.1 * signs, lam**-3.1 * signs[::-1]  # position and velocity coefficients
        x0 = np.stack([lam * a, b], axis=-1).ravel()
        traj = simulate_riccati_feedback(sys_, sol, x0, 40.0)
        window = default_decay_window(traj)
        fit = fit_decay(traj, window)
        assert fit.exponent >= 0.75 * 1.0


WINDOW_SYSTEMS = {
    "rectangle_16": lambda: build_rectangle(1.0, 2.0, 16.0),
    "interval_32": lambda: build_interval_wave(32, control=("subinterval", 0.4, 1.9)),
    "star": lambda: build_star_network([1.0, np.pi / 2.0, np.sqrt(2.0)], 0, 0, 16.0),
    "synthetic_64": lambda: build_synthetic(2.0, 2.0, 64),
    # a one-mode block, then a weakly damped two-mode block: the slowest mode is in the second stack
    "two_stacks": lambda: SpectralSystem.from_dense(
        [1.0, 1.5, 2.5], np.array([[0.5, 0.0], [0.0, 0.2], [0.0, 0.15]]),
        np.array([[0.25, 0.0, 0.0], [0.0, 0.02, 0.01], [0.0, 0.01, 0.02]])),
}


def run_loop(sys_, loop, sol, x0, horizon):
    if loop == "collocated":
        return simulate_collocated(sys_, x0, horizon)
    if loop == "riccati":
        return simulate_riccati_feedback(sys_, sol, x0, horizon)
    return simulate_backward_observer(sys_, x0, horizon)


class TestDecayWindow:
    @pytest.mark.parametrize("loop", ["collocated", "riccati", "observer"])
    @pytest.mark.parametrize("name", sorted(WINDOW_SYSTEMS))
    def test_per_stack_spectrum_and_window_match_dense_generator(self, name, loop):
        sys_ = WINDOW_SYSTEMS[name]()
        sol = solve_are(sys_) if loop == "riccati" else None
        x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=np.random.default_rng(4))
        traj = run_loop(sys_, loop, sol, x0, 40.0)
        A_cl = dense_generator(sys_, loop, sol)
        per_stack = np.concatenate([np.linalg.eigvals(G).ravel() for G in traj.generators])
        assert per_stack.size == A_cl.shape[0]
        dense = np.sort(np.abs(np.linalg.eigvals(A_cl).real))
        assert np.abs(np.sort(np.abs(per_stack.real)) - dense).max() <= 1e-12
        expected = dense_window(A_cl, 40.0)
        if expected is None:
            with pytest.raises(DomainError):
                default_decay_window(traj)
        else:
            window = default_decay_window(traj)
            assert window[0] == 10.0
            assert window[1] == pytest.approx(expected[1], rel=1e-12)

    def test_rectangle_above_lambda_16_has_no_window(self):
        sys_ = build_rectangle(1.0, 2.0, 24.0)
        x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=np.random.default_rng(5))
        traj = simulate_riccati_feedback(sys_, solve_are(sys_), x0, 40.0)
        with pytest.raises(DomainError):
            default_decay_window(traj)

    def test_horizon_is_read_from_the_run(self):
        sys_ = build_synthetic(2.0, 2.0, 64)
        x0 = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
        for horizon in (12.0, 20.0):
            window = default_decay_window(simulate_collocated(sys_, x0, horizon))
            assert window == (10.0, horizon)


class TestBackwardObserver:
    def test_no_observation_is_conservative(self):
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.eye(2), np.zeros((2, 2)))
        traj = simulate_backward_observer(sys_, np.array([1.0, 0.0, 0.2, 0.4]), 100.0)
        assert np.abs(traj.energies / traj.energies[0] - 1.0).max() <= 1e-9

    def test_energy_identity(self):
        sys_ = build_synthetic(2.0, 0.5, 12)
        x = smooth_initial_state(sys_.lambdas, 1.8, rng=np.random.default_rng(2))
        traj = simulate_backward_observer(sys_, x, 80.0)
        assert energy_identity_defect(traj) <= 1e-6

    def test_mirror_of_collocated_on_full_observation_mode(self):
        # lambda = 1 with Q_obs = 1: the reversed-time observer equals the
        # collocated loop, so trajectories coincide sample by sample.  States within
        # 1e-8 per coordinate bound x^T M x by |x^T M x - y^T M y| <= ||M|| (||x|| + ||y||)
        # ||x - y||, ||x - y|| <= sqrt(2) 1e-8; both the energy and the velocity square
        # (the collocated control power, the observer's observation power) have ||M|| = 1
        sys_ = single_mode_system()
        x = np.array([1.0, 0.3])
        fwd = simulate_collocated(sys_, x, 30.0)
        bwd = simulate_backward_observer(sys_, x, 30.0)
        bound = (np.sqrt(fwd.energies) + np.sqrt(bwd.energies)) * np.sqrt(2.0) * 1e-8
        assert np.all(np.abs(fwd.energies - bwd.energies) <= bound)
        assert np.all(np.abs(fwd.control_power - bwd.obs_power) <= bound)

    def test_polynomial_regime_rate(self):
        # eta < 1 puts the observer loop in the weakly damped regime; the
        # fitted rate clears the Lemma-type threshold 0.85 * k * eta
        eta = 0.5
        sys_ = build_synthetic(2.0, eta, 64)
        term = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
        traj = simulate_backward_observer(sys_, term, 310.0)
        window = default_decay_window(traj)
        fit = fit_decay(traj, window)
        assert fit.exponent >= 0.85 * 1.0 * eta


class TestHum:
    def test_zero_state_zero_control(self):
        sys_ = single_mode_system()
        h = hum_null_control(sys_, np.zeros(2), 2.0)
        assert h.cost == 0.0 and np.abs(h.controls).max() == 0.0

    def test_single_mode_full_control_cost_closed_form(self):
        sys_ = single_mode_system()
        x0 = np.array([1.0, 0.5])
        h = hum_null_control(sys_, x0, 2 * np.pi)
        # W = (t0/2) I exactly at a full period, so cost = |x0|^2 / (t0/2)
        assert h.cost == pytest.approx((x0 @ x0) / np.pi, abs=1e-8)
        assert h.terminal_residual <= 1e-8 * np.linalg.norm(x0)
        assert h.certified

    def test_steering_verified_by_independent_simulation(self):
        import scipy.integrate
        sys_ = build_synthetic(2.0, 2.0, 4)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(8)
        t0 = 5.0
        h = hum_null_control(sys_, x0, t0, n_samples=2001)
        A, B, _ = first_order_matrices(sys_)

        def rhs(t, x):
            k = min(int(round(t / t0 * (h.times.size - 1))), h.times.size - 1)
            # piecewise-linear interpolation of the recorded control
            if k == h.times.size - 1:
                u = h.controls[k]
            else:
                w = (t - h.times[k]) / (h.times[k + 1] - h.times[k])
                u = (1 - w) * h.controls[k] + w * h.controls[k + 1]
            return A @ x + B @ u

        sol = scipy.integrate.solve_ivp(rhs, (0.0, t0), x0, method="DOP853",
                                        rtol=1e-10, atol=1e-12, max_step=t0 / 2000)
        assert np.linalg.norm(sol.y[:, -1]) <= 1e-5 * np.linalg.norm(x0)

    def test_cost_ratio_bounded_and_h_cost_grows(self):
        sys_ = build_synthetic(2.0, 2.0, 64)
        t0 = 2.5 * np.pi
        rng = np.random.default_rng(4)
        strong = NormScale.graded(0.5)
        ratios = []
        for _ in range(50):
            x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=rng)
            h = hum_null_control(sys_, x0, t0)
            ratios.append(h.cost / energy_norm_squared(x0, sys_.lambdas, strong))
            assert h.terminal_residual <= 1e-8 * np.linalg.norm(x0)
        med = np.median(ratios)
        assert max(ratios) <= 3.0 * med and min(ratios) >= med / 3.0
        costs = []
        for mode in (1, 2, 4, 8, 16, 32):
            x0 = np.zeros(128)
            x0[2 * (mode - 1)] = 1.0
            costs.append(hum_null_control(sys_, x0, t0).cost)
        assert all(costs[i] < costs[i + 1] for i in range(len(costs) - 1))


    def test_stack_of_states_matches_one_call_per_state(self):
        sys_ = build_synthetic(2.0, 2.0, 16)
        rng = np.random.default_rng(5)
        x0s = np.array([smooth_initial_state(sys_.lambdas, 1.6, rng=rng)
                        for _ in range(4)] + [np.zeros(32)])
        stack = hum_null_control(sys_, x0s, 2.5 * np.pi, n_samples=33)
        assert len(stack) == 5
        for x0, h in zip(x0s, stack):
            one = hum_null_control(sys_, x0, 2.5 * np.pi, n_samples=33)
            assert h.cost == pytest.approx(one.cost, rel=1e-12, abs=0.0)
            assert h.terminal_residual <= 1e-12 * max(1.0, np.linalg.norm(x0))
            assert np.abs(h.controls - one.controls).max() <= 1e-12 * max(1.0, np.abs(one.controls).max())
            assert h.certified and h.gramian_condition == one.gramian_condition
        assert stack[-1].cost == 0.0 and not stack[-1].controls.any()


def dense_hum(sys_, x0s, t0, n_samples=257):
    """HUM on the whole system: the dense Gramian, its eigvalsh and one LU for every draw.

    Returns the costs, terminal residuals, condition number and each draw's controls.
    """
    W = controllability_gramian(sys_, t0)
    w = np.abs(np.linalg.eigvalsh(W))
    cond = w.max() / w.min()
    y = apply_free_flow(sys_.lambdas, t0, x0s)
    shift = 0.0 if cond < 1e12 else 1e-14 * np.trace(W) / W.shape[0]
    gamma = np.linalg.solve(W + shift * np.eye(W.shape[0]), y.T).T
    Wgamma = gamma @ W
    phase = sys_.lambdas * (np.linspace(0.0, t0, n_samples)[:, None] - t0)
    controls = [-((np.cos(phase) * g[1::2] - np.sin(phase) * g[0::2]) @ sys_.B_mod) for g in gamma]
    return (np.einsum("ij,ij->i", Wgamma, gamma), np.linalg.norm(y - Wgamma, axis=1), cond,
            controls)


@pytest.mark.parametrize("build", [
    lambda: build_rectangle(1.0, 2.0, 12.0),
    lambda: build_star_network([1.0, np.pi / 2, np.sqrt(2.0)], 0, 1, 12.0),
    lambda: build_synthetic_exponential(0.5, 0.5, 64),  # condition ~1e27: Tikhonov-shifted
], ids=["rectangle", "star", "exponential"])
@pytest.mark.parametrize("t0", [2.5 * np.pi, 10.0])
def test_block_hum_matches_the_dense_oracle(build, t0):
    sys_ = build()
    rng = np.random.default_rng(7)
    x0s = np.array([smooth_initial_state(sys_.lambdas, 1.6, rng=rng) for _ in range(6)])
    hums = hum_null_control(sys_, x0s, t0)
    costs, residuals, cond, controls = dense_hum(sys_, x0s, t0)
    for x0, h, cost, res, u in zip(x0s, hums, costs, residuals, controls, strict=True):
        assert h.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
        # residuals are rounding-sized, so relative to the state they steer
        assert abs(h.terminal_residual - res) <= 1e-12 * np.linalg.norm(x0)
        assert h.controls.shape == u.shape
        assert np.abs(h.controls - u).max() <= 1e-12 * np.abs(u).max()
        assert h.gramian_condition == pytest.approx(cond, rel=1e-12, abs=0.0)
        assert h.certified == (cond < 1e12)


def test_hum_certifies_a_draw_only_within_its_residual_tolerance():
    # the Gramian's condition number is under 1e12, yet every nonzero draw misses
    # the origin by about 2e-7 ||x0||; the zero state stays certified
    sys_ = build_rectangle(1.0, 1.3, 24.0)
    rng = np.random.default_rng(1)
    x0s = np.array([np.zeros(2 * sys_.n_modes)]
                   + [smooth_initial_state(sys_.lambdas, 1.6, rng=rng) for _ in range(4)])
    hums = hum_null_control(sys_, x0s, 3.0)
    assert hums[0].gramian_condition < 1e12
    assert hums[0].certified and hums[0].note == ""
    for x0, h in zip(x0s[1:], hums[1:]):
        assert h.terminal_residual > 1e-8 * np.linalg.norm(x0)
        assert not h.certified and "not certified" in h.note


class TestFitDecay:
    def _power_law_traj(self, exponent, t_end=100.0, n=3000):
        ts = np.linspace(0.0, t_end, n)
        xi = (ts + 1.0) ** (-exponent / 2.0)
        return Trajectory(times=ts, energies=xi**2, kind="synthetic")

    def test_exact_power_law(self):
        traj = self._power_law_traj(2.0)
        fit = fit_decay(traj, (1.0, 90.0))
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.r2 >= 1.0 - 1e-12

    def test_exponential_signal_flagged_by_r2(self):
        ts = np.linspace(0.0, 10.0, 500)
        xi = np.exp(-ts / 2.0)
        traj = Trajectory(times=ts, energies=xi**2, kind="synthetic")
        fit = fit_decay(traj, (1.0, 10.0))
        assert fit.r2 < 0.999

    def test_constant_signal(self):
        traj = self._power_law_traj(0.0)
        fit = fit_decay(traj, (1.0, 90.0))
        assert abs(fit.exponent) <= 1e-12

    def test_too_few_samples_raises(self):
        traj = self._power_law_traj(1.0, t_end=100.0, n=25)
        with pytest.raises(DomainError):
            fit_decay(traj, (95.0, 99.0))


class TestSequenceLemma:
    def test_alpha_zero_bound_below_three(self):
        bound, violations = sequence_lemma_check(1.0, 0.0, 100000)
        assert bound < 3.0
        assert violations == []

    def test_general_alpha(self):
        bound, violations = sequence_lemma_check(0.7, 0.5, 20000)
        assert np.isfinite(bound) and bound > 0.0
        assert violations == []

    def test_zero_start(self):
        bound, violations = sequence_lemma_check(1.0, 0.0, 100, a0=0.0)
        assert bound == 0.0 and violations == []

    def test_explicit_power_law_substitution_threshold(self):
        # a_m = M (m+1)^(-p), p = 1/(1+alpha), satisfies the recursion
        # inequality a_{m+1} <= a_m - C a_{m+1}^(2+alpha) for all large m
        # exactly when M^(1+alpha) <= p/C; above the threshold it fails.
        for C, alpha in ((1.0, 0.0), (0.7, 0.5)):
            p = 1.0 / (1.0 + alpha)
            m = np.arange(50, 5000, dtype=float)
            for M, should_hold in (((p / C) ** p * 0.9, True),
                                   ((p / C) ** p * 10.0, False)):
                a_m = M * (m + 1.0) ** (-p)
                a_next = M * (m + 2.0) ** (-p)
                holds = np.all(a_next <= a_m - C * a_next ** (2.0 + alpha))
                assert holds == should_hold

    def test_parameter_validation(self):
        for C in (0.0, np.nan):
            with pytest.raises(DomainError):
                sequence_lemma_check(C, 0.0, 100)
        with pytest.raises(DomainError):
            sequence_lemma_check(1.0, -1.5, 100)
        with pytest.raises(DomainError):
            sequence_lemma_check(1.0, 0.0, 5)


class TestTrajectoryInvariants:
    def test_energies_recomputable_from_states(self):
        # the states from the assembled step map, one product per step
        sys_ = build_synthetic(2.0, 2.0, 8)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(5))
        traj = simulate_collocated(sys_, x0, 20.0)
        X, _, _ = dense_loop(sys_, "collocated", x0, 20.0, traj.n_samples - 1, None)
        recomputed = np.einsum("ij,ij->i", X, X)
        assert np.abs(recomputed - traj.energies).max() <= 1e-10 * traj.energies[0]

    def test_controls_recorded_with_sign(self):
        # u = -B^T w_t gives d/dt E/2 = -||u||^2, so each step's energy drop is the
        # trapezoid sum of the recorded control power up to its rule's error
        # dt^3/12 max|f''|, where f = ||B^T x||^2 has |f''| <= 4 ||B||^2 ||A - BB^T||^2 E(0);
        # at dt = 0.01 every step's sum exceeds that, so the opposite sign fails each step
        sys_ = build_synthetic(2.0, 2.0, 4)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(6))
        traj = simulate_collocated(sys_, x0, 5.0, dt=0.01)
        A, B, _ = first_order_matrices(sys_)
        dt = np.diff(traj.times)
        drop = -0.5 * np.diff(traj.energies)
        trapezoid = 0.5 * dt * (traj.control_power[:-1] + traj.control_power[1:])
        bound = (dt**3 / 12.0 * 4.0 * np.linalg.norm(B, 2) ** 2
                 * np.linalg.norm(A - B @ B.T, 2) ** 2 * traj.energies[0])
        assert np.all(trapezoid > bound)
        assert np.all(np.abs(drop - trapezoid) <= bound)

    def test_recorded_quadratic_forms_match_per_row_reference(self):
        # 151 samples: 18 full 8-step chunks and a partial one
        sys_ = build_synthetic(2.0, 2.0, 5)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(7))
        sol = solve_are(sys_)
        traj = simulate_riccati_feedback(sys_, sol, x0, 14.95, dt=0.1)
        assert traj.n_samples == 151
        _, _, Q = first_order_matrices(sys_)
        X, _, _ = dense_loop(sys_, "riccati_feedback", x0, 14.95, 150, sol.E)
        for got, M in ((traj.values, sol.E), (traj.obs_power, Q)):
            ref = np.array([x @ M @ x for x in X])
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@st.composite
def stacked_systems(draw):
    """Blocks of 1-3 modes on permuted modes, sizes repeating so that equal-sized blocks stack.

    Each block is coupled by B B*, by Q_obs or by both; the other is diagonal on it.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    links = np.array(draw(st.lists(st.sampled_from(["both", "control", "observation"]),
                                   min_size=len(sizes), max_size=len(sizes))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = labels.size
    same = labels[:, None] == labels[None, :]
    off = same & ~np.eye(n, dtype=bool)
    B = np.diag(rng.uniform(0.3, 2.0, n))
    B += np.where(off & (links[labels] != "observation")[:, None],
                  0.5 * rng.standard_normal((n, n)), 0.0)
    C = np.where(same, rng.standard_normal((n, n)), 0.0)
    Q = np.where(off & (links[labels] == "control")[:, None], 0.0, C.T @ C)
    sys_ = SpectralSystem.from_dense(np.sort(rng.uniform(0.5, 4.0, n)), B, Q)
    return sys_, sorted(sizes), rng.standard_normal(2 * n), draw(
        st.sampled_from([1, 7, 8, 9, 17, 151]))


def dense_loop(sys_, kind, x0, horizon, steps, E):
    """The states, dense generator and recorded outputs of a loop, one step-map product per step."""
    A, B, Q = first_order_matrices(sys_)
    D = np.zeros_like(A)
    D[1::2, 1::2] = sys_.Q_obs
    if kind == "backward_observer":
        gain, A_cl, G, obs = None, A - D, D, D
    elif kind == "collocated":
        gain = B.T
        A_cl, G, obs = A - B @ gain, B @ gain, Q
    else:
        gain = B.T @ E
        A_cl, G, obs = A - B @ gain, gain.T @ gain + Q, Q
    P, W = step_map(A_cl, horizon / steps, cost=G)
    X = np.empty((steps + 1, x0.size))
    X[0] = x0
    for k in range(steps):
        X[k + 1] = P @ X[k]
    out = {"energies": np.einsum("ij,ij->i", X, X),
           "obs_power": np.einsum("ij,jk,ik->i", X, obs, X),
           "dissipation": np.einsum("ij,jk,ik->", X[:-1], W, X[:-1])}
    if gain is not None:
        U = -X @ gain.T
        out["control_power"] = np.einsum("ij,ij->i", U, U)
    if kind == "riccati_feedback":
        out["values"] = np.einsum("ij,jk,ik->i", X, E, X)
    return X, A_cl, out


def assert_matches_dense_loop(traj, sys_, x0, horizon, E=None):
    """Every recorded series and the dissipation to 1e-13 of the dense loop's; its generator."""
    _, A_cl, want_series = dense_loop(sys_, traj.kind, x0, horizon, traj.n_samples - 1, E)
    for name, want in want_series.items():
        got = getattr(traj, name)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (traj.kind, name)
    return A_cl


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=stacked_systems())
def test_stacked_loops_match_dense_per_step_oracle(case):
    # 1, 7, 8, 9, 17 and 151 steps: the last 8-step chunk full or partial
    sys_, sizes, x0, steps = case
    assert sorted(r.modes.size for r in sys_.records) == sizes
    horizon, dt = 0.05 * steps, 0.05 * (1.0 + 1e-9)
    sol = solve_are(sys_)
    for traj in (simulate_collocated(sys_, x0, horizon, dt),
                 simulate_riccati_feedback(sys_, sol, x0, horizon, dt),
                 simulate_backward_observer(sys_, x0, horizon, dt)):
        assert traj.n_samples == steps + 1
        A_cl = assert_matches_dense_loop(traj, sys_, x0, horizon, sol.E)
        # the stacked generators are the dense generator's blocks, and it is zero off them
        assembled = np.zeros_like(A_cl)
        for stack, A_stack in zip(stacked_blocks(sys_.records), traj.generators, strict=True):
            e = energy_index(np.array([r.modes for r in stack]))
            assembled[e[:, :, None], e[:, None, :]] = A_stack
        assert np.abs(assembled - A_cl).max() <= 1e-14 * np.abs(A_cl).max(), traj.kind


def test_long_collocated_run_matches_dense_per_step_oracle():
    # the interval_subdomain benchmark run: 9779 steps over many row chunks, and the last
    # coarse state starts 9779 mod 8 = 3 steps, which its own tail Gramian covers
    sys_ = build_interval_wave(64, control=("subinterval", 0.4, 1.9))
    x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=np.random.default_rng(8))
    traj = simulate_collocated(sys_, x0, 60.0)
    steps = traj.n_samples - 1
    assert steps == 9779 and steps % _CHUNK_STEPS == 3
    assert steps > 4 * _CHUNK_ELEMENTS // x0.size  # at least four row chunks
    assert_matches_dense_loop(traj, sys_, x0, 60.0)


def test_a_form_that_is_zero_everywhere_records_exact_zeros():
    # no observation: obs_power is exactly 0 in every loop, and so are the Riccati loop's
    # values and control power, E being the minimal solution 0
    rng = np.random.default_rng(3)
    n = 6
    B = np.diag(rng.uniform(0.5, 1.5, n)) + np.triu(0.3 * rng.standard_normal((n, n)), 1)
    sys_ = SpectralSystem.from_dense(np.sort(rng.uniform(0.5, 4.0, n)), B, np.zeros((n, n)))
    sol = solve_are(sys_)
    x0 = rng.standard_normal(2 * n)
    riccati = simulate_riccati_feedback(sys_, sol, x0, 7.55, dt=0.05)
    for traj in (simulate_collocated(sys_, x0, 7.55, dt=0.05), riccati,
                 simulate_backward_observer(sys_, x0, 7.55, dt=0.05)):
        assert np.all(traj.obs_power == 0.0), traj.kind
        assert_matches_dense_loop(traj, sys_, x0, 7.55, sol.E)
    assert np.all(riccati.values == 0.0) and np.all(riccati.control_power == 0.0)


def test_blocks_with_different_supports_are_recorded_on_their_union():
    # two 3-mode blocks in one stack: the first's control acts on its modes 0 and 1 and its
    # observation on 1 and 2, the second's on 1 and 2 and on 0 and 1, so each weight's
    # coordinates differ between the blocks and only their union records both; a mode
    # observed but not controlled leaves no stabilizing ARE solution, so no Riccati loop
    rng = np.random.default_rng(4)
    B = np.zeros((6, 2))
    B[[0, 1], 0] = rng.uniform(0.5, 1.5, 2)
    B[[4, 5], 1] = rng.uniform(0.5, 1.5, 2)
    Q = np.zeros((6, 6))
    for modes in ([1, 2], [3, 4]):
        C = rng.standard_normal((2, 2))
        Q[np.ix_(modes, modes)] = C.T @ C
    sys_ = SpectralSystem.from_dense(np.sort(rng.uniform(0.5, 4.0, 6)), B, Q)
    assert [[list(r.modes) for r in stack] for stack in stacked_blocks(sys_.records)] == [
        [[0, 1, 2], [3, 4, 5]]]
    x0 = rng.standard_normal(12)
    for traj in (simulate_collocated(sys_, x0, 7.55, dt=0.05),
                 simulate_backward_observer(sys_, x0, 7.55, dt=0.05)):
        assert_matches_dense_loop(traj, sys_, x0, 7.55)


def test_collocated_loop_holds_no_state_sized_temporaries():
    # 9779 and 19557 steps of the 64-mode interval: the loop keeps its 1-D series and adds
    # only its step maps and bounded row chunks, so no (steps, d) array (the states alone
    # would be 10 MB at T = 60).  Of the allowance, step_map's Van Loan exponential of the
    # 128-coordinate block and its temporaries take about 3.6 MiB; doubling the horizon
    # may add only the longer series
    sys_ = build_interval_wave(64, control=("subinterval", 0.4, 1.9))
    x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=np.random.default_rng(8))
    peaks, series = [], []
    for horizon, samples in ((60.0, 9780), (120.0, 19558)):
        tracemalloc.start()
        try:
            traj = simulate_collocated(sys_, x0, horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert traj.n_samples == samples
        series.append(sum(a.nbytes for a in (traj.times, traj.energies, traj.control_power,
                                             traj.obs_power)))
    assert peaks[0] <= series[0] + 5 * 2**20
    assert peaks[1] <= peaks[0] + series[1] - series[0] + 64 * 2**10


class TestExponentialWeightRegime:
    def test_log_type_decay_is_slower_than_any_planted_power(self):
        # exponential control weights (the no-GCC general-domain surrogate)
        # damp high modes like exp(-2*alpha*lambda): the energy still decays,
        # but the fitted power-law exponent on the window is far below the
        # polynomial plants
        from wavelq.models import build_synthetic_exponential
        sys_ = build_synthetic_exponential(0.4, 0.4, 48)
        x0 = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
        traj = simulate_collocated(sys_, x0, 200.0)
        assert traj.energies[-1] < traj.energies[0]
        # log-type decay: the local power-law exponent shrinks like 1/ln t,
        # unlike the polynomial plants whose fitted exponent is window-stable
        early = fit_decay(traj, (10.0, 50.0))
        late = fit_decay(traj, (50.0, 200.0))
        assert 0.0 < late.exponent < early.exponent
        poly = build_synthetic(2.0, 2.0, 48)
        ptraj = simulate_collocated(poly, x0, 200.0)
        p_early = fit_decay(ptraj, (10.0, 50.0))
        assert late.exponent < 0.5 * p_early.exponent


# each entry point with the name of the value it checks, and a call that passes it v
STEP_OR_HORIZON = {
    "simulate_collocated": ("horizon", lambda s, are, x0, v: simulate_collocated(s, x0, v)),
    "simulate_collocated_dt": ("dt", lambda s, are, x0, v: simulate_collocated(s, x0, 1.0, dt=v)),
    "simulate_riccati_feedback": ("horizon",
                                  lambda s, are, x0, v: simulate_riccati_feedback(s, are, x0, v)),
    "simulate_riccati_feedback_dt": ("dt", lambda s, are, x0, v: simulate_riccati_feedback(
        s, are, x0, 1.0, dt=v)),
    "simulate_backward_observer": ("horizon",
                                   lambda s, are, x0, v: simulate_backward_observer(s, x0, v)),
    "simulate_backward_observer_dt": ("dt", lambda s, are, x0, v: simulate_backward_observer(
        s, x0, 1.0, dt=v)),
    "hum_null_control": ("t0", lambda s, are, x0, v: hum_null_control(s, x0, v)),
    "solve_tracking": ("horizon",
                       lambda s, are, x0, v: solve_tracking(s, np.ones(3), x0, v, are=are)),
    "solve_tracking_dt_record": ("dt_record", lambda s, are, x0, v: solve_tracking(
        s, np.ones(3), x0, 1.0, dt_record=v, are=are)),
    "tracking_integrals": ("horizon", lambda s, are, x0, v: tracking_integrals(
        s, np.ones(3), x0, [v], are=are)),
    "tracking_integrals_dt_record": ("dt_record", lambda s, are, x0, v: tracking_integrals(
        s, np.ones(3), x0, [1.0], dt_record=v, are=are)),
    "integrate_dre": ("horizon", lambda s, are, x0, v: integrate_dre(s, v)),
    "observability_gramian": ("horizon", lambda s, are, x0, v: observability_gramian(s, v)),
    "controllability_gramian": ("horizon", lambda s, are, x0, v: controllability_gramian(s, v)),
    "shell_constant": ("horizon", lambda s, are, x0, v: shell_constant(s, 1.0, 2.0, v)),
    "fit_weak_observability": ("horizon", lambda s, are, x0, v: fit_weak_observability(
        s, v, [1.0, 2.0, 4.0])),
    "g_weight": ("T", lambda s, are, x0, v: g_weight(v, 1.0, 1.0)),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("entry", STEP_OR_HORIZON)
def test_entry_points_reject_a_step_or_horizon_that_is_not_positive(entry, bad):
    # a NaN fails every comparison, so only "not value > 0" catches it
    name, call = STEP_OR_HORIZON[entry]
    sys_ = build_synthetic(2.0, 2.0, 3)
    with pytest.raises(DomainError, match=f"^{name} must be positive"):
        call(sys_, solve_are(sys_), np.ones(6), bad)
