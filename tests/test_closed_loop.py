import numpy as np
import pytest
import scipy.integrate

from wavelq.closed_loop import (
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
from wavelq.models import SpectralSystem, build_synthetic
from wavelq.riccati import first_order_matrices, solve_are
from wavelq.spectral import DomainError, NormScale, energy_norm_squared


def single_mode_system(lam=1.0, gain=1.0, q=1.0):
    return SpectralSystem([lam], np.array([[gain]]), np.array([[q]]))


class TestCollocated:
    def test_conservative_flow_preserves_energy(self):
        sys_ = SpectralSystem([1.0, 2.0, 3.0], np.zeros((3, 1)), np.zeros((3, 3)))
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
        A, B, _ = first_order_matrices(sys_)
        window = default_decay_window(A - B @ B.T, 40.0)
        fit = fit_decay(traj, window)
        assert fit.exponent >= 0.85 * 1.0 * 2.0

    def test_propagation_methods_agree(self):
        # the exact expm propagator against an adaptive RK oracle
        sys_ = single_mode_system()
        x0 = np.array([1.0, 0.3])
        te = simulate_collocated(sys_, x0, horizon=5.0, dt=0.002)
        A, B, _ = first_order_matrices(sys_)
        A_cl = A - B @ B.T
        tr = scipy.integrate.solve_ivp(lambda _t, x: A_cl @ x, (0.0, 5.0), x0,
                                       method="DOP853", t_eval=te.times,
                                       rtol=1e-11, atol=1e-13, max_step=np.pi / 8.0)
        assert tr.success
        assert np.abs(tr.y.T - te.states).max() <= 1e-6


class TestRiccatiFeedback:
    def test_zero_state_stays_zero(self):
        sys_ = single_mode_system()
        sol = solve_are(sys_)
        traj = simulate_riccati_feedback(sys_, sol, np.zeros(2), 5.0)
        assert np.abs(traj.states).max() == 0.0

    def test_single_mode_stable_and_lyapunov_decreasing(self):
        sys_ = single_mode_system()
        sol = solve_are(sys_)
        from wavelq.riccati import closed_loop_matrix
        eigs = np.linalg.eigvals(closed_loop_matrix(sys_, sol))
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
        from wavelq.spectral import ModalVector, to_energy
        x0 = to_energy(ModalVector(a=lam**-3.1 * signs, b=lam**-3.1 * signs[::-1]), lam)
        traj = simulate_riccati_feedback(sys_, sol, x0, 40.0)
        from wavelq.riccati import closed_loop_matrix
        window = default_decay_window(closed_loop_matrix(sys_, sol), 40.0)
        fit = fit_decay(traj, window)
        assert fit.exponent >= 0.75 * 1.0


class TestBackwardObserver:
    def test_no_observation_is_conservative(self):
        sys_ = SpectralSystem([1.0, 2.0], np.eye(2), np.zeros((2, 2)))
        traj = simulate_backward_observer(sys_, np.array([1.0, 0.0, 0.2, 0.4]), 100.0)
        assert np.abs(traj.energies / traj.energies[0] - 1.0).max() <= 1e-9

    def test_energy_identity(self):
        sys_ = build_synthetic(2.0, 0.5, 12)
        x = smooth_initial_state(sys_.lambdas, 1.8, rng=np.random.default_rng(2))
        traj = simulate_backward_observer(sys_, x, 80.0)
        assert energy_identity_defect(traj) <= 1e-6

    def test_mirror_of_collocated_on_full_observation_mode(self):
        # lambda = 1 with Q_obs = 1: the reversed-time observer equals the
        # collocated loop, so trajectories coincide sample by sample
        sys_ = single_mode_system()
        x = np.array([1.0, 0.3])
        fwd = simulate_collocated(sys_, x, 30.0)
        bwd = simulate_backward_observer(sys_, x, 30.0)
        assert np.abs(fwd.states - bwd.states).max() <= 1e-8

    def test_polynomial_regime_rate(self):
        # eta < 1 puts the observer loop in the weakly damped regime; the
        # fitted rate clears the Lemma-type threshold 0.85 * k * eta
        eta = 0.5
        sys_ = build_synthetic(2.0, eta, 64)
        term = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
        traj = simulate_backward_observer(sys_, term, 310.0)
        A, _, _ = first_order_matrices(sys_)
        D = np.zeros_like(A)
        D[np.ix_(range(1, 128, 2), range(1, 128, 2))] = sys_.Q_obs
        window = default_decay_window(A - D, 310.0)
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
            x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=rng).to_vector()
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


class TestFitDecay:
    def _power_law_traj(self, exponent, t_end=100.0, n=3000):
        ts = np.linspace(0.0, t_end, n)
        xi = (ts + 1.0) ** (-exponent / 2.0)
        states = np.stack([xi, np.zeros_like(xi)], axis=1)
        return Trajectory(times=ts, states=states, energies=xi**2,
                          lambdas=np.array([1.0]), kind="synthetic")

    def test_exact_power_law(self):
        traj = self._power_law_traj(2.0)
        fit = fit_decay(traj, (1.0, 90.0))
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.r2 >= 1.0 - 1e-12

    def test_exponential_signal_flagged_by_r2(self):
        ts = np.linspace(0.0, 10.0, 500)
        xi = np.exp(-ts / 2.0)
        traj = Trajectory(times=ts, states=np.stack([xi, 0 * xi], axis=1),
                          energies=xi**2, lambdas=np.array([1.0]), kind="synthetic")
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
        with pytest.raises(DomainError):
            sequence_lemma_check(0.0, 0.0, 100)
        with pytest.raises(DomainError):
            sequence_lemma_check(1.0, -1.5, 100)
        with pytest.raises(DomainError):
            sequence_lemma_check(1.0, 0.0, 5)


class TestTrajectoryInvariants:
    def test_energies_recomputable_from_states(self):
        sys_ = build_synthetic(2.0, 2.0, 8)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(5))
        traj = simulate_collocated(sys_, x0, 20.0)
        recomputed = np.einsum("ij,ij->i", traj.states, traj.states)
        assert np.abs(recomputed - traj.energies).max() <= 1e-10 * traj.energies[0]
        mid = traj.state_at(traj.n_samples // 2)
        assert mid.norm_h_squared() == pytest.approx(traj.energies[traj.n_samples // 2],
                                                     rel=1e-12)

    def test_controls_recorded_with_sign(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(6))
        traj = simulate_collocated(sys_, x0, 5.0)
        expected = -(traj.states[:, 1::2] @ sys_.B_mod)
        assert np.abs(traj.controls - expected).max() <= 1e-12


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
