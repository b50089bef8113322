import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

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
from wavelq.models import (SpectralSystem, build_interval_wave, build_rectangle, build_star_network,
                           build_synthetic, controllability_gramian, fit_weak_observability,
                           observability_gramian, shell_constant)
from wavelq.riccati import first_order_matrices, integrate_dre, solve_are, step_map
from wavelq.spectral import DomainError, NormScale, energy_norm_squared
from wavelq.turnpike import g_weight, solve_tracking


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
        from wavelq.spectral import ModalVector, to_energy
        x0 = to_energy(ModalVector(a=lam**-3.1 * signs, b=lam**-3.1 * signs[::-1]), lam)
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


    def test_stack_of_states_matches_one_call_per_state(self):
        sys_ = build_synthetic(2.0, 2.0, 16)
        rng = np.random.default_rng(5)
        x0s = np.array([smooth_initial_state(sys_.lambdas, 1.6, rng=rng).to_vector()
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
        for C in (0.0, np.nan):
            with pytest.raises(DomainError):
                sequence_lemma_check(C, 0.0, 100)
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

    def test_controls_recorded_with_sign(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(6))
        traj = simulate_collocated(sys_, x0, 5.0)
        expected = -(traj.states[:, 1::2] @ sys_.B_mod)
        assert np.abs(traj.controls - expected).max() <= 1e-12

    def test_recorded_quadratic_forms_match_per_row_reference(self):
        # 151 samples: 18 full 8-step chunks and a partial one
        sys_ = build_synthetic(2.0, 2.0, 5)
        x0 = smooth_initial_state(sys_.lambdas, 1.3, rng=np.random.default_rng(7))
        sol = solve_are(sys_)
        traj = simulate_riccati_feedback(sys_, sol, x0, 14.95, dt=0.1)
        assert traj.n_samples == 151
        _, _, Q = first_order_matrices(sys_)
        for got, M in ((traj.values, sol.E), (traj.obs_power, Q)):
            ref = np.array([x @ M @ x for x in traj.states])
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
    """The recorded outputs of a loop from the assembled step map, one product per step."""
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
    out = {"states": X, "energies": np.einsum("ij,ij->i", X, X),
           "obs_power": np.einsum("ij,jk,ik->i", X, obs, X),
           "dissipation": np.einsum("ij,jk,ik->", X[:-1], W, X[:-1])}
    if gain is not None:
        out["controls"] = -X @ gain.T
        out["control_power"] = np.einsum("ij,ij->i", out["controls"], out["controls"])
    if kind == "riccati_feedback":
        out["values"] = np.einsum("ij,jk,ik->i", X, E, X)
    return out


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=stacked_systems())
def test_stacked_loops_match_dense_per_step_oracle(case):
    # 1, 7, 8, 9, 17 and 151 steps: the last 8-step chunk full or partial
    sys_, sizes, x0, steps = case
    assert sorted(modes.size for modes in sys_.blocks) == sizes
    horizon, dt = 0.05 * steps, 0.05 * (1.0 + 1e-9)
    sol = solve_are(sys_)
    for traj in (simulate_collocated(sys_, x0, horizon, dt),
                 simulate_riccati_feedback(sys_, sol, x0, horizon, dt),
                 simulate_backward_observer(sys_, x0, horizon, dt)):
        assert traj.n_samples == steps + 1
        for name, want in dense_loop(sys_, traj.kind, x0, horizon, steps, sol.E).items():
            got = getattr(traj, name)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (traj.kind, name)


def test_collocated_loop_holds_no_state_sized_temporaries():
    # 9779 steps of the 64-mode interval: 10 MB of states, to which the loop adds only its
    # step maps and bounded row chunks (full-size per-stack temporaries would not fit)
    sys_ = build_interval_wave(64, control=("subinterval", 0.4, 1.9))
    x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=np.random.default_rng(8)).to_vector()
    tracemalloc.start()
    try:
        traj = simulate_collocated(sys_, x0, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_samples == 9780
    assert peak <= traj.states.nbytes + traj.controls.nbytes + 2 * 2**20


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
