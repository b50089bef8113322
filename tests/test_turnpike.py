import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

from wavelq.closed_loop import smooth_initial_state
from wavelq.models import SpectralSystem, build_synthetic
from wavelq.spectral import DomainError
from wavelq.turnpike import (
    averaged_metrics,
    g_weight,
    solve_stationary,
    solve_tracking,
    solve_tracking_collocation,
    stationary_cost,
    tracking_os_residual,
)


def single_mode_system():
    return SpectralSystem([1.0], np.array([[1.0]]), np.array([[1.0]]))


class TestGWeight:
    def test_log_branch(self):
        assert g_weight(np.e - 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_power_branch(self):
        assert g_weight(1.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_at_zero_horizon(self):
        for k, e in ((1.0, 0.5), (2.0, 1.0), (0.3, 4.0)):
            assert g_weight(1e-12, k, e) <= 1e-10

    def test_continuity_across_unit_product(self):
        for T in (1.0, 10.0, 1000.0):
            ref = np.log1p(T)
            assert abs(g_weight(T, 1.0, 1.0 + 1e-6) - ref) <= 1e-4
            assert abs(g_weight(T, 1.0, 1.0 - 1e-6) - ref) <= 1e-4

    def test_infinite_exponent_limit(self):
        assert g_weight(10.0, 1.0, np.inf) == 0.0


class TestStationary:
    def test_zero_target(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        st = solve_stationary(sys_, np.zeros(4))
        assert np.abs(st.u_bar).max() == 0.0
        assert np.abs(st.w_bar.a).max() == 0.0
        assert np.abs(st.p_bar.a).max() == 0.0

    def test_single_mode_hand_solution(self):
        st = solve_stationary(single_mode_system(), np.array([1.0]))
        assert st.u_bar[0] == pytest.approx(0.5, rel=1e-12)
        assert st.w_bar.a[0] == pytest.approx(0.5, rel=1e-12)
        assert st.p_bar.a[0] == pytest.approx(-0.5, rel=1e-12)
        assert st.u_bar[0] == pytest.approx(-st.p_bar.a[0], rel=1e-12)

    def test_residuals_small_on_models(self):
        rng = np.random.default_rng(0)
        for sys_ in (build_synthetic(2.0, 2.0, 12), build_synthetic(1.0, 4.0, 8)):
            z = rng.standard_normal(sys_.n_modes)
            st = solve_stationary(sys_, z)
            assert st.optimality_residual <= 1e-10

    def test_convexity_probe(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        z = np.array([1.0, 0.5, 0.2, 0.1])
        st = solve_stationary(sys_, z)
        base = stationary_cost(sys_, z, st.u_bar)
        rng = np.random.default_rng(1)
        for _ in range(20):
            delta = 0.2 * rng.standard_normal(4)
            assert stationary_cost(sys_, z, st.u_bar + delta) > base


class TestTracking:
    def test_zero_problem_is_identically_zero(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        sol = solve_tracking(sys_, np.zeros(3), np.zeros(6), 4.0)
        assert np.abs(sol.deviation_states).max() == 0.0
        assert sol.cost_quadrature == 0.0

    def test_matches_dense_collocation_oracle_one_mode(self):
        sys_ = single_mode_system()
        z = np.array([0.7])
        x0 = np.array([1.0, -0.3])
        sol = solve_tracking(sys_, z, x0, 2.0, dt_record=2.0 / 2000)
        tt, xx, vv, cost = solve_tracking_collocation(sys_, z, x0, 2.0, n_steps=2000)
        assert np.array_equal(sol.times, tt)
        scale = np.abs(xx).max()
        assert np.abs(sol.deviation_states - xx).max() <= 1e-6 * scale
        assert sol.deviation_cost_exact == pytest.approx(cost, rel=1e-6)

    def test_matches_oracle_multimode(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(4)
        x0 = rng.standard_normal(8)
        sol = solve_tracking(sys_, z, x0, 5.0, dt_record=5.0 / 4000)
        tt, xx, vv, cost = solve_tracking_collocation(sys_, z, x0, 5.0, n_steps=4000)
        assert np.array_equal(sol.times, tt)
        assert np.abs(sol.deviation_states - xx).max() <= 1e-6 * np.abs(xx).max()
        assert sol.deviation_cost_exact == pytest.approx(cost, rel=1e-6)

    def test_cost_identity_value_formula(self):
        sys_ = build_synthetic(2.0, 2.0, 6)
        rng = np.random.default_rng(3)
        z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=6)
        x0 = smooth_initial_state(sys_.lambdas, 2.0, rng=rng).to_vector()
        sol = solve_tracking(sys_, z, x0, 12.0)
        assert sol.cost_quadrature == pytest.approx(sol.value_formula_cost, rel=1e-6)

    def test_os_residual_small(self):
        sys_ = build_synthetic(2.0, 2.0, 5)
        rng = np.random.default_rng(4)
        z = rng.standard_normal(5)
        x0 = rng.standard_normal(10)
        sol = solve_tracking(sys_, z, x0, 8.0)
        assert tracking_os_residual(sol) <= 1e-6

    @pytest.mark.parametrize("field", ["deviation_states", "deviation_adjoints",
                                       "deviation_controls"])
    def test_os_residual_detects_mid_grid_perturbation(self, field):
        sys_ = build_synthetic(2.0, 2.0, 4)
        rng = np.random.default_rng(10)
        sol = solve_tracking(sys_, rng.standard_normal(4), rng.standard_normal(8), 4.0,
                             dt_record=0.05)
        assert tracking_os_residual(sol) <= 1e-6
        values = getattr(sol, field).copy()
        mid = values.shape[0] // 2
        values[mid, 0] += 1e-4 * np.abs(values).max()
        assert tracking_os_residual(dataclasses.replace(sol, **{field: values})) > 1e-6

    def test_terminal_adjoint_matches_stationary_lift(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4)
        x0 = rng.standard_normal(8)
        sol = solve_tracking(sys_, z, x0, 6.0)
        # v(T) = -B^T q(T) with q(T) = (0, -p_bar) lifted
        vT = sol.deviation_controls[-1]
        expected = sys_.B_mod.T @ sol.stationary.p_bar.a
        assert np.abs(vT - expected).max() <= 1e-7 * (1.0 + np.abs(expected).max())


def _grid_quadrature(sys_, sol):
    """Simpson quadrature on the recorded grid of the deviation running cost
    int (||v||^2 + ||C (w - w_bar)||^2) dt and of the deviation position int (a - a_bar) dt."""
    a_dev = sol.deviation_states[:, 0::2] / sys_.lambdas
    obs = a_dev @ sys_.observation_factor().T
    v = sol.deviation_controls
    integrand = np.einsum("ij,ij->i", v, v) + np.einsum("ij,ij->i", obs, obs)
    return simpson(integrand, x=sol.times), simpson(a_dev, x=sol.times, axis=0)


class TestAveragedMetrics:
    def _runs(self, sys_, z, x0, horizons, dt_record=0.02):
        st = solve_stationary(sys_, z)
        return [solve_tracking(sys_, z, x0, T, stationary=st, dt_record=dt_record)
                for T in horizons], st

    def test_zero_problem_all_zero(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        runs, st = self._runs(sys_, np.zeros(3), np.zeros(6), [2.0, 4.0])
        rep = averaged_metrics(runs, st)
        assert np.abs(rep.avg_tracking).max() == 0.0
        assert np.abs(rep.avg_state_gap).max() == 0.0

    def test_metrics_nonnegative_and_quadrature_stable(self):
        sys_ = build_synthetic(2.0, 2.0, 6)
        rng = np.random.default_rng(6)
        z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=6)
        x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
        st = solve_stationary(sys_, z)
        coarse = solve_tracking(sys_, z, x0, 10.0, stationary=st, dt_record=0.02)
        fine = solve_tracking(sys_, z, x0, 10.0, stationary=st, dt_record=0.01)
        m_coarse = averaged_metrics([coarse], st)
        m_fine = averaged_metrics([fine], st)
        assert m_coarse.avg_tracking[0] >= 0.0
        assert m_coarse.avg_state_gap[0] >= 0.0
        rel = abs(m_coarse.avg_tracking[0] - m_fine.avg_tracking[0]) / m_fine.avg_tracking[0]
        assert rel <= 1e-4
        # Simpson quadrature of the recorded grid agrees with the solver-accumulated
        # integrals that the metrics read
        cost_quad, int_a_quad = _grid_quadrature(sys_, fine)
        assert cost_quad == pytest.approx(fine.deviation_cost_exact, rel=1e-6)
        assert m_fine.avg_tracking[0] == pytest.approx(cost_quad / 10.0, rel=1e-6)
        mean_a_quad = int_a_quad / 10.0
        err = np.abs(mean_a_quad - fine.mean_deviation_a).max()
        assert err <= 1e-6 * np.abs(mean_a_quad).max()
        assert m_fine.avg_state_gap[0] == pytest.approx(
            float(np.sum(sys_.lambdas**2 * mean_a_quad**2)), rel=1e-6)

    def test_horizons_must_increase(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        runs, st = self._runs(sys_, np.zeros(3), np.zeros(6), [4.0, 2.0])
        with pytest.raises(DomainError):
            averaged_metrics(runs, st)

    def test_decreasing_averages_small_grid(self):
        sys_ = build_synthetic(2.0, 2.0, 8)
        rng = np.random.default_rng(7)
        z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=8)
        x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
        runs, st = self._runs(sys_, z, x0, [10.0, 20.0, 40.0])
        rep = averaged_metrics(runs, st)
        assert np.all(np.diff(rep.avg_tracking) < 0.0)
        assert np.all(rep.bound_values > 0.0)
        assert rep.k_used == 1.0 and rep.ktilde_used == 1.0


class TestValueAgainstTrackingOracle:
    def test_finite_horizon_value_matches_zero_target_tracking_cost(self):
        # value(E(T), x0) is the optimal cost; the tracking solver with z = 0
        # computes the same quantity by an independent route
        from wavelq.riccati import integrate_dre, value
        sys_ = build_synthetic(2.0, 2.0, 4)
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal(8)
        T = 6.0
        snap = integrate_dre(sys_, T)[0]
        sol = solve_tracking(sys_, np.zeros(4), x0, T)
        assert sol.cost_quadrature == pytest.approx(value(snap, x0), rel=1e-6)
