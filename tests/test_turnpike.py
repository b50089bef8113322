import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from tracking_oracle import solve_tracking_collocation, solve_tracking_sweep
from wavelq.closed_loop import smooth_initial_state
from wavelq.models import (SpectralSystem, build_interval_wave, build_rectangle,
                           build_star_network, build_synthetic)
from wavelq.riccati import closed_loop_matrix, solve_are
from wavelq.spectral import DomainError
from wavelq.turnpike import (
    averaged_metrics,
    g_weight,
    solve_stationary,
    solve_tracking,
    tracking_os_residual,
)


def stationary_cost(system: SpectralSystem, z, u) -> float:
    """Stationary objective ||u||^2 + ||C A^-1 B u - z||^2 (for convexity probes)."""
    w = (system.B_mod @ u) / system.lambdas**2
    return float(u @ u + np.sum((system.observation_factor() @ w - z) ** 2))


def single_mode_system():
    return SpectralSystem.from_dense([1.0], np.array([[1.0]]), np.array([[1.0]]))


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

    @pytest.mark.parametrize("row", [1, 112, 113, 114, 300, 499, 500])
    def test_os_residual_checks_every_row_band(self, row):
        # 12 modes: a 48 x 48 step map, stepped in bands of 113 rows of the 501-point grid
        sys_ = build_synthetic(2.0, 2.0, 12)
        rng = np.random.default_rng(11)
        sol = solve_tracking(sys_, rng.standard_normal(12), rng.standard_normal(24), 10.0,
                             dt_record=0.02)
        assert tracking_os_residual(sol) <= 1e-6
        X = sol.deviation_states.copy()
        X[row, 3] += 1e-4 * np.abs(X).max()
        assert tracking_os_residual(dataclasses.replace(sol, deviation_states=X)) > 1e-6

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


# ---------------------------------------------------------------------------
# the dichotomy solve against the monolithic Riccati sweep


def _assert_matches_sweep(sys_, z, x0, horizon, dt_record=None, tol=1e-10):
    sol = solve_tracking(sys_, z, x0, horizon, dt_record=dt_record)
    ref = solve_tracking_sweep(sys_, z, x0, horizon, dt_record=dt_record)
    assert np.array_equal(sol.times, ref.times)
    for name in ("deviation_states", "deviation_adjoints", "deviation_controls",
                 "mean_deviation_a"):
        want = getattr(ref, name)
        assert np.abs(getattr(sol, name) - want).max() <= tol * np.abs(want).max(), name
    assert np.abs(sol.trajectory.values - ref.values).max() <= tol * np.abs(ref.values).max()
    for name in ("deviation_cost_exact", "value_formula_cost"):
        assert getattr(sol, name) == pytest.approx(getattr(ref, name), rel=tol), name
    return sol


@pytest.mark.parametrize("build, horizon, dt_record", [
    (lambda: build_synthetic(2.0, 2.0, 12), 25.0, 0.01),
    (lambda: build_synthetic(2.0, 2.0, 12), 200.0, 0.01),
    (lambda: build_synthetic(np.inf, np.inf, 12), 200.0, 0.01),
    (lambda: build_rectangle(1.0, 2.0, 8.0), 10.0, None),  # blocks of four sizes
    (lambda: build_interval_wave(16, control=("subinterval", 0.4, 1.9)), 10.0, None),  # one block
    (lambda: build_synthetic(2.0, 2.0, 12), 20.0, 0.3),  # sub = 5 fine steps per record step
    # free modes vanishing on the controlled edge: no stabilizing ARE solution
    (lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0), 50.0, None),
], ids=["synthetic-T25", "synthetic-T200", "exact-T200", "rectangle", "interval", "sub5",
        "star_111"])
def test_dichotomy_matches_sweep_oracle(build, horizon, dt_record):
    sys_ = build()
    rng = np.random.default_rng(12)
    x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
    z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=sys_.n_modes)
    sol = _assert_matches_sweep(sys_, z, x0, horizon, dt_record)
    assert tracking_os_residual(sol) <= 1e-6


@st.composite
def small_systems(draw):
    """A 1-4 mode system, coupled or split into blocks of the drawn sizes on permuted modes."""
    sizes = draw(st.sampled_from([(1,), (2,), (3,), (4,), (1, 1), (1, 2), (1, 3), (2, 2),
                                  (1, 1, 1), (1, 1, 2), (1, 1, 1, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = labels.size
    same = labels[:, None] == labels[None, :]
    B = np.diag(rng.uniform(0.3, 2.0, n))  # mode k's own control, so every mode is controllable
    B += np.where(same & ~np.eye(n, dtype=bool), 0.5 * rng.standard_normal((n, n)), 0.0)
    C = np.where(same, rng.standard_normal((n, n)), 0.0)
    lam = np.sort(rng.uniform(0.5, 4.0, n))
    return (SpectralSystem.from_dense(lam, B, C.T @ C), rng.standard_normal(n),
            rng.standard_normal(2 * n), draw(st.floats(0.5, 100.0)), draw(st.floats(0.05, 2.0)))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(case=small_systems())
def test_dichotomy_matches_sweep_on_random_block_systems(case):
    sys_, z, x0, horizon, dt_record = case
    _assert_matches_sweep(sys_, z, x0, horizon, dt_record)


def test_tracking_memory_stays_off_the_step_count():
    # the sweep stored the Riccati flow at every step: 1001 x 196 x 196 doubles, 307 MB here
    sys_ = build_rectangle(1.0, 2.0, 12.0)
    rng = np.random.default_rng(13)
    x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
    z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=sys_.n_modes)
    tracemalloc.start()
    try:
        sol = solve_tracking(sys_, z, x0, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.times.size == 1001
    assert peak <= 32 * 2**20


def test_tracking_without_a_stabilizing_are_solution():
    # three equal edges, control and observation on one: modes that vanish on that
    # edge are free and nearly uncontrollable, so no DRE snapshot stabilizes and
    # solve_are keeps the DRE limit, whose closed loop leaves those modes neutral
    sys_ = build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0)
    z = np.zeros(sys_.n_modes)
    x0 = np.ones(2 * sys_.n_modes)
    are = solve_are(sys_)
    assert are.method == "dre_limit"
    assert np.linalg.eigvals(closed_loop_matrix(sys_, are)).real.max() > -1e-12
    assert np.all(np.isfinite(solve_tracking(sys_, z, x0, 5.0, are=are).deviation_states))


def test_precomputed_are_solution_gives_the_same_bits():
    sys_ = build_synthetic(2.0, 2.0, 5)
    rng = np.random.default_rng(14)
    z, x0 = rng.standard_normal(5), rng.standard_normal(10)
    a = solve_tracking(sys_, z, x0, 6.0)
    b = solve_tracking(sys_, z, x0, 6.0, are=solve_are(sys_))
    assert np.array_equal(a.deviation_states, b.deviation_states)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
