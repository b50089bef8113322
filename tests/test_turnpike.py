import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from tracking_oracle import solve_stationary_dense, solve_tracking_collocation, solve_tracking_sweep
from wavelq.closed_loop import smooth_initial_state
from wavelq.models import (SpectralSystem, build_interval_wave, build_rectangle,
                           build_star_network, build_synthetic, build_synthetic_exponential,
                           energy_index, psd_sqrt, stacked_blocks)
from wavelq.riccati import first_order_matrices, solve_are, stack_matrices, step_map
from wavelq.spectral import DimensionError, DomainError
from wavelq.turnpike import (
    _SERIAL_PRODUCT,
    _STACK_ELEMENTS,
    _powers,
    averaged_metrics,
    g_weight,
    solve_stationary,
    solve_tracking,
    tracking_integrals,
    tracking_os_residual,
)


def stationary_cost(system: SpectralSystem, z, u) -> float:
    """Stationary objective ||u||^2 + ||C A^-1 B u - z||^2 (for convexity probes)."""
    w = (system.B_mod @ u) / system.lambdas**2
    return float(u @ u + np.sum((psd_sqrt(system.Q_obs) @ w - z) ** 2))


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

    @pytest.mark.parametrize("build", [
        lambda: build_rectangle(1.0, 2.0, 8.0),  # blocks of four sizes
        lambda: build_star_network([1.0, 1.3, 0.7], 0, 1, 12.0),  # one block
        lambda: build_interval_wave(10, control=("subinterval", 0.4, 1.9),
                                    observation=("subinterval", 1.0, 2.5)),
    ], ids=["rectangle", "star", "interval"])
    def test_matches_the_dense_oracle(self, build):
        sys_ = build()
        _assert_matches_stationary_oracle(sys_, np.random.default_rng(15).standard_normal(sys_.n_modes))

    def test_rectangle_stationary_holds_no_dense_matrix(self):
        # n = 3149 modes: one dense n x n array is 75.7 MiB
        sys_ = build_rectangle(1.0, 2.0, 64.0)
        z = np.random.default_rng(16).standard_normal(sys_.n_modes)
        small = build_rectangle(1.0, 2.0, 8.0)
        solve_stationary(small, np.ones(small.n_modes))  # imports outside the trace
        tracemalloc.start()
        try:
            st_ = solve_stationary(sys_, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.optimality_residual <= 1e-12
        assert peak < 8 * 2**20

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

    @pytest.mark.parametrize("field", ["deviation_states", "deviation_adjoints"])
    @pytest.mark.parametrize("build", [lambda: build_synthetic(2.0, 2.0, 4),
                                       lambda: build_rectangle(1.0, 2.0, 8.0)],  # four block sizes
                             ids=["synthetic", "rectangle"])
    def test_os_residual_detects_mid_grid_perturbation(self, build, field):
        sys_ = build()
        rng = np.random.default_rng(10)
        sol = solve_tracking(sys_, rng.standard_normal(sys_.n_modes),
                             rng.standard_normal(2 * sys_.n_modes), 4.0, dt_record=0.05)
        assert tracking_os_residual(sol) <= 1e-6
        # a column of the last stack: the rectangle's fourth, the synthetic system's only one
        column = 2 * stacked_blocks(sys_.records)[-1][0].modes[0]
        values = getattr(sol, field).copy()
        mid = values.shape[0] // 2
        values[mid, column] += 1e-4 * np.abs(values).max()
        assert tracking_os_residual(dataclasses.replace(sol, **{field: values})) > 1e-6

    @pytest.mark.parametrize("row", [1, 110, 111, 112, 300, 499, 500])
    def test_os_residual_checks_every_row_band(self, row):
        # the stack of three 7-mode blocks has a 3 x 28 x 28 step map, stepped in bands of
        # 111 rows of the 501-point grid
        sys_ = build_rectangle(1.0, 2.0, 8.0)
        stack = next(s for s in stacked_blocks(sys_.records) if s[0].modes.size == 7)
        assert len(stack) == 3 and _SERIAL_PRODUCT // (3 * 28 * 28) == 111
        rng = np.random.default_rng(11)
        sol = solve_tracking(sys_, rng.standard_normal(sys_.n_modes),
                             rng.standard_normal(2 * sys_.n_modes), 10.0, dt_record=0.02)
        assert sol.times.size == 501
        assert tracking_os_residual(sol) <= 1e-6
        X = sol.deviation_states.copy()
        column = 2 * stack[-1].modes[-1]
        X[row, column] += 1e-4 * np.abs(X).max()
        assert tracking_os_residual(dataclasses.replace(sol, deviation_states=X)) > 1e-6

    @pytest.mark.parametrize("size", [3, 5])
    def test_a_target_of_the_wrong_size_raises(self, size):
        sys_ = build_synthetic(2.0, 2.0, 4)
        st_ = solve_stationary(sys_, np.ones(4))
        with pytest.raises(DimensionError):
            solve_tracking(sys_, np.ones(size), np.zeros(8), 2.0, stationary=st_)
        with pytest.raises(DimensionError):
            solve_tracking(sys_, np.ones(size), np.zeros(8), 2.0)
        with pytest.raises(DimensionError):
            tracking_integrals(sys_, np.ones(size), np.zeros(8), [2.0], stationary=st_)
        with pytest.raises(DimensionError):
            tracking_integrals(sys_, np.ones(size), np.zeros(8), [2.0])

    def test_os_residual_holds_no_whole_system_step_map(self):
        # 183 modes: the whole system's Hamiltonian step map is 732 x 732, 4.1 MiB, and its
        # exponential's workspace several times that
        sys_ = build_rectangle(1.0, 2.0, 16.0)
        rng = np.random.default_rng(17)
        x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
        z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=sys_.n_modes)
        sol = solve_tracking(sys_, z, x0, 10.0)
        tracking_os_residual(solve_tracking(sys_, z, x0, 0.1))  # imports outside the trace
        tracemalloc.start()
        try:
            res = tracking_os_residual(sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res <= 1e-6
        assert peak <= 12 * 2**20

    def test_terminal_adjoint_matches_stationary_lift(self):
        sys_ = build_synthetic(2.0, 2.0, 4)
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4)
        x0 = rng.standard_normal(8)
        sol = solve_tracking(sys_, z, x0, 6.0)
        # v(T) = -B^T q(T) with q(T) = (0, -p_bar) lifted
        vT = -(sol.deviation_adjoints[-1, 1::2] @ sys_.B_mod)
        expected = sys_.B_mod.T @ sol.stationary.p_bar.a
        assert np.abs(vT - expected).max() <= 1e-7 * (1.0 + np.abs(expected).max())


def _grid_quadrature(sys_, sol):
    """Simpson quadrature on the recorded grid of the deviation running cost
    int (||v||^2 + ||C (w - w_bar)||^2) dt and of the deviation position int (a - a_bar) dt."""
    a_dev = sol.deviation_states[:, 0::2] / sys_.lambdas
    obs = a_dev @ psd_sqrt(sys_.Q_obs).T
    v = -(sol.deviation_adjoints[:, 1::2] @ sys_.B_mod)
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

    def test_runs_must_share_the_initial_state(self):
        # the bound proxy reads one initial state's class norm for every horizon
        sys_ = build_synthetic(2.0, 2.0, 3)
        z = np.ones(3)
        st = solve_stationary(sys_, z)
        runs = [solve_tracking(sys_, z, np.full(6, x0), T, stationary=st)
                for x0, T in ((1.0, 2.0), (5.0, 4.0))]
        with pytest.raises(DomainError, match="initial state"):
            averaged_metrics(runs, st)

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


@pytest.mark.parametrize("build, horizons, dt_record", [
    (lambda: build_synthetic(2.0, 2.0, 12), [10.0, 20.0, 40.0], 0.02),
    (lambda: build_synthetic_exponential(0.3, 0.2, 10), [5.0, 15.0], None),
    (lambda: build_rectangle(1.0, 2.0, 12.0), [4.0, 10.0], None),  # stacks of several sizes
    (lambda: build_star_network([1.0, np.pi / 2, np.sqrt(2.0)], 0, 0, 8.0), [6.0, 12.0], None),
    # free modes vanishing on the controlled edge: neutral in the closed loop
    (lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0), [6.0, 12.0], None),
    (lambda: build_synthetic(2.0, 2.0, 12), [3.7, 9.1], 0.3),  # sub > 1, T / dt_record not whole
], ids=["synthetic", "exponential", "rectangle", "star_generic", "star_111", "sub-off-grid"])
def test_closed_form_integrals_match_the_sweep(build, horizons, dt_record):
    sys_ = build()
    rng = np.random.default_rng(28)
    x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
    z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=sys_.n_modes)
    st_, are = solve_stationary(sys_, z), solve_are(sys_)
    if dt_record == 0.3:  # the case's premise: no whole number of record steps, and sub > 1
        assert all(T / dt_record % 1 and _chunk_counts(sys_, T, dt_record)[0] > 1 for T in horizons)
    closed = tracking_integrals(sys_, z, x0, horizons, stationary=st_, dt_record=dt_record, are=are)
    assert [r.horizon for r in closed] == horizons
    for got, T in zip(closed, horizons):
        sweep = solve_tracking(sys_, z, x0, T, stationary=st_, dt_record=dt_record, are=are)
        # the sweep reads the same boundary values: the same bits
        assert got.deviation_cost_exact == sweep.deviation_cost_exact
        assert got.value_formula_cost == sweep.value_formula_cost
        assert np.array_equal(got.mean_deviation_a, sweep.mean_deviation_a)
        # the sweep's Van Loan quadrature of the cost is the independent check
        assert got.value_formula_cost == pytest.approx(sweep.cost_quadrature, rel=1e-12)


def test_a_stationary_solution_for_another_target_is_rejected():
    sys_ = build_synthetic(2.0, 2.0, 4)
    rng = np.random.default_rng(29)
    z1, x0 = rng.standard_normal(4), rng.standard_normal(8)
    st1, st2 = solve_stationary(sys_, z1), solve_stationary(sys_, -z1)
    assert np.array_equal(st1.z, z1)
    with pytest.raises(DomainError):
        solve_tracking(sys_, -z1, x0, 2.0, stationary=st1)
    with pytest.raises(DomainError):
        tracking_integrals(sys_, -z1, x0, [2.0], stationary=st1)
    with pytest.raises(DomainError):
        averaged_metrics(tracking_integrals(sys_, -z1, x0, [2.0], stationary=st2), st1)
    own = solve_tracking(sys_, -z1, x0, 2.0, stationary=st2)
    assert own.cost_quadrature == solve_tracking(sys_, -z1, x0, 2.0).cost_quadrature


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
    got = {name: getattr(sol, name) for name in ("deviation_states", "deviation_adjoints",
                                                  "mean_deviation_a")}
    got["deviation_controls"] = -(sol.deviation_adjoints[:, 1::2] @ sys_.B_mod)
    for name, value in got.items():
        want = getattr(ref, name)
        assert np.abs(value - want).max() <= tol * np.abs(want).max(), name
    assert np.abs(sol.trajectory.values - ref.values).max() <= tol * np.abs(ref.values).max()
    for name in ("deviation_cost_exact", "value_formula_cost"):
        assert getattr(sol, name) == pytest.approx(getattr(ref, name), rel=tol), name
    # the boundary-value closed form against the monolithic sweep too
    closed = tracking_integrals(sys_, z, x0, [horizon], dt_record=dt_record)[0]
    for name in ("deviation_cost_exact", "value_formula_cost"):
        assert getattr(closed, name) == pytest.approx(getattr(ref, name), rel=tol), name
    err = np.abs(closed.mean_deviation_a - ref.mean_deviation_a).max()
    assert err <= tol * np.abs(ref.mean_deviation_a).max()
    return sol


def _chunk_counts(sys_, horizon, dt_record):
    """Fine steps per record step, and the chunks each stack's walk spans, by the rule of
    ``solve_tracking``."""
    lam_max = sys_.lambdas.max()
    if dt_record is None:
        dt_record = min(0.02, np.pi / (8.0 * lam_max))
    steps = max(2, int(np.ceil(horizon / dt_record)))
    sub = int(np.ceil(horizon / steps / (np.pi / (4.0 * lam_max))))
    counts = []
    for stack in stacked_blocks(sys_.records):
        elements = len(stack) * (2 * stack[0].modes.size) ** 2
        counts.append(-(-steps // max(1, _STACK_ELEMENTS // (sub * elements))))
    return sub, counts


@pytest.mark.parametrize("build, horizon, dt_record, chunked_stacks", [
    (lambda: build_synthetic(2.0, 2.0, 12), 25.0, 0.01, 0),
    (lambda: build_synthetic(2.0, 2.0, 12), 200.0, 0.01, 0),
    (lambda: build_synthetic(np.inf, np.inf, 12), 200.0, 0.01, 0),
    (lambda: build_rectangle(1.0, 2.0, 8.0), 10.0, None, 0),  # blocks of four sizes
    (lambda: build_interval_wave(16, control=("subinterval", 0.4, 1.9)), 10.0, None, 0),  # one block
    (lambda: build_synthetic(2.0, 2.0, 12), 20.0, 0.3, 0),  # sub = 5 fine steps per record step
    # free modes vanishing on the controlled edge: no stabilizing ARE solution
    (lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0), 50.0, None, 0),
    # sub = 3; the stacks of 14- and 12-coordinate blocks span 6 and 3 chunks, so the
    # value column composes the time to go outside blocks larger than 2 x 2
    (lambda: build_rectangle(1.0, 2.0, 8.0), 60.0, 0.3, 2),
], ids=["synthetic-T25", "synthetic-T200", "exact-T200", "rectangle",
        "interval", "sub5", "star_111", "rectangle-chunks"])
def test_dichotomy_matches_sweep_oracle(build, horizon, dt_record, chunked_stacks):
    sys_ = build()
    if chunked_stacks:
        sub, counts = _chunk_counts(sys_, horizon, dt_record)
        assert sub > 1 and sum(c >= 3 for c in counts) >= chunked_stacks
    rng = np.random.default_rng(12)
    x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
    z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=sys_.n_modes)
    sol = _assert_matches_sweep(sys_, z, x0, horizon, dt_record)
    assert tracking_os_residual(sol) <= 1e-6


@pytest.mark.parametrize("build", [
    lambda: build_synthetic(2.0, 2.0, 12),
    lambda: build_rectangle(1.0, 2.0, 8.0),  # blocks of four sizes
    lambda: build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0),  # neutral free modes in A_cl
], ids=["synthetic", "rectangle", "star_111"])
def test_powers_match_step_map_at_every_multiple(build):
    # every j of the chunk of a horizon-10 walk at h = 0.02 (sub = 1 on all three); over
    # longer spans the Van Loan reference itself loses digits as e^{-A_cl^T t} grows
    sys_ = build()
    E = solve_are(sys_).E
    h, n_fine = 0.02, 500
    for stack in stacked_blocks(sys_.records):
        e = energy_index(np.array([r.modes for r in stack]))
        _, _, (A, B, _) = stack_matrices(sys_.lambdas, stack)
        BBT = B @ np.swapaxes(B, -1, -2)
        A_clT = np.swapaxes(A - BBT @ E[e[:, :, None], e[:, None, :]], -1, -2)
        nb, s = e.shape
        m = min(n_fine, _STACK_ELEMENTS // (nb * s * s))
        FT, G1 = step_map(A_clT, h, cost=BBT)
        F, G = _powers((np.swapaxes(FT, -1, -2), G1), m)
        assert F.shape == G.shape == (nb, m + 1, s, s)
        assert np.array_equal(F[:, 0], np.broadcast_to(np.eye(s), (nb, s, s)))
        assert not G[:, 0].any()
        t = h * np.arange(1, m + 1)[:, None, None, None]
        FT_ref, G_ref = step_map(A_clT * t, 1.0, cost=BBT * t)  # over j h, j = 1..m
        for got, want in ((np.swapaxes(F[:, 1:], -1, -2), FT_ref), (G[:, 1:], G_ref)):
            want = np.swapaxes(want, 0, 1)
            err = np.abs(got - want).max(axis=(-1, -2))
            assert np.all(err <= 1e-13 * np.abs(want).max(axis=(-1, -2)))


@st.composite
def small_systems(draw):
    """A 1-4 mode system, coupled or split into blocks of the drawn sizes on permuted modes.

    Every mode has its own control; every second block of each size has one more,
    acting on all its modes, so equal-sized blocks can have unequal control counts
    and their stack pads B.  One more control column is zero, and ``from_dense``
    drops it.
    """
    sizes = draw(st.sampled_from([(1,), (2,), (3,), (4,), (1, 1), (1, 2), (1, 3), (2, 2),
                                  (1, 1, 1), (1, 1, 2), (1, 1, 1, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = labels.size
    same = labels[:, None] == labels[None, :]
    B = np.diag(rng.uniform(0.3, 2.0, n))  # mode k's own control, so every mode is controllable
    B += np.where(same & ~np.eye(n, dtype=bool), 0.5 * rng.standard_normal((n, n)), 0.0)
    extra = [b for b, k in enumerate(sizes) if sizes[:b].count(k) % 2]
    B = np.column_stack([B] + [np.where(labels == b, rng.standard_normal(n), 0.0) for b in extra])
    B = np.insert(B, rng.integers(0, B.shape[1] + 1), 0.0, axis=1)
    C = np.where(same, rng.standard_normal((n, n)), 0.0)
    lam = np.sort(rng.uniform(0.5, 4.0, n))
    return (SpectralSystem.from_dense(lam, B, C.T @ C), rng.standard_normal(n),
            rng.standard_normal(2 * n), draw(st.floats(0.5, 100.0)), draw(st.floats(0.05, 2.0)))


def _assert_matches_stationary_oracle(sys_, z):
    st_ = solve_stationary(sys_, z)
    u, a, p, gap_sq = solve_stationary_dense(sys_, z)
    for got, want in ((st_.u_bar, u), (st_.w_bar.a, a), (st_.p_bar.a, p)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert st_.obs_gap_sq == pytest.approx(gap_sq, rel=1e-12, abs=1e-14)
    assert st_.optimality_residual <= 1e-12


@settings(max_examples=50, derandomize=True, deadline=None)
@given(case=small_systems())
def test_dichotomy_matches_sweep_on_random_block_systems(case):
    sys_, z, x0, horizon, dt_record = case
    _assert_matches_stationary_oracle(sys_, z)
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
    # edge are free, so solve_are splits them off with the minimal solution 0 (the
    # DRE limit there), and its closed loop leaves those modes neutral
    sys_ = build_star_network([1.0, 1.0, 1.0], 0, 0, 8.0)
    z = np.zeros(sys_.n_modes)
    x0 = np.ones(2 * sys_.n_modes)
    are = solve_are(sys_)
    assert are.method == "doubling"
    A, B, _ = first_order_matrices(sys_)
    assert np.linalg.eigvals(A - B @ (B.T @ are.E)).real.max() > -1e-12
    assert np.all(np.isfinite(solve_tracking(sys_, z, x0, 5.0, are=are).deviation_states))


def test_precomputed_are_solution_gives_the_same_bits():
    sys_ = build_synthetic(2.0, 2.0, 5)
    rng = np.random.default_rng(14)
    z, x0 = rng.standard_normal(5), rng.standard_normal(10)
    a = solve_tracking(sys_, z, x0, 6.0)
    b = solve_tracking(sys_, z, x0, 6.0, are=solve_are(sys_))
    assert np.array_equal(a.deviation_states, b.deviation_states)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
