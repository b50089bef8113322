import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from wavelq.models import (
    build_interval_wave,
    build_rectangle,
    build_star_network,
    build_synthetic,
    build_synthetic_exponential,
    ConsistencyError,
    controllability_gramian,
    fit_line,
    fit_weak_observability,
    observability_gramian,
)
from wavelq.spectral import DomainError


class TestInterval:
    def test_full_domain_control_is_identity(self):
        sys_ = build_interval_wave(3)
        assert np.array_equal(sys_.B_mod, np.eye(3))

    def test_subinterval_full_equals_identity(self):
        sys_ = build_interval_wave(4, control=("subinterval", 0.0, np.pi))
        assert np.abs(sys_.bbt - np.eye(4)).max() <= 1e-12

    def test_overlap_matches_quadrature(self):
        a, b = 0.3, 1.7
        sys_ = build_interval_wave(6, control=("subinterval", a, b),
                                   observation=("subinterval", a, b))
        K = sys_.bbt
        Q = sys_.Q_obs
        for n in range(1, 7):
            for m in range(1, 7):
                ks, _ = quad(lambda x: (2 / np.pi) * np.sin(n * x) * np.sin(m * x),
                             a, b, limit=200)
                qs, _ = quad(lambda x: (2 / np.pi) * n * m * np.cos(n * x) * np.cos(m * x),
                             a, b, limit=200)
                assert K[n - 1, m - 1] == pytest.approx(ks, abs=1e-10)
                assert Q[n - 1, m - 1] == pytest.approx(qs, abs=1e-10)

    def test_full_observation_is_energy_identity(self):
        sys_ = build_interval_wave(5)
        assert np.abs(sys_.Q_obs - np.diag(sys_.lambdas**2)).max() == 0.0
        assert np.abs(sys_.observation_energy_form() - np.eye(5)).max() <= 1e-14

    def test_invalid_subinterval(self):
        with pytest.raises(DomainError):
            build_interval_wave(3, control=("subinterval", 2.0, 1.0))


class TestStarNetwork:
    def test_two_equal_edges_match_interval(self):
        # two pi-edges joined at a Kirchhoff vertex = interval of length 2*pi
        st = build_star_network([np.pi, np.pi], 0, 1, 10.2)
        expected = 0.5 * np.arange(1, st.n_modes + 1)
        assert np.abs(st.lambdas - expected).max() <= 1e-8 * expected.max()

    def test_two_equal_edges_match_finite_differences(self):
        # independent oracle: FD Laplacian on (0, 2*pi) with the exact
        # dispersion correction lambda = (2/h) asin(sqrt(mu) h / 2)
        st = build_star_network([np.pi, np.pi], 0, 1, 10.2)
        N = 8000
        h = 2 * np.pi / N
        d = np.full(N - 1, 2.0 / h**2)
        e = np.full(N - 2, -1.0 / h**2)
        mu = eigh_tridiagonal(d, e, select="i", select_range=(0, 19),
                              eigvals_only=True)
        lam_fd = (2.0 / h) * np.arcsin(np.sqrt(mu) * h / 2.0)
        assert np.abs(st.lambdas[:20] - lam_fd).max() <= 1e-8

    def test_equal_length_sine_roots_present(self):
        st = build_star_network([np.pi, np.pi, np.pi], 0, 1, 6.5)
        for k in (1, 2, 3, 4, 5, 6):
            hits = np.abs(st.lambdas - k) < 1e-9
            assert hits.sum() == 2  # triple pole -> multiplicity 2

    def test_eigenfunctions_orthonormal(self):
        st = build_star_network([1.0, np.pi, np.pi**2], 0, 1, 25.0)
        lengths = np.array([1.0, np.pi, np.pi**2])
        # Gram matrix via the per-edge closed-form overlaps summed over edges
        from wavelq.models import sine_product_integral
        G = np.zeros((st.n_modes, st.n_modes))
        for j, ell in enumerate(lengths):
            amps = st.edge_amplitudes[:, j]
            G += np.outer(amps, amps) * sine_product_integral(st.lambdas, st.lambdas, 0.0, ell)
        assert np.abs(G - np.eye(st.n_modes)).max() <= 1e-8

    def test_gain_dips_on_quasi_resonant_family(self):
        # all-irrational ratios: every gain positive, with deep dips along a
        # subsequence (modes concentrating on the uncontrolled edges)
        st = build_star_network([1.0, np.pi, np.pi**2], 0, 1, 60.0)
        gains = np.diag(st.bbt)
        assert np.all(gains > 0.0)
        assert gains.min() < 0.01 * np.median(gains)

    def test_rational_uncontrolled_pair_gives_exact_zero_gain(self):
        # uncontrolled edges with ratio 2 support modes that vanish on the
        # controlled edge entirely
        st = build_star_network([1.0, np.pi, 2 * np.pi], 0, 1, 20.0)
        gains = np.diag(st.bbt)
        assert gains.min() <= 1e-12

    def test_weyl_consistency_guard(self):
        st = build_star_network([np.pi, 1.3], 0, 1, 30.0)
        weyl = 30.0 * (np.pi + 1.3) / np.pi
        assert abs(st.n_modes - weyl) <= 2.0

    def test_interlacing_guard_accepts_true_spectra(self):
        # pi/2, pi (three times), 3pi/2: the decoupled edges give D = 4 <= 5 <= D + 1
        assert build_star_network([1.0, 1.0, 1.0, 1.0], 0, 1, 6.0).n_modes == 5
        # lambda_max = 15 is a shared pole of the last two edges: D = 4 + 15 + 30
        assert build_star_network([1.0, np.pi, 2 * np.pi], 0, 1, 15.0).n_modes == 49

    def test_interlacing_guard_catches_a_missing_mode(self, monkeypatch):
        import wavelq.models as md
        full = md._star_eigenpairs

        def drop_one(lengths, lambda_max):
            lams, amps = full(lengths, lambda_max)
            return lams[1:], amps[1:]

        # four modes, all of them needed: D = 4
        assert build_star_network([1.0, 1.0, 1.0, 1.0], 0, 1, 4.0).n_modes == 4
        monkeypatch.setattr(md, "_star_eigenpairs", drop_one)
        with pytest.raises(ConsistencyError):
            build_star_network([1.0, 1.0, 1.0, 1.0], 0, 1, 4.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            build_star_network([np.pi], 0, 0, 5.0)
        with pytest.raises(DomainError):
            build_star_network([np.pi, 1.0], 5, 0, 5.0)

    def test_lambda_max_below_first_eigenfrequency(self):
        with pytest.raises(DomainError, match="no eigenfrequency"):
            build_star_network([1.0, 2.0], 0, 1, 1.0)


class TestRectangle:
    def test_full_strip_is_identity(self):
        sys_ = build_rectangle(0.0, np.pi, 6.0)
        assert np.abs(sys_.bbt - np.eye(sys_.n_modes)).max() <= 1e-12

    def test_overlaps_match_quadrature(self):
        a, b = 1.0, 2.0
        sys_ = build_rectangle(a, b, 5.0)
        idx = sys_.mode_indices
        K = sys_.bbt
        for i in range(sys_.n_modes):
            for j in range(sys_.n_modes):
                mi, ni = idx[i]
                mj, nj = idx[j]
                if ni != nj:
                    assert K[i, j] == pytest.approx(0.0, abs=1e-12)
                    continue
                val, _ = quad(lambda x: (2 / np.pi) * np.sin(mi * x) * np.sin(mj * x),
                              a, b, limit=200)
                assert K[i, j] == pytest.approx(val, abs=1e-12)

    def test_diagonal_closed_form(self):
        a, b = 1.0, 2.0
        sys_ = build_rectangle(a, b, 5.0)
        idx = sys_.mode_indices
        for i in range(sys_.n_modes):
            m = idx[i, 0]
            expected = (2 / np.pi) * ((b - a) / 2
                                      - (np.sin(2 * m * b) - np.sin(2 * m * a)) / (4 * m))
            assert sys_.bbt[i, i] == pytest.approx(expected, rel=1e-12)

    def test_frequencies_sorted_with_multiplicity(self):
        sys_ = build_rectangle(1.0, 2.0, 8.0)
        assert np.all(np.diff(sys_.lambdas) >= 0.0)
        # (m, n) and (n, m) share the frequency
        lam_set = sys_.lambdas
        assert np.isclose(lam_set, np.hypot(1, 2)).sum() == 2

    def test_strip_validation(self):
        with pytest.raises(DomainError):
            build_rectangle(2.0, 1.0, 8.0)


class TestSynthetic:
    def test_planted_weights(self):
        sys_ = build_synthetic(1.0, 2.0, 4)
        lam = sys_.lambdas
        assert np.allclose(np.diag(sys_.B_mod), lam**-1.0)
        assert np.allclose(np.diag(sys_.Q_obs), lam**2 * lam**-1.0)
        assert np.allclose(np.diag(sys_.observation_energy_form()), lam**-1.0)

    def test_infinite_exponents_give_unit_weights(self):
        sys_ = build_synthetic(np.inf, np.inf, 3)
        assert np.array_equal(sys_.B_mod, np.eye(3))
        assert np.allclose(sys_.observation_energy_form(), np.eye(3))

    def test_exponential_weights(self):
        sys_ = build_synthetic_exponential(0.5, 0.25, 3)
        lam = sys_.lambdas
        assert np.allclose(np.diag(sys_.B_mod), np.exp(-0.5 * lam))
        assert np.allclose(np.diag(sys_.observation_energy_form()), np.exp(-0.5 * lam))


class TestGramians:
    def test_zero_control_gives_zero(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        import dataclasses
        zsys = dataclasses.replace(sys_, B_mod=np.zeros((3, 1)), _bbt=None)
        W = observability_gramian(zsys, 4.0, use_control=True)
        assert np.abs(W).max() == 0.0

    def test_single_mode_closed_form(self):
        from wavelq.models import SpectralSystem
        lam = 1.7
        sys_ = SpectralSystem([lam], np.array([[1.0]]), np.array([[1.0]]))
        T = 2.3
        W = observability_gramian(sys_, T, use_control=True)
        int_sin2 = T / 2 - np.sin(2 * lam * T) / (4 * lam)
        int_cos2 = T / 2 + np.sin(2 * lam * T) / (4 * lam)
        int_sc = np.sin(lam * T) ** 2 / (2 * lam)
        expected = np.array([[int_sin2, -int_sc], [-int_sc, int_cos2]])
        assert np.abs(W - expected).max() <= 1e-12

    def test_symmetry_and_psd(self):
        sys_ = build_rectangle(1.0, 2.0, 6.0)
        W = observability_gramian(sys_, 5.0)
        assert np.abs(W - W.T).max() <= 1e-10 * np.abs(W).max()
        mineig = np.linalg.eigvalsh(W).min()
        assert mineig >= -1e-8 * np.abs(W).max()

    def test_monotone_in_horizon(self):
        sys_ = build_interval_wave(6, control=("subinterval", 0.5, 2.0))
        W1 = observability_gramian(sys_, 2.0)
        W2 = observability_gramian(sys_, 5.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.standard_normal(12)
            assert x @ W2 @ x >= x @ W1 @ x - 1e-10

    def test_gramian_matches_time_quadrature(self):
        # independent check of the closed-form assembly on a coupled system
        from wavelq.models import free_flow
        sys_ = build_interval_wave(4, control=("subinterval", 0.4, 1.1))
        T = 3.0
        W = observability_gramian(sys_, T, use_control=True)
        M = np.zeros((8, 8))
        M[np.ix_(range(1, 8, 2), range(1, 8, 2))] = sys_.bbt
        ts = np.linspace(0.0, T, 4001)
        acc = np.zeros((8, 8))
        for t in ts:
            P = free_flow(sys_, t)
            acc += P.T @ M @ P
        acc -= 0.5 * (free_flow(sys_, 0.0).T @ M @ free_flow(sys_, 0.0)
                      + free_flow(sys_, T).T @ M @ free_flow(sys_, T))
        acc *= T / (ts.size - 1)
        assert np.abs(W - acc).max() <= 1e-6 * np.abs(W).max()

    def test_controllability_gramian_matches_quadrature(self):
        from wavelq.models import free_flow
        sys_ = build_interval_wave(3, control=("subinterval", 0.4, 1.1))
        T = 2.0
        W = controllability_gramian(sys_, T)
        M = np.zeros((6, 6))
        M[np.ix_(range(1, 6, 2), range(1, 6, 2))] = sys_.bbt
        ts = np.linspace(0.0, T, 4001)
        acc = np.zeros((6, 6))
        for t in ts:
            P = free_flow(sys_, t)
            acc += P @ M @ P.T
        acc -= 0.5 * (free_flow(sys_, 0.0) @ M @ free_flow(sys_, 0.0).T
                      + free_flow(sys_, T) @ M @ free_flow(sys_, T).T)
        acc *= T / (ts.size - 1)
        assert np.abs(W - acc).max() <= 1e-6 * np.abs(W).max()

    def test_synthetic_min_eig_scaling(self):
        rho = 2.0
        sys_ = build_synthetic(rho, 2.0, 32)
        T = 9.0
        W = observability_gramian(sys_, T, use_control=True)
        for n in (8, 16, 32):
            blk = W[2 * n - 2:2 * n, 2 * n - 2:2 * n]
            approx = n ** (-2.0 / rho) * (T / 2 - 1.0 / (4 * n))
            assert np.linalg.eigvalsh(blk).min() == pytest.approx(approx, rel=0.1)


class TestWeakObservabilityFit:
    def test_planted_exponents_recovered(self):
        for rho in (1.0, 4.0 / 3.0, 2.0, 4.0):
            sys_ = build_synthetic(rho, 2.0, 128)
            rep = fit_weak_observability(sys_, 20.0, [8.0, 16.0, 32.0, 64.0])
            assert abs(rep.rho_hat - rho) <= 0.1 * rho

    def test_exactly_observable_is_flat(self):
        sys_ = build_synthetic(np.inf, np.inf, 128)
        rep = fit_weak_observability(sys_, 20.0, [8.0, 16.0, 32.0, 64.0])
        assert abs(rep.fitted_exponent) < 0.05
        assert np.isinf(rep.rho_hat)

    def test_empty_shell_skipped_with_warning(self):
        sys_ = build_synthetic(2.0, 2.0, 40)
        with pytest.warns(UserWarning):
            rep = fit_weak_observability(sys_, 10.0, [2.0, 8.0, 16.0, 64.0])
        assert rep.shell_edges.size == 3
        assert rep.warnings

    def test_fit_line_needs_two_distinct_abscissae(self):
        with pytest.raises(DomainError, match="distinct"):
            fit_line(np.ones(3), np.array([1.0, 2.0, 3.0]))

    def test_requires_three_shells(self):
        sys_ = build_synthetic(2.0, 2.0, 16)
        with pytest.raises(DomainError):
            fit_weak_observability(sys_, 10.0, [2.0, 4.0])

    def test_rectangle_strip_trend_nonpositive(self):
        sys_ = build_rectangle(1.0, 2.0, 32.0)
        rep = fit_weak_observability(sys_, 4 * np.pi, [4.0, 8.0, 16.0])
        assert rep.fitted_exponent <= 0.0
        assert np.all(np.diff(rep.shell_constants) <= 1e-12)


class TestSystemInvariants:
    def test_q_obs_symmetric_psd_on_builders(self):
        systems = [
            build_interval_wave(8, control=("subinterval", 0.3, 1.2),
                                observation=("subinterval", 1.0, 2.5)),
            build_star_network([np.pi, np.pi, 1.0], 0, 2, 12.0),
            build_rectangle(1.0, 2.0, 8.0),
            build_synthetic(2.0, 2.0, 8),
        ]
        for sys_ in systems:
            scale = max(1.0, np.abs(sys_.Q_obs).max())
            assert np.abs(sys_.Q_obs - sys_.Q_obs.T).max() <= 1e-12 * scale
            assert sys_.min_q_obs_eigenvalue() >= -1e-10 * scale
            assert np.all(np.diff(sys_.lambdas) >= 0.0)
            assert np.all(sys_.lambdas > 0.0)

    @pytest.mark.parametrize("sys_", [
        build_interval_wave(8),
        build_interval_wave(8, control=("subinterval", 0.3, 1.2),
                            observation=("subinterval", 1.0, 2.5)),
        build_star_network([np.pi, np.pi, 1.0], 0, 2, 12.0),
        build_rectangle(1.0, 2.0, 8.0),
        build_synthetic(2.0, 2.0, 8),
        build_synthetic_exponential(0.4, 0.4, 8),
    ], ids=lambda s: s.label)
    def test_gramians_exactly_symmetric_on_builders(self, sys_):
        for W in (observability_gramian(sys_, 3.3, use_control=True),
                  observability_gramian(sys_, 3.3, use_control=False),
                  controllability_gramian(sys_, 3.3)):
            assert np.array_equal(W, W.T)

    def test_hand_built_q_obs_stored_exactly_symmetric(self):
        from wavelq.models import SpectralSystem
        Q = np.array([[2.0, 0.5], [0.5 + 1e-15, 1.0]])
        sys_ = SpectralSystem([1.0, 2.0], np.eye(2), Q)
        assert np.array_equal(sys_.Q_obs, sys_.Q_obs.T)
        W = observability_gramian(sys_, 2.0, use_control=False)
        assert np.array_equal(W, W.T)


class TestObservationSideFit:
    def test_planted_eta_recovered_from_observation_gramian(self):
        # the observation-side shells estimate the eta exponent the same way
        # the control side estimates rho
        for eta in (1.0, 2.0, 4.0):
            sys_ = build_synthetic(2.0, eta, 128)
            rep = fit_weak_observability(sys_, 20.0, [8.0, 16.0, 32.0, 64.0],
                                         use_control=False)
            assert abs(rep.rho_hat - eta) <= 0.1 * eta
            assert rep.use_control is False
