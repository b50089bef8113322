import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, eigvalsh
from scipy.optimize import brentq

from wavelq.models import (
    SpectralSystem,
    _rectangle_modes,
    _star_eigenpairs,
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
    shell_constant,
)
from wavelq.riccati import first_order_matrices
from wavelq.spectral import DomainError


def _brentq_star_spectrum(lengths, lambda_max):
    """Reference star spectrum: shared poles q - 1 times each, plus one brentq root per gap."""
    lengths = np.asarray(lengths, dtype=float)

    def secular(lam):
        return float(np.sum(np.cos(lam * lengths) / np.sin(lam * lengths)))

    poles = np.sort(np.concatenate([np.arange(1, int(lambda_max * ell / np.pi) + 3) * np.pi / ell
                                    for ell in lengths]))
    groups = np.split(poles, np.flatnonzero(np.diff(poles) >= 1e-9 * max(1.0, lambda_max)) + 1)
    centers = [g.mean() for g in groups]
    lams = [c for c, g in zip(centers, groups) if c <= lambda_max for _ in range(g.size - 1)]
    for left, right in zip([0.0] + centers[:-1], centers):
        if left > lambda_max:
            break
        delta = 1e-6 * (right - left)
        while not secular(left + delta) > 0.0 > secular(right - delta):
            delta *= 1e-2
        root = brentq(secular, left + delta, right - delta, xtol=1e-13,
                      rtol=4.0 * np.finfo(float).eps)
        if root <= lambda_max:
            lams.append(root)
    return np.sort(lams)


def free_flow(system, t: float) -> np.ndarray:
    """The rotation propagator Phi(t) as a dense matrix (interleaved coords)."""
    lam = system.lambdas
    n = lam.size
    c, s = np.cos(lam * t), np.sin(lam * t)
    P = np.zeros((2 * n, 2 * n))
    ix = np.arange(0, 2 * n, 2)
    P[ix, ix] = c
    P[ix, ix + 1] = s
    P[ix + 1, ix] = -s
    P[ix + 1, ix + 1] = c
    return P


class TestInterval:
    def test_full_domain_control_is_identity(self):
        sys_ = build_interval_wave(3)
        assert np.array_equal(sys_.B_mod, np.eye(3))

    def test_subinterval_full_equals_identity(self):
        sys_ = build_interval_wave(4, control=("subinterval", 0.0, np.pi))
        assert np.abs(sys_.B_mod @ sys_.B_mod.T - np.eye(4)).max() <= 1e-12

    def test_overlap_matches_quadrature(self):
        a, b = 0.3, 1.7
        sys_ = build_interval_wave(6, control=("subinterval", a, b),
                                   observation=("subinterval", a, b))
        K = sys_.B_mod @ sys_.B_mod.T
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
        assert np.abs(first_order_matrices(sys_)[2][0::2, 0::2] - np.eye(5)).max() <= 1e-14

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
        lengths = np.array([1.0, np.pi, np.pi**2])
        st = build_star_network(lengths, 0, 1, 25.0)
        lams, amplitudes = _star_eigenpairs(lengths, 25.0)
        assert np.array_equal(lams, st.lambdas)
        # Gram matrix via the per-edge closed-form overlaps summed over edges
        from wavelq.models import sine_product_integral
        G = np.zeros((st.n_modes, st.n_modes))
        for j, ell in enumerate(lengths):
            amps = amplitudes[:, j]
            G += np.outer(amps, amps) * sine_product_integral(st.lambdas, st.lambdas, 0.0, ell)
        assert np.abs(G - np.eye(st.n_modes)).max() <= 1e-8

    def test_gain_dips_on_quasi_resonant_family(self):
        # all-irrational ratios: every gain positive, with deep dips along a
        # subsequence (modes concentrating on the uncontrolled edges)
        st = build_star_network([1.0, np.pi, np.pi**2], 0, 1, 60.0)
        gains = np.diag(st.B_mod @ st.B_mod.T)
        assert np.all(gains > 0.0)
        assert gains.min() < 0.01 * np.median(gains)

    def test_rational_uncontrolled_pair_gives_exact_zero_gain(self):
        # uncontrolled edges with ratio 2 support modes that vanish on the
        # controlled edge entirely
        st = build_star_network([1.0, np.pi, 2 * np.pi], 0, 1, 20.0)
        gains = np.diag(st.B_mod @ st.B_mod.T)
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

    @pytest.mark.parametrize("lengths, lambda_max", [
        ([1.0, np.pi, 2 * np.pi], 15.0),  # demo 01's star: shared poles, one on lambda_max
        ([1.0, 1.0, 1.0, 1.0], 6.0),
        ([1.0, 1.0, 1.0, 1.0], 20.0),
        ([1.0, np.sqrt(2.0), np.sqrt(3.0), 0.7], 25.0),
        ([0.37, 2.9, 1.61], 40.0),
    ])
    def test_eigenfrequencies_match_brentq_roots(self, lengths, lambda_max):
        lams = build_star_network(lengths, 0, 1, lambda_max).lambdas
        ref = _brentq_star_spectrum(lengths, lambda_max)
        assert lams.shape == ref.shape
        assert np.abs(lams - ref).max() <= 1e-12

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
        with pytest.raises(DomainError, match="edge lengths"):
            build_star_network([np.inf, 1.0], 0, 1, 5.0)

    def test_lambda_max_below_first_eigenfrequency(self):
        with pytest.raises(DomainError, match="no eigenfrequency"):
            build_star_network([1.0, 2.0], 0, 1, 1.0)


class TestRectangle:
    def test_full_strip_is_identity(self):
        sys_ = build_rectangle(0.0, np.pi, 6.0)
        assert np.abs(sys_.B_mod @ sys_.B_mod.T - np.eye(sys_.n_modes)).max() <= 1e-12

    def test_overlaps_match_quadrature(self):
        a, b = 1.0, 2.0
        sys_ = build_rectangle(a, b, 5.0)
        idx = _rectangle_modes(5.0)
        K = sys_.B_mod @ sys_.B_mod.T
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
        idx = _rectangle_modes(5.0)
        for i in range(sys_.n_modes):
            m = idx[i, 0]
            expected = (2 / np.pi) * ((b - a) / 2
                                      - (np.sin(2 * m * b) - np.sin(2 * m * a)) / (4 * m))
            assert sys_.B_mod[i] @ sys_.B_mod[i] == pytest.approx(expected, rel=1e-12)

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
        assert np.allclose(np.diag(first_order_matrices(sys_)[2][0::2, 0::2]), lam**-1.0)

    def test_infinite_exponents_give_unit_weights(self):
        sys_ = build_synthetic(np.inf, np.inf, 3)
        assert np.array_equal(sys_.B_mod, np.eye(3))
        assert np.allclose(first_order_matrices(sys_)[2][0::2, 0::2], np.eye(3))

    def test_exponential_weights(self):
        sys_ = build_synthetic_exponential(0.5, 0.25, 3)
        lam = sys_.lambdas
        assert np.allclose(np.diag(sys_.B_mod), np.exp(-0.5 * lam))
        assert np.allclose(np.diag(first_order_matrices(sys_)[2][0::2, 0::2]), np.exp(-0.5 * lam))


class TestGramians:
    def test_zero_control_gives_zero(self):
        sys_ = build_synthetic(2.0, 2.0, 3)
        zsys = SpectralSystem.from_dense(sys_.lambdas, np.zeros((3, 1)), sys_.Q_obs)
        W = observability_gramian(zsys, 4.0, use_control=True)
        assert np.abs(W).max() == 0.0

    def test_single_mode_closed_form(self):
        lam = 1.7
        sys_ = SpectralSystem.from_dense([lam], np.array([[1.0]]), np.array([[1.0]]))
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
        sys_ = build_interval_wave(4, control=("subinterval", 0.4, 1.1))
        T = 3.0
        W = observability_gramian(sys_, T, use_control=True)
        M = np.zeros((8, 8))
        M[np.ix_(range(1, 8, 2), range(1, 8, 2))] = sys_.B_mod @ sys_.B_mod.T
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
        sys_ = build_interval_wave(3, control=("subinterval", 0.4, 1.1))
        T = 2.0
        W = controllability_gramian(sys_, T)
        M = np.zeros((6, 6))
        M[np.ix_(range(1, 6, 2), range(1, 6, 2))] = sys_.B_mod @ sys_.B_mod.T
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
        for horizon in (0.0, -1.0):
            with pytest.raises(DomainError, match="horizon"):
                fit_weak_observability(sys_, horizon, [2.0, 4.0, 8.0])
            with pytest.raises(DomainError, match="horizon"):
                shell_constant(sys_, 2.0, 4.0, horizon)

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
            assert eigvalsh(sys_.Q_obs)[0] >= -1e-10 * scale
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

    @pytest.mark.parametrize("sys_", [
        build_synthetic(2.0, 2.0, 8),
        build_synthetic_exponential(0.4, 0.4, 8),
        build_interval_wave(8, control=("subinterval", 0.3, 1.2)),
        build_star_network([np.pi, np.pi, 1.0], 0, 2, 12.0),
        build_rectangle(1.0, 2.0, 8.0),
    ], ids=lambda s: s.label)
    def test_systems_hold_only_their_dataclass_fields(self, sys_):
        # an attribute outside the fields would be dropped by replace
        fields = {f.name for f in dataclasses.fields(SpectralSystem)}
        for system in (sys_, dataclasses.replace(sys_, label="copy")):
            assert set(vars(system)) <= fields

    def test_hand_built_q_obs_stored_exactly_symmetric(self):
        Q = np.array([[2.0, 0.5], [0.5 + 1e-15, 1.0]])
        sys_ = SpectralSystem.from_dense([1.0, 2.0], np.eye(2), Q)
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


class TestBlocks:
    def test_rectangle_one_block_per_x2_index(self):
        sys_ = build_rectangle(1.0, 2.0, 12.0)
        x2 = _rectangle_modes(12.0)[:, 1]
        assert len(sys_.blocks) == np.unique(x2).size
        for modes in sys_.blocks:
            assert np.unique(x2[modes]).size == 1
        assert np.array_equal(np.sort(np.concatenate(sys_.blocks)), np.arange(sys_.n_modes))

    @pytest.mark.parametrize("sys_", [build_synthetic(2.0, 2.0, 9),
                                      build_synthetic_exponential(0.3, 0.5, 7),
                                      build_interval_wave(6)], ids=lambda s: s.label)
    def test_decoupled_families_are_singletons(self, sys_):
        assert [m.tolist() for m in sys_.blocks] == [[k] for k in range(sys_.n_modes)]

    def test_interval_subinterval_control_is_one_block(self):
        sys_ = build_interval_wave(10, control=("subinterval", 0.4, 1.9))
        assert len(sys_.blocks) == 1
        assert np.array_equal(sys_.blocks[0], np.arange(10))

    def test_tiny_nonzero_coupling_keeps_modes_together(self):
        B = np.diag([1.0, 1.0, 1.0])
        Q = np.diag([1.0, 2.0, 3.0])

        def blocks():
            return [m.tolist() for m in SpectralSystem.from_dense([1.0, 2.0, 3.0], B, Q).blocks]

        assert blocks() == [[0], [1], [2]]
        Q[0, 2] = Q[2, 0] = 1e-300
        assert blocks() == [[0, 2], [1]]
        B[1, 0] = 1e-160  # modes 0 and 1 share control 0: (B B*)[0, 1] = 1e-160
        assert blocks() == [[0, 1, 2]]

    def test_gramians_are_assembled_block_diagonal(self):
        sys_ = build_rectangle(1.0, 2.0, 7.0)
        from wavelq.models import energy_index
        W = observability_gramian(sys_, 2.5)
        for i, a in enumerate(sys_.blocks):
            for j, b in enumerate(sys_.blocks):
                sub = W[np.ix_(energy_index(a), energy_index(b))]
                if i == j:
                    # the block alone, from the dense matrices rather than its record
                    alone = SpectralSystem.from_dense(sys_.lambdas[a], sys_.B_mod[a],
                                                      sys_.Q_obs[np.ix_(a, a)])
                    assert np.array_equal(sub, observability_gramian(alone, 2.5))
                else:
                    assert not sub.any()


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("name, build", [
    ("lambda_max", lambda v: build_star_network([1.0, 2.0], 0, 1, v)),
    ("rho", lambda v: build_synthetic(v, 2.0, 4)),
    ("eta", lambda v: build_synthetic(2.0, v, 4)),
    ("edge lengths", lambda v: build_star_network([1.0, v], 0, 1, 5.0)),
], ids=["lambda_max", "rho", "eta", "edge_lengths"])
def test_builders_reject_a_parameter_that_is_not_positive(name, build, bad):
    # a NaN fails every comparison, so only "not value > 0" catches it
    with pytest.raises(DomainError, match=f"^{name} must be positive"):
        build(bad)
