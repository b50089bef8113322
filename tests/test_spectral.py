import numpy as np
import pytest

from wavelq.spectral import (
    DimensionError,
    DomainError,
    EnergyState,
    ModalVector,
    NormScale,
    apply_fractional_power,
    energy_norm_squared,
    from_energy,
    interpolation_gap,
    norm_squared,
    to_energy,
)


def test_norm_squared_hand_values():
    v = ModalVector(a=[1.0], b=[0.0])
    assert norm_squared(v, [2.0], NormScale.graded(1.0)) == pytest.approx(16.0, rel=1e-14)
    assert norm_squared(v, [2.0], NormScale.graded_dual(0.0)) == pytest.approx(1.0, rel=1e-14)
    zero = ModalVector(a=[0.0, 0.0], b=[0.0, 0.0])
    for scale in (NormScale.graded(2.0), NormScale.graded_dual(1.0),
                  NormScale.exp_weight(0.3), NormScale.sobolev_state(1.0)):
        assert norm_squared(zero, [1.0, 2.0], scale) == 0.0


def test_sobolev_state_ignores_velocity():
    v = ModalVector(a=[1.0, 2.0], b=[5.0, -7.0])
    lam = [1.0, 3.0]
    expected = 1.0 + 3.0**4 * 4.0
    assert norm_squared(v, lam, NormScale.sobolev_state(1.0)) == pytest.approx(expected, rel=1e-14)


def test_norm_errors():
    v = ModalVector(a=[1.0], b=[0.0])
    with pytest.raises(DimensionError):
        norm_squared(v, [1.0, 2.0], NormScale.energy())
    with pytest.raises(DomainError):
        norm_squared(v, [-1.0], NormScale.energy())
    with pytest.raises(DomainError):
        norm_squared(ModalVector(a=[1.0, 1.0], b=[0.0, 0.0]), [2.0, 1.0], NormScale.energy())


def test_fractional_power():
    v = ModalVector(a=[1.0], b=[0.0])
    assert np.allclose(apply_fractional_power(v, [3.0], 0.0).a, [1.0])
    assert np.allclose(apply_fractional_power(v, [3.0], 0.5).a, [3.0])
    v9 = ModalVector(a=[9.0], b=[0.0])
    assert np.allclose(apply_fractional_power(v9, [3.0], -1.0).a, [1.0])


def test_energy_round_trip():
    lam = [2.0]
    es = to_energy(ModalVector(a=[1.0], b=[0.0]), lam)
    assert np.allclose(es.xi, [2.0]) and np.allclose(es.zeta, [0.0])
    rng = np.random.default_rng(0)
    lam5 = np.sort(rng.uniform(0.5, 9.0, size=5))
    v = ModalVector(a=rng.standard_normal(5), b=rng.standard_normal(5))
    back = from_energy(to_energy(v, lam5), lam5)
    assert np.abs(back.a - v.a).max() <= 1e-14 * np.abs(v.a).max()
    assert np.abs(back.b - v.b).max() <= 1e-14 * np.abs(v.b).max()


def test_parseval_energy_state_matches_graded0():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(1, 12)
        lam = np.sort(rng.uniform(0.3, 20.0, size=n))
        v = ModalVector(a=rng.standard_normal(n), b=rng.standard_normal(n))
        es = to_energy(v, lam)
        assert es.norm_h_squared() == pytest.approx(
            norm_squared(v, lam, NormScale.graded(0.0)), rel=1e-13)


def test_duality_consistency():
    # graded_dual(s) equals graded(-(s+1)) on the energy density
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = rng.integers(1, 10)
        lam = np.sort(rng.uniform(0.2, 15.0, size=n))
        v = ModalVector(a=rng.standard_normal(n), b=rng.standard_normal(n))
        s = rng.uniform(-2.0, 3.0)
        a = norm_squared(v, lam, NormScale.graded_dual(s))
        b = norm_squared(v, lam, NormScale.graded(-(s + 1.0)))
        assert a == pytest.approx(b, rel=1e-14)


def test_norm_monotonicity_in_smoothness():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 10)
        lam = np.sort(rng.uniform(1.0, 30.0, size=n))  # lambda >= 1
        v = ModalVector(a=rng.standard_normal(n), b=rng.standard_normal(n))
        s1, s2 = np.sort(rng.uniform(-1.0, 3.0, size=2))
        assert norm_squared(v, lam, NormScale.graded(s1)) <= \
            norm_squared(v, lam, NormScale.graded(s2)) * (1.0 + 1e-12)


def test_exp_weight_requires_nonneg_alpha():
    with pytest.raises(DomainError):
        NormScale.exp_weight(-0.1)


def test_energy_norm_squared_on_vectors():
    lam = np.array([1.0, 2.0])
    x = np.array([1.0, 0.0, 2.0, 3.0])  # xi=(1,2), zeta=(0,3)
    assert energy_norm_squared(x, lam, NormScale.energy()) == pytest.approx(14.0)
    es = EnergyState(xi=[1.0, 2.0], zeta=[0.0, 3.0])
    assert energy_norm_squared(es, lam, NormScale.energy()) == pytest.approx(14.0)
    # sobolev_state on energy coords: sum lam^(4b-2) xi^2
    got = energy_norm_squared(x, lam, NormScale.sobolev_state(0.5))
    assert got == pytest.approx(1.0 + 4.0, rel=1e-14)


@pytest.mark.parametrize("scale", [NormScale.graded(0.5), NormScale.graded_dual(0.3),
                                   NormScale.exp_weight(0.2), NormScale.sobolev_state(0.75)],
                         ids=lambda s: s.describe())
def test_energy_norm_squared_on_a_stack_equals_per_row_calls(scale):
    rng = np.random.default_rng(11)
    lam = np.sort(rng.uniform(0.5, 9.0, 7))
    stack = rng.standard_normal((3, 5, 14))
    got = energy_norm_squared(stack, lam, scale)
    assert got.shape == (3, 5)
    assert np.array_equal(got, [[energy_norm_squared(x, lam, scale) for x in rows]
                                for rows in stack])
    bad = stack.copy()
    bad[2, 4, 0] = np.inf
    with pytest.raises(DomainError):
        energy_norm_squared(bad, lam, scale)
    with pytest.raises(DimensionError):
        energy_norm_squared(stack[..., :13], lam, scale)
    with pytest.raises(DimensionError):
        energy_norm_squared(stack, lam[:6], scale)


class TestInterpolationGap:
    def test_single_mode_equality(self):
        v = ModalVector(a=[0.7], b=[0.3])
        gap = interpolation_gap(v, [2.5], rho=1.3, eta=0.8, s=2.0)
        assert abs(gap) <= 1e-12

    def test_two_mode_example(self):
        v = ModalVector(a=[1.0, 1.0], b=[0.0, 0.0])
        gap = interpolation_gap(v, [1.0, 2.0], rho=1.0, eta=1.0, s=1.0)
        assert gap >= 0.0

    def test_homogeneity_preserves_sign(self):
        v = ModalVector(a=[1.0, -0.5, 0.2], b=[0.1, 0.7, -0.3])
        lam = [1.0, 2.0, 5.0]
        g1 = interpolation_gap(v, lam, 1.5, 0.7, 1.2)
        t = 3.7
        vt = ModalVector(a=t * v.a, b=t * v.b)
        g2 = interpolation_gap(vt, lam, 1.5, 0.7, 1.2)
        # both sides scale by t^2, so the gap scales by t^2 as well
        assert g2 == pytest.approx(t**2 * g1, rel=1e-10)
        assert (g1 >= 0.0) == (g2 >= 0.0)

    def test_random_sweep_nonnegative(self):
        # vectors normalized in the graded(1/rho) scale so the -1e-10 floor is
        # meaningful at every parameter combination (the gap is 2-homogeneous)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = rng.integers(1, 9)
            lam = np.sort(rng.uniform(0.3, 25.0, size=n))
            rho, eta, s = rng.uniform(0.2, 5.0, size=3)
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            scale = np.sqrt(norm_squared(ModalVector(a=a, b=b), lam, NormScale.graded(1.0 / rho)))
            v = ModalVector(a=a / scale, b=b / scale)
            assert interpolation_gap(v, lam, rho, eta, s) >= -1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            interpolation_gap(ModalVector(a=[0.0], b=[0.0]), [1.0], 1.0, 1.0, 1.0)
