import numpy as np
import pytest

from wavelq.spectral import (
    DimensionError,
    DomainError,
    EnergyState,
    ModalVector,
    NormScale,
    energy_norm_squared,
    to_energy,
)


def interpolation_gap(v: ModalVector, lambdas, rho: float, eta: float, s: float) -> float:
    """Slack of the interpolation inequality between the weak and strong scales.

    Returns RHS - LHS of

        ||v||^2_{graded(1/rho)} <=
            ||v||^{2*s*eta/Z}_{graded(-1/eta)} * ||v||^{2*(1+eta/rho)/Z}_{graded(1/rho+s)}

    with Z = 1 + eta/rho + s*eta.  Nonnegative by Hoelder; zero for a
    single-mode vector.
    """
    if rho <= 0.0 or eta <= 0.0 or s <= 0.0:
        raise DomainError("rho, eta, s must be positive")
    x = to_energy(v, lambdas)
    weak = energy_norm_squared(x, lambdas, NormScale.graded(-1.0 / eta))
    mid = energy_norm_squared(x, lambdas, NormScale.graded(1.0 / rho))
    strong = energy_norm_squared(x, lambdas, NormScale.graded(1.0 / rho + s))
    if weak == 0.0:
        raise DomainError("interpolation gap undefined for the zero vector")
    z = 1.0 + eta / rho + s * eta
    theta_weak = s * eta / z
    theta_strong = (1.0 + eta / rho) / z
    # rhs - mid evaluated as mid * expm1(log rhs - log mid): conditioned
    # relative to the mid norm even when the individual norms are huge
    log_ratio = (theta_weak * np.log(weak) + theta_strong * np.log(strong)
                 - np.log(mid))
    return float(mid * np.expm1(log_ratio))


def test_norm_squared_hand_values():
    v = to_energy(ModalVector(a=[1.0], b=[0.0]), [2.0])
    assert energy_norm_squared(v, [2.0], NormScale.graded(1.0)) == pytest.approx(16.0, rel=1e-14)
    assert energy_norm_squared(v, [2.0], NormScale.graded(-1.0)) == pytest.approx(1.0, rel=1e-14)
    zero = to_energy(ModalVector(a=[0.0, 0.0], b=[0.0, 0.0]), [1.0, 2.0])
    for scale in (NormScale.graded(2.0), NormScale.graded(-2.0),
                  NormScale.exp_weight(0.3), NormScale.sobolev_state(1.0)):
        assert energy_norm_squared(zero, [1.0, 2.0], scale) == 0.0


def test_sobolev_state_ignores_velocity():
    lam = [1.0, 3.0]
    v = to_energy(ModalVector(a=[1.0, 2.0], b=[5.0, -7.0]), lam)
    expected = 1.0 + 3.0**4 * 4.0
    assert energy_norm_squared(v, lam, NormScale.sobolev_state(1.0)) == \
        pytest.approx(expected, rel=1e-14)


def test_norm_errors():
    v = ModalVector(a=[1.0], b=[0.0])
    with pytest.raises(DimensionError):
        energy_norm_squared(to_energy(v, [1.0, 2.0]), [1.0, 2.0], NormScale.energy())
    with pytest.raises(DomainError):
        energy_norm_squared(to_energy(v, [-1.0]), [-1.0], NormScale.energy())
    v2 = ModalVector(a=[1.0, 1.0], b=[0.0, 0.0])
    with pytest.raises(DomainError):
        energy_norm_squared(to_energy(v2, [2.0, 1.0]), [2.0, 1.0], NormScale.energy())


def test_energy_round_trip():
    lam = [2.0]
    es = to_energy(ModalVector(a=[1.0], b=[0.0]), lam)
    assert np.allclose(es.xi, [2.0]) and np.allclose(es.zeta, [0.0])
    rng = np.random.default_rng(0)
    lam5 = np.sort(rng.uniform(0.5, 9.0, size=5))
    v = ModalVector(a=rng.standard_normal(5), b=rng.standard_normal(5))
    es = to_energy(v, lam5)
    assert np.abs(es.xi / lam5 - v.a).max() <= 1e-14 * np.abs(v.a).max()
    assert np.abs(es.zeta - v.b).max() <= 1e-14 * np.abs(v.b).max()


def test_parseval_energy_state_matches_graded0():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(1, 12)
        lam = np.sort(rng.uniform(0.3, 20.0, size=n))
        v = ModalVector(a=rng.standard_normal(n), b=rng.standard_normal(n))
        x = to_energy(v, lam).to_vector()
        assert x @ x == pytest.approx(energy_norm_squared(x, lam, NormScale.graded(0.0)),
                                      rel=1e-13)


def test_norm_monotonicity_in_smoothness():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 10)
        lam = np.sort(rng.uniform(1.0, 30.0, size=n))  # lambda >= 1
        v = to_energy(ModalVector(a=rng.standard_normal(n), b=rng.standard_normal(n)), lam)
        s1, s2 = np.sort(rng.uniform(-1.0, 3.0, size=2))
        assert energy_norm_squared(v, lam, NormScale.graded(s1)) <= \
            energy_norm_squared(v, lam, NormScale.graded(s2)) * (1.0 + 1e-12)


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


@pytest.mark.parametrize("scale", [NormScale.graded(0.5), NormScale.graded(-1.3),
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
            scale = np.sqrt(energy_norm_squared(to_energy(ModalVector(a=a, b=b), lam), lam,
                                                NormScale.graded(1.0 / rho)))
            v = ModalVector(a=a / scale, b=b / scale)
            assert interpolation_gap(v, lam, rho, eta, s) >= -1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            interpolation_gap(ModalVector(a=[0.0], b=[0.0]), [1.0], 1.0, 1.0, 1.0)
