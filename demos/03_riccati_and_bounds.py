"""Riccati machinery: DRE growth, the algebraic limit, and two-sided bounds.

The finite-horizon operator E(T) grows monotonically to the minimal algebraic
solution; its quadratic form is squeezed between a weak-scale lower bound
(set by the observation exponent eta) and a strong-scale upper bound (set by
the control exponent rho).  Both constants are exact (per-block generalized
eigenvalues) and stable under doubling the truncation.
"""

import numpy as np

from wavelq import (
    NormScale,
    bounds_report,
    build_synthetic,
    build_synthetic_exponential,
    integrate_dre,
    solve_are,
    value,
)
from wavelq.models import SpectralSystem


def dre_to_are():
    print("== DRE snapshots approach the algebraic solution (1 mode) ==")
    sys_ = SpectralSystem.from_dense([1.0], np.array([[1.0]]), np.array([[1.0]]))
    are = solve_are(sys_)
    x = np.array([1.0, 0.0])
    e1 = np.sqrt(2.0) * np.sqrt(2.0 * (np.sqrt(2.0) - 1.0))
    print(f"closed-form value at (1, 0): {e1:.6f}")
    for tau in (1.0, 5.0, 10.0, 20.0, 40.0):
        snap = integrate_dre(sys_, tau)[0]
        print(f"  tau = {tau:5.1f}: value = {value(snap, x):.9f}")
    print(f"algebraic ({are.method}): value = {value(are, x):.9f}, "
          f"residual = {are.residual:.1e}\n")


def two_sided_bounds():
    print("== two-sided bounds, synthetic(rho = 2, eta = 2) ==")
    weak = NormScale.graded(-0.5)
    strong = NormScale.graded(0.5)
    for n in (32, 64):
        sys_ = build_synthetic(2.0, 2.0, n)
        rep = bounds_report(solve_are(sys_), sys_, weak, strong)
        print(f"  n = {n:3d}: c1_hat = {rep.c1_hat:.6f} (weak {weak.describe()}), "
              f"c2_hat = {rep.c2_hat:.6f} (strong {strong.describe()})")
    print("both constants are exact: each is attained by some state.  Doubling")
    print("the truncation leaves them unchanged: the bounds are determined by")
    print("the planted weights, not the cutoff.\n")


def exponential_scale_variant():
    print("== exponentially weighted variant (no-GCC surrogate) ==")
    sys_ = build_synthetic_exponential(0.3, 0.2, 16)
    rep = bounds_report(solve_are(sys_), sys_, NormScale.exp_weight(0.2), NormScale.energy())
    print(f"  c1_hat = {rep.c1_hat:.6f} against the exp-weight(0.2) norm > 0;")
    print(f"  c2_hat = {rep.c2_hat:.3f} against the energy norm grows with the")
    print("  truncation here, reflecting that only exponentially weighted")
    print("  upper norms control this family.\n")


if __name__ == "__main__":
    dre_to_are()
    two_sided_bounds()
    exponential_scale_variant()
