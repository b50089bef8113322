"""Minimum-energy steering to rest (HUM) and its cost scaling.

The steering control is built from the controllability Gramian of the free
flow.  On the synthetic weak family the cost per unit of the strong-scale
norm (the D(A^{1/rho}) norm) is flat across random smooth data, while the
cost per unit of plain energy grows with the frequency content: exactly the
admissibility picture behind the infinite-horizon problem.
"""

import numpy as np

from wavelq import NormScale, build_synthetic, energy_norm_squared, hum_null_control, smooth_initial_state


def steering_demo():
    print("== single mode, full control, one full period ==")
    from wavelq.models import SpectralSystem
    sys1 = SpectralSystem.from_dense([1.0], np.array([[1.0]]), np.array([[1.0]]))
    x0 = np.array([1.0, 0.5])
    h = hum_null_control(sys1, x0, 2 * np.pi)
    print(f"cost = {h.cost:.9f} (closed form |x0|^2/pi = {(x0 @ x0) / np.pi:.9f})")
    print(f"terminal residual = {h.terminal_residual:.1e}, "
          f"Gramian condition = {h.gramian_condition:.2f}\n")


def cost_scaling():
    print("== synthetic(rho = 2), 50 random smooth draws ==")
    sys_ = build_synthetic(2.0, 2.0, 64)
    t0 = 2.5 * np.pi
    rng = np.random.default_rng(0)
    strong = NormScale.graded(0.5)
    r_strong, r_energy = [], []
    for _ in range(50):
        x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=rng)
        h = hum_null_control(sys_, x0, t0)
        r_strong.append(h.cost / energy_norm_squared(x0, sys_.lambdas, strong))
        r_energy.append(h.cost / energy_norm_squared(x0, sys_.lambdas, NormScale.energy()))
    print(f"cost / ||x0||^2_strong: median {np.median(r_strong):.4f}, "
          f"spread [{min(r_strong):.4f}, {max(r_strong):.4f}]  <- flat")
    print(f"cost / ||x0||^2_energy: spread [{min(r_energy):.4f}, {max(r_energy):.4f}]"
          "  <- draw-dependent\n")

    print("single-mode probes: energy-normalized cost grows like lambda^(2/rho)")
    for mode in (1, 4, 16, 64):
        x0 = np.zeros(128)
        x0[2 * (mode - 1)] = 1.0
        h = hum_null_control(sys_, x0, t0)
        print(f"  mode {mode:3d}: cost = {h.cost:9.4f}  (~ {2 * mode / t0:.4f})")
    print()


if __name__ == "__main__":
    steering_demo()
    cost_scaling()
