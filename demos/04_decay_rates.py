"""Slow decay rates of the damped loops against the planted exponents.

Three loops on the synthetic family:

* collocated damping u = -B* w_t: data critically in D(A^k) decays like
  (t+1)^(-k*rho) (tight for this decoupled family);
* Riccati-optimal feedback: per-mode damping lambda^(-(1/rho + 1/eta)), so a
  tail whose planted rate equals s*eta*rho/(rho+eta) verifies the combined
  exponent two-sidedly (rougher upper-bound data decays faster than the
  prediction: the bound is not tight per mode);
* backward observer (reversed time) in the weakly damped regime eta < 1.

Windows end before the slowest retained mode's damping time, where
truncation turns every rate exponential.
"""

import numpy as np

from wavelq import (
    build_synthetic,
    build_synthetic_exponential,
    default_decay_window,
    fit_decay,
    simulate_backward_observer,
    simulate_collocated,
    simulate_riccati_feedback,
    smooth_initial_state,
    solve_are,
)


def collocated_rates():
    print("== collocated loop: fitted exponent vs k*rho ==")
    rho = 2.0
    sys_ = build_synthetic(rho, 2.0, 96)
    for k in (0.5, 1.0, 1.5):
        x0 = smooth_initial_state(sys_.lambdas, k + 0.5 + 0.1, signs="alternating")
        traj = simulate_collocated(sys_, x0, 60.0, dt=0.01)
        window = default_decay_window(traj)
        fit = fit_decay(traj, window)
        print(f"  k = {k:3.1f}: fitted {fit.exponent:6.3f}  vs  k*rho = {k * rho:4.1f} "
              f"(r2 = {fit.r2:.4f})")
    print(f"window {tuple(round(w, 1) for w in window)} documented per run\n")


def riccati_rate():
    print("== Riccati feedback: planted rate = s*eta*rho/(rho+eta) ==")
    rho = eta = 2.0
    s = 1.0
    sys_ = build_synthetic(rho, eta, 128)
    sol = solve_are(sys_)
    predicted = s * eta * rho / (rho + eta)
    x0 = smooth_initial_state(sys_.lambdas, (s + 1.0) / 2.0, signs="alternating")
    traj = simulate_riccati_feedback(sys_, sol, x0, 40.0, dt=0.01)
    fit = fit_decay(traj, (10.0, 32.0))
    print(f"  planted-rate tail: fitted {fit.exponent:.3f} vs predicted {predicted:.1f}")
    lam = sys_.lambdas
    from wavelq.spectral import ModalVector, to_energy
    signs = np.where(np.arange(128) % 2 == 0, 1.0, -1.0)
    rough = to_energy(ModalVector(a=lam**-3.1 * signs, b=lam**-3.1 * signs), lam)
    traj2 = simulate_riccati_feedback(sys_, sol, rough, 40.0, dt=0.01)
    fit2 = fit_decay(traj2, default_decay_window(traj2))
    print(f"  class-tail data (upper-bound regime): fitted {fit2.exponent:.3f} "
          f">= {predicted:.1f} (bound, not tight)\n")


def observer_rate():
    print("== backward observer, weakly damped regime eta = 0.5 ==")
    eta = 0.5
    sys_ = build_synthetic(2.0, eta, 64)
    term = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
    traj = simulate_backward_observer(sys_, term, 310.0)
    fit = fit_decay(traj, default_decay_window(traj))
    print(f"  fitted {fit.exponent:.3f} vs k*eta = {1.0 * eta:.1f} "
          "(lemma-type lower threshold 0.85*k*eta)\n")


def log_decay():
    print("== exponential weights: log-type decay ==")
    sys_ = build_synthetic_exponential(0.4, 0.4, 48)
    x0 = smooth_initial_state(sys_.lambdas, 1.6, signs="alternating")
    traj = simulate_collocated(sys_, x0, 200.0)
    for lo, hi in ((10.0, 50.0), (50.0, 200.0)):
        fit = fit_decay(traj, (lo, hi))
        print(f"  window ({lo:5.1f}, {hi:5.1f}): local exponent {fit.exponent:.3f}")
    print("the local exponent shrinks like 1/ln t: slower than every")
    print("polynomial rate, as the exponentially weighted scales predict\n")


if __name__ == "__main__":
    collocated_rates()
    riccati_rate()
    observer_rate()
    log_decay()
