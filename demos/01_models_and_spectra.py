"""Build each spectral model and inspect its ingredients.

Walks through the four system families: the interval wave, a star-shaped
network (secular-equation spectrum), the rectangle with strip control, and
the synthetic weak-observability family.  Prints spectra, control gains, and
round-trips one system through the JSON format.
"""

import os
import tempfile

import numpy as np

from wavelq import (
    build_interval_wave,
    build_rectangle,
    build_star_network,
    build_synthetic,
    first_order_matrices,
)
from wavelq.serialize import load_system, save_system


def interval_demo():
    print("== interval wave on (0, pi), distributed control on (0.4, 1.9) ==")
    sys_ = build_interval_wave(8, control=("subinterval", 0.4, 1.9))
    print("frequencies:", sys_.lambdas)
    print("control gains (diag of B B*):", np.round(np.sum(sys_.B_mod**2, axis=1), 4))
    print("B is the square root of the exact overlap matrix of the indicator")
    print("multiplier, so B B* equals it to rounding; the full-domain variant")
    print("has B = identity.\n")


def star_demo():
    print("== star network, edges (1, pi, pi^2), control on edge 0 ==")
    sys_ = build_star_network([1.0, np.pi, np.pi**2], 0, 1, 30.0)
    weyl = 30.0 * (1.0 + np.pi + np.pi**2) / np.pi
    print(f"modes found: {sys_.n_modes} (Weyl estimate {weyl:.1f})")
    print("first frequencies:", np.round(sys_.lambdas[:8], 5))
    gains = np.sum(sys_.B_mod**2, axis=1)  # the diagonal of B B*
    order = np.argsort(gains)
    print("smallest per-mode gains (quasi-resonant modes concentrate on the")
    print("uncontrolled edges):")
    for i in order[:4]:
        print(f"  lambda = {sys_.lambdas[i]:9.5f}   gain = {gains[i]:.3e}")
    print(f"median gain: {np.median(gains):.3e}")
    print("-> gains stay positive but dip along a subsequence, the signature")
    print("   of weak (not exact) observability on networks.\n")

    print("   rational ratio between the uncontrolled edges instead gives")
    sys_r = build_star_network([1.0, np.pi, 2 * np.pi], 0, 1, 15.0)
    print(f"   exact zero gains: min = {np.sum(sys_r.B_mod**2, axis=1).min():.1e} "
          "(modes fully supported away from the controlled edge)\n")


def rectangle_demo():
    print("== rectangle (0,pi)^2 with strip control 1 < x1 < 2 ==")
    sys_ = build_rectangle(1.0, 2.0, 12.0)
    print(f"modes with lambda <= 12: {sys_.n_modes}")
    print("lowest frequencies:", np.round(sys_.lambdas[:6], 5))
    print("single-mode gains do not vanish (strip sees every mode):")
    print("  min diag of B B*:", np.round(np.sum(sys_.B_mod**2, axis=1).min(), 4))
    print("weak observability appears only through clustered modes; see")
    print("demo 02 for the shell-Gramian exponent.\n")


def synthetic_demo():
    print("== synthetic family with planted exponents rho = eta = 2 ==")
    sys_ = build_synthetic(2.0, 2.0, 6)
    print("control weights lambda^(-1/rho):   ", np.round(np.diag(sys_.B_mod), 4))
    print("observation weights lambda^(-2/eta) on the energy density:",
          np.round(np.diag(first_order_matrices(sys_)[2][0::2, 0::2]), 4))
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        path = f.name
    save_system(sys_, path)
    back = load_system(path)
    os.remove(path)
    print(f"JSON round trip exact: {np.array_equal(back.B_mod, sys_.B_mod)} "
          f"(planted exponents kept: rho={back.rho}, eta={back.eta})\n")


if __name__ == "__main__":
    interval_demo()
    star_demo()
    rectangle_demo()
    synthetic_demo()
