"""Averaged turnpike metrics of the tracking problem over a horizon grid.

The finite-horizon tracking optimum hugs the stationary pair except in
initial and terminal layers; the time-averaged tracking error and the norm
of the time-averaged state gap both vanish as the horizon grows (like 1/T
here, since k*rho > 1 for the smooth data used).  The pointwise gap is
reported as a diagnostic only.
"""

import os
import tempfile

import numpy as np

from wavelq import (
    averaged_metrics,
    build_synthetic,
    smooth_initial_state,
    solve_stationary,
    solve_tracking,
    tracking_integrals,
)
from wavelq.serialize import turnpike_to_csv


def main():
    n = 12
    sys_ = build_synthetic(2.0, 2.0, n)
    rng = np.random.default_rng(42)
    x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng).to_vector()
    z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=n)

    st = solve_stationary(sys_, z)
    print(f"stationary optimality residual: {st.optimality_residual:.1e}")

    # the averages need only each horizon's boundary values; the last horizon's
    # come with the sweep that the pointwise diagnostic below reads
    horizons = [25.0, 50.0, 100.0, 200.0]
    run = solve_tracking(sys_, z, x0, horizons[-1], stationary=st)
    rep = averaged_metrics(tracking_integrals(sys_, z, x0, horizons[:-1], stationary=st) + [run], st)

    print(f"\n{'T':>6} {'avg tracking':>14} {'avg state gap':>14} {'bound proxy':>13}")
    for i, T in enumerate(horizons):
        print(f"{T:6.0f} {rep.avg_tracking[i]:14.6e} {rep.avg_state_gap[i]:14.6e} "
              f"{rep.bound_values[i]:13.6e}")
    slope = np.polyfit(np.log(horizons), np.log(rep.avg_tracking), 1)[0]
    print(f"\nlog-log slope of avg tracking vs T: {slope:.3f} (1/T regime)")

    out = os.path.join(tempfile.gettempdir(), "wavelq_turnpike.csv")
    turnpike_to_csv(rep, out)
    print(f"report written to {out}")

    # pointwise-gap diagnostic (no claim attached: open problem), from the sweep
    w_bar = st.w_bar.a
    print("\npointwise state gap ||w(t) - w_bar||_{X_1/2} along T = 200 (diagnostic):")
    for frac in (0.0, 0.1, 0.5, 0.9, 1.0):
        k = int(frac * (run.times.size - 1))
        a_dev = run.deviation_states[k][0::2] / sys_.lambdas
        gap = np.sqrt(np.sum(sys_.lambdas**2 * a_dev**2))
        print(f"  t = {run.times[k]:6.1f}: {gap:.6e}")
    print("the middle of the horizon sits near the turnpike; the layers at")
    print("both ends carry the transients")


if __name__ == "__main__":
    main()
