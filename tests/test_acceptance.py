"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; runtime caps are asserted.
"""

import time
from pathlib import Path

import numpy as np

from tracking_oracle import solve_tracking_collocation
from wavelq.closed_loop import (
    default_decay_window,
    energy_identity_defect,
    fit_decay,
    hum_null_control,
    sequence_lemma_check,
    simulate_backward_observer,
    simulate_collocated,
    simulate_riccati_feedback,
    smooth_initial_state,
)
from wavelq.models import (
    SpectralSystem,
    build_interval_wave,
    build_rectangle,
    build_star_network,
    build_synthetic,
    fit_weak_observability,
    observability_gramian,
)
from wavelq.riccati import (
    bounds_report,
    integrate_dre,
    solve_are,
)
from wavelq.spectral import NormScale, energy_norm_squared
from wavelq.turnpike import (
    averaged_metrics,
    solve_stationary,
    solve_tracking,
    tracking_os_residual,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _report(num, name, ok, detail, elapsed, cap):
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail}; {elapsed:.1f}s of {cap:.0f}s cap)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < cap, f"criterion {num} exceeded its {cap:.0f}s runtime cap"


def test_criterion_01_are_oracle():
    t0 = time.perf_counter()
    sys_ = SpectralSystem.from_dense([1.0], np.array([[1.0]]), np.array([[1.0]]))
    sol = solve_are(sys_)
    e2 = np.sqrt(2.0) - 1.0
    e3 = np.sqrt(2.0 * e2)
    e1 = np.sqrt(2.0) * e3
    err = np.abs(sol.E - np.array([[e1, e2], [e2, e3]])).max()
    _report(1, "ARE closed-form oracle", err <= 1e-8, f"max err {err:.2e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_dre_properties():
    t0 = time.perf_counter()
    sys_ = build_synthetic(2.0, 2.0, 4)
    taus = np.linspace(0.0, 12.0, 10)
    snaps = integrate_dre(sys_, 12.0, snapshot_times=taus)
    zero_exact = np.all(snaps[0].E == 0.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        vals = [x @ s.E @ x for s in snaps]
        worst = max(worst, max(vals[i] - vals[i + 1] for i in range(9)))
    sys3 = build_synthetic(2.0, 2.0, 3)
    zsys = SpectralSystem.from_dense(sys3.lambdas, np.zeros((3, 1)), sys3.Q_obs)
    T = 4.0
    E = integrate_dre(zsys, T)[0].E
    W = observability_gramian(zsys, T, use_control=False)
    gram_rel = np.abs(E - W).max() / np.abs(W).max()
    ok = zero_exact and worst <= 1e-8 and gram_rel <= 1e-8
    _report(2, "DRE start/monotone/Gramian", ok,
            f"E(0)=0 {zero_exact}, monotone defect {worst:.2e}, B=0 vs Gramian {gram_rel:.2e}",
            time.perf_counter() - t0, 10.0)


def test_criterion_03_energy_identities():
    t0 = time.perf_counter()
    systems = [
        build_interval_wave(32, control=("subinterval", 0.4, 1.9)),
        build_star_network([np.pi, np.pi], 0, 1, 16.2),
        build_rectangle(1.0, 2.0, 12.0),
    ]
    rng = np.random.default_rng(1)
    worst = 0.0
    detail = []
    for sys_ in systems:
        assert sys_.n_modes <= 128
        x0 = smooth_initial_state(sys_.lambdas, 1.5, rng=rng)
        d_col = energy_identity_defect(simulate_collocated(sys_, x0, 300.0))
        d_back = energy_identity_defect(simulate_backward_observer(sys_, x0, 300.0))
        sol = solve_are(sys_)
        d_ric = energy_identity_defect(simulate_riccati_feedback(sys_, sol, x0, 300.0))
        worst = max(worst, d_col, d_back, d_ric)
        detail.append(f"{sys_.label.split('(')[0]}: {max(d_col, d_back, d_ric):.1e}")
    _report(3, "energy identities (horizon 300)", worst <= 1e-6,
            "; ".join(detail), time.perf_counter() - t0, 120.0)


def test_criterion_04_planted_decay():
    t0 = time.perf_counter()
    rho = eta = 2.0
    s = 1.0
    predicted = s * eta * rho / (rho + eta)  # = 1
    sys_ = build_synthetic(rho, eta, 128)

    # Riccati loop: energy-coefficient tail (s+1)/2 plants the closed-loop
    # decay rate at the predicted exponent; the fit window ends well before
    # the slowest retained mode's damping time (T_trunc = 128 here) so the
    # truncated tail's missing mass stays small.
    sol = solve_are(sys_)
    x0 = smooth_initial_state(sys_.lambdas, (s + 1.0) / 2.0, signs="alternating")
    traj = simulate_riccati_feedback(sys_, sol, x0, 40.0, dt=0.01)
    fit_r = fit_decay(traj, (10.0, 32.0))
    riccati_ok = abs(fit_r.exponent - predicted) <= 0.25 * predicted

    # collocated loop, class-critical data in D(A^k) with k = 1
    k = 1.0
    x0c = smooth_initial_state(sys_.lambdas, k + 0.5 + 0.1, signs="alternating")
    trajc = simulate_collocated(sys_, x0c, 70.0, dt=0.01)
    window_c = default_decay_window(trajc)
    fit_c = fit_decay(trajc, window_c)
    colloc_ok = fit_c.exponent >= 0.85 * k * rho

    _report(4, "planted decay exponents", riccati_ok and colloc_ok,
            f"riccati fit {fit_r.exponent:.3f} vs {predicted:.2f} (25% band), "
            f"collocated fit {fit_c.exponent:.3f} >= {0.85 * k * rho:.2f}",
            time.perf_counter() - t0, 300.0)


def test_criterion_05_riccati_bounds_stability():
    t0 = time.perf_counter()
    detail = []
    ok = True
    for rho, eta in ((2.0, 2.0), (1.0, 4.0)):
        weak = NormScale.graded(-1.0 / eta)
        strong = NormScale.graded(1.0 / rho)
        cs = {}
        for n in (32, 64):
            sys_ = build_synthetic(rho, eta, n)
            rep = bounds_report(solve_are(sys_), sys_, weak, strong)
            cs[n] = rep
            ok &= rep.c1_hat > 0.0 and np.isfinite(rep.c2_hat)
        r1 = cs[64].c1_hat / cs[32].c1_hat
        r2 = cs[64].c2_hat / cs[32].c2_hat
        ok &= 0.5 < r1 < 2.0 and 0.5 < r2 < 2.0
        detail.append(f"rho={rho:g},eta={eta:g}: c1 x{r1:.3f}, c2 x{r2:.3f}")
    _report(5, "Riccati bounds + truncation stability", ok,
            "; ".join(detail), time.perf_counter() - t0, 120.0)


def test_criterion_06_hum_control():
    t0 = time.perf_counter()
    sys_ = build_synthetic(2.0, 2.0, 64)
    t_steer = 2.5 * np.pi
    rng = np.random.default_rng(2)
    strong = NormScale.graded(0.5)
    ratios = []
    resid_ok = True
    for _ in range(50):
        x0 = smooth_initial_state(sys_.lambdas, 1.6, rng=rng)
        hum = hum_null_control(sys_, x0, t_steer)
        resid_ok &= hum.certified and \
            hum.terminal_residual <= 1e-8 * np.linalg.norm(x0)
        ratios.append(hum.cost / energy_norm_squared(x0, sys_.lambdas, strong))
    med = float(np.median(ratios))
    ratio_ok = max(ratios) <= 3.0 * med and min(ratios) >= med / 3.0
    costs = []
    for mode in (1, 2, 4, 8, 16, 32, 64):
        x0 = np.zeros(128)
        x0[2 * (mode - 1)] = 1.0
        costs.append(hum_null_control(sys_, x0, t_steer).cost)
    mono_ok = all(costs[i] < costs[i + 1] for i in range(len(costs) - 1))
    _report(6, "HUM steering cost scaling", resid_ok and ratio_ok and mono_ok,
            f"ratio spread [{min(ratios) / med:.2f}, {max(ratios) / med:.2f}] of median, "
            f"H-normalized cost monotone {mono_ok}",
            time.perf_counter() - t0, 120.0)


def test_criterion_07_turnpike():
    t0 = time.perf_counter()
    n = 12
    sys_ = build_synthetic(2.0, 2.0, n)
    rng = np.random.default_rng(42)
    x0 = smooth_initial_state(sys_.lambdas, 2.5, rng=rng)
    z = sys_.lambdas**-2.0 * rng.choice([-1.0, 1.0], size=n)
    st = solve_stationary(sys_, z)
    horizons = [25.0, 50.0, 100.0, 200.0]
    runs = [solve_tracking(sys_, z, x0, T, stationary=st, dt_record=0.01)
            for T in horizons]
    rep = averaged_metrics(runs, st)
    track_ok = np.all(np.diff(rep.avg_tracking) < 0.0) and \
        rep.avg_tracking[-1] <= 0.5 * rep.avg_tracking[0]
    gap_ok = np.all(np.diff(rep.avg_state_gap) < 0.0) and \
        rep.avg_state_gap[-1] <= 0.5 * rep.avg_state_gap[0]

    sys_e = build_synthetic(np.inf, np.inf, n)
    st_e = solve_stationary(sys_e, z)
    runs_e = [solve_tracking(sys_e, z, x0, T, stationary=st_e, dt_record=0.01)
              for T in horizons]
    rep_e = averaged_metrics(runs_e, st_e)
    slope = np.polyfit(np.log(rep_e.horizons), np.log(rep_e.avg_tracking), 1)[0]
    slope_ok = -1.3 <= slope <= -0.7

    sys1 = SpectralSystem.from_dense([1.0], np.array([[1.0]]), np.array([[1.0]]))
    z1, x01 = np.array([0.7]), np.array([1.0, -0.3])
    sol1 = solve_tracking(sys1, z1, x01, 5.0, dt_record=5.0 / 4000)
    tt, xx, _, cost = solve_tracking_collocation(sys1, z1, x01, 5.0, n_steps=4000)
    oracle_ok = np.array_equal(sol1.times, tt) and \
        np.abs(sol1.deviation_states - xx).max() <= 1e-6 * np.abs(xx).max() and \
        abs(sol1.deviation_cost_exact - cost) <= 1e-6 * cost
    os_ok = tracking_os_residual(runs[-1]) <= 1e-6

    ok = track_ok and gap_ok and slope_ok and oracle_ok and os_ok
    _report(7, "averaged turnpike", ok,
            f"tracking ratio {rep.avg_tracking[-1] / rep.avg_tracking[0]:.3f}, "
            f"state-gap ratio {rep.avg_state_gap[-1] / rep.avg_state_gap[0]:.3f}, "
            f"exact-obs slope {slope:.3f}, oracle {oracle_ok}, OS {os_ok}",
            time.perf_counter() - t0, 600.0)


def test_criterion_08_sequence_lemma():
    t0 = time.perf_counter()
    bound, violations = sequence_lemma_check(1.0, 0.0, 100000)
    ok = bound < 3.0 and not violations
    _report(8, "sequence-lemma roll-out", ok,
            f"sup a_m*(m+1) = {bound:.4f} < 3, violations {len(violations)}",
            time.perf_counter() - t0, 5.0)


def test_criterion_09_rectangle_shell_exponent():
    t0 = time.perf_counter()
    sys_ = build_rectangle(1.0, 2.0, 64.0)
    # horizon 6*pi sits in the crossover where all four shells contribute to
    # the weak-observability power law: shorter horizons starve the top
    # shell, longer ones saturate the low shells
    rep = fit_weak_observability(sys_, 6.0 * np.pi, [4.0, 8.0, 16.0, 32.0],
                                 use_control=True)
    nonincreasing = np.all(np.diff(rep.shell_constants) <= 1e-12)
    exponent = abs(rep.fitted_exponent)
    ok = nonincreasing and 0.5 <= exponent <= 2.5
    _report(9, "rectangle strip shell exponent (soft)", ok,
            f"weight exponent {exponent:.3f} in [0.5, 2.5] "
            f"(theory-implied 1.5), nonincreasing {nonincreasing}",
            time.perf_counter() - t0, 300.0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from wavelq.cli import main
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "no shipped configs"
    mismatches = []
    for cfg in configs:
        out_a = tmp_path / (cfg.stem + "_a")
        out_b = tmp_path / (cfg.stem + "_b")
        assert main(["run", "--config", str(cfg), "--output", str(out_a),
                     "--quiet"]) == 0, f"{cfg.name} failed"
        assert main(["run", "--config", str(cfg), "--output", str(out_b),
                     "--quiet"]) == 0
        # every output but the manifest, which records the wall time
        for produced in sorted(out_a.iterdir()):
            if produced.name != "manifest.json" and \
                    produced.read_bytes() != (out_b / produced.name).read_bytes():
                mismatches.append(f"{cfg.name}:{produced.name}")
    # shipped turnpike config emits the 4-row report contract
    tp_csv = (tmp_path / "turnpike_synthetic_a" / "turnpike.csv").read_text().splitlines()
    rows_ok = len(tp_csv) == 5 and tp_csv[0].startswith("horizon,")
    ok = not mismatches and rows_ok
    _report(10, "CLI determinism on shipped configs", ok,
            f"{len(configs)} configs bit-identical: {not mismatches}, "
            f"turnpike rows {len(tp_csv) - 1}",
            time.perf_counter() - t0, 600.0)
