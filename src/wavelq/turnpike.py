"""Stationary problem, finite-horizon tracking, and averaged turnpike metrics.

The tracking cost is ``int_0^T (||u||^2 + ||C w - z||^2) dt``.  Targets z live
in the observation space realized through the symmetric factor
``C_mod = Q_obs**(1/2)`` acting on position coefficients, so z is a plain
coefficient vector of length n_modes.

The finite-horizon optimality system is solved in deviation variables
(state minus stationary state) through the Riccati dichotomy (Porretta-Zuazua
2013; Trelat-Zuazua 2015): with the ARE solution P, the adjoint split
y = q - P x runs backward and the state forward along two decoupled flows,
stable but for modes that neither control nor observation sees, each in
closed form from the closed-loop step and Gramian of ``riccati.step_map``.
The solve reads the system's block records, stacks blocks of equal size
(``riccati.stack_matrices``, so no dense A or Q is formed), and walks the
horizon in chunks of steps, so it has no per-step Python loop and stores
nothing of size steps x d^2.  Costs and mean positions are sums of
the Hamiltonian step's Van Loan integrals, and the averaged turnpike metrics
read them instead of integrating the recorded grid.
The tests hold two independent oracles: a dense collocation solve of the
same two-point boundary value problem, and the monolithic Riccati feedback +
feedforward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_loop import Trajectory
from .models import SpectralSystem, energy_index, stacked_blocks
from .riccati import (RiccatiSolution, first_order_matrices, hamiltonian_matrix, solve_are,
                      stack_matrices, step_map)
from .spectral import DimensionError, DomainError, ModalVector, as_energy_vector, require_positive


def g_weight(T: float, k: float, exponent: float) -> float:
    """Horizon weight ((T+1)^(1-k*e) - 1)/(1-k*e), with the ln(T+1) limit at k*e = 1.

    Evaluated through expm1 so the crossover is smooth; an infinite exponent
    returns 0 (the formula's limit).
    """
    require_positive(T=T, k=k, exponent=exponent)
    kappa = k * exponent
    if np.isinf(kappa):
        return 0.0
    u = (1.0 - kappa) * np.log1p(T)
    if kappa == 1.0:
        return float(np.log1p(T))
    return float(np.expm1(u) / (1.0 - kappa))


@dataclass
class StationarySolution:
    """Optimal stationary triple (w_bar, u_bar, p_bar) for a target z."""

    w_bar: ModalVector
    u_bar: np.ndarray
    p_bar: ModalVector
    optimality_residual: float


def solve_stationary(system: SpectralSystem, z) -> StationarySolution:
    """Solve min_u ||u||^2 + ||C w - z||^2 subject to A w = B u.

    With G = C A^-1 B the optimal control solves (I + G^T G) u = G^T z; the
    adjoint satisfies A p = C*(C w - z) and u = -B* p.
    """
    z = np.asarray(z, dtype=float)
    n = system.n_modes
    if z.size != n:
        raise DimensionError("target z must have one entry per mode")
    lam2 = system.lambdas**2
    Cm = system.observation_factor()
    G = Cm @ (system.B_mod / lam2[:, None])
    m = G.shape[1]
    u = np.linalg.solve(np.eye(m) + G.T @ G, G.T @ z)
    a_bar = (system.B_mod @ u) / lam2
    obs_gap = Cm @ a_bar - z
    p_bar = (Cm.T @ obs_gap) / lam2

    r1 = np.linalg.norm(lam2 * a_bar - system.B_mod @ u) / (1.0 + np.linalg.norm(u))
    r2 = np.linalg.norm(lam2 * p_bar - Cm.T @ obs_gap) / (1.0 + np.linalg.norm(z))
    r3 = np.linalg.norm(u + system.B_mod.T @ p_bar) / (1.0 + np.linalg.norm(u))
    return StationarySolution(w_bar=ModalVector.position_only(a_bar), u_bar=u,
                              p_bar=ModalVector.position_only(p_bar),
                              optimality_residual=float(max(r1, r2, r3)))


def _lift_position(system: SpectralSystem, a: np.ndarray) -> np.ndarray:
    out = np.zeros(2 * system.n_modes)
    out[0::2] = system.lambdas * a
    return out


def _terminal_feedforward(system: SpectralSystem, stationary: StationarySolution) -> np.ndarray:
    """Lift of the terminal deviation adjoint (0, -p_bar) into energy coordinates.

    The adjoint pair (-p_t, p) is lifted dually as (-p_t/lambda, p); at t = T
    the deviation adjoint is (0, -p_bar).
    """
    h = np.zeros(2 * system.n_modes)
    h[1::2] = -stationary.p_bar.a
    return h


@dataclass
class TrackingSolution:
    """Finite-horizon tracking optimum, recorded on a uniform grid.

    ``deviation_states`` are x(t) = lift(w^T - w_bar, w_t^T),
    ``deviation_adjoints`` the deviation adjoints q(t), and
    ``deviation_controls`` are v = u^T - u_bar = -B^T q.  ``trajectory`` holds
    the full state/control pair for export and ``x0`` the initial state as
    given.  The exact integrals of the deviation running cost and of the
    deviation position are the averaged turnpike metrics' inputs.
    """

    times: np.ndarray
    deviation_states: np.ndarray
    deviation_adjoints: np.ndarray
    deviation_controls: np.ndarray
    trajectory: Trajectory
    stationary: StationarySolution
    z: np.ndarray
    x0: np.ndarray
    horizon: float
    cost_quadrature: float        # int (||u||^2 + ||C w - z||^2) dt, exact
    deviation_cost_exact: float   # int (||v||^2 + ||C (w - w_bar)||^2) dt, exact
    mean_deviation_a: np.ndarray  # (1/T) int (a(t) - a_bar) dt, exact
    value_formula_cost: float     # Riccati + boundary-term expression of the cost
    system: SpectralSystem = None


def solve_tracking(system: SpectralSystem, z, x0, horizon: float,
                   stationary: StationarySolution | None = None,
                   dt_record: float | None = None,
                   are: RiccatiSolution | None = None) -> TrackingSolution:
    """Solve the finite-horizon tracking problem through the Riccati dichotomy.

    With the ARE solution P (``are``, else ``solve_are``; stabilizing when
    such a solution exists) and A_cl = A - B B^T P, the split y = q - P x gives
    y' = -A_cl^T y and x' = A_cl x - B B^T y.  Over j fine steps of length h:
    y_{k-j} = F_j^T y_k and x_{k+j} = F_j x_k - G_j y_{k+j}, with
    F_j = e^{A_cl j h} and the closed-loop Gramian
    G_j = int_0^{jh} e^{A_cl s} B B^T e^{A_cl^T s} ds; the end condition
    q_N = h_T gives (I - P G_N) y_N = h_T - P F_N x_0.

    The record step is split into equal fine steps of at most
    pi/(4 lambda_max).  (F_1, G_1) comes from ``step_map``; (F_j, G_j) up to
    a chunk length follow by doubling with G(s + t) = G(s) + F(s) G(t) F(s)^T,
    and (F_N, G_N) by binary doubling.  Each stack of equal-sized blocks is
    walked in chunks whose stacks hold about ``_STACK_ELEMENTS`` numbers.
    Costs and the position average are exact sums of the Hamiltonian step's
    Van Loan integrals; the ``value`` column is x^T E(T - t) x with
    E(tau) = P - F_tau^T (I - P G_tau)^{-1} P F_tau.
    """
    require_positive(horizon=horizon, dt_record=dt_record)
    z = np.asarray(z, dtype=float)
    if stationary is None:
        stationary = solve_stationary(system, z)
    if are is None:
        are = solve_are(system)
    lam = system.lambdas
    dim = 2 * lam.size
    if are.dim != dim:
        raise DimensionError("ARE solution dimension mismatch")

    x0 = as_energy_vector(x0)
    if x0.size != dim:
        raise DimensionError("initial state dimension mismatch")
    x_bar_lift = _lift_position(system, stationary.w_bar.a)
    x0_dev = x0 - x_bar_lift
    h_T = _terminal_feedforward(system, stationary)

    if dt_record is None:
        dt_record = min(0.02, np.pi / (8.0 * lam.max()))
    steps = max(2, int(np.ceil(horizon / dt_record)))
    times = np.linspace(0.0, horizon, steps + 1)
    sub = int(np.ceil(horizon / steps / (np.pi / (4.0 * lam.max()))))

    X = np.empty((steps + 1, dim))
    q = np.empty((steps + 1, dim))
    values = np.zeros(steps + 1)
    int_y = np.empty(2 * dim)
    j_dev_exact = 0.0
    for stack in stacked_blocks(system):
        j_dev_exact += _track_stack(lam, stack, are.E, x0_dev, h_T, horizon, sub, X, q,
                                    values, int_y)

    Cm = system.observation_factor()
    obs_stationary_gap = Cm @ stationary.w_bar.a - z  # C w_bar - z
    u_bar = stationary.u_bar
    int_a_dev = int_y[:dim][0::2] / lam
    stationary_rate = float(u_bar @ u_bar) + float(obs_stationary_gap @ obs_stationary_gap)
    j_full_exact = (j_dev_exact - 2.0 * float(u_bar @ (system.B_mod.T @ int_y[dim + 1::2]))
                    + 2.0 * float(obs_stationary_gap @ (Cm @ int_a_dev))
                    + horizon * stationary_rate)
    mean_a = int_a_dev / horizon
    V = -(q[:, 1::2] @ system.B_mod)

    p_bar = stationary.p_bar.a
    value_cost = (float(x0_dev @ q[0]) - float(p_bar @ X[-1][1::2])
                  + 2.0 * float(p_bar @ x0_dev[1::2]) + horizon * stationary_rate)

    full = X + x_bar_lift
    obs_dev_series = (X[:, 0::2] / lam) @ Cm.T
    obs_full = obs_dev_series + obs_stationary_gap
    traj = Trajectory(times=times, states=full,
                      energies=np.einsum("ij,ij->i", full, full), lambdas=lam,
                      kind="tracking", controls=V + u_bar, values=values,
                      control_power=np.einsum("ij,ij->i", V + u_bar, V + u_bar),
                      obs_power=np.einsum("ij,ij->i", obs_full, obs_full))

    return TrackingSolution(times=times, deviation_states=X, deviation_adjoints=q,
                            deviation_controls=V, trajectory=traj, stationary=stationary,
                            z=z, x0=x0, horizon=float(horizon), cost_quadrature=j_full_exact,
                            deviation_cost_exact=j_dev_exact, mean_deviation_a=mean_a,
                            value_formula_cost=value_cost, system=system)


# numbers in one (steps, blocks, s, s) stack of a chunk of the tracking sweep
_STACK_ELEMENTS = 1 << 16


def _mT(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products M v."""
    return (M @ v[..., None])[..., 0]


def _compose(first, second):
    """The pair (F, G) over s + t from the pairs over s and over t (stacks broadcast)."""
    (F1, G1), (F2, G2) = first, second
    return F1 @ F2, G1 + F1 @ G2 @ _mT(F1)


def _power(pair, n: int):
    """The pair over n >= 1 steps, by binary doubling of the one-step pair."""
    acc = None
    while True:
        if n & 1:
            acc = pair if acc is None else _compose(acc, pair)
        n >>= 1
        if not n:
            return acc
        pair = _compose(pair, pair)


def _powers(pair, m: int):
    """Stacks of the pairs (F_j, G_j) over j = 0..m steps, each (m + 1, blocks, s, s)."""
    F1, G1 = pair
    F = np.empty((m + 1,) + F1.shape)
    G = np.empty_like(F)
    F[0], G[0], F[1], G[1] = np.eye(F1.shape[-1]), 0.0, F1, G1
    k = 1
    while k < m:
        n = min(k, m - k)
        F[k + 1:k + n + 1], G[k + 1:k + n + 1] = _compose((F[k], G[k]), (F[1:n + 1], G[1:n + 1]))
        k += n
    return F, G


def _track_stack(lam, stack, P, x0_dev, h_T, horizon, sub, X, q, values, int_y) -> float:
    """Solve the tracking dichotomy on one stack of equal-sized blocks.

    ``stack`` holds the blocks' records and P is the whole ARE solution.
    Fills their columns of the recorded states X and adjoints q and of the
    integrals int_y of (x, q), adds their share to ``values``, and returns
    their deviation cost.
    """
    e = energy_index(np.array([r.modes for r in stack]))
    A, B, Q = stack_matrices(lam, stack)
    P = P[e[:, :, None], e[:, None, :]]
    nb, s = e.shape
    steps = X.shape[0] - 1
    n_fine = steps * sub
    h = horizon / n_fine
    BBT = B @ _mT(B)
    A_cl = A - BBT @ P
    FT, G1 = step_map(_mT(A_cl), h, cost=BBT)
    one = (_mT(FT), G1)
    m = min(n_fine, sub * max(1, _STACK_ELEMENTS // (sub * nb * s * s)))
    F, G = _powers(one, m)

    M = hamiltonian_matrix(A, B, Q)
    cost = np.zeros((nb, 2 * s, 2 * s))
    cost[:, :s, :s], cost[:, s:, s:] = Q, BBT
    W = step_map(M, h, cost=cost)[1]
    gen = np.zeros((nb, 4 * s, 4 * s))
    gen[:, :2 * s, :2 * s], gen[:, :2 * s, 2 * s:] = M, np.eye(2 * s)
    L = step_map(gen, h)[0][:, :2 * s, 2 * s:]

    F_N, G_N = _power(one, n_fine)
    x = x0_dev[e]
    eye = np.eye(s)
    y_end = np.linalg.solve(eye - P @ G_N, (h_T[e] - _mv(P, _mv(F_N, x)))[..., None])[..., 0]

    starts = range(0, n_fine, m)
    y_at = [y_end]  # y at the chunk ends, last chunk first
    for a in reversed(starts[1:]):
        y_at.append(_mv(_mT(F[min(m, n_fine - a)]), y_at[-1]))

    j_dev, y_sum = 0.0, np.zeros((nb, 2 * s))
    for a, y_b in zip(starts, reversed(y_at)):
        n = min(m, n_fine - a)
        ys = _mv(_mT(F[n::-1]), y_b)             # y_{a+i} = F_{n-i}^T y_{a+n}
        xs = np.empty_like(ys)
        xs[0] = x
        xs[1:] = _mv(F[1:n + 1], x) - _mv(G[1:n + 1], ys[1:])
        qs = ys + _mv(P, xs)
        Y = np.concatenate([xs[:-1], qs[:-1]], axis=-1)
        j_dev += float(np.sum(_mv(W, Y) * Y))
        y_sum += Y.sum(axis=0)
        rec = slice(a // sub, (a + n) // sub)
        X[rec, e], q[rec, e] = xs[:-1:sub], qs[:-1:sub]
        x = xs[-1]
    X[-1, e], q[-1, e] = x, y_end + _mv(P, x)
    int_y[e], int_y[e + X.shape[1]] = np.split(_mv(L, y_sum), 2, axis=-1)

    # values x^T E(tau) x, chunk by chunk backward; ``pair`` spans the time to go at the chunk's end
    pair = (eye, np.zeros((nb, s, s)))
    for a in reversed(starts):
        n = min(m, n_fine - a)
        j = np.arange(n, 0, -sub)
        F_tau, G_tau = _compose((F[j], G[j]), pair)
        xr = X[a // sub:(a + n) // sub, e]
        w = _mv(F_tau, xr)
        zeta = np.linalg.solve(eye - P @ G_tau, _mv(P, w)[..., None])[..., 0]
        values[a // sub:(a + n) // sub] += np.sum(xr * _mv(P, xr) - w * zeta, axis=(1, 2))
        pair = _compose((F[n], G[n]), pair)
    return j_dev


# multiply-adds of a product that OpenBLAS runs on the calling thread; a larger
# one wakes its worker thread, which then spins on another core for about 0.1 s
_SERIAL_PRODUCT = 1 << 18


def tracking_os_residual(sol: TrackingSolution) -> float:
    """Defect of the recorded grid against the exact optimality system.

    An independent matrix exponential of the Hamiltonian matrix over the record
    step checks (x_{k+1}, q_{k+1}) = e^{M dt} (x_k, q_k) on every grid step;
    also checked are v_k = -B^T q_k at every grid point and the boundary
    values x_0 = x0 - lift(w_bar) and q_N = h_T.  Each defect is relative to
    1 plus the largest entry of the quantity it checks; the worst is returned.
    The grid is stepped in row bands of at most ``_SERIAL_PRODUCT``
    multiply-adds, so no BLAS worker thread is left spinning after the call.
    """
    system = sol.system
    A, B, Q = first_order_matrices(system)
    dim = A.shape[0]
    X, q, V = sol.deviation_states, sol.deviation_adjoints, sol.deviation_controls
    dt = sol.horizon / (sol.times.size - 1)
    Phi, _ = step_map(hamiltonian_matrix(A, B, Q), dt)
    Y = np.hstack([X, q])
    D, prev = Y[1:].copy(), Y[:-1]
    rows = max(1, _SERIAL_PRODUCT // Phi.size)
    for a in range(0, D.shape[0], rows):
        D[a:a + rows] -= prev[a:a + rows] @ Phi.T
    x0_dev = sol.x0 - _lift_position(system, sol.stationary.w_bar.a)
    h_T = _terminal_feedforward(system, sol.stationary)

    def rel(defect, ref):
        return float(np.abs(defect).max()) / (1.0 + np.abs(ref).max())

    return max(rel(D[:, :dim], X), rel(D[:, dim:], q), rel(V + q @ B, V),
               rel(X[0] - x0_dev, x0_dev), rel(q[-1] - h_T, h_T))


@dataclass
class TurnpikeReport:
    """Averaged tracking/state gaps over a horizon grid plus the bound proxy."""

    horizons: np.ndarray
    avg_tracking: np.ndarray
    avg_state_gap: np.ndarray
    bound_values: np.ndarray
    k_used: float
    ktilde_used: float


def averaged_metrics(runs, stationary: StationarySolution, k: float = 1.0,
                     ktilde: float = 1.0) -> TurnpikeReport:
    """Averaged turnpike quantities per horizon, from each run's exact integrals.

    avg_tracking(T) = (1/T) int (||C (w - w_bar)||^2 + ||u - u_bar||^2) dt and
    avg_state_gap(T) = || (1/T) int (w - w_bar) dt ||^2 in the X_{1/2} norm,
    read from ``deviation_cost_exact`` and ``mean_deviation_a``.
    The bound proxy evaluates g1(T)/T * ||(w0 - w_bar, w1)||^2_{D(A^k)} +
    g2(T)/T * ||p_bar||^2_{X_{(ktilde+1)/2}} with unit constants (shape
    reference only; weights from the planted ``system.rho``/``eta``, else 1).
    """
    if not runs:
        raise DomainError("no tracking runs given")
    system = runs[0].system
    lam = system.lambdas
    horizons = np.array([r.horizon for r in runs])
    if np.any(np.diff(horizons) <= 0.0):
        raise DomainError("horizons must be strictly increasing")
    for r in runs[1:]:
        if r.system is not system or not np.array_equal(r.z, runs[0].z):
            raise DomainError("all runs must share the system and target")

    avg_track = np.empty(horizons.size)
    avg_gap = np.empty(horizons.size)
    bounds = np.empty(horizons.size)

    rho = system.rho if system.rho is not None else np.inf
    eta = system.eta if system.eta is not None else np.inf

    x0_dev0 = runs[0].deviation_states[0]
    w_class = float(np.sum(lam ** (2.0 * k) * (x0_dev0[0::2] ** 2 + x0_dev0[1::2] ** 2)))
    p_bar = stationary.p_bar.a
    p_class = float(np.sum(lam ** (2.0 * (ktilde + 1.0)) * p_bar**2))

    for i, run in enumerate(runs):
        T = run.horizon
        avg_track[i] = run.deviation_cost_exact / T
        avg_gap[i] = float(np.sum(lam**2 * run.mean_deviation_a**2))
        g1 = 1.0 if np.isinf(rho) else g_weight(T, k, rho)
        g2 = 1.0 if np.isinf(eta) else g_weight(T, ktilde, eta)
        bounds[i] = g1 / T * w_class + g2 / T * p_class

    return TurnpikeReport(horizons=horizons, avg_tracking=avg_track,
                          avg_state_gap=avg_gap, bound_values=bounds,
                          k_used=float(k), ktilde_used=float(ktilde))
