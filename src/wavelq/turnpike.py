"""Stationary problem, finite-horizon tracking, and averaged turnpike metrics.

The tracking cost is ``int_0^T (||u||^2 + ||C w - z||^2) dt``.  Targets z live
in the observation space realized through the symmetric factor
``C_mod = Q_obs**(1/2)`` acting on position coefficients, so z is a plain
coefficient vector of length n_modes.

The finite-horizon optimality system is solved in deviation variables
(state minus stationary state) by Riccati feedback plus a backward
feedforward: the deviation adjoint is ``q(t) = E(T-t) x(t) + h(t)`` with the
matrix Riccati flow E and a linear feedforward h ending at the lift of the
stationary adjoint.  Both are swept backward, and the state forward, with the
exact Hamiltonian step map of ``riccati.step_map``; costs and mean positions
are sums of its Van Loan integrals, and the averaged turnpike metrics read
them instead of integrating the recorded grid.  A dense collocation solve of
the same two-point boundary value problem is provided as an independent
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .closed_loop import Trajectory
from .models import SpectralSystem
from .riccati import first_order_matrices, hamiltonian_matrix, riccati_step, step_map
from .spectral import DimensionError, DomainError, ModalVector, as_energy_vector


def g_weight(T: float, k: float, exponent: float) -> float:
    """Horizon weight ((T+1)^(1-k*e) - 1)/(1-k*e), with the ln(T+1) limit at k*e = 1.

    Evaluated through expm1 so the crossover is smooth; an infinite exponent
    returns 0 (the formula's limit).
    """
    if T <= 0.0:
        raise DomainError("T must be positive")
    if k <= 0.0 or exponent <= 0.0:
        raise DomainError("k and exponent must be positive")
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


def stationary_cost(system: SpectralSystem, z, u) -> float:
    """Stationary objective ||u||^2 + ||C A^-1 B u - z||^2 (for convexity probes)."""
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    Cm = system.observation_factor()
    w = (system.B_mod @ u) / system.lambdas**2
    return float(u @ u + np.sum((Cm @ w - z) ** 2))


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
    u = scipy.linalg.solve(np.eye(m) + G.T @ G, G.T @ z, assume_a="pos")
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
                   dt_record: float | None = None) -> TrackingSolution:
    """Solve the finite-horizon tracking problem via Riccati feedback + feedforward.

    The record step is split into equal steps of at most pi/(4 lambda_max),
    all sharing one exact Hamiltonian step map.  Backward sweep: from E = 0
    and the lifted stationary adjoint h_T at t = T, ``riccati_step`` carries
    (E, h) back one step at a time.  Forward recurrence: x_{k+1} = Phi11 x_k +
    Phi12 q_k with q_k = E_k x_k + h_k.  The running costs and the position
    average are exact sums of the step's Van Loan integrals.
    """
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    z = np.asarray(z, dtype=float)
    if stationary is None:
        stationary = solve_stationary(system, z)
    lam = system.lambdas
    dim = 2 * lam.size
    A, B, Q = first_order_matrices(system)

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
    n_fine = steps * sub
    M = hamiltonian_matrix(A, B, Q)
    Phi, W = step_map(M, horizon / n_fine, cost=scipy.linalg.block_diag(Q, B @ B.T))
    L = step_map(np.block([[M, np.eye(2 * dim)], [np.zeros((2 * dim, 4 * dim))]]),
                 horizon / n_fine)[0][:2 * dim, 2 * dim:]

    Es = np.empty((n_fine + 1, dim, dim))
    hs = np.empty((n_fine + 1, dim))
    Es[-1] = 0.0
    hs[-1] = h_T
    for j in range(n_fine - 1, -1, -1):
        Es[j], hs[j] = riccati_step(Es[j + 1], Phi, hs[j + 1])

    Y = np.empty((n_fine + 1, 2 * dim))  # rows (x_k, q_k)
    Y[0, :dim] = x0_dev
    for j in range(n_fine):
        Y[j, dim:] = Es[j] @ Y[j, :dim] + hs[j]
        Y[j + 1, :dim] = Phi[:dim] @ Y[j]
    Y[-1, dim:] = h_T

    Cm = system.observation_factor()
    obs_stationary_gap = Cm @ stationary.w_bar.a - z  # C w_bar - z
    u_bar = stationary.u_bar
    j_dev_exact = float(np.einsum("ij,ij->", Y[:-1] @ W, Y[:-1]))
    int_y = L @ Y[:-1].sum(axis=0)
    int_a_dev = int_y[:dim][0::2] / lam
    j_full_exact = (j_dev_exact - 2.0 * float(u_bar @ (B.T @ int_y[dim:]))
                    + 2.0 * float(obs_stationary_gap @ (Cm @ int_a_dev))
                    + horizon * (float(u_bar @ u_bar)
                                 + float(obs_stationary_gap @ obs_stationary_gap)))
    mean_a = int_a_dev / horizon

    X = Y[::sub, :dim]
    q = Y[::sub, dim:]
    V = -(q @ B)
    values = np.einsum("ij,ijk,ik->i", X, Es[::sub], X)

    zeta_dev_T = X[-1][1::2]
    zeta_dev_0 = x0_dev[1::2]
    p_bar = stationary.p_bar.a
    value_cost = (float(x0_dev @ Es[0] @ x0_dev) + float(hs[0] @ x0_dev)
                  - float(p_bar @ zeta_dev_T) + 2.0 * float(p_bar @ zeta_dev_0)
                  + horizon * (float(u_bar @ u_bar) + float(obs_stationary_gap @ obs_stationary_gap)))

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


def tracking_os_residual(sol: TrackingSolution) -> float:
    """Defect of the recorded grid against the exact optimality system.

    An independent matrix exponential of the Hamiltonian matrix over the record
    step checks (x_{k+1}, q_{k+1}) = e^{M dt} (x_k, q_k) on every grid step;
    also checked are v_k = -B^T q_k at every grid point and the boundary
    values x_0 = x0 - lift(w_bar) and q_N = h_T.  Each defect is relative to
    1 plus the largest entry of the quantity it checks; the worst is returned.
    """
    system = sol.system
    A, B, Q = first_order_matrices(system)
    dim = A.shape[0]
    X, q, V = sol.deviation_states, sol.deviation_adjoints, sol.deviation_controls
    dt = sol.horizon / (sol.times.size - 1)
    Phi = scipy.linalg.expm(hamiltonian_matrix(A, B, Q) * dt)
    Y = np.hstack([X, q])
    D = Y[1:] - Y[:-1] @ Phi.T
    x0_dev = sol.x0 - _lift_position(system, sol.stationary.w_bar.a)
    h_T = _terminal_feedforward(system, sol.stationary)

    def rel(defect, ref):
        return float(np.abs(defect).max()) / (1.0 + np.abs(ref).max())

    return max(rel(D[:, :dim], X), rel(D[:, dim:], q), rel(V + q @ B, V),
               rel(X[0] - x0_dev, x0_dev), rel(q[-1] - h_T, h_T))


def solve_tracking_collocation(system: SpectralSystem, z, x0, horizon: float,
                               n_steps: int = 2000,
                               stationary: StationarySolution | None = None):
    """Dense direct solve of the deviation two-point boundary value problem.

    Discretizes the joint Hamiltonian system for (x, q) with one-step Pade(2,2)
    collocation (Hermite-Simpson on this linear system) on a uniform grid and
    solves the resulting sparse block system.  Independent oracle for
    solve_tracking.  Returns (times, x_dev, v, deviation_cost).
    """
    z = np.asarray(z, dtype=float)
    if stationary is None:
        stationary = solve_stationary(system, z)
    A, B, Q = first_order_matrices(system)
    dim = 2 * system.n_modes
    x0_dev = as_energy_vector(x0) - _lift_position(system, stationary.w_bar.a)
    h_T = _terminal_feedforward(system, stationary)
    M = hamiltonian_matrix(A, B, Q)

    h = horizon / n_steps
    I = np.eye(2 * dim)
    M2 = M @ M
    left = I - 0.5 * h * M + (h * h / 12.0) * M2
    right = I + 0.5 * h * M + (h * h / 12.0) * M2
    P = scipy.linalg.solve(left, right)

    d = 2 * dim
    n_nodes = n_steps + 1
    rows = scipy.sparse.lil_matrix((d * n_nodes, d * n_nodes))
    rhs = np.zeros(d * n_nodes)
    for k in range(n_steps):
        r0 = k * d
        rows[r0:r0 + d, r0:r0 + d] = -P
        rows[r0:r0 + d, r0 + d:r0 + 2 * d] = np.eye(d)
    r0 = n_steps * d
    # boundary rows: x(0) fixed, q(T) fixed
    for i in range(dim):
        rows[r0 + i, i] = 1.0
        rhs[r0 + i] = x0_dev[i]
    for i in range(dim):
        rows[r0 + dim + i, (n_nodes - 1) * d + dim + i] = 1.0
        rhs[r0 + dim + i] = h_T[i]
    Y = scipy.sparse.linalg.spsolve(rows.tocsr(), rhs).reshape(n_nodes, d)

    times = np.linspace(0.0, horizon, n_nodes)
    x_dev = Y[:, :dim]
    q = Y[:, dim:]
    v = -(q @ B)
    lam = system.lambdas
    Cm = system.observation_factor()
    obs = (x_dev[:, 0::2] / lam) @ Cm.T
    integrand = np.einsum("ij,ij->i", v, v) + np.einsum("ij,ij->i", obs, obs)
    cost = float(scipy.integrate.simpson(integrand, x=times))
    return times, x_dev, v, cost


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
                     ktilde: float = 1.0, rho: float | None = None,
                     eta: float | None = None) -> TurnpikeReport:
    """Averaged turnpike quantities per horizon, from each run's exact integrals.

    avg_tracking(T) = (1/T) int (||C (w - w_bar)||^2 + ||u - u_bar||^2) dt and
    avg_state_gap(T) = || (1/T) int (w - w_bar) dt ||^2 in the X_{1/2} norm,
    read from ``deviation_cost_exact`` and ``mean_deviation_a``.
    The bound proxy evaluates g1(T)/T * ||(w0 - w_bar, w1)||^2_{D(A^k)} +
    g2(T)/T * ||p_bar||^2_{X_{(ktilde+1)/2}} with unit constants (shape
    reference only; weights default to 1 when no exponent is planted).
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

    rho_eff = rho if rho is not None else (system.rho if system.rho is not None else np.inf)
    eta_eff = eta if eta is not None else (system.eta if system.eta is not None else np.inf)

    x0_dev0 = runs[0].deviation_states[0]
    w_class = float(np.sum(lam ** (2.0 * k) * (x0_dev0[0::2] ** 2 + x0_dev0[1::2] ** 2)))
    p_bar = stationary.p_bar.a
    p_class = float(np.sum(lam ** (2.0 * (ktilde + 1.0)) * p_bar**2))

    for i, run in enumerate(runs):
        T = run.horizon
        avg_track[i] = run.deviation_cost_exact / T
        avg_gap[i] = float(np.sum(lam**2 * run.mean_deviation_a**2))
        g1 = 1.0 if np.isinf(rho_eff) else g_weight(T, k, rho_eff)
        g2 = 1.0 if np.isinf(eta_eff) else g_weight(T, ktilde, eta_eff)
        bounds[i] = g1 / T * w_class + g2 / T * p_class

    return TurnpikeReport(horizons=horizons, avg_tracking=avg_track,
                          avg_state_gap=avg_gap, bound_values=bounds,
                          k_used=float(k), ktilde_used=float(ktilde))
