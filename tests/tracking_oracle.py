"""Test oracles for ``wavelq.turnpike.solve_tracking`` and ``solve_stationary``.

``solve_tracking_collocation`` is a dense collocation solve; it shares no
stepping code with the library: only the system matrices, the stationary
problem and the boundary data of the deviation system come from ``wavelq``.
``solve_tracking_sweep`` is the monolithic Riccati feedback + feedforward
sweep (Davison-Maki 1973) over the whole state space, with no ARE and no
block split.  ``solve_stationary_dense`` is the stationary problem solved on
the dense ``B_mod`` and observation factor ``psd_sqrt(Q_obs)``.
"""

from types import SimpleNamespace

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from wavelq.models import SpectralSystem, psd_sqrt
from wavelq.riccati import first_order_matrices, hamiltonian_matrix, step_map
from wavelq.spectral import as_energy_vector
from wavelq.turnpike import _lift_position, _terminal_feedforward, solve_stationary


def solve_stationary_dense(system: SpectralSystem, z):
    """The stationary optimum on the whole system: (u_bar, a_bar, p_bar, ||C a_bar - z||^2).

    With G = C A^-1 B the optimal control solves (I + G^T G) u = G^T z; the
    adjoint satisfies A p = C*(C w - z).
    """
    z = np.asarray(z, dtype=float)
    lam2 = system.lambdas**2
    Cm = psd_sqrt(system.Q_obs)
    G = Cm @ (system.B_mod / lam2[:, None])
    u = np.linalg.solve(np.eye(G.shape[1]) + G.T @ G, G.T @ z)
    a_bar = (system.B_mod @ u) / lam2
    obs_gap = Cm @ a_bar - z
    return u, a_bar, (Cm.T @ obs_gap) / lam2, float(obs_gap @ obs_gap)


def solve_tracking_collocation(system: SpectralSystem, z, x0, horizon: float,
                               n_steps: int = 2000, stationary=None):
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
    Cm = psd_sqrt(system.Q_obs)
    obs = (x_dev[:, 0::2] / lam) @ Cm.T
    integrand = np.einsum("ij,ij->i", v, v) + np.einsum("ij,ij->i", obs, obs)
    cost = float(scipy.integrate.simpson(integrand, x=times))
    return times, x_dev, v, cost


def _feedforward_step(E, Phi, h):
    """Carry ``q = E x + h`` one step back across the step map Phi.

    With S = Phi22 - E Phi12: E <- S^{-1} (E Phi11 - Phi21) and h <- S^{-1} h.
    """
    d = E.shape[0]
    S = Phi[d:, d:] - E @ Phi[:d, d:]
    sol = np.linalg.solve(S, np.column_stack([E @ Phi[:d, :d] - Phi[d:, :d], h]))
    E = sol[:, :d]
    return 0.5 * (E + E.T), sol[:, d]


def solve_tracking_sweep(system: SpectralSystem, z, x0, horizon: float, stationary=None,
                         dt_record=None):
    """Monolithic Riccati sweep of the deviation tracking problem, on the solver's grid.

    Backward: from E = 0 and the lifted stationary adjoint h_T at t = T, each
    fine step carries (E, h) back through the Hamiltonian step map, storing
    every step.  Forward: x_{k+1} = Phi11 x_k + Phi12 q_k with q_k = E_k x_k + h_k.
    Costs and mean positions are sums of the step's Van Loan integrals.
    Returns the fields of ``TrackingSolution`` that the solvers share.
    """
    z = np.asarray(z, dtype=float)
    if stationary is None:
        stationary = solve_stationary(system, z)
    lam = system.lambdas
    dim = 2 * lam.size
    A, B, Q = first_order_matrices(system)
    x0_dev = as_energy_vector(x0) - _lift_position(system, stationary.w_bar.a)
    h_T = _terminal_feedforward(system, stationary)

    if dt_record is None:
        dt_record = min(0.02, np.pi / (8.0 * lam.max()))
    steps = max(2, int(np.ceil(horizon / dt_record)))
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
        Es[j], hs[j] = _feedforward_step(Es[j + 1], Phi, hs[j + 1])

    Y = np.empty((n_fine + 1, 2 * dim))  # rows (x_k, q_k)
    Y[0, :dim] = x0_dev
    for j in range(n_fine):
        Y[j, dim:] = Es[j] @ Y[j, :dim] + hs[j]
        Y[j + 1, :dim] = Phi[:dim] @ Y[j]
    Y[-1, dim:] = h_T

    Cm = psd_sqrt(system.Q_obs)
    obs_gap = Cm @ stationary.w_bar.a - z
    u_bar = stationary.u_bar
    j_dev = float(np.einsum("ij,ij->", Y[:-1] @ W, Y[:-1]))
    int_y = L @ Y[:-1].sum(axis=0)
    int_a_dev = int_y[:dim][0::2] / lam
    stationary_rate = float(u_bar @ u_bar) + float(obs_gap @ obs_gap)
    X = Y[::sub, :dim]
    q = Y[::sub, dim:]
    p_bar = stationary.p_bar.a
    return SimpleNamespace(
        times=np.linspace(0.0, horizon, steps + 1), deviation_states=X, deviation_adjoints=q,
        deviation_controls=-(q @ B), values=np.einsum("ij,ijk,ik->i", X, Es[::sub], X),
        deviation_cost_exact=j_dev, mean_deviation_a=int_a_dev / horizon,
        cost_quadrature=(j_dev - 2.0 * float(u_bar @ (B.T @ int_y[dim:]))
                         + 2.0 * float(obs_gap @ (Cm @ int_a_dev)) + horizon * stationary_rate),
        value_formula_cost=(float(x0_dev @ Es[0] @ x0_dev) + float(hs[0] @ x0_dev)
                            - float(p_bar @ X[-1][1::2]) + 2.0 * float(p_bar @ x0_dev[1::2])
                            + horizon * stationary_rate))
