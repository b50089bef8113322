"""Test oracle for ``wavelq.turnpike.solve_tracking``: a dense collocation solve.

It shares no stepping code with the library: only the system matrices, the
stationary problem and the boundary data of the deviation system come from
``wavelq``.
"""

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from wavelq.models import SpectralSystem
from wavelq.riccati import first_order_matrices, hamiltonian_matrix
from wavelq.spectral import as_energy_vector
from wavelq.turnpike import _lift_position, _terminal_feedforward, solve_stationary


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
    Cm = system.observation_factor()
    obs = (x_dev[:, 0::2] / lam) @ Cm.T
    integrand = np.einsum("ij,ij->i", v, v) + np.einsum("ij,ij->i", obs, obs)
    cost = float(scipy.integrate.simpson(integrand, x=times))
    return times, x_dev, v, cost
