"""Stationary problem, finite-horizon tracking, and averaged turnpike metrics.

The tracking cost is ``int_0^T (||u||^2 + ||C w - z||^2) dt``.  Targets z live
in the observation space realized through the symmetric factor
``C = (C*C)**(1/2)`` acting on position coefficients, so z is a plain
coefficient vector of length n_modes.  C is block diagonal over the system's
records; nothing here forms it, the dense control map or a whole-system matrix.

The finite-horizon optimality system is solved in deviation variables
(state minus stationary state) through the Riccati dichotomy (Porretta-Zuazua
2013; Trelat-Zuazua 2015): with the ARE solution P, the adjoint split
y = q - P x runs backward and the state forward along two decoupled flows,
stable but for modes that neither control nor observation sees, each in
closed form from the closed-loop step and Gramian of ``riccati.step_map``,
exact at any step length, so the record grid is the only grid.  The solve
reads the system's block records, stacks blocks of equal size
(``riccati.stack_matrices``, ``RiccatiSolution.on``: no dense A, Q or P),
and walks the horizon in chunks of record steps, so it has no per-step
Python loop and stores nothing of size steps x d^2.  Its stacks of steps are
held blocks-first, (blocks, steps, s, s): a product whose factor all of a
chunk's steps share is one GEMM or GEMV per block over the steps' stacked
rows, not one BLAS call per step.
The averaged turnpike metrics need only a horizon's integrals, taken in
closed form from the boundary values of the dichotomy (``_dichotomy``): the
deviation cost from x^T q at both ends, the mean position from one solve with
the Hamiltonian matrix.  ``tracking_integrals`` gives them with no sweep, and
a sweep reads the same values, so both give the same bits.  The sweep's Van
Loan sum of the cost weight is the independent check of that closed form.
The tests hold two independent oracles: a dense collocation solve of the
same two-point boundary value problem, and the monolithic Riccati feedback +
feedforward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_loop import Trajectory
from .models import SpectralSystem, psd_sqrt, stacked_blocks
from .riccati import (RiccatiSolution, binary_power, hamiltonian_matrix, solve_are,
                      stack_matrices, step_map)
from .spectral import DimensionError, DomainError, require_positive


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
    """Optimal stationary triple (w_bar, u_bar, p_bar) for the target z, and ||C w_bar - z||^2.

    A stationary state is at rest, so ``w_bar`` and the adjoint ``p_bar`` are
    position coefficients alone, one per mode.
    """

    z: np.ndarray
    w_bar: np.ndarray
    u_bar: np.ndarray
    p_bar: np.ndarray
    optimality_residual: float
    obs_gap_sq: float


def solve_stationary(system: SpectralSystem, z) -> StationarySolution:
    """Solve min_u ||u||^2 + ||C w - z||^2 subject to A w = B u.

    With G = C A^-1 B the optimal control solves (I + G^T G) u = G^T z; the
    adjoint satisfies A p = C*(C w - z) and u = -B* p.  G is block diagonal over
    the records: one batched solve per stack, with C = ``psd_sqrt`` of each
    record's Q and B zero-padded as in ``stack_matrices`` (padded controls get 0).
    """
    z = np.asarray(z, dtype=float)
    if z.size != system.n_modes:
        raise DimensionError("target z must have one entry per mode")
    lam = system.lambdas
    a_bar, p_bar, u = np.zeros(lam.size), np.zeros(lam.size), np.zeros(system.n_controls)
    sq = np.zeros(4)  # squared defects of A w = B u, A p = C*(C w - z), u = -B* p; ||C w - z||^2
    for stack in stacked_blocks(system.records):
        modes, _, (_, B, _) = stack_matrices(lam, stack)
        B, C, lam2 = B[:, 1::2], psd_sqrt(np.array([r.Q for r in stack])), lam[modes] ** 2
        G = C @ (B / lam2[..., None])
        ub = np.linalg.solve(np.eye(G.shape[-1]) + _mT(G) @ G, _mv(_mT(G), z[modes])[..., None])[..., 0]
        a = _mv(B, ub) / lam2
        gap = _mv(C, a) - z[modes]
        p = _mv(_mT(C), gap) / lam2
        a_bar[modes], p_bar[modes] = a, p
        for r, ur in zip(stack, ub):
            u[r.controls] = ur[:r.controls.size]
        sq += [np.sum((lam2 * a - _mv(B, ub)) ** 2), np.sum((lam2 * p - _mv(_mT(C), gap)) ** 2),
               np.sum((ub + _mv(_mT(B), p)) ** 2), np.sum(gap**2)]

    nu = np.linalg.norm(u)
    r1, r2, r3 = np.sqrt(sq[:3]) / (1.0 + np.array([nu, np.linalg.norm(z), nu]))
    return StationarySolution(z=z.copy(), w_bar=a_bar, u_bar=u, p_bar=p_bar,
                              optimality_residual=float(max(r1, r2, r3)), obs_gap_sq=float(sq[3]))


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
    h[1::2] = -stationary.p_bar
    return h


@dataclass
class TrackingIntegrals:
    """The averaged turnpike metrics' inputs: a tracking optimum's exact integrals over one horizon.

    ``x0`` is the initial state as given; the target is ``stationary.z``.
    """

    system: SpectralSystem
    stationary: StationarySolution
    x0: np.ndarray
    horizon: float
    deviation_cost_exact: float   # int (||v||^2 + ||C (w - w_bar)||^2) dt, exact
    mean_deviation_a: np.ndarray  # (1/T) int (a(t) - a_bar) dt, exact
    value_formula_cost: float     # Riccati + boundary-term expression of the cost


@dataclass
class TrackingSolution(TrackingIntegrals):
    """Finite-horizon tracking optimum, recorded on a uniform grid.

    ``deviation_states`` are x(t) = lift(w^T - w_bar, w_t^T) and
    ``deviation_adjoints`` the deviation adjoints q(t), from which the
    deviation control is v = u^T - u_bar = -B^T q; the OS residual reads the
    two.  ``trajectory`` holds the recorded series of the full state/control
    pair for export (neither the full states nor the controls are kept).
    The inherited integrals are those of ``tracking_integrals``;
    ``cost_quadrature`` is the record steps' Van Loan sum of the deviation cost
    plus the boundary terms of ``value_formula_cost``, an independent check.
    """

    times: np.ndarray
    deviation_states: np.ndarray
    deviation_adjoints: np.ndarray
    trajectory: Trajectory
    cost_quadrature: float        # int (||u||^2 + ||C w - z||^2) dt, exact


def _prepare(system: SpectralSystem, z, x0, stationary, are):
    """The checked x0, the stationary and ARE solutions, the deviation x0 and the terminal adjoint h_T.

    A ``z`` or ``x0`` of the wrong size raises DimensionError, a ``stationary``
    solved for another target DomainError.
    """
    z = np.asarray(z, dtype=float)
    if z.size != system.n_modes:
        raise DimensionError("target z must have one entry per mode")
    if stationary is None:
        stationary = solve_stationary(system, z)
    elif not np.array_equal(stationary.z, z):
        raise DomainError("the stationary solution was solved for another target")
    x0 = np.asarray(x0, dtype=float)
    if x0.size != 2 * system.n_modes:
        raise DimensionError("initial state dimension mismatch")
    are = solve_are(system) if are is None else are
    x0_dev = x0 - _lift_position(system, stationary.w_bar)
    return x0, stationary, are, x0_dev, _terminal_feedforward(system, stationary)


def _grid(lam: np.ndarray, horizon: float, dt_record: float | None) -> int:
    """Equal record steps over the horizon, of at most ``dt_record``: the only steps tracking takes."""
    require_positive(horizon=horizon, dt_record=dt_record)
    if dt_record is None:
        dt_record = min(0.02, np.pi / (8.0 * lam.max()))
    return max(2, int(np.ceil(horizon / dt_record)))


def _closed_form(system, stationary, x0, x0_dev, h_T, horizon, x_N, q_0, int_x):
    """One horizon's ``TrackingIntegrals`` from its deviation boundary values and int_0^T x dt.

    The full cost is the Riccati + boundary-term expression: x_0^T q_0, the
    stationary adjoint's boundary terms, and T times the stationary cost rate.
    """
    p_bar, u_bar = stationary.p_bar, stationary.u_bar
    rate = float(u_bar @ u_bar) + stationary.obs_gap_sq
    return TrackingIntegrals(system=system, stationary=stationary, x0=x0, horizon=float(horizon),
                             deviation_cost_exact=float(x0_dev @ q_0) - float(x_N @ h_T),
                             mean_deviation_a=int_x[0::2] / system.lambdas / horizon,
                             value_formula_cost=(float(x0_dev @ q_0) - float(p_bar @ x_N[1::2])
                                                 + 2.0 * float(p_bar @ x0_dev[1::2])
                                                 + horizon * rate))


def tracking_integrals(system: SpectralSystem, z, x0, horizons,
                       stationary: StationarySolution | None = None,
                       dt_record: float | None = None,
                       are: RiccatiSolution | None = None) -> list[TrackingIntegrals]:
    """The averaged-metric integrals of the tracking optimum at each horizon, from its boundary values.

    Per stack and horizon, ``_dichotomy`` over ``solve_tracking``'s record
    steps gives x_N, q_0 and int_0^T x dt; nothing is swept or recorded.
    These are the bits of a sweep's ``deviation_cost_exact``, ``mean_deviation_a`` and
    ``value_formula_cost`` at the same horizon.
    """
    lam = system.lambdas
    grids = [_grid(lam, T, dt_record) for T in horizons]
    x0, stationary, are, x0_dev, h_T = _prepare(system, z, x0, stationary, are)
    ends = np.zeros((len(grids), 3, 2 * lam.size))  # x_N, q_0 and int x dt per horizon
    for stack in stacked_blocks(system.records):
        modes, e, matrices = stack_matrices(lam, stack)
        P = are.on(modes)
        for end, T, steps in zip(ends, horizons, grids):
            end[:, e] = _dichotomy(matrices, P, x0_dev[e], h_T[e], T / steps, steps)[2]
    return [_closed_form(system, stationary, x0, x0_dev, h_T, T, *end)
            for T, end in zip(horizons, ends)]


def solve_tracking(system: SpectralSystem, z, x0, horizon: float,
                   stationary: StationarySolution | None = None,
                   dt_record: float | None = None,
                   are: RiccatiSolution | None = None) -> TrackingSolution:
    """Solve the finite-horizon tracking problem through the Riccati dichotomy.

    With the ARE solution P (``are``, else ``solve_are``; stabilizing when
    such a solution exists) and A_cl = A - B B^T P, the split y = q - P x gives
    y' = -A_cl^T y and x' = A_cl x - B B^T y.  Over j record steps of length h:
    y_{k-j} = F_j^T y_k and x_{k+j} = F_j x_k - G_j y_{k+j}, with
    F_j = e^{A_cl j h} and the closed-loop Gramian
    G_j = int_0^{jh} e^{A_cl s} B B^T e^{A_cl^T s} ds; the end condition
    q_N = h_T gives (I - P G_N) y_N = h_T - P F_N x_0.

    These steps are exact at any length, so the record step h = T/N is the
    only one taken.  Per stack, ``_dichotomy`` gives the step
    (F_1, G_1), y_N and the boundary values, from which the run's
    ``deviation_cost_exact``, ``mean_deviation_a`` and ``value_formula_cost``
    are those of ``tracking_integrals``, bit for bit; ``_track_stack`` walks
    the horizon from (F_1, G_1) and y_N to record the states, adjoints and
    the ``value`` column x^T E(T - t) x, and sums the cost weight's Van Loan
    integrals into ``cost_quadrature``.  An ``are`` off the system's blocks,
    or a ``z`` without one entry per mode, raises DimensionError; a
    ``stationary`` solved for another target, DomainError.
    """
    lam = system.lambdas
    steps = _grid(lam, horizon, dt_record)
    x0, stationary, are, x0_dev, h_T = _prepare(system, z, x0, stationary, are)
    dim = 2 * lam.size
    x_bar_lift = _lift_position(system, stationary.w_bar)
    p_lift = _lift_position(system, stationary.p_bar)
    times = np.linspace(0.0, horizon, steps + 1)

    X, q = np.empty((2, steps + 1, dim))  # deviation states and adjoints
    values = np.zeros(steps + 1)
    ends = np.zeros((3, dim))  # x_N, q_0 and int x dt
    control_power = np.zeros(steps + 1)
    obs_power = np.full(steps + 1, stationary.obs_gap_sq)
    j_dev = 0.0
    h = horizon / steps
    for stack in stacked_blocks(system.records):
        modes, e, (A, B, Q) = stack_matrices(lam, stack)
        P = are.on(modes)
        one, y_N, ends[:, e] = _dichotomy((A, B, Q), P, x0_dev[e], h_T[e], h, steps)
        j_dev += _track_stack((A, B, Q), P, e, x0_dev[e], one, y_N, h, X, q, values)
        # u_bar = -B^T p_bar and C^T (C w_bar - z) = lambda^2 p_bar, so the control is
        # -B^T (q - h_T) and ||C w - z||^2 = x^T Q x + 2 lift(p_bar) x + ||C w_bar - z||^2
        xs = np.swapaxes(X[:, e], 0, 1)
        us = (np.swapaxes(q[:, e], 0, 1) - h_T[e][:, None]) @ B
        control_power += np.einsum("btc,btc->t", us, us)
        obs_power += np.einsum("bti,bti->t", xs @ Q + 2.0 * p_lift[e][:, None], xs)
    closed = _closed_form(system, stationary, x0, x0_dev, h_T, horizon, *ends)

    full = X + x_bar_lift
    traj = Trajectory(times=times, energies=np.einsum("ij,ij->i", full, full), kind="tracking",
                      values=values, control_power=control_power, obs_power=obs_power)
    return TrackingSolution(**vars(closed), times=times, deviation_states=X,
                            deviation_adjoints=q, trajectory=traj,
                            cost_quadrature=j_dev + (closed.value_formula_cost
                                                     - closed.deviation_cost_exact))


# numbers in one (blocks, steps, s, s) stack of a chunk of the tracking sweep
_STACK_ELEMENTS = 1 << 16


def _mT(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products M v."""
    return (M @ v[..., None])[..., 0]


def _rows(S: np.ndarray, R: np.ndarray) -> np.ndarray:
    """S_j R for every slab S_j of a blocks-first stack (blocks, n, s, t) and its block's R.

    R is (blocks, t, u), or (blocks, t) for products with a vector; each
    block's slabs are one matrix of n s stacked rows, so this is one GEMM (or
    GEMV) per block.
    """
    nb, n, s, t = S.shape
    if R.ndim == 2:
        return (S.reshape(nb, n * s, t) @ R[..., None]).reshape(nb, n, s)
    return (S.reshape(nb, n * s, t) @ R).reshape(nb, n, s, R.shape[-1])


def _congruence(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """F G_j F^T for every symmetric slab G_j of a blocks-first stack: two GEMMs per block.

    The slabs of the first product are G_j F^T = (F G_j)^T.
    """
    return _rows(_mT(_rows(G, _mT(F))), _mT(F))


def _compose(first, second):
    """The pair (F, G) over s + t from the pairs over s and over t (stacks broadcast)."""
    (F1, G1), (F2, G2) = first, second
    return F1 @ F2, G1 + F1 @ G2 @ _mT(F1)


def _powers(pair, m: int):
    """Stacks of the pairs (F_j, G_j) over j = 0..m steps, each blocks-first (blocks, m + 1, s, s).

    A doubling round extends the stacks from k to k + n steps. The F_j are
    powers of F_1, so they commute, and the G_j are symmetric:
    F_{k+j} = F_j F_k and G_{k+j} = G_k + F_k G_j F_k^T, three GEMMs per
    block with F_k shared by the round's slabs.
    """
    F1, G1 = pair
    nb, s = F1.shape[:2]
    F = np.empty((nb, m + 1, s, s))
    G = np.empty_like(F)
    F[:, 0], G[:, 0], F[:, 1], G[:, 1] = np.eye(s), 0.0, F1, G1
    k = 1
    while k < m:
        n = min(k, m - k)
        F[:, k + 1:k + n + 1] = _rows(F[:, 1:n + 1], F[:, k])
        G[:, k + 1:k + n + 1] = G[:, k, None] + _congruence(F[:, k], G[:, 1:n + 1])
        k += n
    return F, G


def _dichotomy(matrices, P, x, h_e, h, steps):
    """A stack's step (F_1, G_1) of length h, y_N, and (x_N, q_0, int_0^T x dt) stacked.

    Over N = ``steps`` steps, y_N solves (I - P G_N) y_N = h_T - P F_N x_0 for
    the stack's x_0 ``x`` and h_T ``h_e``; then x_N = F_N x_0 - G_N y_N and
    q_0 = F_N^T y_N + P x_0.  With M the Hamiltonian matrix, invertible since
    A is, M int_0^T (x, q) dt = (x_N - x_0, h_T - q_0): one batched solve.
    Along the optimality system d/dt (x^T q) = -(||B^T q||^2 + x^T Q x), so
    the deviation cost is x_0^T q_0 - x_N^T h_T.
    """
    A, B, Q = matrices
    BBT = B @ _mT(B)
    FT, G1 = step_map(_mT(A - BBT @ P), h, cost=BBT)
    one = (_mT(FT), G1)
    F_N, G_N = binary_power(one, steps, _compose)
    rhs = (h_e - _mv(P, _mv(F_N, x)))[..., None]
    y_N = np.linalg.solve(np.eye(P.shape[-1]) - P @ G_N, rhs)[..., 0]
    x_N = _mv(F_N, x) - _mv(G_N, y_N)
    q_0 = _mv(_mT(F_N), y_N) + _mv(P, x)
    ends = np.concatenate([x_N - x, h_e - q_0], axis=-1)
    int_x = np.linalg.solve(hamiltonian_matrix(A, B, Q), ends[..., None])[:, :x.shape[-1], 0]
    return one, y_N, np.stack([x_N, q_0, int_x])


def _track_stack(matrices, P, e, x, one, y_end, h, X, q, values) -> float:
    """Walk the tracking dichotomy on one stack of equal-sized blocks.

    ``matrices``, ``P`` and ``e`` are the stack's (A, B, Q), ARE solutions and
    energy positions, ``x`` its deviation x_0, and ``one`` and ``y_end`` its
    record step (F_1, G_1) of length h and y_N from ``_dichotomy``.  Fills
    their columns of the recorded states X and adjoints q, adds their share to
    ``values``, and returns sum_j Y_j^T W Y_j over the steps' (x, q) with W
    the Van Loan integral of the cost weight diag(Q, B B^T): their deviation
    cost by quadrature.  Every stack of steps is blocks-first, so each
    product with a factor shared by a chunk's steps is one GEMM or GEMV per
    block over the steps' stacked rows.
    """
    A, B, Q = matrices
    PT = _mT(P)
    nb, s = e.shape
    steps = X.shape[0] - 1
    m = min(steps, max(1, _STACK_ELEMENTS // (nb * s * s)))
    F, G = _powers(one, m)
    FT = np.ascontiguousarray(_mT(F))

    cost = np.zeros((nb, 2 * s, 2 * s))
    cost[:, :s, :s], cost[:, s:, s:] = Q, B @ _mT(B)
    W = step_map(hamiltonian_matrix(A, B, Q), h, cost=cost)[1]
    eye = np.eye(s)

    starts = range(0, steps, m)
    y_at = [y_end]  # y at the chunk ends, last chunk first
    for a in reversed(starts[1:]):
        y_at.append(_mv(FT[:, min(m, steps - a)], y_at[-1]))

    j_dev = 0.0
    for a, y_b in zip(starts, reversed(y_at)):
        n = min(m, steps - a)
        ys = _rows(FT[:, :n + 1], y_b)[:, ::-1]      # y_{a+i} = F_{n-i}^T y_{a+n}
        xs = np.empty_like(ys)
        xs[:, 0] = x
        xs[:, 1:] = _rows(F[:, 1:n + 1], x) - _mv(G[:, 1:n + 1], ys[:, 1:])
        qs = ys + xs @ PT
        Y = np.concatenate([xs[:, :-1], qs[:, :-1]], axis=-1)
        j_dev += float(np.sum(W * (_mT(Y) @ Y)))  # sum_j Y_j^T W Y_j
        X[a:a + n, e], q[a:a + n, e] = np.swapaxes(xs[:, :-1], 0, 1), np.swapaxes(qs[:, :-1], 0, 1)
        x = xs[:, -1]
    X[-1, e], q[-1, e] = x, y_end + _mv(P, x)

    # values x^T E(tau) x, chunk by chunk backward.  The dichotomy gives
    # w = F_tau x = x_N + G_tau y_N (x and y_end are x_N and y_N now), and
    # x^T F_tau^T (I - P G_tau)^-1 P F_tau x = (P w)^T (I - G_tau P)^-1 w.  (F_p, G_p)
    # spans the time to go at the chunk's end, composed on the outside:
    # G_tau = G_p + F_p G_j F_p^T.
    F_p, G_p = eye, np.zeros((nb, s, s))
    for a in reversed(starts):
        n = min(m, steps - a)
        G_tau = G[:, n:0:-1]
        if a + n < steps:
            G_tau = G_p[:, None] + _congruence(F_p, G_tau)
        w = x[:, None] + _rows(G_tau, y_end)
        xi = np.linalg.solve(eye - _rows(G_tau, P), w[..., None])[..., 0]
        xr = np.swapaxes(X[a:a + n, e], 0, 1)
        values[a:a + n] += np.sum(xr * (xr @ PT) - (w @ PT) * xi, axis=(0, 2))
        F_p, G_p = _compose((F_p, G_p), (F[:, n], G[:, n]))
    return j_dev


# multiply-adds of a product that OpenBLAS runs on the calling thread; a larger
# one wakes its worker thread, which then spins on another core for about 0.1 s
_SERIAL_PRODUCT = 1 << 18


def tracking_os_residual(sol: TrackingSolution) -> float:
    """Defect of the recorded grid against the exact optimality system.

    Per stack of equal-sized blocks, an independent matrix exponential of its
    Hamiltonian matrix over the record step checks (x_{k+1}, q_{k+1}) =
    e^{M dt} (x_k, q_k) on every grid step of its columns; also checked are
    the boundary values x_0 = x0 - lift(w_bar) and q_N = h_T.  Each defect is
    relative to 1 plus the largest entry of the quantity it checks; the worst is returned.
    Each stack's grid is stepped in row bands of at most ``_SERIAL_PRODUCT``
    multiply-adds, so no BLAS worker thread is left spinning after the call.
    """
    system = sol.system
    X, q = sol.deviation_states, sol.deviation_adjoints
    dt = sol.horizon / (sol.times.size - 1)
    dx = dq = 0.0
    for stack in stacked_blocks(system.records):
        _, e, matrices = stack_matrices(system.lambdas, stack)
        PhiT = _mT(step_map(hamiltonian_matrix(*matrices), dt)[0])
        rows = max(1, _SERIAL_PRODUCT // PhiT.size)
        for a in range(0, X.shape[0] - 1, rows):
            band = slice(a, a + rows + 1)
            Y = np.swapaxes(np.concatenate([X[band, e], q[band, e]], axis=-1), 0, 1)
            D = np.abs(Y[:, 1:] - Y[:, :-1] @ PhiT)
            dx, dq = max(dx, D[..., :e.shape[1]].max()), max(dq, D[..., e.shape[1]:].max())
    x0_dev = sol.x0 - _lift_position(system, sol.stationary.w_bar)
    h_T = _terminal_feedforward(system, sol.stationary)

    def rel(defect, ref):
        return float(np.abs(defect).max()) / (1.0 + np.abs(ref).max())

    return max(rel(dx, X), rel(dq, q), rel(X[0] - x0_dev, x0_dev), rel(q[-1] - h_T, h_T))


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

    ``runs`` are ``TrackingIntegrals`` (from ``tracking_integrals``, or the
    ``TrackingSolution`` of a sweep) on increasing horizons.
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
    for r in runs:
        if (r.system is not system or not np.array_equal(r.stationary.z, stationary.z)
                or not np.array_equal(r.x0, runs[0].x0)):
            raise DomainError("all runs must share the system, the stationary target and the "
                              "initial state")

    avg_track, avg_gap, bounds = np.empty((3, horizons.size))

    rho = system.rho if system.rho is not None else np.inf
    eta = system.eta if system.eta is not None else np.inf

    x0_dev0 = runs[0].x0 - _lift_position(system, stationary.w_bar)
    w_class = float(np.sum(lam ** (2.0 * k) * (x0_dev0[0::2] ** 2 + x0_dev0[1::2] ** 2)))
    p_class = float(np.sum(lam ** (2.0 * (ktilde + 1.0)) * stationary.p_bar**2))

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
