"""Differential and algebraic Riccati solvers for the first-order wave system.

Everything is expressed in energy coordinates, interleaved per mode as
``(xi_1, zeta_1, xi_2, zeta_2, ...)``.  There the generator is skew-symmetric
block diagonal with per-mode blocks ``[[0, lambda], [-lambda, 0]]``, dual
pairings are plain transposes, and the matrix Riccati equation

    E' = Q + E A + A^T E - E B B^T E,   E(0) = 0

is solved in the time-to-go variable.  The quadratic form of a solution at
an initial state is the optimal cost of ``int (||u||^2 + ||C w||^2) dt``.

Every finite-horizon solver shares one exact kernel, ``step_map``: the step
transition ``e^{M h}`` of the Hamiltonian matrix ``M = [[A, -B B^T], [-Q, -A^T]]``
of the state/adjoint pair or of any other LTI generator, with the Van Loan
integral of a quadratic cost over the step (Van Loan 1978).  It is the
library's only block-exponential construction: closed loops and tracking
costs read their exact integrals from it.  The Riccati flow is swept step by
step through the blocks of ``e^{M h}`` (Davison-Maki 1973), so no ODE
integrator is involved and each step is exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import SpectralSystem
from .spectral import DimensionError, DomainError, as_energy_vector


class StabilizabilityError(RuntimeError):
    """A costly mode is uncontrollable: no finite value function exists."""


class MethodError(RuntimeError):
    """A solver failed to converge; try the alternative method."""


@dataclass
class RiccatiSolution:
    """Symmetric PSD quadratic form on the truncated state space.

    ``horizon`` is the time-to-go of a DRE snapshot, or ``inf`` for a solution
    of the algebraic equation.  ``residual`` is the ARE residual norm (zero by
    convention for DRE snapshots).
    """

    E: np.ndarray
    horizon: float
    residual: float
    method: str

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)
        nrm = np.abs(self.E).max() if self.E.size else 0.0
        if np.abs(self.E - self.E.T).max() > 1e-10 * (1.0 + nrm):
            raise DomainError("Riccati solution must be symmetric")

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    def min_eigenvalue(self) -> float:
        return float(scipy.linalg.eigh(self.E, eigvals_only=True, subset_by_index=[0, 0])[0])


def first_order_matrices(system: SpectralSystem):
    """(A_mat, B_mat, Q_mat) of the first-order system in energy coordinates.

    A_mat is skew block diagonal, B_mat stacks zeros over B_mod row-wise per
    mode, and Q_mat carries Q_obs conjugated by diag(1/lambda) on the xi block
    (positions are a = xi/lambda).
    """
    lam = system.lambdas
    n = lam.size
    A = np.zeros((2 * n, 2 * n))
    ix = np.arange(0, 2 * n, 2)
    A[ix, ix + 1] = lam
    A[ix + 1, ix] = -lam

    B = np.zeros((2 * n, system.n_controls))
    B[1::2, :] = system.B_mod

    Q = np.zeros((2 * n, 2 * n))
    Q[np.ix_(ix, ix)] = system.observation_energy_form()
    Q = 0.5 * (Q + Q.T)
    return A, B, Q


def _e_times_a(E: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """E @ A_mat using the per-mode rotation structure (O(n^2))."""
    out = np.empty_like(E)
    out[:, 0::2] = -E[:, 1::2] * lam
    out[:, 1::2] = E[:, 0::2] * lam
    return out


def _riccati_rhs(E: np.ndarray, lam: np.ndarray, B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    EA = _e_times_a(E, lam)
    EB = E @ B
    return Q + EA + EA.T - EB @ EB.T


def hamiltonian_matrix(A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """M = [[A, -B B^T], [-Q, -A^T]], the generator of the state/adjoint pair.

    Along an optimal trajectory (x, q)' = M (x, q) with control u = -B^T q, and
    q = E x + h with E the Riccati flow in the time-to-go.
    """
    d = A.shape[0]
    M = np.empty((2 * d, 2 * d))
    M[:d, :d] = A
    M[:d, d:] = -B @ B.T
    M[d:, :d] = -Q
    M[d:, d:] = -A.T
    return M


def step_map(M: np.ndarray, h: float, cost: np.ndarray | None = None):
    """Exact step of y' = M y over a step h, from one block matrix exponential.

    Returns ``(Phi, W)`` with ``Phi = e^{M h}``.  Given a symmetric cost weight
    G, also ``W = int_0^h e^{M^T s} G e^{M s} ds`` (Van Loan 1978), read off
    ``e^{Z h}`` with ``Z = [[-M^T, G], [0, M]]``, so a step from y costs
    ``y^T W y``; without a weight W is None.  Stepping ``[[M, I], [0, 0]]``
    instead puts ``int_0^h e^{M s} ds`` in the top right block of its Phi.
    """
    if cost is None:
        return scipy.linalg.expm(M * h), None
    n = M.shape[0]
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, :n] = -M.T
    Z[:n, n:] = cost
    Z[n:, n:] = M
    F = scipy.linalg.expm(Z * h)
    Phi = F[n:, n:]
    return Phi, Phi.T @ F[:n, n:]


def riccati_step(E: np.ndarray, Phi: np.ndarray, h: np.ndarray | None = None):
    """Carry ``q = E x + h`` one step back across the step map Phi.

    With S = Phi22 - E Phi12: E <- S^{-1} (E Phi11 - Phi21) and h <- S^{-1} h.
    Returns the new E (symmetrized), and the new h when one is given.
    """
    d = E.shape[0]
    S = Phi[d:, d:] - E @ Phi[:d, d:]
    rhs = E @ Phi[:d, :d] - Phi[d:, :d]
    if h is None:
        E = np.linalg.solve(S, rhs)
        return 0.5 * (E + E.T)
    sol = np.linalg.solve(S, np.column_stack([rhs, h]))
    E = sol[:, :d]
    return 0.5 * (E + E.T), sol[:, d]


def _sweep(E: np.ndarray, M: np.ndarray, duration: float, max_step: float) -> np.ndarray:
    """Advance the Riccati flow by ``duration`` in equal steps of at most max_step."""
    steps = max(1, int(np.ceil(duration / max_step)))
    Phi, _ = step_map(M, duration / steps)
    for _ in range(steps):
        E = riccati_step(E, Phi)
    return E


def integrate_dre(system: SpectralSystem, horizon: float, snapshot_times=None):
    """Solve the matrix Riccati equation forward in time-to-go from E(0) = 0.

    Returns one RiccatiSolution per requested snapshot (default: the horizon
    only).  The flow is swept with the exact Hamiltonian step map, in equal
    steps of at most pi/(4 lambda_max) between consecutive snapshot times, so
    every snapshot falls on the step grid.  The quadratic form is monotone
    nondecreasing in the time-to-go.
    """
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    if snapshot_times is None:
        snapshot_times = [horizon]
    taus = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
    if np.any(taus < 0.0) or np.any(taus > horizon + 1e-12):
        raise DomainError("snapshot times must lie in [0, horizon]")

    A, B, Q = first_order_matrices(system)
    M = hamiltonian_matrix(A, B, Q)
    max_step = np.pi / (4.0 * system.lambdas.max())
    E = np.zeros_like(A)
    by_tau = {0.0: E}
    t_now = 0.0
    for tau in np.unique(taus[taus > 0.0]):
        E = _sweep(E, M, tau - t_now, max_step)
        by_tau[float(tau)] = E
        t_now = tau
    return [RiccatiSolution(E=by_tau[float(tau)], horizon=float(tau), residual=0.0, method="dre")
            for tau in taus]


def _check_stabilizable(system: SpectralSystem):
    """Raise when an uncontrollable mode group carries observation cost.

    Frequencies are grouped by near-equality; within a group the controllable
    subspace is the row space of B_mod restricted to the group.
    """
    lam = system.lambdas
    Qe = system.observation_energy_form()
    groups = []
    start = 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[i] - lam[start] > 1e-9 * max(1.0, lam[start]):
            groups.append(np.arange(start, i))
            start = i
    scale = max(np.abs(system.B_mod).max(), 1.0)
    for g in groups:
        rows = system.B_mod[g, :]
        u, s, _ = np.linalg.svd(rows, full_matrices=True)
        rank = int(np.sum(s > 1e-10 * scale)) if s.size else 0
        if rank >= g.size:
            continue
        null = u[:, rank:]  # directions in the group with no control authority
        qg = Qe[np.ix_(g, g)]
        worst = np.abs(null.T @ qg @ null).max()
        if worst > 1e-10 * max(1.0, np.abs(Qe).max()):
            raise StabilizabilityError(
                f"modes near lambda={lam[g[0]]:.6g} are uncontrollable but carry "
                f"observation cost {worst:.2e}")


def _are_residual(E: np.ndarray, lam: np.ndarray, B: np.ndarray, Q: np.ndarray) -> float:
    return float(np.linalg.norm(_riccati_rhs(E, lam, B, Q)))


def solve_are(system: SpectralSystem, method: str = "newton_kleinman") -> RiccatiSolution:
    """Solve ``Q + E A + A^T E - E B B^T E = 0`` for the truncated system.

    ``newton_kleinman`` iterates Lyapunov solves from a stabilizing guess
    (identity if it stabilizes, else a DRE snapshot at tau = 10/lambda_min);
    ``dre_limit`` sweeps the DRE over geometrically doubled horizons until
    successive snapshots agree, realizing the minimal solution as the limit of
    the finite-horizon operators.  Newton-Kleinman stops at a residual of at most
    1e-9 (1 + ||X||^2) within 60 steps, ``dre_limit`` at a snapshot change <= 1e-8.
    """
    lam = system.lambdas
    A, B, Q = first_order_matrices(system)
    _check_stabilizable(system)

    if method == "dre_limit":
        return _solve_are_dre_limit(lam, A, B, Q)
    if method != "newton_kleinman":
        raise DomainError(f"unknown ARE method {method!r}")

    BBT = B @ B.T
    X = np.eye(2 * lam.size)
    if _spectral_abscissa(A - BBT) >= -1e-12:
        tau0 = 10.0 / lam.min()
        for _ in range(3):
            X = integrate_dre(system, tau0)[-1].E
            if _spectral_abscissa(A - BBT @ X) < -1e-12:
                break
            tau0 *= 2.0
        else:
            raise MethodError("no stabilizing initial guess found; try method='dre_limit'")

    for _ in range(60):
        Acl = A - BBT @ X
        rhs = -(Q + X @ BBT @ X)
        X_new = scipy.linalg.solve_continuous_lyapunov(Acl.T, rhs)
        X_new = 0.5 * (X_new + X_new.T)
        if not np.all(np.isfinite(X_new)):
            raise MethodError("Newton-Kleinman diverged; try method='dre_limit'")
        X = X_new
        res = _are_residual(X, lam, B, Q)
        if res <= 1e-9 * (1.0 + np.linalg.norm(X) ** 2):
            return RiccatiSolution(E=X, horizon=np.inf, residual=res, method="newton_kleinman")
    raise MethodError("Newton-Kleinman did not converge; try method='dre_limit'")


def _solve_are_dre_limit(lam, A, B, Q):
    M = hamiltonian_matrix(A, B, Q)
    max_step = np.pi / (4.0 * lam.max())
    tau = max(1.0, 10.0 / lam.min())
    cur = np.zeros_like(A)
    t_now = 0.0
    for _ in range(14):
        prev = cur
        cur = _sweep(cur, M, tau - t_now, max_step)
        t_now = tau
        if np.linalg.norm(cur - prev) <= 1e-8:
            res = _are_residual(cur, lam, B, Q)
            return RiccatiSolution(E=cur, horizon=np.inf, residual=res, method="dre_limit")
        tau *= 2.0
    raise MethodError("dre_limit did not converge within the horizon cap")


def _spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(M).real))


def closed_loop_matrix(system: SpectralSystem, solution: RiccatiSolution) -> np.ndarray:
    """A - B B^T E, the generator of the optimally controlled flow."""
    A, B, _ = first_order_matrices(system)
    return A - B @ (B.T @ solution.E)


def value(solution, x0) -> float:
    """Quadratic-form value x0^T E x0 (the optimal cost from x0)."""
    E = solution.E if isinstance(solution, RiccatiSolution) else np.asarray(solution, dtype=float)
    x = as_energy_vector(x0)
    if x.size != E.shape[0]:
        raise DimensionError("state dimension does not match the Riccati matrix")
    return float(x @ E @ x)


@dataclass
class BoundsReport:
    """Empirical two-sided bounds of the quadratic form against two norms.

    ``c1_hat * ||x||^2_weak <= x^T E x <= c2_hat * ||x||^2_strong`` holds on
    every probe used; the scales are stored so the claim is self-describing.
    """

    c1_hat: float
    c2_hat: float
    probe_count: int
    weak_scale: object
    strong_scale: object
    excluded: int = 0


def bounds_report(E_hat: RiccatiSolution, system: SpectralSystem, weak, strong,
                  n_random: int = 100, rng=None) -> BoundsReport:
    """Probe the ARE form with the canonical and ``n_random`` random unit vectors.

    c1_hat is the largest constant valid in the lower bound over the probe
    set (min of value/weak norm), c2_hat the smallest valid upper constant.
    Probes with vanishing weak norm but positive value are excluded and
    counted.
    """
    from .spectral import energy_norm_squared

    dim = E_hat.dim
    if rng is None:
        rng = np.random.default_rng(0)
    probes = [np.eye(dim)[:, k] for k in range(dim)]
    raw = rng.standard_normal((int(n_random), dim))
    probes += [r / np.linalg.norm(r) for r in raw]

    lam = system.lambdas
    c1, c2 = np.inf, 0.0
    excluded = 0
    used = 0
    for x in probes:
        val = value(E_hat, x)
        wn = energy_norm_squared(x, lam, weak)
        sn = energy_norm_squared(x, lam, strong)
        if wn <= 0.0:
            if val > 0.0:
                excluded += 1
                continue
            wn = np.nan
        used += 1
        if np.isfinite(wn):
            c1 = min(c1, val / wn)
        if sn > 0.0:
            c2 = max(c2, val / sn)
    return BoundsReport(c1_hat=float(max(c1, 0.0)), c2_hat=float(c2), probe_count=used,
                        weak_scale=weak, strong_scale=strong, excluded=excluded)
