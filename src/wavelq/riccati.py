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
of the state/adjoint pair or of any other LTI generator (or of a stack of
them), with the Van Loan integral of a quadratic cost over the step (Van Loan
1978).  It is the library's only block-exponential construction: closed loops
and tracking read their steps and exact integrals from it.  Its exponentials
come from ``_expm``, numpy scaling and squaring of the degree-13 Pade
approximant (Al-Mohy & Higham 2009) that chooses each slice's scaling from
that slice alone.  Newton-Kleinman's Lyapunov solves come from
``_lyapunov``, which diagonalizes the closed loops of a stack with one
``eig`` (the first solve reuses the ``eig`` that tested its start for
stability), so the library's dense kernels all share numpy's one BLAS thread
pool and no scipy module is loaded.  The DRE alone is swept step by step through the blocks of
``e^{M h}`` (Davison-Maki 1973), so no ODE integrator is involved and each
step is exact up to rounding.  One sweep per block gives the DRE snapshots,
and ``solve_are`` runs one iteration per stack of equal-sized blocks:
Newton-Kleinman from the identity for the blocks it stabilizes, all together,
else from each block's first stabilizing DRE snapshot at doubling horizons,
else the snapshots themselves; each block stops on its backward error.
Tracking uses the ARE solution instead (``turnpike.solve_tracking``).  Each
block is read from its record: ``block_matrices`` and ``stack_matrices`` are
the per-block and per-stack forms of ``first_order_matrices``, built by the
same lift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import Block, SpectralSystem, energy_index, stacked_blocks
from .spectral import DimensionError, DomainError, as_energy_vector, require_positive


class StabilizabilityError(RuntimeError):
    """A costly mode is uncontrollable: no finite value function exists."""


class MethodError(RuntimeError):
    """The ARE iteration hit its cap or produced a non-finite iterate."""


# numbers in one row band of RiccatiSolution's symmetry check
_BAND_ELEMENTS = 1 << 16


@dataclass
class RiccatiSolution:
    """Symmetric PSD quadratic form on the truncated state space.

    ``horizon`` is the time-to-go of a DRE snapshot, or ``inf`` for a solution
    of the algebraic equation.  ``residual`` is the ARE residual norm (zero by
    convention for DRE snapshots), ``backward_error`` its normalization by
    ``solve_are`` (nan elsewhere; ``riccati.json`` does not store it).
    """

    E: np.ndarray
    horizon: float
    residual: float
    method: str
    backward_error: float = np.nan

    def __post_init__(self):
        # checked in row bands, so no temporary of E's size is formed
        E = self.E = np.asarray(self.E, dtype=float)
        scale = np.maximum(E.max(), -E.min()) if E.size else 0.0  # nan or inf if any entry is
        if not np.isfinite(scale):
            raise DomainError("Riccati solution must be finite")
        tol = 1e-10 * (1.0 + scale)
        rows = max(1, _BAND_ELEMENTS // max(1, E.shape[0]))
        for start in range(0, E.shape[0], rows):
            if np.abs(E[start:start + rows] - E[:, start:start + rows].T).max() > tol:
                raise DomainError("Riccati solution must be symmetric")

    @property
    def dim(self) -> int:
        return self.E.shape[0]


def first_order_matrices(system: SpectralSystem):
    """(A_mat, B_mat, Q_mat) of the first-order system in energy coordinates.

    A_mat is skew block diagonal, B_mat stacks zeros over B_mod row-wise per
    mode, and Q_mat carries Q_obs conjugated by diag(1/lambda) on the xi block
    (positions are a = xi/lambda).
    """
    return _lift(system.lambdas, system.B_mod, system.Q_obs)


def block_matrices(lambdas: np.ndarray, record: Block):
    """``first_order_matrices`` of one block, from its record, in its modes' coordinates."""
    return _lift(lambdas[record.modes], record.B, record.Q)


def stack_matrices(lambdas: np.ndarray, stack):
    """``block_matrices`` of a stack of equal-sized records (``models.stacked_blocks``).

    Each block's B is padded with zero columns to the widest record's.
    """
    B = np.zeros((len(stack), stack[0].modes.size, max(r.controls.size for r in stack)))
    for b, r in zip(B, stack):
        b[:, :r.controls.size] = r.B
    return _lift(lambdas[np.array([r.modes for r in stack])], B, np.array([r.Q for r in stack]))


def _lift(lam: np.ndarray, B_mod: np.ndarray, Q_obs: np.ndarray):
    """(A, B, Q) in energy coordinates from frequencies, B_mod and Q_obs (stacks too)."""
    n = lam.shape[-1]
    A = np.zeros(lam.shape[:-1] + (2 * n, 2 * n))
    ix = np.arange(0, 2 * n, 2)
    A[..., ix, ix + 1] = lam
    A[..., ix + 1, ix] = -lam

    B = np.zeros(B_mod.shape[:-2] + (2 * n, B_mod.shape[-1]))
    B[..., 1::2, :] = B_mod

    inv = 1.0 / lam
    Q = np.zeros_like(A)
    Q[..., 0::2, 0::2] = Q_obs * (inv[..., :, None] * inv[..., None, :])
    Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    return A, B, Q


def _riccati_rhs(E: np.ndarray, lam: np.ndarray, B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Q + E A + A^T E - E B B^T E, with E A from the per-mode rotation structure (stacks too)."""
    EA = np.empty_like(E)
    EA[..., 0::2] = -E[..., 1::2] * lam[..., None, :]
    EA[..., 1::2] = E[..., 0::2] * lam[..., None, :]
    EB = E @ B
    return Q + EA + np.swapaxes(EA, -1, -2) - EB @ np.swapaxes(EB, -1, -2)


def hamiltonian_matrix(A: np.ndarray, B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """M = [[A, -B B^T], [-Q, -A^T]], the generator of the state/adjoint pair (stacks too).

    Along an optimal trajectory (x, q)' = M (x, q) with control u = -B^T q, and
    q = E x + h with E the Riccati flow in the time-to-go.
    """
    d = A.shape[-1]
    M = np.empty(A.shape[:-2] + (2 * d, 2 * d))
    M[..., :d, :d] = A
    M[..., :d, d:] = -B @ np.swapaxes(B, -1, -2)
    M[..., d:, :d] = -Q
    M[..., d:, d:] = -np.swapaxes(A, -1, -2)
    return M


def step_map(M: np.ndarray, h: float, cost: np.ndarray | None = None):
    """Exact step of y' = M y over a step h, from one block matrix exponential.

    Returns ``(Phi, W)`` with ``Phi = e^{M h}``.  Given a symmetric cost weight
    G, also ``W = int_0^h e^{M^T s} G e^{M s} ds`` (Van Loan 1978), read off
    ``e^{Z h}`` with ``Z = [[-M^T, G], [0, M]]``, so a step from y costs
    ``y^T W y``; without a weight W is None.  Stepping ``[[M, I], [0, 0]]``
    instead puts ``int_0^h e^{M s} ds`` in the top right block of its Phi.
    A stack of generators (and of weights) gives the stack of their steps,
    each from ``_expm``, which returns the same bits for a slice as alone.
    """
    if cost is None:
        return _expm(M * h), None
    n = M.shape[-1]
    Z = np.zeros(M.shape[:-2] + (2 * n, 2 * n))
    Z[..., :n, :n] = -np.swapaxes(M, -1, -2)
    Z[..., :n, n:] = cost
    Z[..., n:, n:] = M
    Z *= h
    F = _expm(Z)
    Phi = F[..., n:, n:]
    return Phi, np.swapaxes(Phi, -1, -2) @ F[..., :n, n:]


# Pade coefficients b_0..b_13 of the degree-13 approximant (Higham 2005), the bound
# theta_13 on the power-norm parameter within which it needs no scaling, and 1/|c_27|,
# the reciprocal leading coefficient of its backward error series (Al-Mohy & Higham 2009)
_PADE = (64764752532480000., 32382376266240000., 7771770303897600., 1187353796428800.,
         129060195264000., 10559470521600., 670442572800., 33522128640., 1323241920.,
         40840800., 960960., 16380., 182., 1.)
_THETA = 4.25
_C_RECIP = 113250775606021113483283660800000000.


def _norm1(X: np.ndarray) -> np.ndarray:
    """Matrix 1-norms (largest absolute column sums) of a stack."""
    return np.abs(X).sum(axis=-2).max(axis=-1)


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring of the degree-13 Pade approximant, for a matrix or a stack.

    The degree-13 branch of Al-Mohy & Higham (2009, SIAM J. Matrix Anal. Appl.
    31, Algorithm 3.1), which keeps the backward error at unit roundoff for
    every norm (Higham 2005), with exact 1-norms of powers: each slice takes
    its own scaling (``_squarings``).  numpy's products and solves compute each
    slice of a stack as they would alone, so a slice's result has the same bits
    as its own ``_expm``.  The zero matrix gives the identity exactly.
    """
    A = np.asarray(A, dtype=float)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    s = _squarings(A, A4, A6)
    if s.any():
        c = 0.5 ** s[:, None, None]
        A = A * c
        A2 *= c**2
        A4 *= c**4
        A6 *= c**6
    b = _PADE
    W = b[13] * A6
    W += b[11] * A4
    W += b[9] * A2
    U = A6 @ W
    np.multiply(A6, b[12], out=W)
    W += b[10] * A4
    W += b[8] * A2
    V = A6 @ W
    del W
    for i, P in enumerate((A2, A4, A6)):  # P = A^(2i+2)
        U += b[2 * i + 3] * P
        V += b[2 * i + 2] * P
    diag = (slice(None),) + np.diag_indices(n)
    U[diag] += b[1]
    V[diag] += b[0]
    U = A @ U
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: exact near the identity
    V -= U
    U *= 2.0
    X = np.linalg.solve(V, U)
    X[diag] += 1.0
    for i in range(s.max()):
        j = np.flatnonzero(s > i)
        if j.size == s.size:
            X = X @ X
        else:
            X[j] = X[j] @ X[j]
    return X.reshape(shape)


def _squarings(A, A4, A6) -> np.ndarray:
    """Each slice's scaling exponent s (Al-Mohy & Higham 2009, Algorithm 3.1, degree 13).

    s is the smallest exponent that brings the power-norm parameter
    eta = min(max(d_6, d_8), max(d_8, d_10)), d_p = ||A^p||_1^(1/p), under
    theta_13, plus ell, the squarings that keep the backward error of the
    approximant of 2^-s A at unit roundoff, from
    ||(2^-s |A|)^27||_1 / (||2^-s A||_1 |c_27|).  As d_8 <= d_4 and
    d_10 <= max(d_4, d_6), s is 0 without d_8 and d_10 where max(d_4, d_6) is
    under theta_13.  The norms of |A|^27 are computed, not estimated, and only
    where ell can be positive: with |A| = ||A||_1 N, ||N^27||_1 is the largest
    entry of 1^T N^27, and N has 1-norm 1, so no power overflows and ell is 0
    wherever the rest of its exponent is negative.
    """
    d6 = _norm1(A6) ** (1.0 / 6.0)
    eta = np.maximum(_norm1(A4) ** 0.25, d6)
    k = np.flatnonzero(eta > _THETA)
    if k.size:
        d8 = _norm1(A4[k] @ A4[k]) ** 0.125
        eta[k] = np.minimum(np.maximum(d6[k], d8), np.maximum(d8, _norm1(A4[k] @ A6[k]) ** 0.1))
    a = _norm1(A)
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(eta / _THETA)), 0.0).astype(int)
        rest = 26.0 * (np.log2(a) - s) - np.log2(_C_RECIP) + 53.0
        k = np.flatnonzero(rest >= 0.0)
        if k.size:
            row = np.ones((k.size, 1, A.shape[-1]))
            N = np.abs(A[k]) / a[k, None, None]
            for _ in range(27):
                row = row @ N
            t = (np.log2(row.max(axis=(-2, -1))) + rest[k]) / 26.0
            s[k] += np.maximum(np.ceil(t), 0.0).astype(int)
    return s


def riccati_step(E: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """Carry ``q = E x`` one step back across the step map Phi.

    With S = Phi22 - E Phi12: E <- S^{-1} (E Phi11 - Phi21), symmetrized.
    """
    d = E.shape[0]
    S = Phi[d:, d:] - E @ Phi[:d, d:]
    E = np.linalg.solve(S, E @ Phi[:d, :d] - Phi[d:, :d])
    return 0.5 * (E + E.T)


def _dre_flow(lam: np.ndarray, A, B, Q, taus):
    """Yield the DRE of a block (``lam``, ``block_matrices``) from 0 at each time of ``taus``."""
    M = hamiltonian_matrix(A, B, Q)
    max_step = np.pi / (4.0 * lam.max())
    E, t_now = np.zeros_like(A), 0.0
    for tau in taus:
        steps = int(np.ceil((tau - t_now) / max_step))
        if steps:
            Phi, _ = step_map(M, (tau - t_now) / steps)
            for _ in range(steps):
                E = riccati_step(E, Phi)
        t_now = tau
        yield E


def integrate_dre(system: SpectralSystem, horizon: float, snapshot_times=None):
    """Solve the matrix Riccati equation forward in time-to-go from E(0) = 0.

    Returns one RiccatiSolution per requested snapshot (default: the horizon
    only).  Each block of the system is swept with the exact Hamiltonian step
    map, in equal steps of at most pi/(4 lambda_max) of the block between
    consecutive snapshot times, so every snapshot falls on the step grid.
    The quadratic form is monotone nondecreasing in the time-to-go.
    """
    require_positive(horizon=horizon)
    if snapshot_times is None:
        snapshot_times = [horizon]
    taus = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
    if not np.all((taus >= 0.0) & (taus <= horizon + 1e-12)):
        raise DomainError("snapshot times must lie in [0, horizon]")

    unique = np.unique(taus)
    lam = system.lambdas
    flows = [_dre_flow(lam[r.modes], *block_matrices(lam, r), unique) for r in system.records]
    by_tau = {float(tau): system.assemble(parts) for tau, parts in zip(unique, zip(*flows))}
    return [RiccatiSolution(E=by_tau[float(tau)], horizon=float(tau), residual=0.0, method="dre")
            for tau in taus]


def _check_stabilizable(system: SpectralSystem):
    """Raise when an uncontrollable mode group carries observation cost.

    Within each block, frequencies are grouped by near-equality; within a
    group the controllable subspace is the row space of B_mod restricted to
    the group.  Rows of different blocks act through different controls, so
    the check splits exactly over the records; its thresholds are those of
    the whole system.
    """
    inv = 1.0 / system.lambdas
    forms = [r.Q * np.outer(inv[r.modes], inv[r.modes]) for r in system.records]
    scale = max(1.0, max(np.abs(r.B).max(initial=0.0) for r in system.records))
    cost_floor = 1e-10 * max(1.0, max(np.abs(Qe).max() for Qe in forms))
    for r, Qe in zip(system.records, forms):
        lam = system.lambdas[r.modes]
        start = 0
        for i in range(1, lam.size + 1):
            if i < lam.size and lam[i] - lam[start] <= 1e-9 * max(1.0, lam[start]):
                continue
            g = np.arange(start, i)
            start = i
            u, s, _ = np.linalg.svd(r.B[g, :], full_matrices=True)
            rank = int(np.sum(s > 1e-10 * scale)) if s.size else 0
            if rank >= g.size:
                continue
            null = u[:, rank:]  # directions in the group with no control authority
            worst = np.abs(null.T @ Qe[np.ix_(g, g)] @ null).max()
            if worst > cost_floor:
                raise StabilizabilityError(
                    f"modes near lambda={lam[g[0]]:.6g} are uncontrollable but carry "
                    f"observation cost {worst:.2e}")


def solve_are(system: SpectralSystem) -> RiccatiSolution:
    """Solve ``Q + E A + A^T E - E B B^T E = 0`` for the truncated system.

    Each stack of equal-sized blocks (``models.stacked_blocks``) is solved
    together, and the blocks' solutions are put in place.  A block with Q
    exactly 0 has no stabilizing solution, as A is skew, and gets its minimal
    solution 0 at once (kind ``dre_limit``).  The blocks whose A - B B^T is
    stable, found by one ``eig`` per stack, run Newton-Kleinman together from
    the identity, one ``_lyapunov`` solve of the stack per step; the first
    solve reuses that ``eig``, so each step takes one per block.  Each
    other block is swept alone: its iterates are the DRE snapshots at horizons
    doubling from max(1, 10/lambda_min), and it joins the Newton-Kleinman steps
    from the first snapshot that stabilizes; when none does, the snapshots
    converge to the minimal solution, whose closed loop is then only marginally
    stable (modes that neither control nor observation sees stay free).
    ``method`` is ``newton_kleinman`` when every block kept a Newton step, else
    ``dre_limit``.

    A block stops on its backward error ||R|| / (||Q|| + 2 ||A|| ||X|| + ||X||^2 ||B B^T||)
    in Frobenius norms (Kleinman 1968; Laub 1979): at the first iterate at or
    below 1e-14, or, once below 1e-10, at the previous iterate when the next
    fails to lower it; else MethodError after 14 horizons plus 60 Newton steps,
    or at a non-finite iterate.  The assembled norms are root sums of squares
    of the blocks', so the assembled ``backward_error`` is at most the worst
    block's (Cauchy-Schwarz); ``residual`` is ||R|| of the whole system.
    """
    _check_stabilizable(system)
    lam = system.lambdas
    E = np.zeros((2 * system.n_modes, 2 * system.n_modes))
    norms, newton = [], []
    for stack in stacked_blocks(system):
        modes = np.array([r.modes for r in stack])
        X, stack_norms, stack_newton = _solve_stack(lam[modes], *stack_matrices(lam, stack))
        e = energy_index(modes)
        E[e[:, :, None], e[:, None, :]] = X
        norms.append(stack_norms)
        newton.append(stack_newton)
    norms = np.linalg.norm(np.concatenate(norms), axis=0)
    return RiccatiSolution(E=E, horizon=np.inf, residual=float(norms[0]),
                           method="newton_kleinman" if np.concatenate(newton).all() else "dre_limit",
                           backward_error=float(_backward_error(norms)))


def _backward_error(norms):
    """Backward errors from the norms (||R||, ||Q||, ||A||, ||X||, ||B B^T||) along the last axis.

    0 where R = 0.
    """
    r, q, a, x, g = norms.T
    return np.divide(r, q + 2.0 * a * x + x * x * g, out=np.zeros_like(r), where=r != 0.0)


def _solve_stack(lam: np.ndarray, A, B, Q):
    """The ARE iterates of a stack of blocks (``lam``, ``stack_matrices``), each stopped on its own.

    Returns the kept iterates, their norms (||R||, ||Q||, ||A||, ||X||, ||B B^T||)
    and whether each block's kept iterate is a Newton step.
    """
    BBT = B @ np.swapaxes(B, -1, -2)
    X = np.zeros_like(A)
    fro = functools.partial(np.linalg.norm, axis=(-2, -1))
    norms = np.stack([np.zeros(len(A)), fro(Q), fro(A), np.zeros(len(A)), fro(BBT)], axis=-1)
    err, newton = np.full(len(A), np.inf), np.zeros(len(A), dtype=bool)

    def keep(i, X_i, newton_step: bool):
        """Judge the iterates X_i of the blocks i by the stop rule; return which blocks go on."""
        if not np.all(np.isfinite(X_i)):
            raise MethodError(f"{'newton_kleinman' if newton_step else 'dre_limit'} "
                              "produced a non-finite iterate")
        n = norms[i]
        n[:, 0], n[:, 3] = fro(_riccati_rhs(X_i, lam[i], B[i], Q[i])), fro(X_i)
        e = _backward_error(n)
        kept = ~((err[i] <= 1e-10) & (e >= err[i]))
        j = i[kept]
        X[j], norms[j], err[j], newton[j] = X_i[kept], n[kept], e[kept], newton_step
        return kept & (e > 1e-14)

    costly = np.flatnonzero(Q.any(axis=(-2, -1)))
    w, V = np.linalg.eig(A[costly] - BBT[costly])  # the stability test's, reused by the first solve
    ok = w.real.max(axis=-1) < -1e-12
    starts = [(costly[ok], np.broadcast_to(np.eye(A.shape[-1]), V[ok].shape), w[ok], V[ok])]
    for b in costly[~ok]:
        i, horizons = np.array([b]), max(1.0, 10.0 / lam[b].min()) * 2.0 ** np.arange(14)
        for X_b in _dre_flow(lam[b], A[b], B[b], Q[b], horizons):
            if not keep(i, X_b[None], False)[0]:
                break
            w, V = np.linalg.eig(A[i] - BBT[i] @ X_b)
            if w.real.max() < -1e-12:
                starts.append((i, X_b[None], w, V))
                break
        else:
            raise MethodError("the ARE did not converge within 14 horizons and 60 Newton steps")
    go, X_go, *eig = map(np.concatenate, zip(*starts))
    for _ in range(60):
        if not go.size:
            break
        BX = BBT[go] @ X_go
        X_go = _lyapunov(A[go] - BX, Q[go] + X_go @ BX, eig)
        X_go, eig = 0.5 * (X_go + np.swapaxes(X_go, -1, -2)), None
        on = keep(go, X_go, True)
        go, X_go = go[on], X_go[on]
    if go.size:
        raise MethodError("the ARE did not converge within 14 horizons and 60 Newton steps")
    return X, norms, newton


# an eigenbasis whose 1-norm condition number exceeds this is taken as singular
_EIGENBASIS_COND_MAX = 1e12


def _lyapunov(F: np.ndarray, C: np.ndarray, eig=None) -> np.ndarray:
    """The solution X of ``F^T X + X F = -C`` for a stable diagonalizable F, or a stack of them.

    With F = V diag(w) V^-1, Y = V^T X V solves (w_i + w_j) Y_ij = -(V^T C V)_ij,
    so X = Re[V^-T Y V^-1].  numpy's eigensolver, inverse and products run
    slice by slice, so a slice's result has the same bits as its own.  Raises
    MethodError when some F has an eigenvalue with real part >= 0, or an
    eigenbasis that is singular (1-norm condition number above 1e12).
    ``eig`` is ``np.linalg.eig(F)`` when the caller already has it.
    """
    try:
        w, V = np.linalg.eig(F) if eig is None else eig
        if not (w.real < 0.0).all():
            raise MethodError("a Lyapunov operator F has an eigenvalue with real part >= 0")
        w, V = w.astype(complex, copy=False), V.astype(complex, copy=False)
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise MethodError(f"a Lyapunov operator F has no eigenbasis: {exc}") from None
    if (_norm1(V) * _norm1(V_inv) > _EIGENBASIS_COND_MAX).any():
        raise MethodError("a Lyapunov operator F has a singular eigenbasis")
    Y = np.swapaxes(V, -1, -2) @ C @ V
    Y /= -(w[..., :, None] + w[..., None, :])
    return (np.swapaxes(V_inv, -1, -2) @ Y @ V_inv).real


def value(solution: RiccatiSolution, x0) -> float:
    """Quadratic-form value x0^T E x0 (the optimal cost from x0)."""
    x = as_energy_vector(x0)
    if x.size != solution.dim:
        raise DimensionError("state dimension does not match the Riccati matrix")
    return float(x @ solution.E @ x)


@dataclass
class BoundsReport:
    """The sharp two-sided bounds of the quadratic form against two norms.

    ``c1_hat * ||x||^2_weak <= x^T E x <= c2_hat * ||x||^2_strong`` holds for
    every state of the truncation, and each constant is attained by a state;
    the scales are stored so the claim is self-describing.
    """

    c1_hat: float
    c2_hat: float
    weak_scale: object
    strong_scale: object


def bounds_report(E_hat: RiccatiSolution, system: SpectralSystem, weak, strong) -> BoundsReport:
    """The exact constants of the two-sided bounds, from one ``eigvalsh`` per stack of blocks.

    With D_w and D_s the density weights of the scales on each mode's (xi,
    zeta) pair, c1_hat is the least eigenvalue of D_w^-1/2 E D_w^-1/2 and
    c2_hat the largest of D_s^-1/2 E D_s^-1/2.  E_hat is read on the blocks
    of ``system`` only, as the Riccati solutions of the system are block
    diagonal over them.  ``sobolev_state`` has no density weight and raises
    DomainError.
    """
    if E_hat.dim != 2 * system.n_modes:
        raise DimensionError("Riccati solution dimension does not match the system")
    lam = system.lambdas
    weights = [np.repeat(scale.density_weights(lam), 2) ** -0.5 for scale in (weak, strong)]
    c1, c2 = np.inf, -np.inf
    for stack in stacked_blocks(system):
        e = energy_index(np.array([r.modes for r in stack]))
        E_b = E_hat.E[e[:, :, None], e[:, None, :]]
        lo, hi = (np.linalg.eigvalsh(E_b * w[e][:, :, None] * w[e][:, None, :]) for w in weights)
        c1, c2 = min(c1, lo[:, 0].min()), max(c2, hi[:, -1].max())
    return BoundsReport(c1_hat=float(c1), c2_hat=float(c2), weak_scale=weak, strong_scale=strong)
