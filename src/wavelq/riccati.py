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
come from ``_expm``, a numpy scaling-and-squaring Pade method (Al-Mohy &
Higham 2009) that chooses each slice's degree and scaling from that slice
alone, so the library's dense kernels share numpy's one BLAS thread pool
(all but Newton-Kleinman's Lyapunov solves).  The DRE alone is
swept step by step through the blocks of ``e^{M h}`` (Davison-Maki 1973), so
no ODE integrator is involved and each step is exact up to rounding.  One
sweep per block gives the DRE snapshots, and ``solve_are`` runs one iteration
per block: Newton-Kleinman from the identity when it stabilizes, else from
the first stabilizing DRE snapshot at doubling horizons, else the snapshots
themselves; it stops on the backward error.  Tracking uses the ARE solution
instead (``turnpike.solve_tracking``).  Each block is read from its record:
``block_matrices`` and ``stack_matrices`` are the per-block and per-stack forms
of ``first_order_matrices``, built by the same lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import Block, SpectralSystem
from .spectral import DimensionError, DomainError, as_energy_vector


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
        tol = 1e-10 * (1.0 + (max(E.max(), -E.min()) if E.size else 0.0))
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
    """Q + E A + A^T E - E B B^T E, with E A from the per-mode rotation structure (O(n^2))."""
    EA = np.empty_like(E)
    EA[:, 0::2] = -E[:, 1::2] * lam
    EA[:, 1::2] = E[:, 0::2] * lam
    EB = E @ B
    return Q + EA + EA.T - EB @ EB.T


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


# Pade coefficients b_0..b_m of degree m (Higham 2005), the bounds theta_m on the
# power-norm parameter within which degree m needs no scaling, and 1/|c_{2m+1}|, the
# reciprocal leading coefficient of its backward error series (Al-Mohy & Higham 2009)
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240., 2162160., 110880.,
        3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600., 1187353796428800.,
         129060195264000., 10559470521600., 670442572800., 33522128640., 1323241920.,
         40840800., 960960., 16380., 182., 1.),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 4.25}
_C_RECIP = {3: 100800., 5: 10059033600., 7: 4487938430976000., 9: 5914384781877411840000.,
            13: 113250775606021113483283660800000000.}


def _norm1(X: np.ndarray) -> np.ndarray:
    """Matrix 1-norms (largest absolute column sums) of a stack."""
    return np.abs(X).sum(axis=-2).max(axis=-1)


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring of a Pade approximant, for a matrix or a stack of them.

    The algorithm of Al-Mohy & Higham (2009, SIAM J. Matrix Anal. Appl. 31)
    with exact 1-norms of powers: each slice takes its own Pade degree and,
    at degree 13, its own scaling (``_pade_structure``).  The slices of one
    degree go through numpy's products and solves together, which compute
    each slice as they would alone, so a slice's result has the same bits as
    its own ``_expm``.  The zero matrix gives the identity exactly.
    """
    A = np.asarray(A, dtype=float)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    degree, s = _pade_structure(A, A2, A4, A6)
    out = None
    for m in _PADE:
        g = np.flatnonzero(degree == m)
        if not g.size:
            continue
        whole = g.size == degree.size
        X = _pade(m, s[g], *(P if whole else P[g] for P in (A, A2, A4, A6)))
        for i in range(s[g].max()):
            j = np.flatnonzero(s[g] > i)
            if j.size == g.size:
                X = X @ X
            else:
                X[j] = X[j] @ X[j]
        if whole:
            return X.reshape(shape)
        if out is None:
            out = np.empty_like(A)
        out[g] = X
    return out.reshape(shape)


def _pade_structure(A, A2, A4, A6):
    """Each slice's Pade degree and scaling exponent s (Al-Mohy & Higham 2009, Algorithm 3.1).

    The lowest of the degrees 3, 5, 7, 9 whose theta bounds the slice's
    power-norm parameter eta and whose backward error bound needs no extra
    squaring (``ell`` = 0) is taken, with s = 0; else degree 13 with the
    smallest s that brings eta under theta_13, plus ``ell``'s squarings.
    """
    ell = _backward_error_terms(A)
    degree = np.full(A.shape[0], 13)
    s = np.zeros(A.shape[0], dtype=int)
    d6 = _norm1(A6) ** (1.0 / 6.0)
    eta = np.maximum(_norm1(A4) ** 0.25, d6)
    for m in (3, 5, 7, 9):
        if m == 7:
            if not (degree == 13).any():
                break
            d8 = _norm1(A4 @ A4) ** 0.125
            eta = np.maximum(d6, d8)
        fits = (degree == 13) & (eta < _THETA[m])
        if fits.any():
            degree[fits & (ell(m) == 0)] = m
    k = np.flatnonzero(degree == 13)
    if k.size:
        eta = np.minimum(eta[k], np.maximum(d8[k], _norm1(A4[k] @ A6[k]) ** 0.1))
        with np.errstate(divide="ignore"):
            s[k] = np.maximum(np.ceil(np.log2(eta / _THETA[13])), 0.0)
        s[k] += ell(13, s[k], k)
    return degree, s


def _backward_error_terms(A: np.ndarray):
    """The function ``ell(m, s=0, k=all)`` of Al-Mohy & Higham (2009) for the slices k of A.

    ell(m, s) is the number of extra squarings that keep the backward error of
    the degree-m approximant of 2^-s A at unit roundoff, from
    ||(2^-s |A|)^(2m+1)||_1 / (||2^-s A||_1 |c_(2m+1)|).  The norms of powers
    of |A| are computed, not estimated, as they are first needed: with
    |A| = ||A||_1 N, ||N^p||_1 is the largest entry of 1^T N^p, and N has
    1-norm 1, so no power overflows.  As ||N^p||_1 <= 1, ell is 0 without
    them wherever the rest of the exponent is negative.
    """
    a = _norm1(A)
    with np.errstate(divide="ignore"):
        log_a = np.log2(a)
    N, rows = None, []  # rows: 1^T N^p for p = 0, 1, ...

    def ell(m: int, s=0, k=slice(None)):
        nonlocal N
        rest = 2 * m * (log_a[k] - s) - np.log2(_C_RECIP[m]) + 53.0
        if (rest < 0.0).all():
            return np.zeros(rest.shape, dtype=int)
        if N is None:
            N = np.abs(A) / np.where(a > 0.0, a, 1.0)[:, None, None]
            rows.append(np.ones((A.shape[0], 1, A.shape[-1])))
        p = 2 * m + 1
        while len(rows) <= p:
            rows.append(rows[-1] @ N)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.log2(rows[p][k].max(axis=(-2, -1))) + rest) / (2 * m)
        return np.where(a[k] > 0.0, np.maximum(np.ceil(t), 0.0), 0.0).astype(int)

    return ell


def _pade(m: int, s: np.ndarray, A, A2, A4, A6):
    """The degree-m diagonal Pade approximant of e^(2^-s A) from A's even powers (stacks).

    Scales A2, A4 and A6 in place.
    """
    b = _PADE[m]
    if s.any():
        c = 0.5 ** s[:, None, None]
        A = A * c
        A2 *= c**2
        A4 *= c**4
        A6 *= c**6
    if m == 13:
        W = b[13] * A6
        W += b[11] * A4
        W += b[9] * A2
        U = A6 @ W
        np.multiply(A6, b[12], out=W)
        W += b[10] * A4
        W += b[8] * A2
        V = A6 @ W
        del W
        lower = (A2, A4, A6)
    else:
        evens = (A2, A4, A6)[:m // 2] if m < 9 else (A2, A4, A6, A4 @ A4)  # A^2, ..., A^(m-1)
        U, V = b[m] * evens[-1], b[m - 1] * evens[-1]
        lower = evens[:-1]
    for i, P in enumerate(lower):  # P = A^(2i+2)
        U += b[2 * i + 3] * P
        V += b[2 * i + 2] * P
    diag = (slice(None),) + np.diag_indices(A.shape[-1])
    U[diag] += b[1]
    V[diag] += b[0]
    U = A @ U
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: exact near the identity
    V -= U
    U *= 2.0
    X = np.linalg.solve(V, U)
    X[diag] += 1.0
    return X


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
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    if snapshot_times is None:
        snapshot_times = [horizon]
    taus = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
    if np.any(taus < 0.0) or np.any(taus > horizon + 1e-12):
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

    Each block is solved on its own and the results are assembled.  A block
    runs Newton-Kleinman's Lyapunov solves from the identity when A - B B^T is
    stable.  Otherwise its iterates are the DRE snapshots at horizons doubling
    from max(1, 10/lambda_min), and Newton-Kleinman continues from the first
    snapshot that stabilizes; when none does, the snapshots converge to the
    minimal solution, whose closed loop is then only marginally stable (modes
    that neither control nor observation sees stay free).  ``method`` is
    ``newton_kleinman`` when every block kept a Newton step, else ``dre_limit``.

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
    parts, norms, kinds = zip(*(_solve_block(lam[r.modes], *block_matrices(lam, r))
                                for r in system.records))
    norms = np.linalg.norm(norms, axis=0)
    method = "newton_kleinman" if set(kinds) == {"newton_kleinman"} else "dre_limit"
    return RiccatiSolution(E=system.assemble(parts), horizon=np.inf, residual=float(norms[0]),
                           method=method, backward_error=_backward_error(norms))


def _backward_error(norms) -> float:
    """Backward error from the norms (||R||, ||Q||, ||A||, ||X||, ||B B^T||); 0 when R = 0."""
    r, q, a, x, g = norms
    return float(r / (q + 2.0 * a * x + x * x * g)) if r else 0.0


def _solve_block(lam: np.ndarray, A, B, Q):
    """The ARE iterates of a block (``lam``, ``block_matrices``), stopped on their backward error.

    Returns the kept iterate X, its norms (||R||, ||Q||, ||A||, ||X||, ||B B^T||)
    and the name of the iteration it came from.
    """
    BBT = B @ B.T
    q, a, g = np.linalg.norm(Q), np.linalg.norm(A), np.linalg.norm(BBT)
    kept, kept_err = None, np.inf
    for X, kind in _are_iterates(lam, A, B, Q, BBT):
        if not np.all(np.isfinite(X)):
            raise MethodError(f"{kind} produced a non-finite iterate")
        norms = (np.linalg.norm(_riccati_rhs(X, lam, B, Q)), q, a, np.linalg.norm(X), g)
        err = _backward_error(norms)
        if kept_err <= 1e-10 and err >= kept_err:
            return kept
        kept, kept_err = (X, norms, kind), err
        if err <= 1e-14:
            return kept
    raise MethodError("the ARE did not converge within 14 horizons and 60 Newton steps")


def _are_iterates(lam: np.ndarray, A, B, Q, BBT):
    """Yield (X, iteration name): DRE snapshots until one stabilizes, then Newton-Kleinman.

    The snapshots are skipped when the identity stabilizes; Newton-Kleinman
    takes at most 60 steps, and is skipped when no snapshot stabilizes.
    """
    X = np.eye(A.shape[0])
    if _spectral_abscissa(A - BBT) >= -1e-12:
        for X in _dre_flow(lam, A, B, Q, max(1.0, 10.0 / lam.min()) * 2.0 ** np.arange(14)):
            yield X, "dre_limit"
            if _spectral_abscissa(A - BBT @ X) < -1e-12:
                break
        else:
            return
    for _ in range(60):
        X = scipy.linalg.solve_continuous_lyapunov((A - BBT @ X).T, -(Q + X @ BBT @ X))
        X = 0.5 * (X + X.T)
        yield X, "newton_kleinman"


def _spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(M).real))


def closed_loop_matrix(system: SpectralSystem, solution: RiccatiSolution) -> np.ndarray:
    """A - B B^T E, the generator of the optimally controlled flow."""
    A, B, _ = first_order_matrices(system)
    return A - B @ (B.T @ solution.E)


def value(solution: RiccatiSolution, x0) -> float:
    """Quadratic-form value x0^T E x0 (the optimal cost from x0)."""
    x = as_energy_vector(x0)
    if x.size != solution.dim:
        raise DimensionError("state dimension does not match the Riccati matrix")
    return float(x @ solution.E @ x)


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
    raw = rng.standard_normal((int(n_random), dim))
    probes = np.vstack([np.eye(dim), raw / np.linalg.norm(raw, axis=1, keepdims=True)])
    vals = np.einsum("ij,ij->i", probes @ E_hat.E, probes)
    wn = energy_norm_squared(probes, system.lambdas, weak)
    sn = energy_norm_squared(probes, system.lambdas, strong)
    excluded = (wn <= 0.0) & (vals > 0.0)
    lower = np.isfinite(wn) & (wn > 0.0)
    upper = ~excluded & (sn > 0.0)
    c1 = np.min(vals[lower] / wn[lower], initial=np.inf)
    c2 = np.max(vals[upper] / sn[upper], initial=0.0)
    n_excluded = int(excluded.sum())
    return BoundsReport(c1_hat=float(max(c1, 0.0)), c2_hat=float(c2),
                        probe_count=len(probes) - n_excluded,
                        weak_scale=weak, strong_scale=strong, excluded=n_excluded)
