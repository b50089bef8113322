"""Differential and algebraic Riccati solvers for the first-order wave system.

Everything is expressed in energy coordinates, interleaved per mode as
``(xi_1, zeta_1, xi_2, zeta_2, ...)``.  There the generator is skew-symmetric
block diagonal with per-mode blocks ``[[0, lambda], [-lambda, 0]]``, dual
pairings are plain transposes, and the matrix Riccati equation

    E' = Q + E A + A^T E - E B B^T E,   E(0) = 0

is solved in the time-to-go variable.  The quadratic form of a solution at
an initial state is the optimal cost of ``int (||u||^2 + ||C w||^2) dt``.

Every Riccati solver shares one exact kernel, ``step_map``: the step
transition ``e^{M h}`` of the Hamiltonian matrix ``M = [[A, -B B^T], [-Q, -A^T]]``
of the state/adjoint pair or of any other LTI generator (or of a stack of
them), with the Van Loan integral of a quadratic cost over the step (Van Loan
1978).  It is the library's only block-exponential construction: closed loops
and tracking read their steps and exact integrals from it.  Its exponentials
come from ``_expm``, numpy scaling and squaring of the degree-13 Pade
approximant (Al-Mohy & Higham 2009) that chooses each slice's scaling from
that slice alone, so the library's dense kernels all share numpy's one BLAS
thread pool, no scipy module is loaded and no Riccati solve calls an
eigensolver.  The DRE maps E across each step by a linear-fractional triple
read off the blocks of ``e^{M h}`` (``_step_triple``), and
``_compose_triples`` composes two triples exactly, so no ODE integrator is
involved.  ``integrate_dre`` composes a step over a horizon by
``binary_power``; ``solve_are`` composes each block's step with itself until
the limit, the ARE's minimal solution, settles (the structure-preserving
doubling of Chu, Fan & Lin 2005).  Tracking uses the ARE solution instead
(``turnpike.solve_tracking``).  Both solvers work per stack of equal-sized
blocks from ``stack_matrices`` (the per-stack ``first_order_matrices``), and a
``RiccatiSolution`` keeps their forms so: one (modes, forms) pair per stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import Block, SpectralSystem, assemble, energy_index, stacked_blocks
from .spectral import DimensionError, DomainError, require_positive


class StabilizabilityError(RuntimeError):
    """A costly mode is uncontrollable: no finite value function exists."""


class MethodError(RuntimeError):
    """The ARE's doubling did not settle, reached a non-finite iterate, or left a backward error over 1e-10."""


# numbers in one row band of RiccatiSolution's symmetry check
_BAND_ELEMENTS = 1 << 16


@dataclass
class RiccatiSolution:
    """Symmetric PSD quadratic form on the truncated state space, zero off its blocks.

    ``stacks`` holds one pair of modes (blocks, k) and forms (blocks, 2k, 2k)
    per stack of equal-sized blocks (``models.stacked_blocks``); ``E`` is the
    dense matrix.  ``horizon`` is the time-to-go of a DRE snapshot, or ``inf``
    for a solution of the algebraic equation.  ``residual`` is the ARE residual
    norm (zero by convention for DRE snapshots), ``backward_error`` its
    normalization by ``solve_are`` (nan elsewhere; ``riccati.json`` does not
    store it).
    """

    stacks: list
    horizon: float
    residual: float
    method: str
    backward_error: float = np.nan

    def __post_init__(self):
        self.stacks = [(np.asarray(m), np.asarray(E, dtype=float)) for m, E in self.stacks]
        scale = np.max([np.maximum(E.max(), -E.min()) for _, E in self.stacks if E.size], initial=0.0)
        if not np.isfinite(scale):  # nan or inf if any entry is
            raise DomainError("Riccati solution must be finite")
        tol = 1e-10 * (1.0 + scale)
        for m, E in self.stacks:
            if E.shape != m.shape[:-1] + (2 * m.shape[-1],) * 2:
                raise DimensionError("a stack's forms must be (blocks, 2k, 2k) for its modes (blocks, k)")
            # checked in row bands, so no temporary of the stack's size is formed
            rows = max(1, _BAND_ELEMENTS // max(1, E.shape[0] * E.shape[-1]))
            for start in range(0, E.shape[-1], rows):
                if np.abs(E[:, start:start + rows] - E[:, :, start:start + rows].swapaxes(-1, -2)).max() > tol:
                    raise DomainError("Riccati solution must be symmetric")

    @property
    def dim(self) -> int:
        return 2 * sum(m.size for m, _ in self.stacks)

    @property
    def E(self) -> np.ndarray:
        """The dense matrix, assembled on each access."""
        return assemble(self.dim // 2, self.stacks)

    def on(self, modes: np.ndarray) -> np.ndarray:
        """The forms of the stack of blocks with these ``modes``; DimensionError if there is none."""
        for m, E in self.stacks:
            if np.array_equal(m, modes):
                return E
        raise DimensionError("the Riccati solution does not lie on the system's blocks")


def first_order_matrices(system: SpectralSystem):
    """(A_mat, B_mat, Q_mat) of the first-order system in energy coordinates.

    A_mat is skew block diagonal, B_mat stacks zeros over B_mod row-wise per
    mode, and Q_mat carries Q_obs conjugated by diag(1/lambda) on the xi block
    (positions are a = xi/lambda).
    """
    return _lift(system.lambdas, system.B_mod, system.Q_obs)


def stack_matrices(lambdas: np.ndarray, stack):
    """``(modes, energy_index(modes), first_order_matrices)`` of a stack of equal-sized records.

    Each block's B is padded with zero columns to the widest record's.
    """
    modes = np.array([r.modes for r in stack])
    B = np.zeros((len(stack), modes.shape[1], max(r.controls.size for r in stack)))
    for b, r in zip(B, stack):
        b[:, :r.controls.size] = r.B
    return modes, energy_index(modes), _lift(lambdas[modes], B, np.array([r.Q for r in stack]))


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


def step_map(M: np.ndarray, h, cost: np.ndarray | None = None):
    """Exact step of y' = M y over a step h, from one block matrix exponential.

    Returns ``(Phi, W)`` with ``Phi = e^{M h}``.  Given a symmetric cost weight
    G, also ``W = int_0^h e^{M^T s} G e^{M s} ds`` (Van Loan 1978), read off
    ``e^{Z h}`` with ``Z = [[-M^T, G], [0, M]]``, so a step from y costs
    ``y^T W y``; without a weight W is None.  Stepping ``[[M, I], [0, 0]]``
    instead puts ``int_0^h e^{M s} ds`` in the top right block of its Phi.
    A stack of generators (and of weights) gives the stack of their steps,
    each from ``_expm``, which returns the same bits for a slice as alone; h
    is a scalar or one step per slice.
    """
    h = np.asarray(h, dtype=float)[..., None, None]
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


def binary_power(step, n: int, compose):
    """n >= 1 copies of ``step`` composed by binary doubling, with ``compose(first, second)``."""
    acc = None
    while True:
        if n & 1:
            acc = step if acc is None else compose(acc, step)
        n >>= 1
        if not n:
            return acc
        step = compose(step, step)


def _compose_triples(first, second):
    """The DRE step triple (F, G, H) of ``first`` then ``second`` (stacks too).

    With S = I + G_2 H_1: F = F_1 S^-1 F_2, G = G_1 + F_1 S^-1 G_2 F_1^T and
    H = H_2 + F_2^T H_1 S^-1 F_2 (Chu, Fan & Lin 2005).
    """
    (F1, G1, H1), (F2, G2, H2) = first, second
    d = F1.shape[-1]
    X = np.linalg.solve(np.eye(d) + G2 @ H1, np.concatenate([F2, G2 @ np.swapaxes(F1, -1, -2)], -1))
    return F1 @ X[..., :d], G1 + F1 @ X[..., d:], H2 + np.swapaxes(F2, -1, -2) @ H1 @ X[..., :d]


def _step_triple(M: np.ndarray, h):
    """The DRE step triple (F, G, H) of a stack of Hamiltonians over a step h (scalar or one per slice).

    With e^{M h} = [[P11, P12], [P21, P22]] from one ``step_map``, a step maps E
    to H + F^T (I + E G)^-1 E F, with the symmetric G = -P12 P22^-1 =
    -P22^-T P12^T, H = -P22^-1 P21 and F = P11 + G P21.
    """
    P, d = step_map(M, h)[0], M.shape[-1] // 2
    G = -np.linalg.solve(P[..., d:, d:].swapaxes(-1, -2), P[..., :d, d:].swapaxes(-1, -2))
    return P[..., :d, :d] + G @ P[..., d:, :d], G, -np.linalg.solve(P[..., d:, d:], P[..., d:, :d])


def integrate_dre(system: SpectralSystem, horizon: float, snapshot_times=None):
    """Solve the matrix Riccati equation forward in time-to-go from E(0) = 0.

    Returns one RiccatiSolution per requested snapshot (default: the horizon
    only).  Each stack of equal-sized blocks splits each interval between
    snapshot times into equal steps of at most pi/(4 lambda_max) of the stack.
    Binary doubling of the step's ``_step_triple`` (Anderson 1978; Chu, Fan &
    Lin 2005) gives the interval's, which maps the stack's E across it: the
    cost grows with the logarithm of the steps.  The quadratic form is
    monotone nondecreasing in the time-to-go.
    """
    require_positive(horizon=horizon)
    if snapshot_times is None:
        snapshot_times = [horizon]
    taus = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
    if not np.all((taus >= 0.0) & (taus <= horizon + 1e-12)):
        raise DomainError("snapshot times must lie in [0, horizon]")

    unique, lam = np.unique(taus), system.lambdas
    snaps = [[] for _ in unique]
    for stack in stacked_blocks(system.records):
        modes, e, lift = stack_matrices(lam, stack)
        M, d = hamiltonian_matrix(*lift), e.shape[-1]
        E, t_now = np.zeros(e.shape + (d,)), 0.0
        for snap, tau in zip(snaps, unique):
            steps = int(np.ceil((tau - t_now) / (np.pi / (4.0 * lam[modes].max()))))
            if steps:
                F, G, H = binary_power(_step_triple(M, (tau - t_now) / steps), steps, _compose_triples)
                E = H + np.swapaxes(F, -1, -2) @ np.linalg.solve(np.eye(d) + E @ G, E) @ F
                E = 0.5 * (E + np.swapaxes(E, -1, -2))
            snap.append((modes, E))
            t_now = tau
    return [RiccatiSolution(snaps[i], horizon=float(tau), residual=0.0, method="dre")
            for i, tau in zip(np.searchsorted(unique, taus), taus)]


def _split_free(system: SpectralSystem):
    """The records with the free directions split off, the frequencies to solve them at, the rotations.

    Within each block, frequencies are grouped by near-equality; within a
    group the controllable subspace is the row space of B_mod restricted to
    the group.  A direction outside it that carries observation cost raises
    StabilizabilityError.  Otherwise a record with such directions is rotated
    by the left singular vectors of each group's rows and B and Q are set
    exactly 0 on them, so they form a record of their own with Q = 0; each
    rotated group is solved at its first frequency, so that U commutes with
    A.  Each rotation is (modes, orthogonal U, mask of the costly modes).
    The thresholds are the whole system's.
    """
    inv = 1.0 / system.lambdas
    forms = [r.Q * np.outer(inv[r.modes], inv[r.modes]) for r in system.records]
    scale = max(1.0, max(np.abs(r.B).max(initial=0.0) for r in system.records))
    cost_floor = 1e-10 * max(1.0, max(np.abs(Qe).max() for Qe in forms))
    records, rotations, lam_split = [], [], system.lambdas.copy()
    for r, Qe in zip(system.records, forms):
        lam = system.lambdas[r.modes]
        U, free = np.eye(lam.size), np.zeros(lam.size, dtype=bool)
        start = 0
        for i in range(1, lam.size + 1):
            if i < lam.size and lam[i] - lam[start] <= 1e-9 * max(1.0, lam[start]):
                continue
            g = np.arange(start, i)
            start = i
            if g.size == 1 and np.linalg.norm(r.B[g[0]]) > 1e-10 * scale:
                continue  # rank 1: controllable, never rotated
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
            U[np.ix_(g, g)], free[g[rank:]], lam_split[r.modes[g]] = u, True, lam[g[0]]
        on, Q = ~free, U.T @ r.Q @ U
        if on.all():
            records.append(r)
        elif on.any():
            records.append(Block(r.modes[on], r.controls, (U.T @ r.B)[on], Q[np.ix_(on, on)]))
            rotations.append((r.modes, U, on))
        if free.any():
            records.append(Block(r.modes[free], [], np.zeros((free.sum(), 0)), np.zeros((free.sum(),) * 2)))
    return records, lam_split, rotations


def solve_are(system: SpectralSystem) -> RiccatiSolution:
    """Solve ``Q + E A + A^T E - E B B^T E = 0`` for the truncated system.

    The directions that neither control nor observation sees are split off
    first (``_split_free``), and each rotated record's solution is rotated
    back in its own coordinates.  Each stack of equal-sized blocks
    (``models.stacked_blocks``) is solved together, each block on its own.  A
    block with Q exactly 0 has no stabilizing solution, as A is skew, and gets
    its minimal solution 0 at once; its closed loop stays neutral.  Every
    other block gets the limit of the DRE from E(0) = 0, its minimal solution:
    its ``_step_triple`` over h = pi/(4 lambda_max of the block) is composed
    with itself, doubling the horizon each round (Chu, Fan & Lin 2005), until
    ||H_{j+1} - H_j|| <= 1e-15 ||H_{j+1}||.  ``method`` is ``doubling``.

    A block's backward error is ||R|| / (||Q|| + 2 ||A|| ||X|| + ||X||^2 ||B B^T||)
    in Frobenius norms.  A block above 1e-14 takes one Newton step
    (Kleinman 1968), X + D with A_cl^T D + D A_cl = -R(X), D the doubled limit
    of the Lyapunov triple (e^{A_cl h}, 0, W) of ``step_map``, and keeps it
    where it lowers the block's backward error.  MethodError when a doubling
    does not settle within 80 rounds, at a non-finite iterate, or at a final
    backward error above 1e-10.  The reported norms are those of the system's
    own records at the returned E, so they count what the split drops (B and
    Q below its thresholds, a group's frequency spread); they are root sums of
    squares of the blocks', so ``backward_error`` is at most the worst
    block's (Cauchy-Schwarz), and ``residual`` is ||R|| of the whole system.
    """
    records, lam, rotations = _split_free(system)
    parts = {}  # each block's solution, by its first mode
    for stack in stacked_blocks(records):
        modes, _, lift = stack_matrices(lam, stack)
        parts.update(zip(modes[:, 0], _solve_stack(lam[modes], *lift)))
    for modes, U, on in rotations:
        T = np.kron(U, np.eye(2))
        X = T @ assemble(modes.size, [(np.flatnonzero(on), parts[modes[on][0]])]) @ T.T
        parts[modes[0]] = 0.5 * (X + X.T)
    lam, stacks, norms = system.lambdas, [], []
    for stack in stacked_blocks(system.records):
        modes, _, lift = stack_matrices(lam, stack)
        stacks.append((modes, np.stack([parts[m] for m in modes[:, 0]])))
        norms.append(_norms(stacks[-1][1], lam[modes], *lift))
    norms = np.linalg.norm(np.concatenate(norms), axis=0)
    return RiccatiSolution(stacks, horizon=np.inf, residual=float(norms[0]), method="doubling",
                           backward_error=float(_backward_error(norms)))


def _backward_error(norms):
    """Backward errors from the norms (||R||, ||Q||, ||A||, ||X||, ||B B^T||) along the last axis; 0 where R = 0."""
    r, q, a, x, g = norms.T
    return np.divide(r, q + 2.0 * a * x + x * x * g, out=np.zeros_like(r), where=r != 0.0)


def _norms(X: np.ndarray, lam: np.ndarray, A, B, Q):
    """(||R||, ||Q||, ||A||, ||X||, ||B B^T||) along the last axis for iterates X of a stack (``_lift``)."""
    fro = functools.partial(np.linalg.norm, axis=(-2, -1))
    return np.stack([fro(_riccati_rhs(X, lam, B, Q)), fro(Q), fro(A), fro(X),
                     fro(B @ np.swapaxes(B, -1, -2))], axis=-1)


def _solve_stack(lam: np.ndarray, A, B, Q):
    """The ARE solutions of a stack of blocks (``lam``, ``stack_matrices``), each solved on its own."""
    X = np.zeros_like(A)
    i = np.flatnonzero(Q.any(axis=(-2, -1)))
    if not i.size:
        return X
    lam, A, B, Q = lam[i], A[i], B[i], Q[i]
    h = np.pi / (4.0 * lam.max(axis=-1))
    E = _doubled_limit(*_step_triple(hamiltonian_matrix(A, B, Q), h))
    if not np.isfinite(E).all():
        raise MethodError(f"the ARE's doubling reached no finite limit within {_ROUNDS} rounds")
    err = _backward_error(_norms(E, lam, A, B, Q))
    c = np.flatnonzero(err > 1e-14)
    if c.size:  # one Newton step, kept where it lowers the backward error
        A_cl = A[c] - B[c] @ (np.swapaxes(B[c], -1, -2) @ E[c])
        Phi, W = step_map(A_cl, h[c], cost=_riccati_rhs(E[c], lam[c], B[c], Q[c]))
        E_c = E[c] + _doubled_limit(Phi, np.zeros_like(Phi), W)
        err_c = _backward_error(_norms(E_c, lam[c], A[c], B[c], Q[c]))
        better = err_c < err[c]
        E[c[better]], err[c[better]] = E_c[better], err_c[better]
    if (err > 1e-10).any():
        raise MethodError(f"the ARE's doubling left a backward error of {err.max():.2e}")
    X[i] = E
    return X


# self-compositions of a step triple within which its limit must settle
_ROUNDS = 80


def _doubled_limit(F, G, H):
    """The limits of H as a stack of DRE step triples (F, G, H) is composed with itself.

    Each slice stops on its own at the first round with ||H_{j+1} - H_j||_F
    <= 1e-15 ||H_{j+1}||_F and leaves the stack, so it gets the bits it gets
    alone.  Each iterate is symmetrized.  A slice that reaches a non-finite
    iterate, or has not stopped within ``_ROUNDS`` rounds, gets nan.
    """
    fro = functools.partial(np.linalg.norm, axis=(-2, -1))
    out, go = np.full_like(H, np.nan), np.arange(len(H))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging slice leaves with nan
        for _ in range(_ROUNDS):
            F, G, H_next = _compose_triples((F, G, H), (F, G, H))
            H_next = 0.5 * (H_next + np.swapaxes(H_next, -1, -2))
            size = fro(H_next)
            finite = np.isfinite(size)
            done = finite & (fro(H_next - H) <= 1e-15 * size)
            out[go[done]] = H_next[done]
            on = finite & ~done
            go, F, G, H = go[on], F[on], G[on], H_next[on]
            if not go.size:
                break
    return out


def value(solution: RiccatiSolution, x0) -> float:
    """Quadratic-form value x0^T E x0 (the optimal cost from x0), summed over the stacks."""
    x = np.asarray(x0, dtype=float)
    if x.size != solution.dim:
        raise DimensionError("state dimension does not match the Riccati matrix")
    parts = [(x[energy_index(modes)], E) for modes, E in solution.stacks]
    return float(sum(np.einsum("bi,bij,bj->", xe, E, xe) for xe, E in parts))


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
    c2_hat the largest of D_s^-1/2 E D_s^-1/2.  Each stack of E_hat is one
    batch, so a solution on coarser blocks than the system's, such as one
    read from a dense ``wavelq-riccati-v1`` file, gives the same constants to
    rounding.  ``weak`` and ``strong`` are ``NormScale``s.
    """
    if E_hat.dim != 2 * system.n_modes:
        raise DimensionError("Riccati solution dimension does not match the system")
    lam = system.lambdas
    weights = [np.repeat(scale.density_weights(lam), 2) ** -0.5 for scale in (weak, strong)]
    c1, c2 = np.inf, -np.inf
    for modes, E_b in E_hat.stacks:
        e = energy_index(modes)
        lo, hi = (np.linalg.eigvalsh(E_b * w[e][:, :, None] * w[e][:, None, :]) for w in weights)
        c1, c2 = min(c1, lo[:, 0].min()), max(c2, hi[:, -1].max())
    return BoundsReport(c1_hat=float(c1), c2_hat=float(c2), weak_scale=weak, strong_scale=strong)
