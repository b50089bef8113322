"""Concrete spectral systems and observability-Gramian estimation.

A system is given by its frequencies ``lambda_n`` (eigenvalues of A are
``lambda_n**2``), the modal control map ``B_mod`` (control enters the velocity
equation) and the modal quadratic form ``Q_obs`` of C*C acting on position
coefficients, so ``||C w||^2 = a^T Q_obs a``.

Distributed controls/observations on subregions are realized through the
exact modal overlap matrix K of the indicator multiplier (closed-form
integrals of eigenfunction products); ``B_mod`` is the symmetric PSD square
root of K, so ``B_mod B_mod^T`` equals K to rounding.  ``B_mod`` is the only
stored form of the control: the Gramians, the Riccati solvers and the closed
loops all form ``B B*`` from its rows, so a system reloaded from ``B_mod``
gives the same numbers as the one that was saved.

The modes split into decoupled blocks: the groups that the control and the
observation couple.  The free flow is per-mode, so every Gramian, Riccati
solution and closed loop of the system is block diagonal over them.  A
``SpectralSystem`` stores only ``lambdas`` and one ``Block`` record per block:
its modes, the controls that act on it with its rows of ``B_mod``, and its
piece of ``Q_obs``.  The dense ``B_mod`` and ``Q_obs`` are assembled from the
records on first access, for serialization, HUM, tracking and the stationary
problem; nothing else of size n x n is held.
The observation factor ``Q_obs^(1/2)`` is one square root per record.
Builders that know their blocks pass them: the rectangle with strip control
one block per x2 index, the synthetic families one block per mode.  The
interval, the stars, loaded and hand-built systems enter through
``SpectralSystem.from_dense``, which finds the blocks once.  The solvers read
the records, one block at a time, and put the pieces back with ``assemble``;
a system with one block is the one-record case.  Tracking and the closed
loops advance ``stacked_blocks``, the records grouped by size, one stack at a
time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import DomainError, DimensionError, as_frequencies, require_positive


class ConsistencyError(RuntimeError):
    """Internal cross-check failed (e.g. a star's eigenvalue count vs its interlacing bound)."""


# ---------------------------------------------------------------------------
# closed-form trigonometric product integrals


def _sinc_like(omega: np.ndarray, upper: float, lower: float = 0.0) -> np.ndarray:
    """int_lower^upper cos(omega x) dx, stable near omega = 0."""
    omega = np.asarray(omega, dtype=float)
    small = np.abs(omega) < 1e-8
    safe = np.where(small, 1.0, omega)
    exact = (np.sin(safe * upper) - np.sin(safe * lower)) / safe
    series = (upper - lower) - omega**2 * (upper**3 - lower**3) / 6.0
    return np.where(small, series, exact)


def sine_product_integral(freqs_row, freqs_col, a: float, b: float) -> np.ndarray:
    """Matrix of int_a^b sin(mu x) sin(nu x) dx over frequency pairs."""
    mu = np.atleast_1d(np.asarray(freqs_row, dtype=float))[:, None]
    nu = np.atleast_1d(np.asarray(freqs_col, dtype=float))[None, :]
    return 0.5 * (_sinc_like(mu - nu, b, a) - _sinc_like(mu + nu, b, a))


def cosine_product_integral(freqs_row, freqs_col, a: float, b: float) -> np.ndarray:
    """Matrix of int_a^b cos(mu x) cos(nu x) dx over frequency pairs."""
    mu = np.atleast_1d(np.asarray(freqs_row, dtype=float))[:, None]
    nu = np.atleast_1d(np.asarray(freqs_col, dtype=float))[None, :]
    return 0.5 * (_sinc_like(mu - nu, b, a) + _sinc_like(mu + nu, b, a))


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root (negative eigenvalue noise clipped at 0), of a matrix or a stack."""
    w, V = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)


# ---------------------------------------------------------------------------
# system container


def energy_index(modes: np.ndarray) -> np.ndarray:
    """Positions of the given modes' (xi, zeta) pairs in interleaved energy coordinates.

    Works along the last axis, so a stack of mode arrays gives a stack of positions.
    """
    return np.stack([2 * modes, 2 * modes + 1], axis=-1).reshape(*modes.shape[:-1], -1)


@dataclass(eq=False)
class Block:
    """The record of one decoupled block of a system.

    ``modes`` are the block's mode indices, increasing.  ``controls`` are the
    indices of the control columns that act on it, increasing; no other block
    uses them.  ``B`` is B_mod on the block's rows and those columns, ``Q`` is
    Q_obs on its rows and columns; both must be finite.  Columns of ``B``
    that are zero are dropped with their index.
    """

    modes: np.ndarray
    controls: np.ndarray
    B: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        controls = np.asarray(self.controls, dtype=int)
        B = np.asarray(self.B, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        k = self.modes.size
        if (self.modes.ndim != 1 or not k or B.shape != (k, controls.size)
                or self.Q.shape != (k, k)):
            raise DimensionError("a block's B and Q must match its modes and controls")
        if (self.modes[1:] <= self.modes[:-1]).any() or (controls[1:] <= controls[:-1]).any():
            raise DimensionError("a block's modes and controls must be increasing")
        if not (np.isfinite(B).all() and np.isfinite(self.Q).all()):
            raise DomainError("a block's B and Q must be finite")
        keep = B.any(axis=0)
        self.controls, self.B = (controls, B) if keep.all() else (controls[keep], B[:, keep])


def _components(linked: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean adjacency, ordered by first index."""
    n = linked.shape[0]
    seen = np.zeros(n, dtype=bool)
    out = []
    for seed in range(n):
        if seen[seed]:
            continue
        member = np.zeros(n, dtype=bool)
        member[seed] = True
        front = member
        while front.any():
            front = linked[front].any(axis=0) & ~member
            member |= front
        seen |= member
        out.append(np.flatnonzero(member))
    return out


@dataclass
class SpectralSystem:
    """Truncated modal system: frequencies and one ``Block`` record per decoupled block.

    ``records`` are ordered by first mode and hold every mode once; each
    control acts on at most one of them.  ``B_mod`` and ``Q_obs`` are the
    dense matrices assembled from them on first access.
    """

    lambdas: np.ndarray
    records: tuple
    n_controls: int
    label: str = ""
    rho: float | None = None  # planted control-side exponent, if any
    eta: float | None = None  # planted observation-side exponent, if any
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lambdas = as_frequencies(self.lambdas)
        records = sorted(self.records, key=lambda r: r.modes[0])
        held = np.sort(np.concatenate([r.modes for r in records]))
        if not np.array_equal(held, np.arange(self.n_modes)):
            raise DimensionError("the blocks must hold every mode once")
        controls = np.concatenate([r.controls for r in records])
        if np.unique(controls).size < controls.size or np.any(controls >= self.n_controls):
            raise DimensionError("each control must act on one block and lie below n_controls")
        # Q_obs symmetric to 1e-12 of its largest entry, then made exactly symmetric, so the
        # Gramians built from it are too (a no-op on shared records)
        scale = max(1.0, max(np.abs(r.Q).max() for r in records))
        for r in records:
            if np.abs(r.Q - r.Q.T).max() > 1e-12 * scale:
                raise DomainError("Q_obs must be symmetric")
            r.Q = 0.5 * (r.Q + r.Q.T)
        self.records = tuple(records)

    @classmethod
    def from_dense(cls, lambdas, B_mod, Q_obs, label: str = "", rho: float | None = None,
                   eta: float | None = None) -> SpectralSystem:
        """The system of a dense ``B_mod`` (n_modes x n_controls) and ``Q_obs``, split into blocks.

        Two modes share a block when a chain of exact nonzeros of ``Q_obs``
        (either triangle), or of control columns acting on both, links them;
        any nonzero coupling, however small, counts.  (A nonzero of
        ``B_mod B_mod^T`` needs a column acting on both modes.)  The records
        check ``Q_obs`` for finiteness and symmetry.
        """
        lam = as_frequencies(lambdas)
        B = np.atleast_2d(np.asarray(B_mod, dtype=float))
        Q = np.atleast_2d(np.asarray(Q_obs, dtype=float))
        n = lam.size
        if B.shape[0] != n:
            raise DimensionError("B_mod must have one row per mode")
        if Q.shape != (n, n):
            raise DimensionError("Q_obs must be n_modes x n_modes")
        acts = (B != 0.0).astype(float)
        linked = (Q != 0.0) | (Q.T != 0.0) | (acts @ acts.T != 0.0)
        columns = np.arange(B.shape[1])
        records = [Block(m, columns, B[m], Q[np.ix_(m, m)]) for m in _components(linked)]
        return cls(lam, records, B.shape[1], label=label, rho=rho, eta=eta)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def blocks(self) -> list[np.ndarray]:
        """Mode-index arrays of the decoupled blocks, ordered by first mode."""
        return [r.modes for r in self.records]

    def _dense(self, name: str) -> np.ndarray:
        """The records' pieces ``name`` put in place in one read-only matrix (cached)."""
        if name not in self._cache:
            n = self.n_modes
            out = np.zeros((n, self.n_controls if name == "B" else n))
            for r in self.records:
                out[np.ix_(r.modes, r.controls if name == "B" else r.modes)] = getattr(r, name)
            out.flags.writeable = False
            self._cache[name] = out
        return self._cache[name]

    @property
    def B_mod(self) -> np.ndarray:
        """Modal control map, n_modes x n_controls (assembled on first access)."""
        return self._dense("B")

    @property
    def Q_obs(self) -> np.ndarray:
        """Modal observation form (assembled on first access)."""
        return self._dense("Q")

    def assemble(self, parts) -> np.ndarray:
        """The block-diagonal energy-coordinate matrix with one part per block.

        ``parts[k]`` is in the interleaved coordinates of ``blocks[k]``; with
        a single block it is returned as it is.
        """
        if len(parts) == 1:
            return parts[0]
        out = np.zeros((2 * self.n_modes, 2 * self.n_modes))
        for modes, part in zip(self.blocks, parts, strict=True):
            e = energy_index(modes)
            out[np.ix_(e, e)] = part
        return out

    def observation_factor(self) -> np.ndarray:
        """A modal factor C with C^T C = Q_obs (symmetric PSD square root).

        Q_obs is block diagonal over the records, so its square root is too:
        one ``psd_sqrt`` per stack of equal-size records' ``Q``, put in place.
        """
        C = np.zeros((self.n_modes, self.n_modes))
        for stack in stacked_blocks(self):
            for r, root in zip(stack, psd_sqrt(np.stack([r.Q for r in stack])), strict=True):
                C[np.ix_(r.modes, r.modes)] = root
        return C


def stacked_blocks(system: SpectralSystem) -> list[list[Block]]:
    """The system's records grouped by block size, one list per size in order of first use."""
    by_size = {}
    for r in system.records:
        by_size.setdefault(r.modes.size, []).append(r)
    return list(by_size.values())


# ---------------------------------------------------------------------------
# builders


def _parse_region(region, name: str):
    """Accept 'full_domain' or ('subinterval', a, b) with 0 <= a < b <= pi."""
    if region == "full_domain":
        return None
    if isinstance(region, (tuple, list)) and len(region) == 3 and region[0] == "subinterval":
        a, b = float(region[1]), float(region[2])
        if not (0.0 <= a < b <= np.pi + 1e-12):
            raise DomainError(f"{name}: subinterval needs 0 <= a < b <= pi, got ({a}, {b})")
        return a, b
    raise DomainError(f"{name}: expected 'full_domain' or ('subinterval', a, b)")


def build_interval_wave(n_modes: int, control="full_domain", observation="full_domain") -> SpectralSystem:
    """Dirichlet wave on (0, pi): lambda_n = n, eigenfunctions sqrt(2/pi) sin(n x).

    Full-domain control gives ``B_mod = I``; subinterval control uses the exact
    overlap matrix ``K[n,m] = (2/pi) int_a^b sin(nx) sin(mx) dx``.  Full-domain
    observation is the gradient (``Q_obs = diag(lambda**2)``); subinterval
    observation restricts the gradient to (a, b).
    """
    if n_modes < 1:
        raise DomainError("n_modes must be >= 1")
    lam = np.arange(1, n_modes + 1, dtype=float)

    ctrl = _parse_region(control, "control")
    if ctrl is None:
        B = np.eye(n_modes)
    else:
        a, b = ctrl
        B = psd_sqrt((2.0 / np.pi) * sine_product_integral(lam, lam, a, b))

    obs = _parse_region(observation, "observation")
    if obs is None:
        Q = np.diag(lam**2)
    else:
        a, b = obs
        Q = (2.0 / np.pi) * np.outer(lam, lam) * cosine_product_integral(lam, lam, a, b)
    return SpectralSystem.from_dense(lam, B, Q, label=f"interval(n={n_modes})")


def _star_secular(lam: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``sum_j cot(lambda l_j)`` at every frequency of ``lam``."""
    x = np.asarray(lam, dtype=float)[..., None] * lengths
    return np.sum(np.cos(x) / np.sin(x), axis=-1)


def _star_roots(lo: np.ndarray, hi: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The root of the secular function in each inter-pole gap (lo, hi), all at once.

    Bisection in lockstep on every gap until each is narrower than brentq's
    tolerance xtol + rtol |x| (xtol 1e-13, rtol 4 eps).  The sum falls from
    +inf to -inf across a gap and is evaluated only at interior midpoints.
    """
    xtol, rtol = 1e-13, 4.0 * np.finfo(float).eps
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.all(hi - lo < xtol + rtol * np.abs(mid)):
            return mid
        above = _star_secular(mid, lengths) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    raise ConsistencyError("the star secular equation did not converge in 100 steps")


def _star_eigenpairs(lengths: np.ndarray, lambda_max: float):
    """All eigenfrequencies <= lambda_max of the star graph with Dirichlet tips.

    On edge j the eigenfunction is ``A_j sin(lambda (l_j - x))`` with x = 0 at
    the center.  Modes come in two families: roots of ``sum_j cot(lambda l_j)``
    strictly between consecutive poles (center value nonzero), and poles shared
    by q >= 2 edges (center value zero, multiplicity q - 1).
    Returns (lambdas, amplitudes) with amplitudes L2-normalized per mode.
    """
    n_edges = lengths.size
    # poles k*pi/l_j, clustered across edges
    pole_entries = []
    for j, ell in enumerate(lengths):
        k_max = int(np.ceil((lambda_max + np.pi / ell) * ell / np.pi)) + 1
        for k in range(1, k_max + 1):
            pole_entries.append((k * np.pi / ell, j))
    pole_entries.sort()
    clusters = []  # (position, [edges])
    tol = 1e-9 * max(1.0, lambda_max)
    for pos, j in pole_entries:
        if clusters and pos - clusters[-1][0] < tol:
            ctr, members = clusters[-1]
            members.append(j)
            clusters[-1] = ((ctr * (len(members) - 1) + pos) / len(members), members)
        else:
            clusters.append((pos, [j]))

    modes = []  # (lambda, amplitude vector over edges)

    def norm_weights(lam):
        # int_0^l sin(lam u)^2 du per edge
        return lengths / 2.0 - np.sin(2.0 * lam * lengths) / (4.0 * lam)

    # center-zero family: shared poles
    for pos, members in clusters:
        if pos > lambda_max or len(members) < 2:
            continue
        mem = np.array(sorted(members))
        weights = norm_weights(pos)[mem]
        # constraint sum_j A_j cos(lam l_j) = 0 on the member edges; build an
        # orthonormal basis in the L2 inner product (Gram = diag(weights))
        row = (np.cos(pos * lengths[mem]) / np.sqrt(weights))[None, :]
        basis = np.linalg.svd(row)[2][1:].T  # (q, q-1), orthonormal in c-coords
        for col in range(basis.shape[1]):
            amp = np.zeros(n_edges)
            amp[mem] = basis[:, col] / np.sqrt(weights)
            modes.append((pos, amp))

    # center-nonzero family: one root of the cot sum per inter-pole gap
    ends = np.concatenate(([0.0], [pos for pos, _ in clusters]))
    keep = ends[:-1] <= lambda_max
    for root in _star_roots(ends[:-1][keep], ends[1:][keep], lengths):
        if root > lambda_max:
            continue
        amp = 1.0 / np.sin(root * lengths)
        nrm = np.sqrt(np.sum(amp**2 * norm_weights(root)))
        modes.append((root, amp / nrm))

    modes.sort(key=lambda t: t[0])
    lams = np.array([m[0] for m in modes])
    amps = np.array([m[1] for m in modes])
    return lams, amps


def build_star_network(lengths, controlled_edge: int, observed_edge: int,
                       lambda_max: float) -> SpectralSystem:
    """Star-shaped network of 1-d waves with a Kirchhoff center and Dirichlet tips.

    Distributed control over the controlled edge, gradient observation on the
    observed edge.  Eigenvalues are the roots of the star secular equation;
    the count is validated against the interlacing bound of the edges
    decoupled by a Dirichlet center.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size < 2:
        raise DomainError("a star network needs at least two edges")
    if not np.all((lengths > 0.0) & (lengths < np.inf)):
        raise DomainError("edge lengths must be positive and finite")
    if not (0 <= controlled_edge < lengths.size and 0 <= observed_edge < lengths.size):
        raise DomainError("edge index out of range")
    require_positive(lambda_max=lambda_max)

    lams, amps = _star_eigenpairs(lengths, float(lambda_max))
    if lams.size == 0:
        raise DomainError(f"lambda_max: no eigenfrequency <= lambda_max = {lambda_max:g}")
    # u(center) = 0 is one linear constraint; with it the edges decouple into
    # Dirichlet intervals with D = sum_j floor(lambda_max l_j / pi) eigenfrequencies
    # <= lambda_max, so by min-max interlacing D <= count <= D + 1.  D is taken
    # both ways for an eigenfrequency within rounding of lambda_max.
    x = lambda_max * lengths / np.pi
    lo = int(np.sum(np.floor(x * (1.0 - 1e-9))))
    hi = int(np.sum(np.floor(x * (1.0 + 1e-9)))) + 1
    if not lo <= lams.size <= hi:
        raise ConsistencyError(
            f"eigenvalue count {lams.size} is outside [{lo}, {hi}], "
            "the interlacing bound from the decoupled edges")

    ae = amps[:, controlled_edge]
    B = psd_sqrt(np.outer(ae, ae)
                 * sine_product_integral(lams, lams, 0.0, lengths[controlled_edge]))
    ao = amps[:, observed_edge]
    Q = (np.outer(ao, ao) * np.outer(lams, lams)
         * cosine_product_integral(lams, lams, 0.0, lengths[observed_edge]))
    label = f"star(lengths={np.array2string(lengths, precision=4)}, ctrl={controlled_edge}, obs={observed_edge})"
    return SpectralSystem.from_dense(lams, B, Q, label=label)


def _rectangle_modes(max_frequency: float) -> np.ndarray:
    """The (m, n) pairs with sqrt(m**2 + n**2) <= max_frequency, one row each, in mode order."""
    k = np.arange(1, int(np.floor(max_frequency)) + 1)
    m, n = np.repeat(k, k.size), np.tile(k, k.size)
    inside = m * m + n * n <= max_frequency**2
    m, n = m[inside], n[inside]
    order = np.lexsort((n, m, np.hypot(m.astype(float), n.astype(float))))
    return np.column_stack([m[order], n[order]])


def build_rectangle(a: float, b: float, max_frequency: float) -> SpectralSystem:
    """Wave on (0,pi)^2 with strip control a < x1 < b and full gradient observation.

    Modes (m, n) with lambda = sqrt(m**2 + n**2) <= max_frequency.  The control
    overlap couples only modes sharing the x2 index:
    ``K = [(2/pi) int_a^b sin(m x) sin(m' x) dx] * delta_{n n'}``, so the system
    is built as one record per x2 index, with no n x n matrix.
    """
    if not (0.0 <= a < b <= np.pi + 1e-12):
        raise DomainError(f"strip needs 0 <= a < b <= pi, got a={a}, b={b}")
    if max_frequency < np.sqrt(2.0):
        raise DomainError("max_frequency below the lowest mode sqrt(2)")

    idx = _rectangle_modes(max_frequency)
    lam = np.hypot(idx[:, 0].astype(float), idx[:, 1].astype(float))

    records = []
    for n in np.unique(idx[:, 1]):
        rows = np.flatnonzero(idx[:, 1] == n)
        K = (2.0 / np.pi) * sine_product_integral(idx[rows, 0], idx[rows, 0], a, b)
        records.append(Block(rows, rows, psd_sqrt(K), np.diag(lam[rows] ** 2)))
    return SpectralSystem(lam, records, lam.size,
                          label=f"rectangle(strip=({a:g},{b:g}), lmax={max_frequency:g})")


def _mode_records(b: np.ndarray, q: np.ndarray) -> list[Block]:
    """One record per mode k: control k acts on it alone with weight b[k]; Q_obs weight q[k]."""
    return [Block([k], [k], [[bk]], [[qk]]) for k, (bk, qk) in enumerate(zip(b, q))]


def build_synthetic(rho: float, eta: float, n_modes: int) -> SpectralSystem:
    """Decoupled family on lambda_n = n realizing the weak-observability exponents exactly.

    ``B_mod = diag(lambda**(-1/rho))`` and the observation weight on the energy
    density is ``lambda**(-2/eta)`` (``Q_obs = diag(lambda**(2 - 2/eta))``).
    ``rho = eta = inf`` gives the exactly observable case (weights one).
    """
    require_positive(rho=rho, eta=eta)  # inf allowed
    lam = np.arange(1, n_modes + 1, dtype=float)
    inv_rho = 0.0 if np.isinf(rho) else 1.0 / rho
    inv_eta = 0.0 if np.isinf(eta) else 1.0 / eta
    records = _mode_records(lam ** (-inv_rho), lam ** (2.0 - 2.0 * inv_eta))
    return SpectralSystem(lam, records, lam.size,
                          label=f"synthetic(rho={rho:g}, eta={eta:g}, n={lam.size})",
                          rho=float(rho), eta=float(eta))


def build_synthetic_exponential(alpha_control: float, alpha_obs: float, n_modes: int) -> SpectralSystem:
    """Decoupled family on lambda_n = n with exponential weights exp(-alpha*lambda) on both sides.

    Realizes the exponentially weighted observability scales (the regime of
    logarithmic decay); the observation weight on the energy density is
    ``exp(-2*alpha_obs*lambda)``.
    """
    if alpha_control < 0.0 or alpha_obs < 0.0:
        raise DomainError("weight rates must be nonnegative")
    lam = np.arange(1, n_modes + 1, dtype=float)
    records = _mode_records(np.exp(-alpha_control * lam), lam**2 * np.exp(-2.0 * alpha_obs * lam))
    return SpectralSystem(lam, records, lam.size,
                          label=f"synthetic_exp(a={alpha_control:g}, b={alpha_obs:g}, n={lam.size})")


# ---------------------------------------------------------------------------
# Gramians of the free flow (exact closed-form time integrals)


def _rotation_gramian(lam: np.ndarray, M11, M22, horizon: float, reverse: bool = False) -> np.ndarray:
    """int_0^T Phi(t)^T M Phi(t) dt for the per-mode rotation flow Phi.

    M = blockdiag-free symmetric with position block M11 and velocity block M22
    (cross blocks zero).  ``reverse`` integrates the transposed flow Phi(-t),
    which turns the observability assembly into the controllability one.
    Interleaved (xi_1, zeta_1, ...) ordering.
    """
    n = lam.size
    T = float(horizon)
    diff = lam[:, None] - lam[None, :]
    summ = lam[:, None] + lam[None, :]

    def S(om):
        small = np.abs(om) < 1e-12
        safe = np.where(small, 1.0, om)
        return np.where(small, T, np.sin(safe * T) / safe)

    def V(om):
        small = np.abs(om) < 1e-12
        safe = np.where(small, 1.0, om)
        return np.where(small, om * T**2 / 2.0, (1.0 - np.cos(safe * T)) / safe)

    i_cc = 0.5 * (S(diff) + S(summ))
    i_ss = 0.5 * (S(diff) - S(summ))
    i_cs = 0.5 * (V(summ) - V(diff))
    if reverse:
        i_cs = -i_cs

    M11 = np.zeros((n, n)) if M11 is None else M11
    M22 = np.zeros((n, n)) if M22 is None else M22
    tl = M11 * i_cc + M22 * i_ss
    tr = M11 * i_cs - M22 * i_cs.T
    br = M11 * i_ss + M22 * i_cc

    W = np.empty((2 * n, 2 * n))
    ix, iz = slice(0, 2 * n, 2), slice(1, 2 * n, 2)
    W[ix, ix] = tl
    W[ix, iz] = tr
    W[iz, ix] = tr.T
    W[iz, iz] = br
    return W


def _gramian(lam: np.ndarray, B: np.ndarray, Q: np.ndarray, horizon: float,
             use_control: bool, reverse: bool = False) -> np.ndarray:
    """Free-flow Gramian of one block (or shell of one) from its frequencies, B_mod rows and Q_obs."""
    if use_control:
        return _rotation_gramian(lam, None, B @ B.T, horizon, reverse=reverse)
    inv = 1.0 / lam
    return _rotation_gramian(lam, Q * np.outer(inv, inv), None, horizon)


def observability_gramian(system: SpectralSystem, horizon: float, use_control: bool = True) -> np.ndarray:
    """Gramian W = int_0^T Phi^T M Phi dt of the free flow, in energy coordinates.

    ``use_control=True`` observes B* w_t (M is the velocity form B B*);
    ``use_control=False`` observes C w (M is C*C lifted to energy coordinates).
    Built block by block from ``system.records``.
    """
    require_positive(horizon=horizon)
    return system.assemble([_gramian(system.lambdas[r.modes], r.B, r.Q, horizon, use_control)
                            for r in system.records])


def controllability_gramian(system: SpectralSystem, horizon: float) -> np.ndarray:
    """Gramian int_0^T Phi(s) B B^T Phi(s)^T ds used by minimum-norm steering."""
    require_positive(horizon=horizon)
    return system.assemble([_gramian(system.lambdas[r.modes], r.B, r.Q, horizon, True,
                                     reverse=True) for r in system.records])


def apply_free_flow(lam: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    """Apply Phi(t) to interleaved energy vectors (the last axis) without forming the matrix."""
    c, s = np.cos(lam * t), np.sin(lam * t)
    out = np.empty_like(x)
    out[..., 0::2] = c * x[..., 0::2] + s * x[..., 1::2]
    out[..., 1::2] = -s * x[..., 0::2] + c * x[..., 1::2]
    return out


# ---------------------------------------------------------------------------
# weak-observability exponent fit


@dataclass
class ObservabilityReport:
    """Shell-wise observability constants and the fitted frequency exponent."""

    shell_edges: np.ndarray
    shell_constants: np.ndarray
    fitted_exponent: float
    fit_r2: float
    horizon: float
    use_control: bool = True
    warnings: list = field(default_factory=list)

    @property
    def rho_hat(self) -> float:
        """Estimated weak-observability exponent: 2/|slope| (inf when flat)."""
        if abs(self.fitted_exponent) < 0.05:
            return np.inf
        return 2.0 / abs(self.fitted_exponent)


def shell_constant(system: SpectralSystem, shell_lo: float, shell_hi: float,
                   horizon: float, use_control: bool = True) -> float:
    """Min eigenvalue of the Gramian restricted to modes in [lo, hi), per unit T/2.

    The restriction is exact: the free flow is per-mode block diagonal, so the
    Gramian of shell-supported data involves only the shell rows and columns,
    and it splits further over the blocks: the minimum is taken over the
    blocks that meet the shell, each Gramian built from the shell's rows and
    columns of the block's record.
    """
    require_positive(horizon=horizon)
    in_shell = (system.lambdas >= shell_lo) & (system.lambdas < shell_hi)
    if not in_shell.any():
        raise DomainError("empty shell")
    lo_eig = np.inf
    for r in system.records:
        part = np.flatnonzero(in_shell[r.modes])
        if part.size:
            cut = np.ix_(part, part)
            W = _gramian(system.lambdas[r.modes[part]], r.B[part], r.Q[cut], horizon, use_control)
            lo_eig = min(lo_eig, np.linalg.eigvalsh(W)[0])
    return float(max(lo_eig, 0.0) / (horizon / 2.0))


def fit_line(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope * x + intercept; returns (slope, intercept, R^2).

    R^2 is 1 for a constant y.  Raises DomainError when x has fewer than two
    distinct values, where no line is determined.
    """
    if np.unique(x).size < 2:
        raise DomainError("a line fit needs at least two distinct abscissae")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - np.sum(resid**2) / ss_tot
    return slope, intercept, r2


def fit_weak_observability(system: SpectralSystem, horizon: float, shells,
                           use_control: bool = True) -> ObservabilityReport:
    """Per-shell [Lambda, 2*Lambda) Gramian minima and a log-log exponent fit.

    The fitted slope of log(constant) vs log(Lambda) estimates -2/rho; shells
    without modes are skipped with a warning in the report.
    """
    shells = np.atleast_1d(np.asarray(shells, dtype=float))
    if shells.size < 3:
        raise DomainError("need at least 3 shells")
    require_positive(horizon=horizon)
    notes = []
    edges, consts = [], []
    for lo in shells:
        hi = 2.0 * lo
        try:
            c = shell_constant(system, lo, hi, horizon, use_control=use_control)
        except DomainError:
            msg = f"shell [{lo:g}, {hi:g}) contains no modes; skipped"
            warnings.warn(msg)
            notes.append(msg)
            continue
        edges.append(lo)
        consts.append(c)
    edges = np.asarray(edges)
    consts = np.asarray(consts)

    mask = consts > 0.0
    if mask.sum() < 2:
        raise ConsistencyError("fewer than two positive shell constants; cannot fit")
    slope, _, r2 = fit_line(np.log(edges[mask]), np.log(consts[mask]))
    return ObservabilityReport(shell_edges=edges, shell_constants=consts,
                               fitted_exponent=float(slope), fit_r2=float(r2),
                               horizon=float(horizon), use_control=use_control,
                               warnings=notes)
