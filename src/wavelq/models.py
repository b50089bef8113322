"""Concrete spectral systems and observability-Gramian estimation.

A system is stored by its frequencies ``lambda_n`` (eigenvalues of A are
``lambda_n**2``), the modal control map ``B_mod`` (control enters the velocity
equation) and the modal quadratic form ``Q_obs`` of C*C acting on position
coefficients, so ``||C w||^2 = a^T Q_obs a``.

Distributed controls/observations on subregions are realized through the
exact modal overlap matrix K of the indicator multiplier (closed-form
integrals of eigenfunction products); ``B_mod`` is the symmetric PSD square
root of K, so ``B_mod B_mod^T = K`` holds exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .spectral import DomainError, DimensionError, as_frequencies


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
    """Symmetric PSD square root (negative eigenvalue noise clipped at 0)."""
    w, V = scipy.linalg.eigh(0.5 * (M + M.T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


# ---------------------------------------------------------------------------
# system container


@dataclass
class SpectralSystem:
    """Truncated modal system: frequencies, control map and observation form."""

    lambdas: np.ndarray
    B_mod: np.ndarray
    Q_obs: np.ndarray
    label: str = ""
    rho: float | None = None  # planted control-side exponent, if any
    eta: float | None = None  # planted observation-side exponent, if any
    _bbt: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.lambdas = as_frequencies(self.lambdas)
        self.B_mod = np.atleast_2d(np.asarray(self.B_mod, dtype=float))
        self.Q_obs = np.atleast_2d(np.asarray(self.Q_obs, dtype=float))
        n = self.n_modes
        if self.B_mod.shape[0] != n:
            raise DimensionError("B_mod must have one row per mode")
        if self.Q_obs.shape != (n, n):
            raise DimensionError("Q_obs must be n_modes x n_modes")
        sym_defect = np.abs(self.Q_obs - self.Q_obs.T).max()
        if sym_defect > 1e-12 * max(1.0, np.abs(self.Q_obs).max()):
            raise DomainError("Q_obs must be symmetric")
        # exactly symmetric, so the Gramians built from it are too
        self.Q_obs = 0.5 * (self.Q_obs + self.Q_obs.T)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def n_controls(self) -> int:
        return self.B_mod.shape[1]

    @property
    def bbt(self) -> np.ndarray:
        """Modal matrix of B B* (cached)."""
        if self._bbt is None:
            self._bbt = self.B_mod @ self.B_mod.T
        return self._bbt

    def observation_energy_form(self) -> np.ndarray:
        """Q_obs lifted to energy coordinates: D^-1 Q_obs D^-1 with D = diag(lambda)."""
        inv = 1.0 / self.lambdas
        return self.Q_obs * np.outer(inv, inv)

    def observation_factor(self) -> np.ndarray:
        """A modal factor C with C^T C = Q_obs (symmetric PSD square root)."""
        return psd_sqrt(self.Q_obs)

    def min_q_obs_eigenvalue(self) -> float:
        return float(scipy.linalg.eigh(self.Q_obs, eigvals_only=True, subset_by_index=[0, 0])[0])


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
        bbt = np.eye(n_modes)
    else:
        a, b = ctrl
        bbt = (2.0 / np.pi) * sine_product_integral(lam, lam, a, b)
        B = psd_sqrt(bbt)

    obs = _parse_region(observation, "observation")
    if obs is None:
        Q = np.diag(lam**2)
    else:
        a, b = obs
        Q = (2.0 / np.pi) * np.outer(lam, lam) * cosine_product_integral(lam, lam, a, b)
        Q = 0.5 * (Q + Q.T)

    return SpectralSystem(lam, B, Q, label=f"interval(n={n_modes})", _bbt=bbt)


def _star_secular(lam: float, lengths: np.ndarray) -> float:
    return float(np.sum(np.cos(lam * lengths) / np.sin(lam * lengths)))


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
        basis = scipy.linalg.null_space(row)  # (q, q-1), orthonormal in c-coords
        for col in range(basis.shape[1]):
            amp = np.zeros(n_edges)
            amp[mem] = basis[:, col] / np.sqrt(weights)
            modes.append((pos, amp))

    # center-nonzero family: one root of the cot sum per inter-pole gap
    gaps = [(0.0, clusters[0][0])]
    gaps += [(clusters[i][0], clusters[i + 1][0]) for i in range(len(clusters) - 1)]
    for left, right in gaps:
        if left > lambda_max:
            break
        width = right - left
        root = None
        delta = 1e-6 * width
        for _ in range(8):
            lo, hi = left + delta, right - delta
            if lo >= hi:
                break
            flo, fhi = _star_secular(lo, lengths), _star_secular(hi, lengths)
            if flo > 0.0 and fhi < 0.0:
                root = scipy.optimize.brentq(_star_secular, lo, hi, args=(lengths,),
                                             xtol=1e-13, rtol=4.0 * np.finfo(float).eps)
                break
            delta *= 1e-2
        if root is None or root > lambda_max:
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
    if np.any(lengths <= 0.0):
        raise DomainError("edge lengths must be positive")
    if not (0 <= controlled_edge < lengths.size and 0 <= observed_edge < lengths.size):
        raise DomainError("edge index out of range")
    if lambda_max <= 0.0:
        raise DomainError("lambda_max must be positive")

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

    le = lengths[controlled_edge]
    ae = amps[:, controlled_edge]
    K = np.outer(ae, ae) * sine_product_integral(lams, lams, 0.0, le)
    K = 0.5 * (K + K.T)
    B = psd_sqrt(K)

    lo = lengths[observed_edge]
    ao = amps[:, observed_edge]
    Q = (np.outer(ao, ao) * np.outer(lams, lams)
         * cosine_product_integral(lams, lams, 0.0, lo))
    Q = 0.5 * (Q + Q.T)

    label = f"star(lengths={np.array2string(lengths, precision=4)}, ctrl={controlled_edge}, obs={observed_edge})"
    sys_ = SpectralSystem(lams, B, Q, label=label, _bbt=K)
    sys_.edge_amplitudes = amps  # per-mode amplitude on each edge
    return sys_


def build_rectangle(a: float, b: float, max_frequency: float) -> SpectralSystem:
    """Wave on (0,pi)^2 with strip control a < x1 < b and full gradient observation.

    Modes (m, n) with lambda = sqrt(m**2 + n**2) <= max_frequency.  The control
    overlap couples only modes sharing the x2 index:
    ``K = [(2/pi) int_a^b sin(m x) sin(m' x) dx] * delta_{n n'}``.
    """
    if not (0.0 <= a < b <= np.pi + 1e-12):
        raise DomainError(f"strip needs 0 <= a < b <= pi, got a={a}, b={b}")
    if max_frequency < np.sqrt(2.0):
        raise DomainError("max_frequency below the lowest mode sqrt(2)")

    mmax = int(np.floor(max_frequency))
    pairs = [(m, n) for m in range(1, mmax + 1) for n in range(1, mmax + 1)
             if m * m + n * n <= max_frequency**2]
    pairs.sort(key=lambda p: (np.hypot(p[0], p[1]), p[0], p[1]))
    idx = np.array(pairs, dtype=int)
    lam = np.hypot(idx[:, 0].astype(float), idx[:, 1].astype(float))

    n_modes = lam.size
    K = np.zeros((n_modes, n_modes))
    B = np.zeros((n_modes, n_modes))
    for n in range(1, mmax + 1):
        rows = np.flatnonzero(idx[:, 1] == n)
        if rows.size == 0:
            continue
        ms = idx[rows, 0].astype(float)
        block = (2.0 / np.pi) * sine_product_integral(ms, ms, a, b)
        block = 0.5 * (block + block.T)
        K[np.ix_(rows, rows)] = block
        B[np.ix_(rows, rows)] = psd_sqrt(block)

    Q = np.diag(lam**2)
    sys_ = SpectralSystem(lam, B, Q, label=f"rectangle(strip=({a:g},{b:g}), lmax={max_frequency:g})",
                          _bbt=K)
    sys_.mode_indices = idx
    return sys_


def _spectrum_array(spectrum, n_modes: int) -> np.ndarray:
    if isinstance(spectrum, str):
        if spectrum != "linear":
            raise DomainError(f"unknown spectrum kind {spectrum!r}")
        return np.arange(1, n_modes + 1, dtype=float)
    return as_frequencies(spectrum)


def build_synthetic(rho: float, eta: float, n_modes: int, spectrum="linear") -> SpectralSystem:
    """Decoupled family realizing the weak-observability exponents exactly.

    ``B_mod = diag(lambda**(-1/rho))`` and the observation weight on the energy
    density is ``lambda**(-2/eta)`` (``Q_obs = diag(lambda**(2 - 2/eta))``).
    ``rho = eta = inf`` gives the exactly observable case (weights one).
    """
    if rho <= 0.0 or eta <= 0.0:
        raise DomainError("rho and eta must be positive (inf allowed)")
    lam = _spectrum_array(spectrum, n_modes)
    inv_rho = 0.0 if np.isinf(rho) else 1.0 / rho
    inv_eta = 0.0 if np.isinf(eta) else 1.0 / eta
    B = np.diag(lam ** (-inv_rho))
    Q = np.diag(lam ** (2.0 - 2.0 * inv_eta))
    return SpectralSystem(lam, B, Q, label=f"synthetic(rho={rho:g}, eta={eta:g}, n={lam.size})",
                          rho=float(rho), eta=float(eta))


def build_synthetic_exponential(alpha_control: float, alpha_obs: float, n_modes: int,
                                spectrum="linear") -> SpectralSystem:
    """Decoupled family with exponential weights exp(-alpha*lambda) on both sides.

    Realizes the exponentially weighted observability scales (the regime of
    logarithmic decay); the observation weight on the energy density is
    ``exp(-2*alpha_obs*lambda)``.
    """
    if alpha_control < 0.0 or alpha_obs < 0.0:
        raise DomainError("weight rates must be nonnegative")
    lam = _spectrum_array(spectrum, n_modes)
    B = np.diag(np.exp(-alpha_control * lam))
    Q = np.diag(lam**2 * np.exp(-2.0 * alpha_obs * lam))
    return SpectralSystem(lam, B, Q,
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


def observability_gramian(system: SpectralSystem, horizon: float, use_control: bool = True) -> np.ndarray:
    """Gramian W = int_0^T Phi^T M Phi dt of the free flow, in energy coordinates.

    ``use_control=True`` observes B* w_t (M is the velocity form B B*);
    ``use_control=False`` observes C w (M is C*C lifted to energy coordinates).
    """
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    lam = system.lambdas
    if use_control:
        return _rotation_gramian(lam, None, system.bbt, horizon)
    return _rotation_gramian(lam, system.observation_energy_form(), None, horizon)


def controllability_gramian(system: SpectralSystem, horizon: float) -> np.ndarray:
    """Gramian int_0^T Phi(s) B B^T Phi(s)^T ds used by minimum-norm steering."""
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    return _rotation_gramian(system.lambdas, None, system.bbt, horizon, reverse=True)


def free_flow(system_or_lambdas, t: float) -> np.ndarray:
    """The rotation propagator Phi(t) as a dense matrix (interleaved coords)."""
    lam = system_or_lambdas.lambdas if isinstance(system_or_lambdas, SpectralSystem) \
        else as_frequencies(system_or_lambdas)
    n = lam.size
    c, s = np.cos(lam * t), np.sin(lam * t)
    P = np.zeros((2 * n, 2 * n))
    ix = np.arange(0, 2 * n, 2)
    P[ix, ix] = c
    P[ix, ix + 1] = s
    P[ix + 1, ix] = -s
    P[ix + 1, ix + 1] = c
    return P


def apply_free_flow(lam: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    """Apply Phi(t) to an interleaved energy vector without forming the matrix."""
    c, s = np.cos(lam * t), np.sin(lam * t)
    out = np.empty_like(x)
    out[0::2] = c * x[0::2] + s * x[1::2]
    out[1::2] = -s * x[0::2] + c * x[1::2]
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
    Gramian of shell-supported data involves only the shell rows and columns.
    """
    idx = np.flatnonzero((system.lambdas >= shell_lo) & (system.lambdas < shell_hi))
    if idx.size == 0:
        raise DomainError("empty shell")
    sublam = system.lambdas[idx]
    if use_control:
        W = _rotation_gramian(sublam, None, system.bbt[np.ix_(idx, idx)], horizon)
    else:
        M11 = system.observation_energy_form()[np.ix_(idx, idx)]
        W = _rotation_gramian(sublam, M11, None, horizon)
    lo_eig = scipy.linalg.eigh(W, eigvals_only=True, subset_by_index=[0, 0])[0]
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
