"""Time-domain closed loops, HUM steering, decay fits, and the sequence lemma.

All closed loops here are linear time-invariant, so trajectories are advanced
by the exact matrix exponential of the closed-loop generator over a fixed step
(no secular drift over long horizons).  The generators are block diagonal over
the system's decoupled blocks, and blocks of equal size advance as one stack
(``models.stacked_blocks``; a single-block system is one stack of one) in
chunks of 8 steps, each chunk from its own exponential.  Each loop's generator
maps a stack's records, modes and ``riccati.stack_matrices`` to the stacked
closed-loop matrix, dissipation weight, recorded forms and gain.
No dense propagator, gain, generator or E is assembled; the run keeps each
stack's generator, from which ``default_decay_window`` reads the closed-loop
spectrum one stack at a time.  No (steps, d) array is held: neither states nor
controls are kept, and each bounded row chunk of a stack's states adds its
share of every recorded series (energies, quadratic forms from per-block
weights, control power from the stack's gain) straight into 1-D arrays.

The dissipation integral of each loop's energy identity, such as
``int ||B^T x||^2 dt``, is accumulated exactly from the step Gramian
``int_0^h exp(A^T s) G exp(A s) ds`` that ``riccati.step_map`` returns with
the propagator, so the identities can be verified at integrator precision
rather than sampling-quadrature precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .models import SpectralSystem, apply_free_flow, controllability_gramian, fit_line, stacked_blocks
from .riccati import RiccatiSolution, stack_matrices, step_map
from .spectral import DimensionError, DomainError, EnergyState, as_energy_vector, require_positive
# unused here, but perfbench/tracing.py wraps closed_loop.energy_norm_squared by name
from .spectral import energy_norm_squared  # noqa: F401


@dataclass
class Trajectory:
    """Recorded closed-loop run in energy coordinates: scalar series, one entry per sample.

    ``energies`` are the squared state-space norms, ``values``, ``control_power``
    and ``obs_power`` the recorded quadratic forms; the states and controls
    themselves are not kept.  ``dissipation`` holds the exact time integral over
    the whole horizon of the dissipation density in the run's energy identity,
    independent of the sampling grid.  ``generators`` holds the closed-loop
    generators of the run's stacks of equal-sized blocks, one stacked array each.
    """

    times: np.ndarray
    energies: np.ndarray
    lambdas: np.ndarray
    kind: str
    values: np.ndarray | None = None  # x^T E x along Riccati-feedback runs
    control_power: np.ndarray | None = None  # ||u||^2 samples
    obs_power: np.ndarray | None = None  # ||C w||^2-type samples
    dissipation: float | None = None
    generators: list | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size


# steps between two states advanced by their own exponential, and the numbers in
# one row chunk of a stack's states (and in each product formed from it)
_CHUNK_STEPS = 8
_CHUNK_ELEMENTS = 1 << 14


def _simulate_lti(system: SpectralSystem, generator, x0: np.ndarray, horizon: float,
                  dt: float | None, kind: str) -> Trajectory:
    """Advance x' = A_cl x exactly over equal steps of at most dt, recording its series.

    ``generator(stack, modes, A, B, Q)`` returns the stacked ``(A_cl, G,
    forms, gain)`` of the records ``stack`` with modes ``modes`` (blocks, k),
    given their ``riccati.stack_matrices``.  G is the dissipation density
    x^T G x of the run's energy identity; its exact time integral becomes
    ``Trajectory.dissipation``.  ``forms`` maps the names of recorded
    Trajectory series to the weights M of x^T M x.  ``gain`` is the F of the
    controls u = F x on the padded B's columns, whose ||u||^2 is recorded as
    ``control_power``, or None.  Only the 1-D series are allocated per sample.
    """
    lam = system.lambdas
    x0 = as_energy_vector(x0)
    if x0.size != 2 * lam.size:
        raise DimensionError("initial state dimension mismatch")
    require_positive(horizon=horizon, dt=dt)
    if dt is None:
        dt = min(0.1, np.pi / (8.0 * lam.max()))
    steps = max(1, int(np.ceil(horizon / dt)))
    h = horizon / steps

    series = {"energies": np.zeros(steps + 1)}
    advanced = [_advance_stack(system, generator, stack, h, x0, series)
                for stack in stacked_blocks(system.records)]
    return Trajectory(times=np.linspace(0.0, horizon, steps + 1), lambdas=lam, kind=kind,
                      dissipation=float(sum(d for _, d in advanced)),
                      generators=[A_cl for A_cl, _ in advanced], **series)


def _advance_stack(system, generator, stack, h, x0, series):
    """Add one stack of equal-sized blocks' share of every series, given by their records.

    One ``step_map`` gives the blocks' one-step propagators Phi and step
    Gramians W, another their _CHUNK_STEPS-step propagators.  Every
    _CHUNK_STEPS-th state comes from the one before through the latter and is
    written into its row of the chunk buffer; the states between follow from
    it through the powers of Phi, in one batched product per row chunk into
    the rest of the buffer.  Each chunk adds its share of the energies, of each
    form and, given a gain, of ``control_power`` to ``series``.  Returns the
    stack's closed-loop generator and its share of the dissipation sum over
    the steps, x^T W x at each step's start.
    """
    k = _CHUNK_STEPS
    modes, e, lift = stack_matrices(system.lambdas, stack)
    A_cl, G, forms, gain = generator(stack, modes, *lift)
    del lift  # what the generator does not keep is freed before the exponentials
    Phi, W = step_map(A_cl, h, cost=G)
    chunk_T = step_map(A_cl, k * h)[0].swapaxes(-1, -2)

    nb, s = e.shape
    n = series["energies"].size
    # right factors [Phi^T, ..., (Phi^(k-1))^T] for states stored as rows
    powers = np.empty((nb, s, (k - 1) * s))
    powers[:, :, :s] = Phi.swapaxes(-1, -2)
    for j in range(1, k - 1):
        powers[:, :, j * s:(j + 1) * s] = powers[:, :, (j - 1) * s:j * s] @ Phi.swapaxes(-1, -2)
    del Phi, G  # the loop needs neither, and Phi holds step_map's whole Van Loan exponential
    rows = max(1, _CHUNK_ELEMENTS // (k * nb * s))  # coarse states per row chunk
    chunk = np.empty((nb, rows, k * s))  # per row: a coarse state, then the k - 1 after it
    for name in forms:
        series.setdefault(name, np.zeros(n))
    if gain is not None:
        series.setdefault("control_power", np.zeros(n))
        gain_T = gain.swapaxes(-1, -2)
    state = x0[e][:, None, :]
    dissipation = 0.0
    for start in range(0, n, k * rows):
        m = min(rows, -(-(n - start) // k))
        for i in range(m):
            chunk[:, i, :s] = state[:, 0]
            state = state @ chunk_T
        np.matmul(chunk[:, :m, :s], powers, out=chunk[:, :m, s:])
        Y = chunk[:, :m].reshape(nb, m * k, s)[:, :n - start]
        stop = start + Y.shape[1]
        series["energies"][start:stop] += np.einsum("brs,brs->r", Y, Y)
        for name, M in forms.items():
            series[name][start:stop] += np.einsum("brs,brs->r", Y @ M, Y)
        if gain is not None:
            U = Y @ gain_T
            series["control_power"][start:stop] += np.einsum("brc,brc->r", U, U)
        Y = Y[:, :n - 1 - start]
        dissipation += np.einsum("brs,brs->", Y @ W, Y)
    return A_cl, dissipation


def simulate_collocated(system: SpectralSystem, x0, horizon: float,
                        dt: float | None = None) -> Trajectory:
    """Collocated velocity damping ``u = -B* w_t``: integrates x' = (A - B B^T) x.

    The energy is nonincreasing and the dissipation identity
    ``E(0)/2 - E(T)/2 = int ||B^T x||^2 dt`` holds at integrator precision
    (see energy_identity_defect).
    """
    def generator(stack, modes, A, B, Q):
        BBT = B @ B.swapaxes(-1, -2)
        return A - BBT, BBT, {"obs_power": Q}, -B.swapaxes(-1, -2)

    return _simulate_lti(system, generator, x0, horizon, dt, "collocated")


def simulate_riccati_feedback(system: SpectralSystem, solution: RiccatiSolution, x0,
                              horizon: float, dt: float | None = None) -> Trajectory:
    """Riccati-optimal feedback ``u = -B^T E x``: integrates x' = (A - B B^T E) x.

    Records the Lyapunov values V = x^T E x; when E solves the algebraic
    equation, V is nonincreasing with V(0) - V(T) = int (||B^T E x||^2 +
    ||C w||^2) dt.  A solution off the system's blocks raises DimensionError.
    """
    def generator(stack, modes, A, B, Q):
        E_b = solution.on(modes)
        gain = B.swapaxes(-1, -2) @ E_b
        return (A - B @ gain, gain.swapaxes(-1, -2) @ gain + Q, {"obs_power": Q, "values": E_b},
                -gain)

    return _simulate_lti(system, generator, x0, horizon, dt, "riccati_feedback")


def simulate_backward_observer(system: SpectralSystem, terminal_state, horizon: float,
                               dt: float | None = None) -> Trajectory:
    """Backward observer loop ``phi_tt + A phi = C*C phi_t`` from terminal data.

    Integrated in the reversed time tau = T - t, where it is the damped
    forward system with velocity damping C*C; ``times`` are tau values
    (0 = terminal time, horizon = initial time t = 0).
    """
    def generator(stack, modes, A, B, Q):
        D = np.zeros_like(A)
        D[:, 1::2, 1::2] = [r.Q for r in stack]  # C*C acting on velocities
        return A - D, D, {"obs_power": D}, None

    return _simulate_lti(system, generator, terminal_state, horizon, dt, "backward_observer")


def energy_identity_defect(traj: Trajectory) -> float:
    """Relative defect of the energy/Lyapunov dissipation identity of the run.

    collocated:        E(0)/2 - E(T)/2 = int ||B^T x||^2 dt
    backward_observer: E(0)/2 - E(T)/2 = int ||C phi_t||^2 dt   (in reversed time)
    riccati_feedback:  V(0) - V(T) = int (||B^T E x||^2 + ||C w||^2) dt
    """
    if traj.kind in ("collocated", "backward_observer"):
        lhs = 0.5 * (traj.energies[0] - traj.energies[-1])
        scale = 0.5 * traj.energies[0]
    elif traj.kind == "riccati_feedback":
        lhs = traj.values[0] - traj.values[-1]
        scale = traj.values[0]
    else:
        raise DomainError(f"no energy identity for kind {traj.kind!r}")
    if traj.dissipation is None:
        raise DomainError("trajectory lacks the dissipation integral")
    return abs(lhs - traj.dissipation) / max(scale, 1e-300)


# ---------------------------------------------------------------------------
# HUM minimum-norm steering


@dataclass
class HumControl:
    """Minimal-L2 control steering x0 to zero at t0 (convention:
    u(t) = -B^T Phi(t0 - t)^T W(t0)^{-1} Phi(t0) x0).

    ``gamma`` is W(t0)^{-1} Phi(t0) x0.  ``controls``, the samples of u at
    ``times``, are formed from it on first access, so a stack of draws holds
    one state-sized vector per draw instead of every draw's samples.
    """

    times: np.ndarray
    gamma: np.ndarray
    cost: float
    terminal_residual: float
    gramian_condition: float
    certified: bool
    _rotation: tuple = field(repr=False, compare=False)  # cos, sin of lambda (t - t0); B_mod
    note: str = ""

    @functools.cached_property
    def controls(self) -> np.ndarray:
        c, s, B_mod = self._rotation
        return -((c * self.gamma[1::2] - s * self.gamma[0::2]) @ B_mod)


def hum_null_control(system: SpectralSystem, x0, t0: float, n_samples: int = 257):
    """Steer x0 to the origin at time t0 with the minimum-energy control.

    ``x0`` is one state, or a stack with one state per row, for which a list
    with one HumControl per row is returned; the Gramian is built, its
    condition number taken from its eigenvalues and the whole stack solved in
    one LU solve.  The Gramian is evaluated in closed form; if its condition
    number exceeds 1e12 the solve is Tikhonov-regularized and flagged as not
    certified (a zero state is always certified).  ``terminal_residual`` is
    the state-space norm of the reached terminal state.
    """
    require_positive(t0=t0)
    x0 = as_energy_vector(x0)
    lam = system.lambdas
    if x0.shape[-1] != 2 * lam.size or x0.ndim > 2:
        raise DimensionError("state dimension mismatch")

    W = controllability_gramian(system, t0)
    w = np.abs(np.linalg.eigvalsh(W))  # the singular values of the symmetric W
    with np.errstate(divide="ignore"):
        cond = float(w.max() / w.min())
    states = np.atleast_2d(x0)
    y = apply_free_flow(lam, t0, states)
    shift = 0.0 if cond < 1e12 else 1e-14 * np.trace(W) / W.shape[0]  # Tikhonov
    gamma = np.linalg.solve(W + shift * np.eye(W.shape[0]), y.T).T
    Wgamma = gamma @ W
    costs = np.einsum("ij,ij->i", Wgamma, gamma)
    residuals = np.linalg.norm(y - Wgamma, axis=1)

    # u(t) = -B^T (velocity part of Phi(t - t0) gamma): one rotation for all sample times
    times = np.linspace(0.0, t0, n_samples)
    phase = lam * (times[:, None] - t0)
    rotation = (np.cos(phase), np.sin(phase), system.B_mod)
    out = []
    for x, g, cost, res in zip(states, gamma, costs, residuals, strict=True):
        certified = cond < 1e12 or not np.any(x)
        out.append(HumControl(times=times, gamma=g, cost=float(cost), terminal_residual=float(res),
                              gramian_condition=cond, certified=certified, _rotation=rotation,
                              note="" if certified else "weakly controllable -- residual not certified"))
    return out if x0.ndim == 2 else out[0]


# ---------------------------------------------------------------------------
# decay-rate fitting


@dataclass
class DecayFit:
    """Power-law fit ||x(t)||^2 ~ prefactor * (t+1)^(-exponent) on a window."""

    exponent: float
    prefactor: float
    window: tuple
    r2: float
    n_samples: int = 0


def fit_decay(traj: Trajectory, window) -> DecayFit:
    """Least-squares fit of log E(t) against log(t+1) inside the window.

    E(t) are the recorded energies ``traj.energies``.  Nonpositive values are
    dropped (shrinking the effective window); at least 20 samples must remain.
    """
    t_start, t_end = float(window[0]), float(window[1])
    if not t_start < t_end:
        raise DomainError("window must satisfy t_start < t_end")
    inside = (traj.times > t_start) & (traj.times < t_end)
    if inside.sum() < 20:
        raise DomainError("fewer than 20 samples strictly inside the window")
    vals = traj.energies[inside]
    ts = traj.times[inside]
    pos = vals > 0.0
    if pos.sum() < 20:
        raise DomainError("fewer than 20 positive samples in the window")
    slope, intercept, r2 = fit_line(np.log(ts[pos] + 1.0), np.log(vals[pos]))
    return DecayFit(exponent=float(-slope), prefactor=float(np.exp(intercept)),
                    window=(t_start, t_end), r2=float(max(min(r2, 1.0), 0.0)),
                    n_samples=int(pos.sum()))


def default_decay_window(traj: Trajectory) -> tuple:
    """Window [10, min(300, 0.5 * T_trunc, T)] for rate fits of a closed-loop run of horizon T.

    T_trunc is the energy e-folding time of the slowest damped closed-loop
    mode (1 / (2 min |Re eig|)); ending the window at half that time keeps the
    truncation-induced exponential tail out of the fit.  The eigenvalues are
    those of the run's stacked generators, one ``eigvals`` per stack.
    """
    if traj.generators is None:
        raise DomainError("trajectory lacks its closed-loop generators")
    re = np.abs(np.concatenate([np.linalg.eigvals(A).real.ravel() for A in traj.generators]))
    damped = re[re > 1e-12]
    t_trunc = np.inf if damped.size == 0 else 1.0 / (2.0 * damped.min())
    end = min(300.0, 0.5 * t_trunc, float(traj.times[-1]))
    if end <= 10.0:
        raise DomainError("horizon too short for the default decay window")
    return (10.0, end)


def smooth_initial_state(lambdas, tail_exponent: float, rng=None,
                         signs: str = "random") -> EnergyState:
    """Energy-coordinate data with |xi_n| = |zeta_n| = lambda_n**(-tail_exponent).

    ``tail_exponent = k + 1/2 + margin`` places the data critically in the
    smoothness class D(A^k) (class norm marginally convergent as the
    truncation grows).  Signs are Rademacher by default, or deterministic
    alternating with ``signs='alternating'``.
    """
    lam = np.asarray(lambdas, dtype=float)
    mag = lam ** (-float(tail_exponent))
    if signs == "alternating":
        sx = np.where(np.arange(lam.size) % 2 == 0, 1.0, -1.0)
        sz = np.where(np.arange(lam.size) % 2 == 0, -1.0, 1.0)
    elif signs == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        sx = rng.choice([-1.0, 1.0], size=lam.size)
        sz = rng.choice([-1.0, 1.0], size=lam.size)
    else:
        raise DomainError(f"unknown signs mode {signs!r}")
    return EnergyState(xi=mag * sx, zeta=mag * sz)


# ---------------------------------------------------------------------------
# the sequence lemma behind the polynomial decay rates


def sequence_lemma_check(C: float, alpha: float, m_max: int, a0: float = 1.0):
    """Roll out the extremal recursion a_{m+1} + C a_{m+1}^(2+alpha) = a_m.

    Returns (bound_constant, violations).  The normalized sequence
    b_m = a_m * (m+1)^(1/(1+alpha)) peaks early and then decays monotonically
    toward its limit; ``bound_constant`` is its empirical supremum and
    ``violations`` collects indices past the burn-in max(10, m_max // 20)
    where b_m still increases, which would be evidence against boundedness.
    """
    require_positive(C=C)
    if alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    if m_max < 10:
        raise DomainError("m_max must be at least 10")
    if a0 < 0.0:
        raise DomainError("a0 must be nonnegative")

    power = 1.0 / (1.0 + alpha)
    if a0 == 0.0:
        return 0.0, []
    burn_in = max(10, m_max // 20)

    a = float(a0)
    b_prev = a
    bound = a
    violations = []
    quad = alpha == 0.0
    for m in range(1, m_max + 1):
        if quad:
            a_next = (-1.0 + np.sqrt(1.0 + 4.0 * C * a)) / (2.0 * C)
        else:
            x = a
            for _ in range(60):
                f = x + C * x ** (2.0 + alpha) - a
                if abs(f) <= 1e-15 * max(a, 1e-300):
                    break
                fp = 1.0 + C * (2.0 + alpha) * x ** (1.0 + alpha)
                x -= f / fp
                if x <= 0.0:
                    raise RuntimeError("sequence-lemma root finder left the positive axis")
            else:
                raise RuntimeError("sequence-lemma root finder did not converge")
            a_next = x
        a = a_next
        b = a * (m + 1.0) ** power
        if m > burn_in and b > b_prev * (1.0 + 1e-12):
            violations.append(m)
        bound = max(bound, b)
        b_prev = b
    return float(bound), violations
