"""Time-domain closed loops, HUM steering, decay fits, and the sequence lemma.

All closed loops here are linear time-invariant, so trajectories are advanced
by the exact matrix exponential of the closed-loop generator over a fixed step
(no secular drift over long horizons).

The dissipation integral of each loop's energy identity, such as
``int ||B^T x||^2 dt``, is accumulated exactly from the step Gramian
``int_0^h exp(A^T s) G exp(A s) ds`` that ``riccati.step_map`` returns with
the propagator, so the identities can be verified at integrator precision
rather than sampling-quadrature precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import SpectralSystem, apply_free_flow, controllability_gramian, fit_line
from .riccati import RiccatiSolution, first_order_matrices, step_map
from .spectral import DimensionError, DomainError, EnergyState, as_energy_vector
# unused here, but perfbench/tracing.py wraps closed_loop.energy_norm_squared by name
from .spectral import energy_norm_squared  # noqa: F401


@dataclass
class Trajectory:
    """Recorded closed-loop run in energy coordinates.

    ``states`` has one row per sample; ``energies`` are the squared
    state-space norms.  ``dissipation`` holds the exact time integral over the
    whole horizon of the dissipation density in the run's energy identity,
    independent of the sampling grid.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    lambdas: np.ndarray
    kind: str
    controls: np.ndarray | None = None
    values: np.ndarray | None = None  # x^T E x along Riccati-feedback runs
    control_power: np.ndarray | None = None  # ||u||^2 samples
    obs_power: np.ndarray | None = None  # ||C w||^2-type samples
    dissipation: float | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size

    def state_at(self, i: int) -> EnergyState:
        return EnergyState.from_vector(self.states[i])


def _simulate_lti(system: SpectralSystem, A_cl: np.ndarray, x0: np.ndarray, horizon: float,
                  dt: float | None, kind: str, control_gain: np.ndarray | None,
                  m_obs: np.ndarray, weight: np.ndarray) -> Trajectory:
    """Advance x' = A_cl x exactly over equal steps of at most dt.

    ``weight`` G is the dissipation density x^T G x of the run's energy
    identity; its exact time integral becomes ``Trajectory.dissipation``.
    """
    lam = system.lambdas
    x0 = as_energy_vector(x0)
    if x0.size != A_cl.shape[0]:
        raise DimensionError("initial state dimension mismatch")
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    if dt is None:
        dt = min(0.1, np.pi / (8.0 * lam.max()))
    steps = max(1, int(np.ceil(horizon / dt)))
    h = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)

    P, W = step_map(A_cl, h, cost=weight)
    X = np.empty((steps + 1, x0.size))
    X[0] = x0
    for k in range(steps):
        X[k + 1] = P @ X[k]

    traj = Trajectory(times=times, states=X, energies=np.einsum("ij,ij->i", X, X),
                      lambdas=lam, kind=kind,
                      obs_power=np.einsum("ij,jk,ik->i", X, m_obs, X),
                      dissipation=float(np.sum(W * (X[:-1].T @ X[:-1]))))
    if control_gain is not None:
        traj.controls = X @ control_gain.T  # u(t) = -gain @ x recorded with its sign
        traj.control_power = np.einsum("ij,ij->i", traj.controls, traj.controls)
    return traj


def simulate_collocated(system: SpectralSystem, x0, horizon: float,
                        dt: float | None = None) -> Trajectory:
    """Collocated velocity damping ``u = -B* w_t``: integrates x' = (A - B B^T) x.

    The energy is nonincreasing and the dissipation identity
    ``E(0)/2 - E(T)/2 = int ||B^T x||^2 dt`` holds at integrator precision
    (see energy_identity_defect).
    """
    A, B, Q = first_order_matrices(system)
    BBT = B @ B.T
    return _simulate_lti(system, A - BBT, x0, horizon, dt, "collocated",
                         control_gain=-B.T, m_obs=Q, weight=BBT)


def simulate_riccati_feedback(system: SpectralSystem, solution: RiccatiSolution, x0,
                              horizon: float, dt: float | None = None) -> Trajectory:
    """Riccati-optimal feedback ``u = -B^T E x``: integrates x' = (A - B B^T E) x.

    Records the Lyapunov values V = x^T E x; when E solves the algebraic
    equation, V is nonincreasing with V(0) - V(T) = int (||B^T E x||^2 +
    ||C w||^2) dt.
    """
    A, B, Q = first_order_matrices(system)
    E = solution.E
    if E.shape[0] != A.shape[0]:
        raise DimensionError("Riccati solution dimension does not match the system")
    gain = B.T @ E
    A_cl = A - B @ gain
    traj = _simulate_lti(system, A_cl, x0, horizon, dt, "riccati_feedback",
                         control_gain=-gain, m_obs=Q, weight=gain.T @ gain + Q)
    traj.values = np.einsum("ij,jk,ik->i", traj.states, E, traj.states)
    return traj


def simulate_backward_observer(system: SpectralSystem, terminal_state, horizon: float,
                               dt: float | None = None) -> Trajectory:
    """Backward observer loop ``phi_tt + A phi = C*C phi_t`` from terminal data.

    Integrated in the reversed time tau = T - t, where it is the damped
    forward system with velocity damping C*C; ``times`` are tau values
    (0 = terminal time, horizon = initial time t = 0).
    """
    A, _, _ = first_order_matrices(system)
    n = system.n_modes
    D = np.zeros((2 * n, 2 * n))
    D[np.ix_(np.arange(1, 2 * n, 2), np.arange(1, 2 * n, 2))] = system.Q_obs
    return _simulate_lti(system, A - D, terminal_state, horizon, dt, "backward_observer",
                         control_gain=None, m_obs=D, weight=D)


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
    u(t) = -B^T Phi(t0 - t)^T W(t0)^{-1} Phi(t0) x0)."""

    times: np.ndarray
    controls: np.ndarray
    cost: float
    terminal_residual: float
    gramian_condition: float
    certified: bool
    note: str = ""


def hum_null_control(system: SpectralSystem, x0, t0: float, n_samples: int = 257) -> HumControl:
    """Steer x0 to the origin at time t0 with the minimum-energy control.

    The controllability Gramian is evaluated in closed form; if its condition
    number exceeds 1e12 the solve is Tikhonov-regularized and flagged as not
    certified.  ``terminal_residual`` is the state-space norm of the reached
    terminal state.
    """
    if t0 <= 0.0:
        raise DomainError("steering time must be positive")
    x0 = as_energy_vector(x0)
    lam = system.lambdas
    if x0.size != 2 * lam.size:
        raise DimensionError("state dimension mismatch")

    W = controllability_gramian(system, t0)
    y = apply_free_flow(lam, t0, x0)
    if not np.any(x0):
        times = np.linspace(0.0, t0, n_samples)
        zeros = np.zeros((n_samples, system.n_controls))
        return HumControl(times, zeros, 0.0, 0.0, float(np.linalg.cond(W)), True)

    cond = float(np.linalg.cond(W))
    if cond < 1e12:
        gamma = scipy.linalg.solve(W, y, assume_a="pos")
        certified = True
        note = ""
    else:
        eps = 1e-14 * np.trace(W) / W.shape[0]
        gamma = scipy.linalg.solve(W + eps * np.eye(W.shape[0]), y, assume_a="pos")
        certified = False
        note = "weakly controllable -- residual not certified"

    cost = float(gamma @ W @ gamma)
    residual = float(np.linalg.norm(y - W @ gamma))

    times = np.linspace(0.0, t0, n_samples)
    controls = np.empty((n_samples, system.n_controls))
    for k, t in enumerate(times):
        z = apply_free_flow(lam, t - t0, gamma)
        controls[k] = -(system.B_mod.T @ z[1::2])
    return HumControl(times=times, controls=controls, cost=cost, terminal_residual=residual,
                      gramian_condition=cond, certified=certified, note=note)


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


def default_decay_window(A_cl: np.ndarray, horizon: float) -> tuple:
    """Window [10, min(300, 0.5 * T_trunc, horizon)] for rate fits.

    T_trunc is the energy e-folding time of the slowest damped closed-loop
    mode (1 / (2 min |Re eig|)); ending the window at half that time keeps the
    truncation-induced exponential tail out of the fit.
    """
    re = np.abs(np.linalg.eigvals(A_cl).real)
    damped = re[re > 1e-12]
    t_trunc = np.inf if damped.size == 0 else 1.0 / (2.0 * damped.min())
    end = min(300.0, 0.5 * t_trunc, horizon)
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


def sequence_lemma_check(C: float, alpha: float, m_max: int, a0: float = 1.0,
                         burn_in: int | None = None):
    """Roll out the extremal recursion a_{m+1} + C a_{m+1}^(2+alpha) = a_m.

    Returns (bound_constant, violations).  The normalized sequence
    b_m = a_m * (m+1)^(1/(1+alpha)) peaks early and then decays monotonically
    toward its limit; ``bound_constant`` is its empirical supremum and
    ``violations`` collects indices past the burn-in where b_m still
    increases, which would be evidence against boundedness.
    """
    if C <= 0.0:
        raise DomainError("C must be positive")
    if alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    if m_max < 10:
        raise DomainError("m_max must be at least 10")
    if a0 < 0.0:
        raise DomainError("a0 must be nonnegative")

    power = 1.0 / (1.0 + alpha)
    if a0 == 0.0:
        return 0.0, []
    if burn_in is None:
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
