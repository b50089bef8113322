"""Modal representation of second-order systems and the scale of weighted norms.

States of ``w_tt + A w = ...`` are kept as coefficient vectors in the
eigenbasis of A: a vector ``(w0, w1)`` is stored as the pairs ``(a_n, b_n)``
with frequencies ``lambda_n`` (eigenvalues of A are ``lambda_n**2``).  All
solvers work in *energy coordinates* ``(xi, zeta) = (lambda*a, b)``, in which
the state-space norm is plain Euclidean and the wave generator is
skew-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Coefficient arrays of mismatched length."""


class DomainError(ValueError):
    """Parameter outside the admissible domain (frequencies, intervals, ...)."""


def as_frequencies(lambdas) -> np.ndarray:
    """Validate and return a frequency array: strictly positive, nondecreasing."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise DimensionError("frequencies must be a nonempty 1-d array")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise DomainError("frequencies must be finite and strictly positive")
    if np.any(np.diff(lam) < 0.0):
        raise DomainError("frequencies must be sorted ascending")
    return lam


def _as_coeffs(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must contain only finite entries")
    return arr


@dataclass(frozen=True)
class ModalVector:
    """Truncated state as per-mode coefficient pairs.

    ``a`` are the position coefficients of w0 and ``b`` the velocity
    coefficients of w1 in the eigenbasis of A.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_coeffs(self.a, "a"))
        object.__setattr__(self, "b", _as_coeffs(self.b, "b"))
        if self.a.shape != self.b.shape:
            raise DimensionError("a and b must have the same length")

    @property
    def n_modes(self) -> int:
        return self.a.size

    @classmethod
    def position_only(cls, a) -> "ModalVector":
        a = _as_coeffs(a, "a")
        return cls(a=a, b=np.zeros_like(a))


@dataclass(frozen=True)
class EnergyState:
    """State in energy coordinates: ``xi = lambda*a``, ``zeta = b``.

    The squared state-space norm is ``sum(xi**2 + zeta**2)``.
    """

    xi: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", _as_coeffs(self.xi, "xi"))
        object.__setattr__(self, "zeta", _as_coeffs(self.zeta, "zeta"))
        if self.xi.shape != self.zeta.shape:
            raise DimensionError("xi and zeta must have the same length")

    @property
    def n_modes(self) -> int:
        return self.xi.size

    def to_vector(self) -> np.ndarray:
        """Interleaved flat vector (xi_1, zeta_1, xi_2, zeta_2, ...)."""
        out = np.empty(2 * self.n_modes)
        out[0::2] = self.xi
        out[1::2] = self.zeta
        return out


def as_energy_vector(x) -> np.ndarray:
    """Flat energy-coordinate vector of an EnergyState or an array-like."""
    return x.to_vector() if isinstance(x, EnergyState) else np.asarray(x, dtype=float)


# Norm-scale kinds.  Each kind defines a per-mode weight applied to the
# energy density lambda**2*a**2 + b**2, except sobolev_state which weights
# a**2 alone (a position-only norm).
_KINDS = ("sobolev_state", "graded", "exp_weight")


@dataclass(frozen=True)
class NormScale:
    """A weight function on frequencies selecting one norm of the scale.

    kind / weight on the energy density ``lambda**2 a**2 + b**2``:

    * ``graded(s)``       -- ``lambda**(2s)``; s = -(t+1) is the dual of graded(t)
    * ``exp_weight(alpha)`` -- ``exp(-2*alpha*lambda)``, alpha >= 0
    * ``sobolev_state(beta)`` -- ``lambda**(4*beta)`` applied to ``a**2`` only
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown norm-scale kind {self.kind!r}")
        if self.kind == "exp_weight" and self.param < 0.0:
            raise DomainError("exp_weight requires alpha >= 0")

    @classmethod
    def graded(cls, s: float) -> "NormScale":
        return cls("graded", float(s))

    @classmethod
    def exp_weight(cls, alpha: float) -> "NormScale":
        return cls("exp_weight", float(alpha))

    # the only kind whose norm vanishes on nonzero states (those at rest in
    # position), so it has no density weight and no bounds_report
    @classmethod
    def sobolev_state(cls, beta: float) -> "NormScale":
        return cls("sobolev_state", float(beta))

    @classmethod
    def energy(cls) -> "NormScale":
        """The plain state-space norm (graded with s = 0)."""
        return cls("graded", 0.0)

    def density_weights(self, lambdas) -> np.ndarray:
        """Per-mode weight on the energy density (every kind but sobolev_state)."""
        lam = as_frequencies(lambdas)
        if self.kind == "graded":
            return lam ** (2.0 * self.param)
        if self.kind == "exp_weight":
            return np.exp(-2.0 * self.param * lam)
        raise DomainError("sobolev_state has no energy-density weight")

    def describe(self) -> str:
        return f"{self.kind}({self.param:g})"


def energy_norm_squared(x, lambdas, scale: NormScale):
    """Squared norm of an energy-coordinate state (EnergyState or flat vector).

    A stack of flat vectors along the last axis gives an array of their
    squared norms; a single state gives a float.
    """
    x = np.atleast_1d(as_energy_vector(x))
    if not np.all(np.isfinite(x)):
        raise DomainError("x must contain only finite entries")
    lam = as_frequencies(lambdas)
    if x.shape[-1] != 2 * lam.size:
        raise DimensionError("frequency count does not match mode count")
    xi, zeta = x[..., 0::2], x[..., 1::2]
    if scale.kind == "sobolev_state":
        # a = xi / lambda, so the weight on xi**2 is lambda**(4*beta - 2)
        out = np.sum(lam ** (4.0 * scale.param - 2.0) * xi**2, axis=-1)
    else:
        out = np.sum(scale.density_weights(lam) * (xi**2 + zeta**2), axis=-1)
    return float(out) if x.ndim == 1 else out


def to_energy(v: ModalVector, lambdas) -> EnergyState:
    lam = as_frequencies(lambdas)
    if lam.size != v.n_modes:
        raise DimensionError("frequency count does not match mode count")
    return EnergyState(xi=lam * v.a, zeta=v.b.copy())
