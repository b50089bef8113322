"""Energy coordinates of second-order systems and the scale of weighted norms.

A state ``(w0, w1)`` of ``w_tt + A w = ...`` has position coefficients a_n
and velocity coefficients b_n in the eigenbasis of A, with frequencies
``lambda_n`` (eigenvalues of A are ``lambda_n**2``).  Every solver takes and
returns it as one flat float vector in *energy coordinates*, interleaved as
``(xi_1, zeta_1, xi_2, zeta_2, ...)`` with ``(xi, zeta) = (lambda*a, b)``: in
them the state-space norm is plain Euclidean and the wave generator is
skew-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Coefficient arrays of mismatched length."""


class DomainError(ValueError):
    """Parameter outside the admissible domain (frequencies, intervals, ...)."""


def require_positive(**values) -> None:
    """Raise DomainError unless each given value is > 0 (so NaN fails); None passes."""
    for name, value in values.items():
        if value is not None and not value > 0.0:
            raise DomainError(f"{name} must be positive")


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


# Norm-scale kinds.  Each kind defines a per-mode weight applied to the
# energy density lambda**2*a**2 + b**2.
_KINDS = ("graded", "exp_weight")


@dataclass(frozen=True)
class NormScale:
    """A weight function on frequencies selecting one norm of the scale.

    kind / weight on the energy density ``lambda**2 a**2 + b**2``:

    * ``graded(s)``       -- ``lambda**(2s)``; s = -(t+1) is the dual of graded(t)
    * ``exp_weight(alpha)`` -- ``exp(-2*alpha*lambda)``, alpha >= 0
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

    @classmethod
    def energy(cls) -> "NormScale":
        """The plain state-space norm (graded with s = 0)."""
        return cls("graded", 0.0)

    def density_weights(self, lambdas) -> np.ndarray:
        """Per-mode weight on the energy density."""
        lam = as_frequencies(lambdas)
        if self.kind == "graded":
            return lam ** (2.0 * self.param)
        return np.exp(-2.0 * self.param * lam)

    def describe(self) -> str:
        return f"{self.kind}({self.param:g})"


def energy_norm_squared(x, lambdas, scale: NormScale):
    """Squared norm ``sum w_n (xi_n**2 + zeta_n**2)`` of an interleaved energy vector.

    ``w_n`` are the scale's density weights.  A stack of vectors along the
    last axis gives an array of their squared norms; a single vector gives a
    float.  A length other than twice the frequency count raises
    DimensionError; unsorted frequencies or nonfinite entries, DomainError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise DomainError("x must contain only finite entries")
    lam = as_frequencies(lambdas)
    if x.shape[-1] != 2 * lam.size:
        raise DimensionError("frequency count does not match mode count")
    out = np.sum(scale.density_weights(lam) * (x[..., 0::2] ** 2 + x[..., 1::2] ** 2), axis=-1)
    return float(out) if x.ndim == 1 else out
