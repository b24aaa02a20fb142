"""Reproducing kernel of the weighted space on the unit ball.

Provides the kernel, its normalized version, and the orthonormal monomial
basis constants for the disc (n = 1).  All powers go through the principal
complex logarithm; the base 1 - <z, w> never touches (-inf, 0] while both
points stay inside the ball, so the branch is unambiguous.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError
from .specfun import WeightedModel, log_gamma

__all__ = [
    "BallPoint",
    "BasisConstant",
    "hermitian_inner",
    "kernel",
    "normalized_kernel",
    "basis_constant",
]


@dataclass(frozen=True)
class BallPoint:
    """A point of the open unit ball; ``norm_sq`` is computed from the coordinates."""

    coords: tuple
    norm_sq: float = field(init=False)

    def __post_init__(self):
        ns = float(sum(abs(z) ** 2 for z in self.coords))
        if not ns < 1.0:
            raise DomainError(f"point lies outside the open unit ball: |z|^2 = {ns}")
        object.__setattr__(self, "norm_sq", ns)

    @classmethod
    def of(cls, *coords) -> "BallPoint":
        return cls(tuple(complex(z) for z in coords))


def _coords(point) -> tuple:
    if isinstance(point, BallPoint):
        return point.coords
    if isinstance(point, (complex, float, int)):
        return (complex(point),)
    return tuple(complex(z) for z in point)


def hermitian_inner(z, w) -> complex:
    """<z, w> = sum_j z_j * conj(w_j)."""
    zc, wc = _coords(z), _coords(w)
    if len(zc) != len(wc):
        raise DomainError("points have different dimensions")
    return sum(a * b.conjugate() for a, b in zip(zc, wc))


def kernel(model: WeightedModel, z, w) -> complex:
    """Reproducing kernel (1 - <z, w>)^(-(n + 1 + alpha))."""
    base = 1.0 - hermitian_inner(z, w)
    return cmath.exp(-model.kernel_exponent * cmath.log(base))


def normalized_kernel(model: WeightedModel, z, w) -> complex:
    """Unit-norm kernel section at w evaluated at z.

    Equals (sqrt(1 - |w|^2) / (1 - <z, w>))^(n + 1 + alpha), computed in log
    space so large weights do not underflow.
    """
    wc = _coords(w)
    wns = sum(abs(c) ** 2 for c in wc)
    base = 1.0 - hermitian_inner(z, w)
    expo = 0.5 * math.log1p(-wns) - cmath.log(base)
    return cmath.exp(model.kernel_exponent * expo)


@dataclass(frozen=True)
class BasisConstant:
    """Normalization of the monomial z^m in the weighted disc space."""

    m: int
    log_delta: float

    @property
    def delta(self) -> float:
        return math.exp(self.log_delta)


def basis_constant(model: WeightedModel, m: int) -> BasisConstant:
    """Constant delta_m with delta_m * z^m an orthonormal basis vector (n = 1).

    delta_m = sqrt(Gamma(m + alpha + 2) / (m! Gamma(alpha + 2))).  Only the
    disc carries an explicit monomial model here; other dimensions raise.
    """
    if model.n != 1:
        raise DomainError("monomial basis constants are only provided for n = 1")
    if m < 0 or int(m) != m:
        raise DomainError(f"basis index must be a nonnegative integer, got {m}")
    a = model.alpha
    ld = 0.5 * (log_gamma(m + a + 2.0) - log_gamma(m + 1.0) - log_gamma(a + 2.0))
    return BasisConstant(int(m), ld)
