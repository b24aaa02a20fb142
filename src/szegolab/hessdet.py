"""Block-tridiagonal Hessian determinants, three ways.

The phase Hessian of the m-fold trace integral factors through a block
matrix with 2I on the diagonal, -I - iW above it and -I + iW below it,
where W = G^{-1}H is skew-adjoint.  Its determinant admits
(1) direct LU evaluation (LAPACK),
(2) a d x d ring-determinant polynomial in W, and
(3) eigenvalue products / closed forms depending only on the symplectic
    class of the underlying submanifold.
All three must agree; the suite exercises that agreement on seeded data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedClassError
from .geometry import SymplecticClass
from .toeplitz import MAX_MATRIX_ORDER

__all__ = [
    "BlockHessianSpec",
    "build_block_matrix",
    "det_direct",
    "ring_determinant_polynomial",
    "det_via_polynomial",
    "scalar_block_factor",
    "sqrt_det_from_spectrum",
    "ClosedFormDet",
    "det_closed_form",
    "random_metric_pair",
]


@dataclass(frozen=True)
class BlockHessianSpec:
    """Number of composed factors m >= 2 and the d x d matrix W."""

    m: int
    W: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.W, dtype=float)
        if self.m < 2:
            raise DomainError(f"need m >= 2 composed factors, got {self.m}")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DomainError(f"W must be square, got shape {w.shape}")
        object.__setattr__(self, "W", w)

    @property
    def d(self) -> int:
        return self.W.shape[0]


def build_block_matrix(spec: BlockHessianSpec) -> np.ndarray:
    """Dense (m-1)d x (m-1)d matrix with the tridiagonal block pattern.

    Raises DomainError, before allocating, above order MAX_MATRIX_ORDER.
    """
    m, d, w = spec.m, spec.d, spec.W
    size = (m - 1) * d
    if size > MAX_MATRIX_ORDER:
        raise DomainError(f"block matrix order {size} is above the cap of {MAX_MATRIX_ORDER}")
    eye = np.eye(d)
    upper = -eye - 1j * w
    lower = -eye + 1j * w
    out = np.zeros((size, size), dtype=complex)
    for q in range(m - 1):
        out[q * d:(q + 1) * d, q * d:(q + 1) * d] = 2.0 * eye
        if q + 1 < m - 1:
            out[q * d:(q + 1) * d, (q + 1) * d:(q + 2) * d] = upper
            out[(q + 1) * d:(q + 2) * d, q * d:(q + 1) * d] = lower
    return out


def det_direct(matrix) -> complex:
    """Determinant through LAPACK's LU (complex); DomainError past the float range."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(a))
    if not np.isfinite(det):
        raise DomainError(f"determinant of order {a.shape[0]}, or a product of its pivots, "
                          f"exceeds the float range")
    return det


def _odd_binomials(m: int) -> list:
    """C(m, 1), C(m, 3), ... as floats; DomainError past float range (m >= 1030)."""
    try:
        return [float(math.comb(m, k)) for k in range(1, m + 1, 2)]
    except OverflowError:
        raise DomainError(f"binomial coefficients C({m}, k) exceed the float range") from None


def ring_determinant_polynomial(m: int, W: np.ndarray) -> np.ndarray:
    """The d x d matrix sum_l C(m, 2l+1) (-1)^l W^(2l), l = 0..floor((m-1)/2).

    The determinant of the block matrix over the ring generated by I and W,
    whose ordinary determinant is the full block determinant.  DomainError
    for an entry or a term past the float range.
    """
    w = np.asarray(W, dtype=float)
    d = w.shape[0]
    w2 = w @ w
    first, *rest = _odd_binomials(m)
    acc = first * np.eye(d)
    power = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for ell, coeff in enumerate(rest, start=1):
            power = power @ w2
            acc += coeff * (-1.0) ** ell * power
    if not np.isfinite(acc).all():
        raise DomainError(f"ring polynomial for m={m}, d={d} exceeds the float range")
    return acc


def det_via_polynomial(spec: BlockHessianSpec) -> complex:
    """Block determinant through the ring-determinant polynomial in W."""
    return det_direct(ring_determinant_polynomial(spec.m, spec.W))


def scalar_block_factor(m: int, lam: float) -> float:
    """sum_l C(m, 2l+1) lam^(2l) = ((1+lam)^m - (1-lam)^m) / (2 lam).

    Evaluated as the polynomial sum, which is exact at lam = 0 (value m)
    and stable for the lam range that arises here.
    """
    acc = 0.0
    lam2 = lam * lam
    power = 1.0
    for coeff in _odd_binomials(m):
        acc += coeff * power
        power *= lam2
    return acc


def sqrt_det_from_spectrum(m: int, d: int, lambdas) -> float:
    """sqrt(det) from the +-i*lambda_k pairs of W.

    Zero pairs contribute the factor m; the remaining dimension (d odd)
    contributes sqrt(m).  DomainError for a value past the float range.
    """
    lams = [float(v) for v in lambdas]
    if 2 * len(lams) > d:
        raise DomainError(f"{len(lams)} eigenvalue pairs do not fit dimension {d}")
    try:
        out = m ** (0.5 * (d - 2 * len(lams)))
    except OverflowError:  # the float power
        out = math.inf
    for lam in lams:
        out *= scalar_block_factor(m, lam)
    if not math.isfinite(out):
        raise DomainError(f"sqrt(det) for m={m}, d={d} exceeds the float range")
    return out


@dataclass(frozen=True)
class ClosedFormDet:
    """sqrt(det) plus the unified constant 2^{d(m-1)/2} det^{-1/2}."""

    sqrt_det: float
    unified: float


def det_closed_form(m: int, n: int, d: int, cls) -> ClosedFormDet:
    """Closed forms for isotropic / co-isotropic submanifolds.

    sqrt(det) = m^{d/2} (isotropic or lagrangian) or
    2^{(d-n)(m-1)} m^{n-d/2} (co-isotropic).  The unified constant equals
    2^{d'(m-1)/2} m^{-d'/2} with d' = d (isotropic) or 2n - d (co-isotropic).
    DomainError for a d that does not fit the class (1 <= d <= n isotropic,
    d = n lagrangian, n <= d <= 2n co-isotropic) or a power that leaves the
    float range.
    """
    tag = cls.tag if isinstance(cls, SymplecticClass) else str(cls)
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    if tag not in ("isotropic", "lagrangian", "co-isotropic"):
        raise UnsupportedClassError(
            f"no closed determinant form for class {tag!r}")
    lo, hi = {"isotropic": (1, n), "lagrangian": (n, n), "co-isotropic": (n, 2 * n)}[tag]
    if not lo <= d <= hi:
        raise DomainError(f"class {tag!r} needs {lo} <= d <= {hi} in B_n, got d={d}, n={n}")
    try:
        if tag == "co-isotropic":
            dprime = 2 * n - d
            sqrt_det = 2.0 ** ((d - n) * (m - 1)) * float(m) ** (n - d / 2.0)
        else:
            dprime = d
            sqrt_det = float(m) ** (d / 2.0)
        unified = 2.0 ** (dprime * (m - 1) / 2.0) * float(m) ** (-dprime / 2.0)
    except OverflowError:  # a float power
        raise DomainError(f"closed-form determinant for m={m}, n={n}, d={d} "
                          f"exceeds the float range") from None
    return ClosedFormDet(sqrt_det=sqrt_det, unified=unified)


def random_metric_pair(d: int, rng: np.random.Generator):
    """Seeded (G, H) with G symmetric positive definite and H skew.

    G = A^T A + I/2 and H = B - B^T with uniform(-1, 1) entries; this is
    exactly the shape in which the pullback data arises, so W = G^{-1}H is
    skew-adjoint with respect to G.
    """
    if d < 1:
        raise DomainError(f"block dimension must be >= 1, got {d}")
    a = rng.uniform(-1.0, 1.0, size=(d, d))
    b = rng.uniform(-1.0, 1.0, size=(d, d))
    g = a.T @ a + 0.5 * np.eye(d)
    h = b - b.T
    return g, h
