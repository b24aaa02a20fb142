"""Intrinsic geometry of charted submanifolds of the ball.

The invariant Hermitian metric of the ball pulls back along a chart to a
symmetric form G and a skew form H on the parameter domain; the matrix
W = G^{-1} H is skew-adjoint with respect to G, so its nonzero eigenvalues
come in pairs +-i*lambda with lambda > 0.  The lambda spectrum decides
whether the tangent spaces are isotropic (all lambda vanish), co-isotropic
(d - n of them equal 1, the rest vanish), Lagrangian (isotropic with d = n),
or neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .eigen import hermitian_eigenvalues
from .errors import DomainError, RankError
from .specfun import WeightedModel

__all__ = [
    "ambient_metric",
    "ChartedSubmanifold",
    "MetricPair",
    "SymplecticClass",
    "pullback_forms",
    "skew_half_spectrum",
    "classify",
    "make_chart",
    "CHART_NAMES",
]


def ambient_metric(model: WeightedModel, p) -> np.ndarray:
    """Invariant Hermitian metric of the ball at p, as an n x n matrix.

    Entry (j, k) is delta_jk / (1 - |p|^2) + conj(p_j) p_k / (1 - |p|^2)^2,
    the complex Hessian of -log(1 - |z|^2); positive definite inside the ball.
    """
    coords = np.asarray(getattr(p, "coords", p), dtype=complex).ravel()
    if coords.size != model.n:
        raise DomainError(f"point has dimension {coords.size}, model has n={model.n}")
    s = 1.0 - float(np.sum(np.abs(coords) ** 2))
    if not s > 0.0:
        raise DomainError("point lies outside the open unit ball")
    return np.eye(model.n, dtype=complex) / s + np.outer(coords.conj(), coords) / s ** 2


@dataclass(frozen=True)
class ChartedSubmanifold:
    """A chart t in (0,1)^d -> ball in C^n with Jacobian access.

    ``chart`` maps a float vector of length d to a complex vector of length
    n.  If ``jacobian`` is omitted, central finite differences with step
    ``fd_step`` are used; columns are the partial derivatives of the chart.
    """

    name: str
    n: int
    d: int
    chart: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-5

    def point(self, t) -> np.ndarray:
        return np.asarray(self.chart(np.asarray(t, dtype=float)), dtype=complex).ravel()

    def jacobian_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t), dtype=complex).reshape(self.n, self.d)
        jac = np.empty((self.n, self.d), dtype=complex)
        for j in range(self.d):
            tp = t.copy()
            tm = t.copy()
            tp[j] += self.fd_step
            tm[j] -= self.fd_step
            jac[:, j] = (self.point(tp) - self.point(tm)) / (2.0 * self.fd_step)
        return jac

    def volume_density(self, model: WeightedModel, t) -> float:
        """sqrt(det G): the density of the induced volume element in chart coordinates."""
        pair = pullback_forms(model, self, t)
        sign, logdet = np.linalg.slogdet(pair.G)
        if sign <= 0:
            raise RankError("degenerate chart: induced metric not positive definite")
        return float(np.exp(0.5 * logdet))


@dataclass(frozen=True)
class MetricPair:
    """Pullback data at one chart point: G symmetric, H skew, W = G^{-1} H."""

    G: np.ndarray
    H: np.ndarray
    W: np.ndarray


def pullback_forms(model: WeightedModel, manifold: ChartedSubmanifold, t) -> MetricPair:
    """Pull the ambient metric back along the chart at parameter t.

    The complex combination G + iH equals J^T B conj(J) with B the ambient
    metric and J the chart Jacobian; that matrix is Hermitian, so its real
    part is symmetric and its imaginary part skew.  Raises RankError when G
    is numerically singular (degenerate chart).
    """
    jac = manifold.jacobian_at(t)
    p = manifold.point(t)
    b = ambient_metric(model, p)
    c = jac.T @ b @ jac.conj()
    g = 0.5 * (c.real + c.real.T)
    h = 0.5 * (c.imag - c.imag.T)
    gvals = hermitian_eigenvalues(g)
    if gvals[-1] <= 1e-10 * max(gvals[0], 1e-300):
        raise RankError(
            f"induced metric is numerically singular at t={t!r} "
            f"(eigenvalue range [{gvals[-1]:.3e}, {gvals[0]:.3e}])")
    w = np.linalg.solve(g, h)
    return MetricPair(G=g, H=h, W=w)


def skew_half_spectrum(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The values lambda_k >= 0 of the +-i*lambda_k eigenvalue pairs of G^{-1}H.

    Works on the congruent real skew-symmetric problem: with G = L L^T,
    K = L^{-1} H L^{-T} is skew and similar to W, and -K^2 is symmetric
    positive semidefinite with each lambda^2 doubled.  Returns floor(d/2)
    values sorted descending (zeros included).
    """
    L = np.linalg.cholesky(G)
    K = np.linalg.solve(L, np.linalg.solve(L, H).T).T
    K = 0.5 * (K - K.T)
    vals = hermitian_eigenvalues(-K @ K)
    lam_sq = np.clip(vals, 0.0, None)
    return np.sqrt(lam_sq[0::2][: G.shape[0] // 2])


@dataclass(frozen=True)
class SymplecticClass:
    """Classification outcome: tag, nonzero lambda values, and half-rank."""

    tag: str  # "isotropic" | "co-isotropic" | "lagrangian" | "neither"
    lambda_spectrum: tuple
    half_rank: int
    d: int

    @property
    def zero_multiplicity(self) -> int:
        return self.d - 2 * self.half_rank

    def describe(self) -> str:
        spec = "[" + ", ".join(f"{v:.6g}" for v in self.lambda_spectrum) + "]"
        label = "isotropic (lagrangian)" if self.tag == "lagrangian" else self.tag
        return f"{label}, λ-spectrum: {spec}"


def classify(pair: MetricPair, n: int, d: int, tol: float = 1e-4) -> SymplecticClass:
    """Tag the tangent space encoded by ``pair`` at tolerance ``tol``.

    isotropic: every lambda below tol.  co-isotropic: exactly d - n values
    within tol of 1, the rest below tol.  lagrangian: isotropic with d = n.
    Anything else is "neither".
    """
    if d > 2 * n:
        raise DomainError(f"chart dimension d={d} exceeds 2n={2 * n}")
    lams = skew_half_spectrum(pair.G, pair.H)
    nonzero = tuple(sorted(float(v) for v in lams if v >= tol))
    r = len(nonzero)
    if r == 0:
        tag = "lagrangian" if d == n else "isotropic"
    elif d >= n and r == d - n and all(abs(v - 1.0) < tol for v in nonzero):
        tag = "co-isotropic"
    else:
        tag = "neither"
    return SymplecticClass(tag=tag, lambda_spectrum=nonzero, half_rank=r, d=d)


# ---------------------------------------------------------------------------
# Built-in charts.  Registration is code-level only; the CLI addresses these
# by name.

def _circle(radius: float) -> ChartedSubmanifold:
    def chart(t):
        return np.array([radius * np.exp(2j * np.pi * t[0])])

    def jac(t):
        return np.array([[2j * np.pi * radius * np.exp(2j * np.pi * t[0])]])

    return ChartedSubmanifold("circle", n=1, d=1, chart=chart, jacobian=jac)


def _sphere3(radius: float) -> ChartedSubmanifold:
    # Real hypersurface |z| = radius in the two-dimensional ball; angles are
    # scaled so the chart domain is the open unit cube.
    def chart(t):
        colat = 0.5 * np.pi * t[0]
        return np.array([
            radius * np.cos(colat) * np.exp(2j * np.pi * t[1]),
            radius * np.sin(colat) * np.exp(2j * np.pi * t[2]),
        ])

    return ChartedSubmanifold("sphere3", n=2, d=3, chart=chart)


def _open_ball(_radius: float) -> ChartedSubmanifold:
    # Full-dimensional open square inside the disc (d = 2n with n = 1).
    def chart(t):
        return np.array([0.8 * ((t[0] - 0.5) + 1j * (t[1] - 0.5))])

    return ChartedSubmanifold("open-ball", n=1, d=2, chart=chart)


def _generic2d(_radius: float) -> ChartedSubmanifold:
    # Two-dimensional chart in the two-ball that is neither isotropic nor
    # co-isotropic away from the boundary strata.
    def chart(t):
        return np.array([0.5 * t[0] + 0j, 0.5 * t[1] + 0.25j * t[0] * t[1]])

    return ChartedSubmanifold("generic2d", n=2, d=2, chart=chart)


_CHARTS = {
    "circle": _circle,
    "sphere3": _sphere3,
    "open-ball": _open_ball,
    "generic2d": _generic2d,
}
CHART_NAMES = tuple(sorted(_CHARTS))


def make_chart(name: str, radius: float = 0.5) -> ChartedSubmanifold:
    """Instantiate a built-in chart by name; ``radius`` applies where meaningful."""
    try:
        factory = _CHARTS[name]
    except KeyError:
        raise DomainError(f"unknown chart {name!r}; available: {', '.join(CHART_NAMES)}")
    if not 0.0 < radius < 1.0:
        raise DomainError(f"chart radius must lie in (0, 1), got {radius}")
    return factory(radius)
