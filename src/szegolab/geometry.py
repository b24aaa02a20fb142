"""Intrinsic geometry of charted submanifolds of the ball.

The invariant Hermitian metric of the ball pulls back along a chart to a
symmetric form G and a skew form H on the parameter domain; the matrix
W = G^{-1} H is skew-adjoint with respect to G, so its nonzero eigenvalues
come in pairs +-i*lambda with lambda > 0.  The lambda spectrum decides
whether the tangent spaces are isotropic (all lambda vanish), co-isotropic
(d - n of them equal 1, the rest vanish), Lagrangian (isotropic with d = n),
or neither.

Charts are evaluated on whole node arrays, coordinate first: parameters of
shape (d, N), so ``t[j]`` is coordinate j of every node, or (d,) for one
point.  One function, ``pullback_forms``, turns chart points and Jacobians
into G, H, the gaps and the volume density, and returns them as one
``Pullback`` record, per node for (d, N) and as single values for (d,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .eigen import hermitian_eigenvalues
from .errors import ContractViolation, DomainError, RankError
from .specfun import WeightedModel

__all__ = [
    "ChartedSubmanifold",
    "Pullback",
    "SymplecticClass",
    "pullback_forms",
    "skew_half_spectrum",
    "classify",
    "make_chart",
    "CHART_NAMES",
]


def _evaluate(fn, t: np.ndarray, shape: tuple, role: str, dtype=complex) -> np.ndarray:
    """``fn(t)`` as an array of ``shape``, by broadcasting.

    For one point (``t`` of shape (d,)) any output with exactly that many
    entries is also read, in order.  Anything else raises ContractViolation
    naming ``role`` and the callable.
    """
    arr = np.asarray(fn(t), dtype=dtype)
    if arr.shape == shape:
        return arr
    if t.ndim == 1 and arr.size == math.prod(shape):
        return arr.reshape(shape)
    try:
        return np.broadcast_to(arr, shape)
    except ValueError:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        raise ContractViolation(f"{role} ({name}) returned shape {arr.shape}, "
                                f"which does not broadcast to {shape}") from None


def _at(ts, i: int) -> str:
    return "" if ts is None else f" at t={ts[:, i].tolist()!r}"


def _ambient_batch(model: WeightedModel, points: np.ndarray, ts=None):
    """Gaps s = 1 - |p|^2 (N,) and ambient metrics (N, n, n) at points (n, N).

    The invariant Hermitian metric of the ball has entry (j, k) equal to
    delta_jk / s + conj(p_j) p_k / s^2, the complex Hessian of
    -log(1 - |z|^2); it is positive definite inside the ball.  DomainError
    for points of the wrong dimension, and at the first point outside the
    open ball (named by its parameter in ``ts``, if given).
    """
    if points.shape[0] != model.n:
        raise DomainError(f"point has dimension {points.shape[0]}, model has n={model.n}")
    s = 1.0 - np.sum(np.abs(points) ** 2, axis=0)
    outside = ~(s > 0.0)
    if outside.any():
        i = int(np.argmax(outside))
        raise DomainError(f"point{_at(ts, i)} lies outside the open unit ball "
                          f"(|p|^2 = {float(1.0 - s[i])!r})")
    s3 = s[:, None, None]
    eye = np.eye(model.n, dtype=complex)
    return s, eye / s3 + np.einsum("jN,kN->Njk", points.conj(), points) / s3 ** 2


@dataclass(frozen=True)
class ChartedSubmanifold:
    """A chart t in (0,1)^d -> ball in C^n with Jacobian access.

    ``chart`` takes parameters coordinate first, ``t[j]`` being coordinate j:
    a float array of shape (d,) for one point, or (d, N) for N nodes.  It
    returns the complex points, shape (n,) or (n, N), or anything that
    broadcasts to that shape.  ``jacobian``, if given, takes the same
    parameters and returns the partial derivatives, shape (n, d) or
    (n, d, N), column j being the derivative in t[j].  Outputs are read
    with numpy broadcasting, so a constant part needs the trailing node
    axis (length 1) unless n = d = 1.  If ``jacobian`` is omitted, central
    finite differences with step 1e-5 are taken over the whole batch,
    2d chart calls per Jacobian.  A chart that handles one point only is
    still enough for ``point``, ``jacobian_at`` and ``pullback_forms`` at
    one point, which pass shape (d,).
    """

    name: str
    n: int
    d: int
    chart: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def _params(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.ndim not in (1, 2) or t.shape[0] != self.d:
            raise DomainError(f"chart {self.name!r} takes parameters of shape ({self.d},) "
                              f"or ({self.d}, N), got {t.shape}")
        return t

    def point(self, t) -> np.ndarray:
        """The chart at t: shape (n,) for t of shape (d,), (n, N) for (d, N)."""
        t = self._params(t)
        return _evaluate(self.chart, t, (self.n,) + t.shape[1:], f"chart {self.name!r}")

    def jacobian_at(self, t) -> np.ndarray:
        """Partial derivatives at t: shape (n, d) for t of shape (d,), (n, d, N) for (d, N)."""
        t = self._params(t)
        shape = (self.n, self.d) + t.shape[1:]
        if self.jacobian is not None:
            return _evaluate(self.jacobian, t, shape, f"Jacobian of chart {self.name!r}")
        jac = np.empty(shape, dtype=complex)
        step = 1e-5
        for j in range(self.d):
            tp = t.copy()
            tm = t.copy()
            tp[j] += step
            tm[j] -= step
            jac[:, j] = (self.point(tp) - self.point(tm)) / (2.0 * step)
        return jac


class Pullback(NamedTuple):
    """Gaps s = 1 - |p|^2, G symmetric positive definite, H skew and the
    volume density sqrt(det G): s and density of shape (N,) and G and H of
    shape (N, d, d) at N nodes; floats and (d, d) matrices at one point.
    """

    s: np.ndarray
    G: np.ndarray
    H: np.ndarray
    density: np.ndarray


def pullback_forms(model: WeightedModel, manifold: ChartedSubmanifold, t) -> Pullback:
    """Pull the ambient metric back along the chart at t, shape (d,) or (d, N).

    G + iH = J^T B conj(J), B the ambient metric, is Hermitian, so G (its
    real part) is symmetric and H (its imaginary part) skew.  One stacked eigensolve of G gives
    the rank check (RankError naming the node where G is numerically
    singular) and the density, the root of the eigenvalues' product.
    DomainError for a point outside the ball.  A (d,) t reaches the chart as
    (d,) and gives the one-point ``Pullback``, a batch of one underneath.
    """
    ts = manifold._params(t)
    points, jacs = manifold.point(ts), manifold.jacobian_at(ts)
    one = ts.ndim == 1
    if one:
        points, jacs, ts = points[:, None], jacs[..., None], ts[:, None]
    s, b = _ambient_batch(model, points, ts)
    c = np.einsum("jaN,Njk,kbN->Nab", jacs, b, jacs.conj())
    g = 0.5 * (c.real + c.real.swapaxes(-1, -2))
    h = 0.5 * (c.imag - c.imag.swapaxes(-1, -2))
    gvals = np.linalg.eigvalsh(g)
    singular = ~(gvals[:, 0] > 1e-10 * np.maximum(gvals[:, -1], 1e-300))
    if singular.any():
        i = int(np.argmax(singular))
        raise RankError(
            f"induced metric is numerically singular{_at(ts, i)} "
            f"(eigenvalue range [{gvals[i, 0]:.3e}, {gvals[i, -1]:.3e}])")
    out = Pullback(s=s, G=g, H=h, density=np.sqrt(np.prod(gvals, axis=-1)))
    return Pullback(float(s[0]), g[0], h[0], float(out.density[0])) if one else out


def skew_half_spectrum(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The values lambda_k >= 0 of the +-i*lambda_k eigenvalue pairs of G^{-1}H.

    Works on the congruent real skew-symmetric problem: with G = L L^T,
    K = L^{-1} H L^{-T} is skew and similar to W, so the Hermitian iK has
    the eigenvalues +-lambda_k (and a zero for odd d); its top floor(d/2),
    clipped at 0, are exact to about 1e-16 of the largest, where squaring
    K would lose half the digits of a small lambda.  Returns them sorted
    descending (zeros included).
    """
    L = np.linalg.cholesky(G)
    K = np.linalg.solve(L, np.linalg.solve(L, H).T).T
    K = 0.5 * (K - K.T)
    return np.clip(hermitian_eigenvalues(1j * K)[: G.shape[0] // 2], 0.0, None)


@dataclass(frozen=True, slots=True)
class SymplecticClass:
    """Classification outcome: tag, nonzero lambda values, and half-rank.

    Slotted, as callers keep these: an instance takes about 65 B, against
    108 B with an instance dict.
    """

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


def classify(pair: Pullback, n: int, d: int, tol: float = 1e-4) -> SymplecticClass:
    """Tag the tangent space of a one-point ``pair`` at tolerance ``tol``.

    Only ``pair.G`` and ``pair.H`` are read.  isotropic: every lambda below
    tol.  co-isotropic: exactly d - n values within tol of 1, the rest below
    tol.  lagrangian: isotropic with d = n.  Anything else is "neither".
    DomainError for a tol that is not finite and positive.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
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

    def jac(t):
        colat = 0.5 * np.pi * t[0]
        z1 = radius * np.exp(2j * np.pi * t[1])
        z2 = radius * np.exp(2j * np.pi * t[2])
        cos, sin = np.cos(colat), np.sin(colat)
        zero = np.zeros_like(z1)
        return np.array([
            [-0.5 * np.pi * sin * z1, 2j * np.pi * cos * z1, zero],
            [0.5 * np.pi * cos * z2, zero, 2j * np.pi * sin * z2],
        ])

    return ChartedSubmanifold("sphere3", n=2, d=3, chart=chart, jacobian=jac)


def _open_ball(_radius: float) -> ChartedSubmanifold:
    # Full-dimensional open square inside the disc (d = 2n with n = 1).
    def chart(t):
        return np.array([0.8 * ((t[0] - 0.5) + 1j * (t[1] - 0.5))])

    def jac(t):
        one = np.ones_like(t[0])
        return np.array([[0.8 * one, 0.8j * one]])

    return ChartedSubmanifold("open-ball", n=1, d=2, chart=chart, jacobian=jac)


def _generic2d(_radius: float) -> ChartedSubmanifold:
    # Two-dimensional chart in the two-ball that is neither isotropic nor
    # co-isotropic away from the boundary strata.
    def chart(t):
        return np.array([0.5 * t[0] + 0j, 0.5 * t[1] + 0.25j * t[0] * t[1]])

    def jac(t):
        half = np.full_like(t[0], 0.5)
        return np.array([[half, np.zeros_like(half)], [0.25j * t[1], 0.5 + 0.25j * t[0]]])

    return ChartedSubmanifold("generic2d", n=2, d=2, chart=chart, jacobian=jac)


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
