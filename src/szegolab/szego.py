"""Limit-theorem machinery: the fractional transform, limits, and scans.

The scaled traces (pi/alpha)^{1/2} Tr phi(T-hat) of the circle model converge
to an alpha-free integral of a log-kernel fractional integral of phi.  This
module evaluates that transform, the limiting right-hand sides, eigenvalue
counting predictions, Schatten-norm limits, and produces per-alpha scan rows
for the golden tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AccuracyError, DomainError
from .quadrature import BLOCK_ELEMENTS, adaptive_integral, graded_edges
from .specfun import WeightedModel
from .geometry import ChartedSubmanifold, _evaluate, pullback_forms
from .toeplitz import (
    CircleSymbolModel,
    SpectrumTruncation,
    _at_norm_bound,
    explicit_count,
    explicit_trace,
)

__all__ = [
    "PhiFunction",
    "power_phi",
    "poly_phi",
    "q_transform",
    "monomial_rhs_circle",
    "szego_rhs",
    "szego_rhs_chart",
    "count_prediction",
    "eigen_count",
    "schatten_limit",
    "ScanRow",
    "convergence_scan",
]


@dataclass(frozen=True)
class PhiFunction:
    """A spectral test function with a declared small-power exponent.

    ``fn`` must accept ndarrays elementwise.  ``p_exponent`` is a p > 0 with
    phi(t)/t^p continuous on [0, R]; it sizes the index window of
    ``explicit_trace`` and, taken at most 1, the tail truncation in the
    transform.  Admissible phi vanish at 0.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    p_exponent: float

    def __post_init__(self):
        if not self.p_exponent > 0.0:
            raise DomainError("declared power exponent must be positive")

    def __call__(self, s):
        return self.fn(s)


def power_phi(p: float) -> PhiFunction:
    """phi(s) = s^p for finite p > 0."""
    if not (p > 0.0 and math.isfinite(p)):
        raise DomainError(f"power must be positive and finite, got {p}")

    def fn(s):
        with np.errstate(under="ignore", over="ignore"):
            return np.asarray(s, dtype=float) ** p

    return PhiFunction(fn=fn, p_exponent=p)


def poly_phi(coeffs: Sequence[float]) -> PhiFunction:
    """phi(s) = c_1 s + c_2 s^2 + ... (no constant term, finite c_k)."""
    cs = tuple(float(c) for c in coeffs)
    if not cs:
        raise DomainError("polynomial needs at least one coefficient")
    if not all(math.isfinite(c) for c in cs):
        raise DomainError(f"polynomial coefficients must be finite, got {cs}")

    def fn(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        power = np.ones_like(s)
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            for c in cs:
                power = power * s
                out += c * power
        return out

    return PhiFunction(fn=fn, p_exponent=1.0)


# The transform's Gauss ladder: starting order and order doublings.
Q_ORDER = 16
Q_MAX_DOUBLINGS = 6
# The limit integrals: agreement target and the circle grid's first node count.
RHS_REL_TOL = 1e-6
RHS_NODES = 32


def q_transform(epsilon: float, phi: PhiFunction, t):
    """Log-kernel fractional integral of phi at t > 0, a scalar or a 1-D array.

    The order epsilon must be finite and >= 0.  For epsilon = 0 this is
    phi(t) itself.  For epsilon > 0, (1/Gamma(eps)) int_0^t phi(s)
    (ln(t/s))^{eps-1} ds/s is evaluated after the substitutions u = ln(t/s),
    v = u^eps, which absorb the endpoint singularity:
        (1/Gamma(eps+1)) int_0^inf phi(t e^{-v^{1/eps}}) dv.
    Geometrically graded panels toward v = 0 handle the Holder endpoint for
    eps > 1; the tail is cut at v_max(t), where the argument of phi
    underflows (phi vanishes at 0 at declared rate p), and a cut past the
    float range (a tiny p or a large eps) raises DomainError.  Monomials come
    out to ~1e-15 relative; the contract target is 1e-8.

    The panels are v_max(t) times one set of unit edges, so every t shares
    the unit nodes and weights and its integral is scaled by v_max(t).  An
    array of t is one vector integrand of the Gauss ladder, taken in chunks
    of ``BLOCK_ELEMENTS // (2 * Q_ORDER)`` = 256 rows: the first two orders
    of the ladder, which every point needs, take one panel of a chunk per
    integrand call within ``quadrature.BLOCK_ELEMENTS`` values, so a call of
    up to 256 points runs one ladder.  Each element is accepted at its own
    first agreeing order, so it equals the scalar call for that t, bit for
    bit.  A point that needs a higher order drags the rest of its chunk up
    the ladder with it, in calls of one panel of 256 rows, above the block
    bound: one hard point among 1,024 (a step phi at eps = 1) took 4 to 5
    times as long as with chunks of 8 rows.  An element that exhausts
    the ladder raises AccuracyError naming its t, and one whose integral
    leaves the float range raises DomainError at the first such order.  A
    scalar t gives a float, an array t an array.
    """
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"transform order must be finite and >= 0, got {epsilon}")
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim > 1:
        raise DomainError(f"transform evaluation points must be a scalar or 1-D, "
                          f"got shape {ts.shape}")
    bad = ~(np.isfinite(ts) & (ts > 0.0))
    if bad.any():
        raise DomainError(f"transform evaluation point must be positive and finite, "
                          f"got {ts[bad][0]}")
    if epsilon == 0.0:
        vals = np.asarray(phi(ts), dtype=float)
        return float(vals[0]) if scalar else vals
    unit_edges = graded_edges(0.0, 1.0, levels=48)
    with np.errstate(over="ignore"):
        v_max = ((710.0 + np.abs(np.log(ts))) / min(phi.p_exponent, 1.0)) ** epsilon
    if not np.isfinite(v_max).all():
        raise DomainError(f"q_transform(eps={epsilon:g}, t={ts[~np.isfinite(v_max)][0]:g}): "
                          f"the tail cut is past the float range (p={phi.p_exponent:g})")
    rows = BLOCK_ELEMENTS // (2 * Q_ORDER)
    vals = np.empty_like(ts)
    with np.errstate(under="ignore"):
        for start in range(0, ts.size, rows):
            chunk = slice(start, start + rows)
            vals[chunk] = v_max[chunk] * adaptive_integral(
                _q_integrand(phi, ts[chunk], v_max[chunk], 1.0 / epsilon), unit_edges,
                rel_tol=1e-10, order=Q_ORDER, max_doublings=Q_MAX_DOUBLINGS,
                what=lambda failed, tc=ts[chunk]: (
                    f"q_transform(eps={epsilon:g}, t={', '.join(f'{x:g}' for x in tc[failed])})"))
    vals /= math.gamma(epsilon + 1.0)
    return float(vals[0]) if scalar else vals


def _q_integrand(phi: PhiFunction, ts: np.ndarray, v_max: np.ndarray, inv_eps: float):
    """Rows phi(t e^{-(v_max w)^{1/eps}}) over unit abscissae w, one row per t.

    The exponent is formed as u_max w^{1/eps}, u_max = v_max^{1/eps}: w^{1/eps}
    is taken once per node column, and u_max with the same rounded 1/eps, so
    the rounding of the tail cut still cancels against the factor v_max of
    the integral (the cut in u before its power eps, which misses that
    rounding, moved values by up to 11 ulps at eps = 2.5).  The argument of
    phi is then built in three passes over one (len(ts), len(w)) array: the
    product, then exp and the factor t in place.
    """
    ts = ts[:, None]
    u_max = v_max[:, None] ** inv_eps

    def integrand(w):
        arg = u_max * -(np.maximum(w, 0.0) ** inv_eps)
        np.exp(arg, out=arg)
        arg *= ts
        return phi(arg)

    return integrand


def monomial_rhs_circle(r: float, m: int) -> float:
    """Limit constant for phi(s)=s^m on the radius-r circle, symbol 1.

    Equals (2 pi r/(1-r^2)) (1-r^2)^{-2m} / sqrt(2m): the transformed
    monomial at the constant value 1/(1-r^2)^2 times the circle length.
    DomainError for a value past the float range.
    """
    if m < 1:
        raise DomainError(f"monomial degree must be >= 1, got {m}")
    circumference = 2.0 * math.pi * r / (1.0 - r * r)
    try:
        value = circumference * (1.0 - r * r) ** (-2 * m) / math.sqrt(2.0 * m)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"monomial limit of degree {m} at r={r:g} exceeds the float range")
    return value


def szego_rhs(model: CircleSymbolModel, phi: PhiFunction) -> float:
    """Limit of sqrt(pi/alpha) Tr phi(T-hat) for the circle model.

    (1/sqrt(2)) int Q_{1/2}(phi)(a(xi)(1-|xi|^2)^{-2}) dsigma(xi).  The
    constant symbol makes the integrand constant and the integral exact;
    Fourier symbols go through periodic quadrature from ``RHS_NODES`` nodes,
    doubled up to six times until two grids agree to ``RHS_REL_TOL``.
    """
    circumference = 2.0 * math.pi * model.r / (1.0 - model.r ** 2)
    scale = (1.0 - model.r ** 2) ** -2
    if model.is_constant_one:
        return circumference * q_transform(0.5, phi, scale) / math.sqrt(2.0)

    def transformed_sum(theta: np.ndarray) -> float:
        x = model.symbol_values(theta) * scale
        positive = x > 0.0
        return float(np.sum(q_transform(0.5, phi, x[positive])))

    # The periodic grid of 2n nodes holds the grid of n as its even nodes,
    # so each doubling evaluates only the n new odd nodes.
    n_nodes = RHS_NODES
    total = transformed_sum(np.arange(n_nodes) / n_nodes)
    prev = total / n_nodes
    for _ in range(6):
        total += transformed_sum((2.0 * np.arange(n_nodes) + 1.0) / (2 * n_nodes))
        n_nodes *= 2
        cur = total / n_nodes
        if abs(cur - prev) <= RHS_REL_TOL * max(abs(cur), 1e-300):
            return circumference * cur / math.sqrt(2.0)
        prev = cur
    raise AccuracyError(
        f"szego_rhs: symbol quadrature did not converge at {n_nodes} nodes")


def szego_rhs_chart(wmodel: WeightedModel, chart: ChartedSubmanifold,
                    symbol: Callable[[np.ndarray], np.ndarray], phi: PhiFunction,
                    dprime: float) -> float:
    """Limit integral over a one-dimensional chart (curves only).

    (1/2^{d'/2}) int Q_{d'/2}(phi)(a(gamma(t)) (1-|gamma(t)|^2)^{-(n+1)})
    sqrt(G(t)) dt over the chart domain (0, 1), to ``RHS_REL_TOL``.
    Higher-dimensional charts are out of scope: the worked example with an
    independent oracle is a curve.

    The chart, its Jacobian and ``symbol`` are called once per block of
    quadrature nodes, with parameters of shape (d, N) = (1, N) (see
    ``ChartedSubmanifold``), so they must accept node arrays; ``symbol``
    returns N values or something that broadcasts to them.  The symbol must
    be finite and nonnegative: a NaN, or a value below -1e-12 of the
    block's largest value (or of 1), raises DomainError naming its t, and
    the tiny negatives above that count as zero.
    """
    if chart.d != 1:
        raise DomainError("general right-hand sides support d = 1 charts only")
    expo = wmodel.n + 1.0

    def integrand(ts):
        out = np.zeros_like(ts)
        if not ts.size:  # the quadrature's empty probe: no chart or symbol call
            return out
        nodes = ts[None, :]
        geo = pullback_forms(wmodel, chart, nodes)
        a = _evaluate(symbol, nodes, ts.shape, "symbol", dtype=float)
        finite = np.isfinite(a)
        bad = ~finite | (a < -1e-12 * np.max(a, where=finite, initial=1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"symbol must be finite and nonnegative, got {float(a[i])!r} "
                              f"at t={float(ts[i])!r}")
        values = a * geo.s ** -expo
        positive = values > 0.0
        if positive.any():
            out[positive] = (q_transform(dprime / 2.0, phi, values[positive])
                             * geo.density[positive])
        return out

    edges = np.linspace(0.0, 1.0, 9)
    val = adaptive_integral(integrand, edges, rel_tol=RHS_REL_TOL, order=8,
                            max_doublings=5, what="szego_rhs_chart")
    return val / 2.0 ** (dprime / 2.0)


def _log_reciprocal(r: float, t: float) -> float:
    arg = (1.0 - r * r) ** 2 * t
    val = -math.log(arg)
    if val < 0.0:
        if val < -1e-9:
            raise DomainError(
                f"interval endpoint {t} exceeds the squared-weight bound "
                f"{(1.0 - r * r) ** -2}")
        val = 0.0
    return val


def count_prediction(r: float, t1: float, t2: float) -> float:
    """Limiting scaled count of eigenvalues in [t1, t2] for the circle.

    limit = sqrt(8 pi) r/(1-r^2) [sqrt(ln(1/((1-r^2)^2 t1)))
                                  - sqrt(ln(1/((1-r^2)^2 t2)))];
    the predicted count at a given alpha is limit * sqrt(alpha/pi), the
    ``rhs_asymptotic_count`` of a counting ``convergence_scan`` row.
    Endpoints above the norm bound 1/(1-r^2)^2 are rejected.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"radius must lie in (0, 1), got {r}")
    if not 0.0 < t1 <= t2:
        raise DomainError(f"need 0 < t1 <= t2, got ({t1}, {t2})")
    u1 = _log_reciprocal(r, t1)
    u2 = _log_reciprocal(r, t2)
    return (math.sqrt(8.0 * math.pi) * r / (1.0 - r * r)
            * (math.sqrt(u1) - math.sqrt(u2)))


def eigen_count(spectrum: SpectrumTruncation, t1: float, t2: float) -> int:
    """Number of eigenvalues in the closed interval [t1, t2].

    Comparisons are exact on the computed values, in whatever order the
    spectrum holds them.  When t2 reaches the operator-norm bound
    sup a/(1-|xi|^2)^2, the finitely many eigenvalues
    that overshoot the bound at finite alpha (the peak approaches it from
    above, by an O(1/alpha) excess) are counted as inside: the bound is the
    asymptotic essential sup of the spectrum, and the reference tables were
    generated with that convention.  The spectrum is an array of matrix
    eigenvalues; ``toeplitz.explicit_count`` counts the explicit spectrum
    the same way without building it.
    """
    lam = spectrum.eigenvalues
    if _at_norm_bound(t2, spectrum.norm_bound):
        return int(np.sum(lam >= t1))
    return int(np.sum((lam >= t1) & (lam <= t2)))


def schatten_limit(model: CircleSymbolModel, p: float) -> float:
    """Limit of (pi/alpha)^{1/2p} times the p-Schatten norm, circle model.

    ((1/(2p)^{1/2}) int (a(xi)(1-|xi|^2)^{-2})^p dsigma)^{1/p}, the limit
    ``szego_rhs`` of s^p to the power 1/p, as Q_{1/2}(s^p)(x) = x^p p^{-1/2}.
    """
    return szego_rhs(model, power_phi(p)) ** (1.0 / p)


@dataclass(frozen=True, slots=True)
class ScanRow:
    """One alpha row of a convergence scan.

    Slotted: a caller that keeps many rows pays 80 B a row, against 121 B
    with an instance dict.
    """

    alpha: float
    lhs_scaled: float
    rhs_limit: float
    count_n: Optional[int] = None
    rhs_asymptotic_count: Optional[float] = None


def convergence_scan(template: CircleSymbolModel,
                     alpha_grid: Sequence[float],
                     phi: Optional[PhiFunction] = None,
                     interval: Optional[tuple] = None) -> list:
    """Scaled spectral sums against the alpha-free limit, one row per alpha.

    Exactly one of ``phi`` (trace of phi of the operator) or ``interval``
    (eigenvalue counting) must be given.  Rows come back in grid order.
    Neither builds the spectrum: counts come from ``explicit_count``, traces
    from ``explicit_trace``, which sums ``phi`` over the index window whose
    omitted tails are below 2^-53 of the sum.
    """
    if (phi is None) == (interval is None):
        raise DomainError("provide exactly one of phi or interval")
    if interval is not None:
        t1, t2 = float(interval[0]), float(interval[1])
        rhs = count_prediction(template.r, t1, t2)
    else:
        rhs = szego_rhs(template, phi)

    def row(alpha: float) -> ScanRow:
        model = replace(template, alpha=float(alpha))
        if interval is not None:
            n_count = explicit_count(model, t1, t2)
            scale = math.sqrt(math.pi / alpha)
            return ScanRow(alpha=float(alpha),
                           lhs_scaled=scale * n_count,
                           rhs_limit=rhs,
                           count_n=n_count,
                           rhs_asymptotic_count=rhs / scale)
        lhs = explicit_trace(model, phi) * math.sqrt(math.pi / alpha)  # refuses alpha <= 0 first
        return ScanRow(alpha=float(alpha), lhs_scaled=lhs, rhs_limit=rhs)

    return [row(float(a)) for a in alpha_grid]
