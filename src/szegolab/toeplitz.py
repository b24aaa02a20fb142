"""Truncated Toeplitz operators for a circle inside the disc.

For the radius-r circle with a nonnegative symbol the operator acts on the
monomial basis through explicit one-dimensional integrals: a constant symbol
gives a diagonal operator with eigenvalues known in closed form, and a
finite Fourier symbol gives a banded Hermitian matrix.  The module also
evaluates the composition-trace integral by FFT diagonalisation of its
circulant kernel, an independent oracle for the spectral formulas, and,
over batches of point or label tuples, the imaginary part of the cyclic
phase and the cyclic label product.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .eigen import hermitian_eigenvalues
from .errors import DomainError

__all__ = [
    "CircleSymbolModel",
    "SpectrumTruncation",
    "largest_eigenvalue_index",
    "explicit_count",
    "explicit_trace",
    "matrix_elements",
    "hermitian_eigenvalues",
    "phase_imag_batch",
    "label_product_batch",
    "composition_trace_quadrature",
]

_SYMBOL_GRID = 4096

# Size caps, checked before anything of that size is allocated; a request
# beyond one raises DomainError (CLI exit 2).  MAX_SPECTRUM_TERMS bounds the
# index window of ``explicit_trace``, which evaluates _CHUNK indices at a
# time (about 0.6 MB of temporaries), so there it caps the work (about 0.4 s
# at the cap), not the memory; and the walk array of
# ``composition_trace_quadrature``, sized before any walk.  Counts evaluate
# a few indices per threshold and have no cap.  _CHUNK = 8192 was the
# fastest of 4096 to 32768 on alpha = 1e5 trace windows of 1.7e4 to 5.3e4
# indices; larger chunks win only on windows of millions, by about 10%.
# MAX_MATRIX_ORDER bounds ``matrix_elements``: a dense complex matrix of
# order 4096 takes 16 * 4096^2 B = 256 MiB before the eigensolve's workspace.
MAX_SPECTRUM_TERMS = 4_000_000
MAX_MATRIX_ORDER = 4096
_CHUNK = 1 << 13
# The default matrix drops the indices past the peak whose constant-symbol
# diagonal is below u^2 of the peak, u = 2^-53 the unit roundoff.
_ROW_FLOOR = 2.0 ** -106
# The windowed trace: each omitted tail of sum lambda^p is at most _TAIL_TOL
# of the window's sum.
_TAIL_TOL = 2.0 ** -53


@dataclass(frozen=True)
class CircleSymbolModel:
    """Circle |z| = r in the disc with weight alpha and a real symbol.

    ``fourier`` holds the coefficients a_hat[0..K] of
    a(theta) = sum_m a_hat[m] e^{2 pi i m theta}; negative indices are the
    conjugates, so the symbol is real by construction.  ``fourier=None``
    means the constant symbol 1.  The symbol must be nonnegative (checked on
    a 4096-point grid) for the positivity-dependent results downstream.
    r^2 must be a normal float (r above about 1.5e-154).
    """

    r: float
    alpha: float
    fourier: Optional[tuple] = None
    norm_bound: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"circle radius must lie in (0, 1), got {self.r}")
        if self.r * self.r < sys.float_info.min:
            raise DomainError(f"circle radius {self.r} is too small: r^2 falls below "
                              f"the smallest normal float")
        if not -1.0 < self.alpha < math.inf:
            raise DomainError(
                f"weight parameter must be finite and exceed -1, got {self.alpha}")
        if self.fourier is not None:
            coeffs = tuple(complex(c) for c in self.fourier)
            if not coeffs:
                raise DomainError("fourier coefficient list must not be empty")
            if not np.all(np.isfinite(coeffs)):
                raise DomainError(f"fourier coefficients must be finite, got {coeffs}")
            if abs(coeffs[0].imag) > 1e-14 * max(1.0, abs(coeffs[0])):
                raise DomainError("zeroth Fourier coefficient must be real")
            object.__setattr__(self, "fourier", coeffs)
            vals = self.symbol_values(np.arange(_SYMBOL_GRID) / _SYMBOL_GRID)
            if vals.min() < -1e-12 * max(vals.max(), 1.0):
                raise DomainError(
                    f"symbol is negative on the check grid (min {vals.min():.3e})")
        sup = 1.0 if self.fourier is None else float(vals.max())
        object.__setattr__(self, "norm_bound", sup / (1.0 - self.r ** 2) ** 2)

    @property
    def is_constant_one(self) -> bool:
        return self.fourier is None

    @property
    def bandwidth(self) -> int:
        """K, the highest Fourier index of the symbol (0 for the constant one)."""
        return 0 if self.fourier is None else len(self.fourier) - 1

    def symbol_values(self, theta) -> np.ndarray:
        """Symbol evaluated on an array of angles (period-1 convention)."""
        theta = np.asarray(theta, dtype=float)
        if self.fourier is None:
            return np.ones_like(theta)
        coeffs = self.fourier
        vals = np.full_like(theta, float(coeffs[0].real))
        for m_idx in range(1, len(coeffs)):
            vals += 2.0 * (coeffs[m_idx] * np.exp(2j * np.pi * m_idx * theta)).real
        return vals

    def fourier_coefficient(self, index: int) -> complex:
        """a_hat[index] for any integer index (conjugate symmetry built in)."""
        coeffs = self.fourier if self.fourier is not None else (1.0 + 0j,)
        k = abs(index)
        if k >= len(coeffs):
            return 0.0 + 0j
        c = complex(coeffs[k])
        return c if index >= 0 else c.conjugate()


@dataclass(frozen=True)
class SpectrumTruncation:
    """A spectrum held as an array, the container ``szego.eigen_count`` reads.

    It holds matrix eigenvalues: the explicit spectrum is never built.
    ``eigen_count`` reads ``eigenvalues`` (any order) and ``norm_bound``
    only; the other fields stay because ``perfbench/workloads.run_fourier``
    builds the container by keyword.
    """

    eigenvalues: np.ndarray
    by_index: np.ndarray
    cutoff_index: int
    tail_estimate: float
    alpha: float
    normalized: bool
    norm_bound: float


def largest_eigenvalue_index(r: float, alpha: float) -> int:
    """Index floor((alpha + 1) r^2 / (1 - r^2)) of the largest eigenvalue.

    A 1e-9 nudge guards against the ratio landing an ulp below an integer
    (e.g. r = 1/sqrt(2), where r^2 rounds just under 1/2).  DomainError for
    an index past the float range.
    """
    ratio = (alpha + 1.0) * r * r / (1.0 - r * r)
    if not math.isfinite(ratio):
        raise DomainError(f"the peak index is past the float range (r={r:g}, alpha={alpha:g})")
    return int(math.floor(ratio + 1e-9))


def _stirlerr_lgamma(x: float) -> float:
    # log Gamma(x+1) - log of its Stirling approximation, for x <= 15.
    return math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - 0.5 * math.log(2.0 * math.pi)


def _stirlerr(x):
    """log Gamma(x+1) - (x+1/2) log x + x - log sqrt(2 pi) for x > 15.

    The first five terms of the Stirling series; the next one is below
    2.2e-16 at x = 15.
    """
    y = 1.0 / (x * x)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - y / 1188) * y) * y) * y) / x


# _stirlerr at the integers 0..15, index 0 unused.
_STIRLERR_SMALL = np.array([0.0] + [_stirlerr_lgamma(k) for k in range(1, 16)])


def _bd0(x, diff):
    """Deviance x log(x/M) + M - x at M = x + diff, as x (t - log1p(t)), t = diff/x.

    The textbook form cancels terms of size x; this one loses only about
    u |diff|, u the unit roundoff.
    """
    t = diff / x
    return x * (t - np.log1p(t))


def _log_diagonal(model: CircleSymbolModel, m, log_scale: float) -> np.ndarray:
    """log_scale + log(d_m / (2 pi)) at the basis indices ``m``, alpha > -1.

    d_m = 2 pi (1-r^2)^(alpha-1) Gamma(alpha+m+2) / (Gamma(alpha+1) m!) r^(2m+1)
    is the constant-symbol diagonal, 2 pi (alpha+1) r p^-3 NB(m) with NB the
    negative-binomial pmf Gamma(n+m)/(Gamma(n) m!) p^n q^m, n = alpha+2,
    p = 1-r^2, q = r^2.  NB is taken in Loader's saddle-point form ("Fast and
    Accurate Computation of Binomial Probabilities", 2000):
    log NB = stirlerr(n+m) - stirlerr(n) - stirlerr(m) - bd0(n, (n+m) p)
    - bd0(m, (n+m) q) - log(2 pi m (n+m)/n)/2, and n log p at m = 0.  Both
    deviances take their M - x from D = n q - m p, so no term of size alpha
    cancels: against 40-digit mpmath log d_m is off by at most 6.8e-13
    within 10 widths of the peak at alpha = 1e5 (r = 0.5, 1/sqrt(2), 0.95),
    where a sum of log-gammas of size 1e6 is off by up to 3.3e-9.

    The second deviance's log1p(t), t = D/m, loses up to m u/r^2 where
    1 + t = (n+m) q/m is small, so for r^2 < 1/16 it is log((n+m)/m) + log q
    where t < -1/2 (at r^2 >= 1/16 the loss is at most 16 m u).

    ``stirlerr`` is the series above 15.  At or below 15 it comes from a
    table at the integers m, and from ``math.lgamma`` for n and for the at
    most 14 values n + m <= 15 (alpha < 13 only); a call takes these
    branches only when it holds such an index.  An entry does not depend on
    which other indices share the call, so a call over a few indices matches
    the full spectrum bit for bit.
    """
    r, a = model.r, model.alpha
    m = np.asarray(m, dtype=float)
    n = a + 2.0
    p, q = (1.0 - r) * (1.0 + r), r * r
    log_base = log_scale + math.log((a + 1.0) * r) - 3.0 * math.log(p)
    small = bool(np.any(m <= 15.0))
    mm = np.maximum(m, 1.0) if small else m   # m = 0 is set last
    big = n + mm
    s_big = _stirlerr(big)
    if n <= 14.0:
        low = big <= 15.0
        s_big[low] = [_stirlerr_lgamma(x) for x in big[low]]
    s_m = _stirlerr(mm)
    if small:
        low = mm <= 15.0
        s_m[low] = _STIRLERR_SMALL[mm[low].astype(np.intp)]
    s_n = _stirlerr(n) if n > 15.0 else _stirlerr_lgamma(n)
    diff = n * q - mm * p
    if q >= 0.0625:
        bd0_m = _bd0(mm, diff)
    else:
        t = diff / mm
        bd0_m = mm * (t - np.where(t < -0.5, np.log(big / mm) + math.log(q),
                                   np.log1p(np.maximum(t, -0.5))))
    out = (log_base - s_n) + (s_big - s_m - _bd0(n, -diff) - bd0_m
                              - 0.5 * np.log(mm * big * (2.0 * math.pi / n)))
    if small:
        out[m == 0.0] = log_base + n * math.log(p)
    return out


def _log_eigenvalues(model: CircleSymbolModel, m) -> np.ndarray:
    """Log of the normalized eigenvalues d_m / sqrt(2 pi alpha), alpha > 0."""
    return _log_diagonal(model, m, 0.5 * math.log(2.0 * math.pi / model.alpha))


def _check_explicit(model: CircleSymbolModel) -> None:
    """DomainError unless the explicit formula applies: symbol 1, alpha > 0."""
    if not model.is_constant_one:
        raise DomainError("explicit eigenvalues exist only for the constant symbol")
    if not model.alpha > 0.0:
        raise DomainError("explicit eigenvalue formula requires alpha > 0")


def _at_norm_bound(t2: float, norm_bound: float) -> bool:
    """Whether a counting interval reaches the operator-norm bound.

    Such an interval counts every eigenvalue >= t1, including the few that
    overshoot the bound at finite alpha (see ``szego.eigen_count``).
    """
    return t2 >= norm_bound * (1.0 - 1e-12)


def _check_index(m: int) -> None:
    # _log_diagonal takes float indices, exact only up to 2^53; past there
    # neighbours round together and no window search resolves them.
    if m > 2 ** 53:
        raise DomainError(f"the window search would reach index {m:.3g}, past 2^53 "
                          f"where float indices stop being exact")


def _slope(model: CircleSymbolModel, m: float) -> float:
    # D(m) = log(lambda_(m+1)/lambda_m) = log(r^2 (alpha+m+2)/(m+1)), any real m > -1.
    return math.log(model.r * model.r * (model.alpha + m + 2.0) / (m + 1.0))


def _log_ratio_bound(model: CircleSymbolModel, c: int, k: int) -> float:
    """Closed-form upper bound on log(lambda_(c+k)/lambda_c), k != 0.

    The log is S, the sum of D = ``_slope`` over lo..hi = c..c+k-1, for k > 0
    and -S over c+k..c-1 for k < 0.  D is convex for alpha > -1, so by
    Hermite-Hadamard S lies between its trapezoid rule (exact for one term),
    the integral of D over [lo, hi] plus (D(lo) + D(hi))/2, and the integral
    over [lo - 1/2, hi + 1/2], h D(x+h) + (n+x) log1p(h/(n+x)) -
    (x+1) log1p(h/(x+1)) over [x, x + h], n = alpha + 2: no term of size
    alpha cancels, and each form rounds by up to about 5 u |k|, u = 2^-53.
    The bound is the widened integral for k > 0 and minus the trapezoid rule
    for k < 0; the lower bound is -``_log_ratio_bound(model, c + k, -k)``.
    """
    def integral(x, y):
        h, n = y - x, model.alpha + 2.0 + x
        return h * _slope(model, y) + n * math.log1p(h / n) - (x + 1.0) * math.log1p(h / (x + 1.0))

    if k > 0:
        return integral(c - 0.5, c + k - 0.5)
    lo, hi = c + k, c - 1
    return -(integral(lo, hi) + 0.5 * (_slope(model, lo) + _slope(model, hi)))


def _first_width(model: CircleSymbolModel, drop: float, side: int) -> int:
    # Where log lambda falls by ``drop`` from m* above (side 1) or below (-1): the pmf's width
    # sqrt(2 drop) sigma, sigma = sqrt(alpha+2) r/(1-r^2), plus side times its skewness term.
    r, a = model.r, model.alpha
    width = (math.sqrt(2.0 * drop * (a + 2.0)) * r / (1.0 - r * r)
             + side * drop * (1.0 + r * r) / (3.0 * (1.0 - r * r)))
    if not math.isfinite(width):
        raise DomainError(f"the window width for a fall of {drop:.3g} in log lambda is "
                          f"past the float range (r={r:g}, alpha={a:g})")
    return max(math.ceil(width), 1)


def _reach(g, k: int, drop: float) -> int:
    # The first k from the guess k up with g(k) < 0, g decreasing: Newton steps of
    # at least one index, the first on the slope -2 drop/k of a Gaussian falling
    # by drop over k, then secants.
    v, slope = g(k), -2.0 * drop / k
    while v >= 0.0:
        j, u = k, v
        k += math.floor(v / -slope) + 1 if slope < 0.0 else 1
        v = g(k)
        slope = (v - u) / (k - j)
    return k


def _least(g, k: int, drop: float, hi) -> int:
    # The least k >= 1 with g(k) < 0, g falling from g(0) = drop >= 0 to below 0 at hi:
    # secant steps from the guess k, up or down, inside the bracket (lo, hi) seen so far.
    lo, j, u, k = 0, 0, drop, min(k, hi - 1)
    while hi - lo > 1:
        v = g(k)
        lo, hi = (lo, k) if v < 0.0 else (k, hi)
        slope = (v - u) / (k - j)
        j, u = k, v
        k = min(max(round(k - v / slope) if slope < 0.0 else 2 * k, lo + 1), hi - 1)
    return hi


@np.errstate(under="ignore")
def _window_ends(model: CircleSymbolModel, thresholds, relative: bool = False) -> list:
    """Ends (first, last) of {m >= 0 : lambda_m >= t} for each t, a positive
    normal float; (0, -1) for an empty set.  With ``relative`` each t is a
    fraction of the peak value.

    The ratio of successive eigenvalues falls, so the set is one index
    interval around the peak, found by one evaluation of m* - 1..m* + 1.  On
    each side, J is the least step where ``_log_ratio_bound`` falls below
    log(t/lambda_peak), so the end lies under J steps out.  The lower bound,
    the other Hermite-Hadamard form, trails it by about an eighth of the
    change of D' over the steps (D = ``_slope``), and fell below at J - 1
    or J on every seeded side tested, from 1e-300 of the peak to ties next
    to it, so the end lies J - 2 or J - 1 steps out.  One ``_log_diagonal``
    call per t takes both sides over steps J - 3..J + 1, margins for
    rounding: the bounds round by up to about 5 u k at k steps
    (u = 2^-53), under the step of about k/sigma^2 in log lambda there while
    sigma^2 = (alpha+2) r^2/(1-r^2)^2 <= 2^50.  DomainError past that, or
    if the values do not fall through t inside the steps.
    """
    r, a = model.r, model.alpha
    m_star = largest_eigenvalue_index(r, a)
    _check_index(m_star + 1)
    sigma2 = (a + 2.0) * (r / (1.0 - r * r)) ** 2
    if sigma2 > 2.0 ** 50:
        raise DomainError(f"the window bounds cannot resolve neighbouring indices: "
                          f"sigma^2 = {sigma2:.3g} is past 2^50 (r={r:g}, alpha={a:g})")
    near = np.arange(max(m_star - 1, 0), m_star + 2)
    at_near = np.exp(_log_eigenvalues(model, near))
    peak, top = int(near[np.argmax(at_near)]), float(at_near.max())
    if relative:
        thresholds = [t * top for t in thresholds]

    def steps(side: int, drop: float) -> np.ndarray:
        # steps J - 3..J + 1 of one side; below the peak, step peak + 1 (index -1) is below t
        far = _least(lambda k: _log_ratio_bound(model, peak, side * k) + drop,
                     _first_width(model, drop, side), drop,
                     math.inf if side > 0 else peak + 1)
        return np.arange(max(far - 3, 0), far + 2)

    def ends(t: float) -> tuple:
        drop = math.log(top) - math.log(t)
        up, down = steps(1, drop), steps(-1, drop)
        idx = np.concatenate((peak + up, peak - down))
        lam = np.where(idx >= 0, np.exp(_log_eigenvalues(model, np.maximum(idx, 0))), 0.0)

        def last(s: np.ndarray, v: np.ndarray) -> int:
            if not v[0] >= t > v[-1]:
                raise DomainError(f"the values do not fall through t={t!r} inside the "
                                  f"window bounds (r={r:g}, alpha={a:g})")
            return int(s[np.argmax(v < t) - 1])

        return peak - last(down, lam[up.size:]), peak + last(up, lam[:up.size])

    return [ends(t) if top >= t else (0, -1) for t in thresholds]


def explicit_count(model: CircleSymbolModel, t1: float, t2: float) -> int:
    """Number of explicit eigenvalues in [t1, t2], without building the spectrum.

    Every eigenvalue counts, compared exactly as ``szego.eigen_count``
    compares an array of them: an upper end at the norm bound counts every
    eigenvalue >= t1.  The count is #{lambda >= t1} -
    #{lambda >= nextafter(t2, inf)}, each term the length of a window whose
    ends come from one closed-form bound search per side and one
    ``_log_diagonal`` call of at most ten indices per threshold, so it runs
    in bounded memory at any peak index.
    DomainError for a t1 that is not a finite normal float: infinitely many
    eigenvalues lie above t1 <= 0, and subnormal values have lost their
    digits.
    """
    _check_explicit(model)
    if not sys.float_info.min <= t1 < math.inf:
        raise DomainError(f"a count needs a finite t1 >= {sys.float_info.min!r} "
                          f"(the smallest normal float), got {t1!r}")
    t2 = math.inf if _at_norm_bound(t2, model.norm_bound) else t2
    if not t2 >= t1:
        return 0
    at_least_t1, above_t2 = [last - first + 1 for first, last in
                             _window_ends(model, [t1, math.nextafter(t2, math.inf)])]
    return at_least_t1 - above_t2


def _trace_window(model: CircleSymbolModel, p: float) -> tuple:
    """Index window (first, last) of the constant-symbol spectrum for sum lambda^p.

    With tol = 2^-53, B = ``_log_ratio_bound`` and D = ``_slope``, each
    side ends k from m* (the lower side stops at 0), the first k up from the
    side's ``_first_width`` with p B(m*, +-k) + log(d/(1-d)) < log tol,
    where d = exp(p D(m*+k)) above and exp(-p D(m*-k-1)) below.  As D
    falls, d bounds every ratio of successive lambda^p leaving the window,
    so each omitted tail of sum lambda^p is at most the end term times
    d/(1-d), which B puts below tol lambda_m*^p, below tol times the
    window's sum.  No eigenvalue is evaluated.  DomainError for a peak or a
    guess past index 2^53 (``_check_index``), a width past the float range
    (``_first_width``, as for a tiny p) or a ratio that rounds to 1 or more.
    """
    m_star = largest_eigenvalue_index(model.r, model.alpha)
    _check_index(m_star)
    log_tol = math.log(_TAIL_TOL)

    def excess(k: int) -> float:
        log_d = p * (_slope(model, m_star + k) if k > 0 else -_slope(model, m_star + k - 1))
        if not log_d < 0.0:   # near 2^53 a ratio next to m* can round to 1 or more
            raise DomainError(f"the eigenvalue ratio at index {m_star + k} does not "
                              f"resolve below 1 in floats (alpha={model.alpha:g}, p={p:g})")
        return p * _log_ratio_bound(model, m_star, k) + log_d \
            - math.log(-math.expm1(log_d)) - log_tol

    guess = _first_width(model, -log_tol / p, 1)
    _check_index(m_star + guess)
    last = m_star + _reach(excess, guess, -log_tol)
    # -1.0: a window that reaches 0 omits nothing below it
    first = max(m_star - _reach(lambda k: excess(-k) if k < m_star else -1.0,
                                _first_width(model, -log_tol / p, -1), -log_tol), 0)
    return first, last


def explicit_trace(model: CircleSymbolModel, phi) -> float:
    """Sum of phi over the explicit spectrum, without building it.

    The ``_trace_window`` at p = ``phi.p_exponent`` is summed _CHUNK indices
    per ``_log_diagonal`` call.  Its omitted tails of sum lambda^p are each
    below tol = 2^-53 of the window's sum, so the omitted part of sum
    phi(lambda) is at most 2 tol times that sum times sup |phi(s)/s^p| over
    the omitted eigenvalues: finite by the ``PhiFunction`` contract, 1 for
    ``power_phi(p)``.  DomainError, before evaluating, for a window above
    MAX_SPECTRUM_TERMS indices or one ``_trace_window`` refuses.
    """
    _check_explicit(model)
    p = phi.p_exponent
    first, last = _trace_window(model, p)
    if last - first + 1 > MAX_SPECTRUM_TERMS:
        raise DomainError(
            f"trace window would hold {last - first + 1} terms, above the cap of "
            f"{MAX_SPECTRUM_TERMS} (r={model.r:g}, alpha={model.alpha:g}, p={p:g})")
    total = 0.0
    with np.errstate(under="ignore"):
        for start in range(first, last + 1, _CHUNK):
            ln = _log_eigenvalues(model, np.arange(start, min(start + _CHUNK, last + 1)))
            total += float(np.sum(phi(np.exp(ln))))
    return total


def matrix_elements(model: CircleSymbolModel,
                    cutoff: Optional[int] = None) -> np.ndarray:
    """Truncated operator in the monomial basis (unnormalized).

    Entry (j, k) equals (alpha+1) (1-r^2)^alpha (2 pi r/(1-r^2)) r^{j+k}
    a_hat[j-k] / (||z^j|| ||z^k||), where ||z^m||^2 = m! Gamma(alpha+2) /
    Gamma(m+alpha+2) is the weighted norm of the monomial; the conjugate
    symmetry of the coefficients makes the matrix Hermitian.  A constant
    symbol gives the diagonal of closed-form eigenvalues times
    sqrt(2 pi alpha).  ``cutoff`` is the last index kept, so the order is
    cutoff + 1; with it the matrix exists for every alpha > -1.

    The default cutoff (alpha > 0) is K + last: K is the bandwidth and
    ``last`` the last index past the peak of the constant-symbol diagonal
    d_m with d_last >= u^2 d_peak, u = 2^-53, found by the window bounds of
    ``explicit_count``.  Entry (j, k) is
    sqrt(d_j d_k) a_hat[j-k] and a_hat vanishes past K, so the dropped
    rows couple to the kept block only through its last K rows, all below
    u^2 d_peak.  By Weyl's inequality each kept eigenvalue is then within
    about 2 sum_k |a_hat[k]| u^2 d_peak of its counterpart in any longer
    truncation, and every dropped eigenvalue is at most sup a u^2 d_peak:
    below the rounding of the peak eigenvalue in both cases.  Raises
    DomainError, before allocating, above order MAX_MATRIX_ORDER.
    """
    bandwidth = model.bandwidth
    if cutoff is not None:
        cut = int(cutoff)
    elif model.alpha > 0.0:
        cut = _window_ends(model, [_ROW_FLOOR], relative=True)[0][1] + bandwidth
    else:
        raise DomainError("the default matrix order requires alpha > 0")
    if cut < 0:
        raise DomainError(f"cutoff must be nonnegative, got {cutoff}")
    if cut + 1 > MAX_MATRIX_ORDER:
        raise DomainError(
            f"dense matrix would have order {cut + 1}, above the cap of "
            f"{MAX_MATRIX_ORDER} (r={model.r:g}, alpha={model.alpha:g})")
    # Entry (j, k) is sqrt(d_j d_k) a_hat[j-k]; rows take the eigenvalues'
    # scale, so the diagonal is exp(_log_eigenvalues) sqrt(2 pi alpha).
    log_scale = 0.5 * math.log(2.0 * math.pi / model.alpha) if model.alpha > 0.0 else 0.0
    log_row = 0.5 * _log_diagonal(model, np.arange(cut + 1), log_scale)
    unscale = 2.0 * math.pi * math.exp(-log_scale)
    out = np.zeros((cut + 1, cut + 1), dtype=complex)
    with np.errstate(under="ignore"):
        for off in range(-min(bandwidth, cut), min(bandwidth, cut) + 1):
            coeff = model.fourier_coefficient(off)
            if coeff == 0:
                continue
            j = np.arange(max(0, off), cut + 1 + min(0, off))
            k = j - off
            out[j, k] = np.exp(log_row[j] + log_row[k]) * (unscale * coeff)
    if model.is_constant_one:
        return out.real
    return out


def phase_imag_batch(tuples: np.ndarray) -> np.ndarray:
    """Imaginary part of the cyclic phase i sum_j Log((1 - <xi_j, xi_j+1>) / (1 - |xi_j|^2)).

    ``tuples`` has shape (batch, m, n): m >= 2 cyclically-linked points of
    the open n-ball per row, indices wrapping around.  The principal branch
    applies throughout (the argument never meets (-inf, 0] inside the
    ball).  Each value is nonnegative and vanishes only on the diagonal.
    DomainError for another shape, m < 2 or a point outside the open ball.
    """
    z = np.asarray(tuples, dtype=complex)
    if z.ndim != 3 or z.shape[1] < 2:
        raise DomainError(f"expected an array of shape (batch, m >= 2, n), got {z.shape}")
    # <xi_j, xi_j+1> and |xi_j|^2 from real and imaginary parts: numpy's
    # complex z * conj(z) can carry an imaginary part of order 1e-18, while
    # these sums make the all-equal tuple give exactly log(1) = 0.
    zr, zi = z.real, z.imag
    wr, wi = np.roll(zr, -1, axis=1), np.roll(zi, -1, axis=1)
    nsq = np.sum(zr * zr + zi * zi, axis=2)
    if not np.all(nsq < 1.0):
        raise DomainError(f"points must lie inside the open unit ball "
                          f"(largest |xi|^2 = {np.max(nsq)!r})")
    inner = np.sum(zr * wr + zi * wi, axis=2) + 1j * np.sum(zi * wr - zr * wi, axis=2)
    return np.sum(np.log((1.0 - inner) / (1.0 - nsq)), axis=1).real


def label_product_batch(rows: np.ndarray) -> np.ndarray:
    """Row-wise cyclic product of (1 - d_j d_{j+1}) / (1 - d_j^2), shape (batch, m).

    Each row holds m >= 2 labels in (0, 1); the product is at least 1, with
    equality exactly for constant rows.  DomainError for another shape or a
    label outside (0, 1).
    """
    d = np.asarray(rows, dtype=float)
    if d.ndim != 2 or d.shape[1] < 2:
        raise DomainError(f"expected an array of shape (batch, m >= 2), got {d.shape}")
    if not np.all((d > 0.0) & (d < 1.0)):
        raise DomainError("labels must lie strictly inside (0, 1)")
    return np.prod((1.0 - d * np.roll(d, -1, axis=1)) / (1.0 - d * d), axis=1)


def _cyclic_trace(model: CircleSymbolModel, m: int, n_nodes: int) -> float:
    """m-dimensional trapezoid sum of the cyclic integrand at n nodes per axis.

    The sum is trace(W^m), W = diag(s) C / n, with s the symbol at the nodes
    and C the circulant kernel matrix, prefactor c = (alpha+1) 2 pi r/(1-r^2)
    included: taken into every step, it keeps a trace in the float range
    where c^m alone overflows.  Its first column takes the offsets wrapped
    into [-1/2, 1/2), as alpha would magnify rounding near 2 pi.  The
    DFT makes C the diagonal Lambda = fft(column) and diag(s) the banded
    circulant S[k, l] = a_hat[l - k], so the sum is trace((S Lambda / n)^m):
    over each start k, the walks of m steps d in [-K, K] whose offsets add up
    to a multiple of n, each weighted by a_hat[d] Lambda/n at every index
    reached.  The caller takes n > mK, so only offset 0 closes, and a walk
    that leaves [-h, h], h = floor(m/2) K, cannot return to 0 in the steps
    it has left.  ``walks`` holds the partial sums per offset in [-h, h]
    (2h + 1 rows) and start; a constant symbol leaves one row,
    sum (Lambda/n)^m.
    """
    r, a = model.r, model.alpha
    index = np.arange(n_nodes)
    wrapped = ((index + n_nodes // 2) % n_nodes - n_nodes // 2) / n_nodes
    base = 1.0 - r * r * np.exp(2j * np.pi * wrapped)
    log_edge = a * (math.log(1.0 - r * r) - np.log(base)) - 2.0 * np.log(base)
    band = model.bandwidth
    half = m // 2 * band
    # Overflow at a large m reaches the caller as a non-finite value.
    with np.errstate(all="ignore"):
        lam = np.fft.fft(np.exp(log_edge)) \
            * ((a + 1.0) * 2.0 * math.pi * r / (1.0 - r * r) / n_nodes)
        # Row j is lam[(k + j - h) mod n] over the starts k, as a view.
        at_offset = sliding_window_view(
            np.take(lam, np.arange(-half, n_nodes + half), mode="wrap"), n_nodes)
        walks = np.zeros((2 * half + 1, n_nodes), dtype=complex)
        walks[half] = 1.0
        for _ in range(m):
            step = np.zeros_like(walks)
            for d in range(-band, band + 1):
                lo, hi = max(d, 0), len(walks) + min(d, 0)
                step[lo:hi] += model.fourier_coefficient(d) * walks[lo - d:hi - d]
            walks = step * at_offset
    return float(walks[half].sum().real)


def composition_trace_quadrature(model: CircleSymbolModel, m: int) -> float:
    """Unnormalized trace of the m-fold composition by periodic quadrature.

    The m-dimensional trapezoid sum of the exact cyclic integrand at n nodes
    per axis, from ``_cyclic_trace`` (one FFT, O(m^2 K^2 n) work, K the
    bandwidth).  n is the least power of two at least L + 2mK, L the length
    of the p = 1 ``_trace_window``.  The sum is the trace of the n-periodised
    operator, whose diagonal is the constant-symbol diagonal d aliased modulo
    n; a closed walk of m steps of at most K cannot wrap as mK < n, so the
    sum differs from the trace only through indices outside the window, and
    each omitted tail of sum d is at most 2^-53 of the window's sum (p = 1
    is the widest window for any m >= 2).  DomainError, before any walk, when
    the n (2 floor(m/2) K + 1) walk entries exceed MAX_SPECTRUM_TERMS
    (r = 0.999, alpha = 1e5 takes n = 2^22), for m not an integer >= 2
    (any integer type, through ``operator.index``; a whole float is refused),
    alpha <= 0, a peak index past 2^53 (before any evaluation), or a trace
    whose bounds leave the float range.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise DomainError(f"composition length must be an integer >= 2, got {m!r}") from None
    if m < 2:
        raise DomainError(f"composition length must be an integer >= 2, got {m}")
    if not model.alpha > 0.0:
        raise DomainError("composition trace requires alpha > 0")
    r, a = model.r, model.alpha
    m_star = largest_eigenvalue_index(r, a)
    _check_index(m_star)
    # a0 d_peak is the largest diagonal entry and sup a d_peak bounds the
    # norm, so the trace lies between (a0 d_peak)^m and
    # a0 sum(d) (sup a d_peak)^(m-1), sum(d) = 2 pi (alpha+1) r (1-r^2)^-3.
    # a0 = 0 only for the zero symbol, whose trace is 0.
    a0 = model.fourier_coefficient(0).real
    if a0 > 0.0:
        log_peak = float(_log_diagonal(model, [m_star], math.log(2.0 * math.pi))[0])
        log_sup = math.log(model.norm_bound) + 2.0 * math.log(1.0 - r * r)
        if m * (math.log(a0) + log_peak) > math.log(sys.float_info.max):
            raise DomainError(f"composition trace of length {m} exceeds the float range")
        if (math.log(a0 * 2.0 * math.pi * (a + 1.0) * r) - 3.0 * math.log(1.0 - r * r)
                + (m - 1) * (log_sup + log_peak) < math.log(sys.float_info.min)):
            raise DomainError(f"composition trace of length {m} is below the float range")
    first, last = _trace_window(model, 1.0)
    n_nodes = 1 << (last - first + 2 * m * model.bandwidth).bit_length()
    entries = n_nodes * (2 * (m // 2) * model.bandwidth + 1)
    if entries > MAX_SPECTRUM_TERMS:
        raise DomainError(
            f"composition trace needs {n_nodes} nodes/axis, {entries} walk "
            f"entries, above the cap of {MAX_SPECTRUM_TERMS} (r={r:g}, alpha={a:g}, m={m})")
    val = _cyclic_trace(model, m, n_nodes)
    if not math.isfinite(val):
        raise DomainError(f"composition trace of length {m} exceeds the float range")
    return val
