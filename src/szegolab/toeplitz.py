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
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .eigen import hermitian_eigenvalues
from .errors import AccuracyError, DomainError

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
# ``composition_trace_quadrature``, which raises AccuracyError there.  Counts
# probe O(log alpha) indices and have no cap.  _CHUNK = 8192 was the fastest
# of 4096 to 32768 on alpha = 1e5 trace windows of 1.7e4 to 5.3e4 indices;
# larger chunks win only on windows of millions, by about 10%.
# MAX_MATRIX_ORDER bounds ``matrix_elements``: a dense complex matrix of
# order 4096 takes 16 * 4096^2 B = 256 MiB before the eigensolve's workspace.
MAX_SPECTRUM_TERMS = 4_000_000
MAX_MATRIX_ORDER = 4096
_CHUNK = 1 << 13
# The default matrix drops the indices past the peak whose constant-symbol
# diagonal is below u^2 of the peak, u = 2^-53 the unit roundoff.
_ROW_FLOOR = 2.0 ** -106
# Most probes per bracket and level of the windowed count: brackets up to
# 257^L indices close in L levels (L = 4 at m* ~ 5e7).
_MAX_PROBES = 256
# The windowed trace: each omitted tail of sum lambda^p is at most _TAIL_TOL
# of the window's sum.
_TAIL_TOL = 2.0 ** -53
# The composition trace: agreement target of successive node counts.
COMPOSITION_REL_TOL = 1e-7


@dataclass(frozen=True)
class CircleSymbolModel:
    """Circle |z| = r in the disc with weight alpha and a real symbol.

    ``fourier`` holds the coefficients a_hat[0..K] of
    a(theta) = sum_m a_hat[m] e^{2 pi i m theta}; negative indices are the
    conjugates, so the symbol is real by construction.  ``fourier=None``
    means the constant symbol 1.  The symbol must be nonnegative (checked on
    a 4096-point grid) for the positivity-dependent results downstream.
    """

    r: float
    alpha: float
    fourier: Optional[tuple] = None
    norm_bound: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"circle radius must lie in (0, 1), got {self.r}")
        if not -1.0 < self.alpha < math.inf:
            raise DomainError(
                f"weight parameter must be finite and exceed -1, got {self.alpha}")
        if self.fourier is not None:
            coeffs = tuple(complex(c) for c in self.fourier)
            if not coeffs:
                raise DomainError("fourier coefficient list must not be empty")
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
    (e.g. r = 1/sqrt(2), where r^2 rounds just under 1/2).
    """
    return int(math.floor((alpha + 1.0) * r * r / (1.0 - r * r) + 1e-9))


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

    ``stirlerr`` is the series above 15.  At or below 15 it comes from a
    table at the integers m, and from ``math.lgamma`` for n and for the at
    most 14 values n + m <= 15 (alpha < 13 only); a call takes these
    branches only when it holds such an index.  An entry does not depend on
    which other indices share the call, so probes match the full spectrum
    bit for bit.
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
    out = (log_base - s_n) + (s_big - s_m - _bd0(n, -diff) - _bd0(mm, diff)
                              - 0.5 * np.log(mm * big * (2.0 * math.pi / n)))
    if small:
        out[m == 0.0] = log_base + n * math.log(p)
    return out


def _log_eigenvalues(model: CircleSymbolModel, m) -> np.ndarray:
    """Log of the normalized eigenvalues d_m / sqrt(2 pi alpha), alpha > 0."""
    return _log_diagonal(model, m, 0.5 * math.log(2.0 * math.pi / model.alpha))


def _eigenvalues_at(model: CircleSymbolModel, m) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.exp(_log_eigenvalues(model, m))


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


def _bracket_probes(lo: int, hi: int) -> np.ndarray:
    """Indices strictly inside (lo, hi) for one level of k-ary refinement.

    Up to _MAX_PROBES + 1 gaps every index is probed.  A wider bracket needs
    L = ceil(log_{_MAX_PROBES+1}(gaps)) levels; it gets about gaps^(1/L)
    evenly spread probes, so its remaining levels stay at L - 1 at a fraction
    of the probes.
    """
    gaps = hi - lo
    if gaps <= _MAX_PROBES + 1:
        return np.arange(lo + 1, hi)
    levels = math.ceil(math.log(gaps) / math.log(_MAX_PROBES + 1))
    k = min(_MAX_PROBES, math.ceil(gaps ** (1.0 / levels)) - 1)
    return lo + (np.arange(1, k + 1) * gaps) // (k + 1)


def _narrow(bracket: list, idx: np.ndarray, lam: np.ndarray) -> None:
    # bracket = [lo, hi, t, rising]: the predicate (lam >= t on the rising
    # side, lam < t on the falling side) is False at lo, True at hi and
    # monotone in between; move lo and hi to the probes that still straddle
    # the switch.
    lo, hi, t, rising = bracket
    inside = (idx > lo) & (idx < hi)
    q, v = idx[inside], lam[inside]
    hit = v >= t if rising else v < t
    j = int(np.argmax(hit)) if hit.any() else q.size
    if j > 0:
        bracket[0] = int(q[j - 1])
    if j < q.size:
        bracket[1] = int(q[j])


def _window_ends(model: CircleSymbolModel, thresholds, relative: bool = False) -> list:
    """Ends (first, last) of {m >= 0 : lambda_m >= t} for each t, a positive
    normal float.

    An empty set gives (0, -1).  lambda_{m+1}/lambda_m = r^2 (alpha+m+2)/(m+1)
    decreases in m, so the set is one index interval around the peak.  Its
    ends are found on the rising side [0, peak] and the falling side of every
    threshold at once: each level probes all open brackets through one
    ``_log_diagonal`` call.  With ``relative`` each t is a fraction of the
    peak value.

    The ratio is at most c = (1+r^2)/2 from the index m1 on, so
    lambda_m <= lambda_m1 c^(m-m1) there; the first call evaluates m1, and a
    falling-side bracket closes at m1 when lambda_m1 < t, else one index
    past m1 + log(lambda_m1/t)/log(1/c), where that bound is below t.
    """
    r, a = model.r, model.alpha
    m_star = largest_eigenvalue_index(r, a)
    # ratio(m) <= c  <=>  m >= (r^2 (2 alpha + 3) - 1)/(1 - r^2)
    p = (1.0 - r) * (1.0 + r)
    end = max(math.ceil((r * r * (2.0 * a + 3.0) - 1.0) / p), m_star + 1)
    near = np.arange(max(m_star - 1, 0), m_star + 2)
    idx = np.unique(np.concatenate(
        (near, _bracket_probes(-1, m_star), _bracket_probes(m_star, end), [end])))
    lam = _eigenvalues_at(model, idx)
    at_near = lam[np.searchsorted(idx, near)]
    peak, top = int(near[np.argmax(at_near)]), float(at_near.max())
    if relative:
        thresholds = [t * top for t in thresholds]
    lam_end = float(lam[np.searchsorted(idx, end)])
    log_c = math.log1p(-0.5 * p)

    def falling(t: float) -> list:
        if lam_end >= t:
            steps = (math.log(lam_end) - math.log(t)) / -log_c
            return [end, end + 1 + math.ceil(steps), t, False]
        return [peak, end, t, False]

    pairs = [([-1, peak, t, True], falling(t)) if top >= t else None for t in thresholds]
    open_ = [b for pair in pairs if pair for b in pair]
    while open_:
        for b in open_:
            _narrow(b, idx, lam)
        open_ = [b for b in open_ if b[1] - b[0] > 1]
        if open_:
            idx = np.unique(np.concatenate([_bracket_probes(b[0], b[1]) for b in open_]))
            lam = _eigenvalues_at(model, idx)
    # first index >= t on the rising side is its hi; last on the falling side its lo
    return [(pair[0][1], pair[1][0]) if pair else (0, -1) for pair in pairs]


def explicit_count(model: CircleSymbolModel, t1: float, t2: float) -> int:
    """Number of explicit eigenvalues in [t1, t2], without building the spectrum.

    Every eigenvalue counts, compared exactly as ``szego.eigen_count``
    compares an array of them: an upper end at the norm bound counts every
    eigenvalue >= t1.  The count is #{lambda >= t1} -
    #{lambda >= nextafter(t2, inf)}, each term the length of a window whose
    ends are found by bracket refinement at O(log alpha) evaluations of
    ``_log_diagonal``, so it runs in bounded memory at any peak index.
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


def _tail_steps(log_end: float, ratio: float, p: float, log_window: float) -> int:
    """Indices to add past a window end so that the omitted tail of sum lambda^p
    is at most _TAIL_TOL exp(log_window); 0 when it already is.

    ``ratio`` < 1 bounds every ratio of successive eigenvalues leaving the
    window there, so the tail is at most lambda_end^p ratio^p / (1 - ratio^p),
    and k more indices lower that bound by ratio^(p k) at least.
    """
    log_ratio = p * math.log(ratio)
    excess = p * log_end + log_ratio - math.log(-math.expm1(log_ratio)) \
        - math.log(_TAIL_TOL) - log_window
    return 0 if excess <= 0.0 else math.ceil(excess / -log_ratio)


def explicit_trace(model: CircleSymbolModel, phi) -> float:
    """Sum of phi over the explicit spectrum, without building it.

    The sum runs over one index window [first, last] around the peak m*,
    evaluated _CHUNK indices per ``_log_diagonal`` call, so memory stays
    bounded by the chunk.  With p = ``phi.p_exponent`` and
    sigma = sqrt(alpha+2) r/(1-r^2) the width of the negative-binomial pmf,
    the first window reaches sigma sqrt(2 ln(1/tol)/p) past m* on each side,
    tol = 2^-53, plus a skewness term for the heavier right tail.

    Tail bound: past ``last`` the ratio q = r^2 (alpha+last+2)/(last+1) of
    successive eigenvalues is below 1 and decreasing, so the omitted sum of
    lambda^p is at most lambda_last^p q^p/(1-q^p); below ``first`` the ratio
    rho = first/(r^2 (alpha+first+1)) of lambda_(first-1) to lambda_first is
    below 1 and the ratios fall further as m decreases, so that tail is at
    most lambda_first^p rho^p/(1-rho^p).  A side whose bound exceeds tol times
    the window's sum of lambda^p grows by the indices the geometric bound
    says it needs, and only the new indices are evaluated.  The omitted part
    of sum phi(lambda) is then at most sup |phi(s)/s^p| times 2 tol times that
    sum, the sup over the omitted eigenvalues, which lie below both end
    values; the ``PhiFunction`` contract keeps it finite, and for
    ``power_phi(p)`` it is exactly 1.  Both bounds are formed from
    log lambda, as the ends lie below 1e-308 for small p.

    Raises DomainError, before evaluating, when the window would exceed
    MAX_SPECTRUM_TERMS indices.
    """
    _check_explicit(model)
    r, a, p = model.r, model.alpha, phi.p_exponent
    m_star = largest_eigenvalue_index(r, a)
    # The Gaussian half-width plus the skewness term of the heavier right
    # tail: p log(lambda_peak/lambda_(m*+k)) = y^2/2 - g y^3/6 at k = sigma y,
    # g = (1+r^2)/(sigma (1-r^2)), equals ln(1/tol) at k = sigma y0 +
    # sigma g y0^2/6 to first order in g, y0 = sqrt(2 ln(1/tol)/p).
    sigma = math.sqrt(a + 2.0) * r / (1.0 - r * r)
    log_tol = -math.log(_TAIL_TOL)
    half = math.ceil(sigma * math.sqrt(2.0 * log_tol / p)
                     + log_tol * (1.0 + r * r) / (3.0 * p * (1.0 - r * r)))
    first, last = max(m_star - half, 0), m_star + half
    # total = sum phi(lambda); sum lambda^p = exp(p log_top) power, with
    # log_top the largest log lambda evaluated so far.
    total, power, log_top = 0.0, 0.0, -math.inf

    def add(lo: int, hi: int) -> tuple:
        # Adds [lo, hi] to the sums; returns log lambda at lo and at hi.
        nonlocal total, power, log_top
        for start in range(lo, hi + 1, _CHUNK):
            ln = _log_eigenvalues(model, np.arange(start, min(start + _CHUNK, hi + 1)))
            if start == lo:
                log_lo = float(ln[0])
            top = float(ln.max())
            if top > log_top:
                power *= math.exp(p * (log_top - top))
                log_top = top
            with np.errstate(under="ignore"):
                total += float(np.sum(phi(np.exp(ln))))
                power += float(np.sum(np.exp(p * (ln - log_top))))
        return log_lo, float(ln[-1])

    pending = [(first, last)]   # index ranges of the window not yet evaluated
    while pending:
        if last - first + 1 > MAX_SPECTRUM_TERMS:
            raise DomainError(
                f"trace window would hold {last - first + 1} terms, above the cap of "
                f"{MAX_SPECTRUM_TERMS} (r={r:g}, alpha={a:g}, p={p:g})")
        for lo, hi in pending:
            log_lo, log_hi = add(lo, hi)
            if lo == first:
                log_first = log_lo
            if hi == last:
                log_last = log_hi
        log_window = p * log_top + math.log(power)
        lo_steps = 0 if first == 0 else min(first, _tail_steps(
            log_first, first / (r * r * (a + first + 1.0)), p, log_window))
        hi_steps = _tail_steps(log_last, r * r * (a + last + 2.0) / (last + 1.0), p, log_window)
        pending = [(lo, hi) for lo, hi in ((first - lo_steps, first - 1),
                                          (last + 1, last + hi_steps)) if lo <= hi]
        first, last = first - lo_steps, last + hi_steps
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
    d_m with d_last >= u^2 d_peak, u = 2^-53, found by the windowed bracket
    refinement of ``explicit_count``.  Entry (j, k) is
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
    """m-dimensional trapezoid sum of the cyclic integrand, without its prefactor.

    The sum is trace(W^m), W = diag(s) C / n, with s the symbol at the nodes
    and C the circulant kernel matrix; its first column takes the offsets
    wrapped into [-1/2, 1/2), as alpha would magnify rounding near 2 pi.  The
    DFT makes C the diagonal Lambda = fft(column) and diag(s) the banded
    circulant S[k, l] = a_hat[l - k], so the sum is trace((S Lambda / n)^m):
    over each start k, the walks of m steps d in [-K, K] whose offsets add up
    to a multiple of n, each weighted by a_hat[d] Lambda/n at every index
    reached.  ``walks`` holds the partial sums per offset (2mK + 1 rows) and
    start; a constant symbol leaves one row, sum (Lambda/n)^m.
    """
    r, a = model.r, model.alpha
    index = np.arange(n_nodes)
    wrapped = ((index + n_nodes // 2) % n_nodes - n_nodes // 2) / n_nodes
    base = 1.0 - r * r * np.exp(2j * np.pi * wrapped)
    log_edge = a * (math.log(1.0 - r * r) - np.log(base)) - 2.0 * np.log(base)
    band = model.bandwidth
    offsets = np.arange(-m * band, m * band + 1)
    # Overflow at a large m reaches the caller as a non-finite value.
    with np.errstate(all="ignore"):
        lam = np.fft.fft(np.exp(log_edge)) / n_nodes
        # Row j is lam[(k + offsets[j]) mod n] over the starts k, as a view.
        at_offset = sliding_window_view(
            np.take(lam, np.arange(offsets[0], n_nodes + offsets[-1]), mode="wrap"), n_nodes)
        walks = np.zeros((offsets.size, n_nodes), dtype=complex)
        walks[m * band] = 1.0
        for _ in range(m):
            step = np.zeros_like(walks)
            for d in range(-band, band + 1):
                lo, hi = max(d, 0), offsets.size + min(d, 0)
                step[lo:hi] += model.fourier_coefficient(d) * walks[lo - d:hi - d]
            walks = step * at_offset
    return float(walks[offsets % n_nodes == 0].sum().real)


def composition_trace_quadrature(model: CircleSymbolModel, m: int) -> float:
    """Unnormalized trace of the m-fold composition by periodic quadrature.

    The m-dimensional trapezoid sum of the exact cyclic integrand over the
    circle (spectrally accurate for this smooth periodic function), with the
    per-axis node count doubled from 64 until two successive values agree to
    ``COMPOSITION_REL_TOL``.  The sum is the trace of the m-th power of the
    circulant kernel matrix, and the DFT diagonalises that matrix exactly, so
    ``_cyclic_trace`` returns the same sum, up to rounding, from one FFT and
    O(m^2 K^2 n) work.  Its eigenvalues are the spectrum folded modulo n, so
    the sum converges once n exceeds the window of significant eigenvalues,
    not the peak index: at r = 1/2, alpha = 1e5 (peak 33,333) at n = 4096.
    The one cap is MAX_SPECTRUM_TERMS on the n (2mK + 1) walk entries (peak
    256 MB under tracemalloc at r = 0.999, alpha = 1e5, mostly the column's
    temporaries at n = 2^21): a node count above it raises AccuracyError.
    DomainError for m not an integer >= 2, alpha <= 0, or a value past the
    float range, the last at once when a bound on the trace lies above the
    largest float or below the smallest normal one, so a huge m costs no
    walks.
    """
    if m < 2 or int(m) != m:
        raise DomainError(f"composition length must be an integer >= 2, got {m}")
    if not model.alpha > 0.0:
        raise DomainError("composition trace requires alpha > 0")
    r, a = model.r, model.alpha
    # a0 d_peak is the largest diagonal entry and sup a d_peak bounds the
    # norm, so the trace lies between (a0 d_peak)^m and
    # a0 sum(d) (sup a d_peak)^(m-1), sum(d) = 2 pi (alpha+1) r (1-r^2)^-3.
    # a0 = 0 only for the zero symbol, whose trace is 0.
    a0 = model.fourier_coefficient(0).real
    if a0 > 0.0:
        log_peak = float(_log_diagonal(
            model, [largest_eigenvalue_index(r, a)], math.log(2.0 * math.pi))[0])
        log_sup = math.log(model.norm_bound) + 2.0 * math.log(1.0 - r * r)
        if m * (math.log(a0) + log_peak) > math.log(sys.float_info.max):
            raise DomainError(f"composition trace of length {m} exceeds the float range")
        if (math.log(a0 * 2.0 * math.pi * (a + 1.0) * r) - 3.0 * math.log(1.0 - r * r)
                + (m - 1) * (log_sup + log_peak) < math.log(sys.float_info.min)):
            raise DomainError(f"composition trace of length {m} is below the float range")
    rows = 2 * m * model.bandwidth + 1
    try:
        pref = ((a + 1.0) * 2.0 * math.pi * r / (1.0 - r * r)) ** m
    except OverflowError:
        pref = math.inf
    prev, gap, n_nodes = None, math.inf, 64
    while n_nodes * rows <= MAX_SPECTRUM_TERMS:
        val = pref * _cyclic_trace(model, m, n_nodes)
        if not math.isfinite(val):
            raise DomainError(f"composition trace of length {m} exceeds the float range")
        if prev is not None:
            if abs(val - prev) <= COMPOSITION_REL_TOL * abs(val):
                return val
            gap = abs(val - prev) / abs(val)
        prev, n_nodes = val, 2 * n_nodes
    raise AccuracyError(
        f"composition trace did not converge: {n_nodes} nodes/axis need {n_nodes * rows} "
        f"walk entries, above the cap of {MAX_SPECTRUM_TERMS}; last relative gap "
        f"{gap:.2e}, target {COMPOSITION_REL_TOL:g}")
