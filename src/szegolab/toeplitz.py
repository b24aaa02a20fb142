"""Truncated Toeplitz operators for a circle inside the disc.

For the radius-r circle with a nonnegative symbol the operator acts on the
monomial basis through explicit one-dimensional integrals: a constant symbol
gives a diagonal operator with eigenvalues known in closed form, and a
finite Fourier symbol gives a banded Hermitian matrix.  The module also
evaluates the composition-trace integral, an independent oracle for the
spectral formulas, and, over batches of point or label tuples, the
imaginary part of the cyclic phase and the cyclic label product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .eigen import hermitian_eigenvalues
from .errors import AccuracyError, DomainError
from .specfun import log_gamma, normalizing_constant

__all__ = [
    "CircleSymbolModel",
    "SpectrumTruncation",
    "largest_eigenvalue_index",
    "default_cutoff",
    "explicit_eigenvalues",
    "explicit_count",
    "matrix_elements",
    "hermitian_eigenvalues",
    "phase_imag_batch",
    "label_product_batch",
    "composition_trace_quadrature",
]

_SYMBOL_GRID = 4096

# Size caps, checked before anything of that size is allocated; a request
# beyond one raises DomainError (CLI exit 2).  MAX_SPECTRUM_TERMS bounds
# ``explicit_eigenvalues``, which holds 8 bytes per term (one array in index
# order) and evaluates them _CHUNK at a time (about 2 MB of log-gamma
# temporaries), so 4e6 terms cost about 34 MB; counts do not need the
# spectrum and have no cap.  MAX_MATRIX_ORDER bounds ``matrix_elements``:
# a dense complex matrix of order 4096 takes 16 * 4096^2 B = 256 MiB before
# the eigensolve's workspace.
MAX_SPECTRUM_TERMS = 4_000_000
MAX_MATRIX_ORDER = 4096
_CHUNK = 1 << 14
# The default matrix drops the rows past the peak whose constant-symbol
# diagonal is below u^2 of the peak, u = 2^-53 the unit roundoff.
_ROW_FLOOR = 2.0 ** -106
# Most probes per bracket and level of the windowed count: brackets up to
# 257^L indices close in L levels (L = 4 at m* ~ 5e7).
_MAX_PROBES = 256
# The composition trace: agreement target of successive node counts, and the
# node cap per axis.
COMPOSITION_REL_TOL = 1e-7
COMPOSITION_MAX_NODES = 1024


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
    """Finite truncation of a nonnegative spectrum.

    ``eigenvalues`` has no guaranteed order; ``by_index`` holds the values in
    basis order (index m) for argmax queries, and ``explicit_eigenvalues``
    passes one array as both.  ``tail_estimate`` bounds the sum of all
    omitted eigenvalues from above via a geometric tail.
    """

    eigenvalues: np.ndarray
    by_index: np.ndarray
    cutoff_index: int
    tail_estimate: float
    alpha: float
    normalized: bool
    norm_bound: float

    def argmax_index(self) -> int:
        """Largest basis index attaining the maximum within 1e-12 relative.

        Adjacent eigenvalues tie exactly when (alpha+1) r^2/(1-r^2) is an
        integer; the largest index is the canonical representative.
        """
        top = float(self.by_index.max())
        hits = np.nonzero(self.by_index >= top * (1.0 - 1e-12))[0]
        return int(hits[-1])


def largest_eigenvalue_index(r: float, alpha: float) -> int:
    """Index floor((alpha + 1) r^2 / (1 - r^2)) of the largest eigenvalue.

    A 1e-9 nudge guards against the ratio landing an ulp below an integer
    (e.g. r = 1/sqrt(2), where r^2 rounds just under 1/2).
    """
    return int(math.floor((alpha + 1.0) * r * r / (1.0 - r * r) + 1e-9))


def _log_diagonal(model: CircleSymbolModel, m, log_scale: float) -> np.ndarray:
    """log_scale + log(d_m / (2 pi)) at the basis indices ``m``, alpha > -1.

    d_m = 2 pi (1-r^2)^(alpha-1) Gamma(alpha+m+2) / (Gamma(alpha+1) m!) r^(2m+1)
    is the constant-symbol diagonal.  One ``log_gamma`` call serves all terms,
    and an entry does not depend on which other indices share it, so probes
    match the full spectrum bit for bit.  The terms cancel from about 1e6 at
    alpha = 1e5, so ``log_scale`` is added first and the rounding follows it.
    """
    r, a = model.r, model.alpha
    m = np.asarray(m, dtype=float)
    lg = log_gamma(np.concatenate((a + m + 2.0, m + 1.0, [a + 1.0])))
    return (log_scale + (a - 1.0) * math.log(1.0 - r * r)
            + lg[:m.size] - lg[-1] - lg[m.size:-1]
            + (2.0 * m + 1.0) * math.log(r))


def _log_eigenvalues(model: CircleSymbolModel, m) -> np.ndarray:
    """Log of the normalized eigenvalues d_m / sqrt(2 pi alpha), alpha > 0."""
    return _log_diagonal(model, m, 0.5 * math.log(2.0 * math.pi / model.alpha))


def _eigenvalues_at(model: CircleSymbolModel, m) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.exp(_log_eigenvalues(model, m))


def default_cutoff(model: CircleSymbolModel) -> int:
    """Truncation index: past the eigenvalue peak plus a safety band.

    Starts at m* + ceil(12 (sqrt(alpha+1) r/(1-r^2) + 50)) and extends until
    the last eigenvalue sits below 1e-14 of the largest (eigenvalues decay
    geometrically past the peak, ratio -> r^2).  The spectrum is unimodal
    with its peak at m* (ties at m* - 1 when (alpha+1) r^2/(1-r^2) is an
    integer), so each step evaluates m* - 1, m*, m* + 1 and the candidate
    cutoff only.
    """
    if not model.alpha > 0.0:
        raise DomainError("cutoff rule requires alpha > 0")
    r, a = model.r, model.alpha
    m_peak = largest_eigenvalue_index(r, a)
    cut = m_peak + math.ceil(12.0 * (math.sqrt(a + 1.0) * r / (1.0 - r * r) + 50.0))
    while True:
        ln = _log_eigenvalues(model, [max(m_peak - 1, 0), m_peak, m_peak + 1, cut])
        if ln[-1] < ln.max() + math.log(1e-14):
            return cut
        cut = int(cut * 1.25) + 8


def _checked_cutoff(model: CircleSymbolModel, cutoff: Optional[int]) -> int:
    if not model.is_constant_one:
        raise DomainError("explicit eigenvalues exist only for the constant symbol")
    if not model.alpha > 0.0:
        raise DomainError("explicit eigenvalue formula requires alpha > 0")
    cut = default_cutoff(model) if cutoff is None else int(cutoff)
    if cut < 0:
        raise DomainError(f"cutoff must be nonnegative, got {cutoff}")
    return cut


def explicit_eigenvalues(model: CircleSymbolModel,
                         cutoff: Optional[int] = None) -> SpectrumTruncation:
    """Closed-form eigenvalues of the normalized operator, constant symbol.

    Evaluated in log space and exponentiated last; the result is the
    spectrum of the operator scaled by 1/sqrt(2 pi alpha), in index order,
    truncated at ``cutoff`` (default: the geometric-decay rule).  Raises
    DomainError, before allocating, when the spectrum would exceed
    MAX_SPECTRUM_TERMS terms.
    """
    cut = _checked_cutoff(model, cutoff)
    if cut + 1 > MAX_SPECTRUM_TERMS:
        raise DomainError(
            f"explicit spectrum would hold {cut + 1} terms, above the cap of "
            f"{MAX_SPECTRUM_TERMS} (r={model.r:g}, alpha={model.alpha:g})")
    lam = np.empty(cut + 1)
    for start in range(0, cut + 1, _CHUNK):
        stop = min(start + _CHUNK, cut + 1)
        lam[start:stop] = _eigenvalues_at(model, np.arange(start, stop))
    ratio_next = (model.alpha + 1.0) * model.r ** 2 / (cut + 1.0) + model.r ** 2
    tail = lam[-1] * ratio_next / (1.0 - ratio_next) if ratio_next < 1.0 else math.inf
    return SpectrumTruncation(
        eigenvalues=lam,
        by_index=lam,
        cutoff_index=cut,
        tail_estimate=float(tail),
        alpha=model.alpha,
        normalized=True,
        norm_bound=model.norm_bound,
    )


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


def _window_ends(model: CircleSymbolModel, cut: int, thresholds,
                 relative: bool = False) -> list:
    """Ends (first, last) of {m in [0, cut] : lambda_m >= t} for each t.

    An empty set gives (0, -1).  lambda_{m+1}/lambda_m = r^2 (alpha+m+2)/(m+1)
    decreases in m, so the set is one index interval around the peak.  Its
    ends are found on the rising side [0, peak] and the falling side
    [peak, cut] of every threshold at once: each level probes all open
    brackets through one ``log_gamma`` call.  With ``relative`` each t is a
    fraction of the peak value.
    """
    m_star = min(largest_eigenvalue_index(model.r, model.alpha), cut)
    near = np.arange(max(m_star - 1, 0), min(m_star + 1, cut) + 1)
    idx = np.unique(np.concatenate(
        (near, _bracket_probes(-1, m_star), _bracket_probes(m_star, cut + 1))))
    lam = _eigenvalues_at(model, idx)
    at_near = lam[np.searchsorted(idx, near)]
    peak, top = int(near[np.argmax(at_near)]), float(at_near.max())
    if relative:
        thresholds = [t * top for t in thresholds]
    pairs = [([-1, peak, t, True], [peak, cut + 1, t, False]) if top >= t else None
             for t in thresholds]
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


def explicit_count(model: CircleSymbolModel, t1: float, t2: float,
                   cutoff: Optional[int] = None) -> int:
    """Number of explicit eigenvalues in [t1, t2], without building the spectrum.

    Equals ``eigen_count(explicit_eigenvalues(model, cutoff), t1, t2)``: the
    same computed values are compared the same way, and an upper end at the
    norm bound counts every eigenvalue >= t1.  The count is
    #{lambda >= t1} - #{lambda >= nextafter(t2, inf)}, each term the length
    of a window whose ends are found by bracket refinement at O(log alpha)
    ``log_gamma`` arguments, so it runs in bounded memory where the spectrum
    itself would exceed its cap.
    """
    cut = _checked_cutoff(model, cutoff)
    ts = [t1] if _at_norm_bound(t2, model.norm_bound) else [t1, math.nextafter(t2, math.inf)]
    at_least_t1, *above_t2 = [last - first + 1 for first, last in _window_ends(model, cut, ts)]
    return max(at_least_t1 - sum(above_t2), 0)


def _matrix_cutoff(model: CircleSymbolModel, bandwidth: int) -> int:
    """Default cutoff of ``matrix_elements``: bandwidth + last index >= u^2 peak.

    The falling-side bracket starts at ``default_cutoff`` and grows while
    the threshold is not crossed inside it.
    """
    cut = default_cutoff(model)
    while True:
        last = _window_ends(model, cut, [_ROW_FLOOR], relative=True)[0][1]
        if last < cut:
            return last + bandwidth
        cut = int(cut * 1.25) + 8


def matrix_elements(model: CircleSymbolModel,
                    cutoff: Optional[int] = None) -> np.ndarray:
    """Truncated operator in the monomial basis (unnormalized).

    Entry (j, k) equals (alpha+1) (1-r^2)^alpha (2 pi r/(1-r^2)) r^{j+k}
    a_hat[j-k] / (||z^j|| ||z^k||), where ||z^m||^2 = m! Gamma(alpha+2) /
    Gamma(m+alpha+2) is the weighted norm of the monomial; the conjugate
    symmetry of the coefficients makes the matrix Hermitian.  A constant
    symbol gives the diagonal of closed-form eigenvalues times
    sqrt(2 pi alpha), for every alpha > -1 when ``cutoff`` is given.

    The default cutoff (alpha > 0) is K + last, so the order is K + last + 1:
    K is the bandwidth and ``last`` the last index past the peak of the
    constant-symbol diagonal d_m with d_last >= u^2 d_peak, u = 2^-53, found
    by the windowed bracket refinement of ``explicit_count``.  Entry (j, k)
    is sqrt(d_j d_k) a_hat[j-k] and a_hat vanishes past K, so the dropped
    rows couple to the kept block only through its last K rows, all below
    u^2 d_peak.  By Weyl's inequality each kept eigenvalue is then within
    about 2 sum_k |a_hat[k]| u^2 d_peak of its counterpart in any longer
    truncation, and every dropped eigenvalue is at most sup a u^2 d_peak:
    below the rounding of the peak eigenvalue in both cases.  Raises
    DomainError, before allocating, above order MAX_MATRIX_ORDER.
    """
    bandwidth = 0 if model.fourier is None else len(model.fourier) - 1
    cut = _matrix_cutoff(model, bandwidth) if cutoff is None else int(cutoff)
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

    The kernel depends on theta_j - theta_k only, so the n x n kernel matrix
    is circulant: log and exp run on the n values of its first column, and
    entry (j, k) is that column at (j - k) mod n (numpy reads a negative
    j - k from the end, so no modulo is taken).  The column takes offsets
    wrapped into [-1/2, 1/2), so the angle stays small where the kernel
    peaks; from angles near 2 pi the factor alpha would magnify the rounding.
    """
    r, a = model.r, model.alpha
    index = np.arange(n_nodes)
    wrapped = ((index + n_nodes // 2) % n_nodes - n_nodes // 2) / n_nodes
    base = 1.0 - r * r * np.exp(2j * np.pi * wrapped)
    log_edge = a * (math.log(1.0 - r * r) - np.log(base)) - 2.0 * np.log(base)
    with np.errstate(under="ignore"):
        column = np.exp(log_edge)
    edge = column[index[:, None] - index]
    weighted = (model.symbol_values(index / n_nodes)[:, None] * edge) / n_nodes
    # trace(W^m) = sum_jk (W^(m-1))_jk W_kj: one dense product fewer than W^m.
    prod = weighted
    for _ in range(m - 2):
        prod = prod @ weighted
    return float(np.sum(prod * weighted.T).real)


def composition_trace_quadrature(model: CircleSymbolModel, m: int) -> float:
    """Unnormalized trace of the m-fold composition by periodic quadrature.

    Evaluates the m-dimensional trapezoid sum of the exact cyclic integrand
    over the circle (spectrally accurate for this smooth periodic function),
    doubling the per-axis node count until two successive values agree to
    ``COMPOSITION_REL_TOL`` (capped at ``COMPOSITION_MAX_NODES``).  The
    tensor sum is contracted as a matrix trace, which is the identical sum
    in a fixed order; the kernel matrix is circulant, so each doubling
    evaluates log and exp on n values, not n^2.
    """
    if m not in (2, 3):
        raise DomainError(f"composition trace supports m in {{2, 3}}, got {m}")
    if model.alpha > 200.0:
        raise DomainError(
            "quadrature path requires alpha <= 200 (integrand peak resolution)")
    r = model.r
    pref = (normalizing_constant(1, model.alpha) * 2.0 * math.pi * r / (1.0 - r * r)) ** m
    prev = None
    n_nodes = 64
    while n_nodes <= COMPOSITION_MAX_NODES:
        val = pref * _cyclic_trace(model, m, n_nodes)
        if prev is not None and abs(val - prev) <= COMPOSITION_REL_TOL * abs(val):
            return val
        prev = val
        n_nodes *= 2
    last_gap = abs(val - prev) / abs(val)
    if last_gap <= 1e-6:
        warnings.warn(
            f"composition trace reached the {COMPOSITION_MAX_NODES}-node cap with relative "
            f"gap {last_gap:.2e}; returning the finest value")
        return val
    raise AccuracyError(
        f"composition trace did not converge: cap {COMPOSITION_MAX_NODES} nodes/axis, "
        f"last relative gap {last_gap:.2e}, target {COMPOSITION_REL_TOL:g}")
