"""The explicit spectrum from scipy's ``gammaln``: an oracle for the tests
that does not share the library's evaluator.

The m-th normalized eigenvalue of the constant-symbol circle operator is
lambda_m = sqrt(2 pi/alpha) (1-r^2)^(alpha-1) Gamma(alpha+m+2)
/ (Gamma(alpha+1) m!) r^(2m+1).  Its log-gammas are of size
(alpha+m) log(alpha+m) and cancel, so a value carries a relative error of
a few ulps of that size: about 1e-12 at alpha = 1e3 and up to 3.3e-9 at
alpha = 1e5.  A test compares against it at a tolerance above that, or
skips a draw whose count would turn on a smaller difference.
"""

import math
import sys

import numpy as np
from scipy.special import gammaln

from szegolab import SpectrumTruncation


def log_eigenvalues(r, alpha, m):
    """log lambda_m at the indices ``m``."""
    m = np.asarray(m, dtype=float)
    return (0.5 * math.log(2 * math.pi / alpha) + (alpha - 1) * math.log1p(-r * r)
            + gammaln(alpha + m + 2) - gammaln(alpha + 1) - gammaln(m + 1)
            + (2 * m + 1) * math.log(r))


def log_spectrum(r, alpha, log_floor=math.log(sys.float_info.min)):
    """log lambda_m for m = 0 .. N, N doubled from about 2 m* until
    log lambda_N < log_floor; the values fall past the peak m*, so every
    later one is below the floor too."""
    m = np.arange(2 * int((alpha + 1) * r * r / (1 - r * r)) + 4)
    while True:
        ln = log_eigenvalues(r, alpha, m)
        if ln[-1] < log_floor:
            return ln
        m = np.arange(2 * m.size)


def truncation(lam, model):
    """``lam`` in index order, as the container ``eigen_count`` reads."""
    return SpectrumTruncation(eigenvalues=lam, by_index=lam, cutoff_index=lam.size - 1,
                              tail_estimate=0.0, alpha=model.alpha, normalized=True,
                              norm_bound=model.norm_bound)


def count(r, alpha, t1, t2):
    """Eigenvalues in [t1, t2] (below the norm bound), and the smallest
    relative distance of a value to t1 or t2."""
    ln = log_spectrum(r, alpha, math.log(t1) - 1.0)
    log_t = np.array([math.log(t1), math.log(t2)])
    hits = int(np.sum((ln >= log_t[0]) & (ln <= log_t[1])))
    return hits, float(np.min(np.abs(np.expm1(ln[:, None] - log_t))))
