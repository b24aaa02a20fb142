"""Checked Hermitian eigenvalues through LAPACK (``np.linalg.eigvalsh``).

The Toeplitz matrices of ``toeplitz.matrix_elements`` are graded: their
entries fall by many orders of magnitude away from the eigenvalue peak, and
the tests ask for 1e-9 relative accuracy on eigenvalues down to 1e-15 of the
largest.  LAPACK meets that when the basis stays in index order.  Measured
against 40-digit mpmath eigenvalues for the pentadiagonal symbol
fourier=(1, 0.3, 0.1) at r = 0.5, alpha = 20, cutoff 50, the index-ordered
matrix gives a 6e-15 relative error and the reversed basis 1.2e-3.  The
tridiagonal case fourier=(1, 0.3) gives 3.3e-15 in either order, because
LAPACK's tridiagonal QL/QR picks its sweep direction from the grading.
At its default order ``matrix_elements`` drops the rows past the peak whose
diagonal is below u^2 = 2^-106 of the peak; they move no eigenvalue by more
than the rounding of the largest one (the bound is in its docstring).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

__all__ = ["hermitian_eigenvalues"]


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a Hermitian (or real symmetric) matrix, descending.

    The input must be square, finite and satisfy max|A - A*| <
    1e-12 * ||A||_F, otherwise ContractViolation is raised; a NaN
    or inf entry is refused before the Hermitian check, which it would turn
    into NaN eigenvalues or a warning.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractViolation("matrix has a NaN or infinite entry")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(a.shape[0])
    if float(np.max(np.abs(a - a.conj().T))) >= 1e-12 * scale:
        raise ContractViolation("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)[::-1]
