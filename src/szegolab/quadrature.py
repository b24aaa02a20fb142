"""Small Gauss-Legendre panel integrator used by the transform and scan code."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["gauss_legendre", "panel_integral", "graded_edges", "adaptive_integral"]

# The most values one call of an integrand returns (unless one panel needs
# more).  Blocks this size stay in cache: with q_transform's 256-row chunks,
# 2^13 ran its 32- and 96-point calls 4-12% faster than 2^16, which ran a
# 1,024-point call 15-20% faster (2 cores, best of 30 calls, alternating).
BLOCK_ELEMENTS = 2 ** 13


@lru_cache(maxsize=32)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_integral(f, edges, order: int):
    """Composite Gauss-Legendre integral of ``f`` over consecutive panels.

    ``f`` takes a 1-D array of abscissae.  A scalar integrand returns one
    value per abscissa and the result is a float.  A vector integrand
    returns an array of shape (k, len(x)), one row per component, and the
    result is an array of k integrals.

    ``f`` is first called on an empty array to learn k, then on the nodes of
    blocks of whole panels, each block as large as keeps the values of one
    call within ``BLOCK_ELEMENTS`` (one panel per call at the least).  Each
    panel's weighted sum is formed on its own and the panel sums are added
    at the end, so a component's value does not depend on k or the blocks.
    """
    x, w = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    lead = np.shape(f(x[:0]))[:-1]
    n_rows = math.prod(lead)
    n_panels = len(half)
    per_call = max(1, BLOCK_ELEMENTS // (order * n_rows))
    sums = np.empty(lead + (n_panels,))
    for start in range(0, n_panels, per_call):
        stop = min(start + per_call, n_panels)
        nodes = mid[start:stop, None] + half[start:stop, None] * x
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(lead + nodes.shape)
        sums[..., start:stop] = half[start:stop] * np.sum(vals * w, axis=-1)
    total = np.sum(sums, axis=-1)
    return float(total) if not lead else total


def graded_edges(a: float, b: float, levels: int) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined toward the left endpoint.

    Handles integrable endpoint behavior (algebraic singularities of the
    integrand's derivatives at ``a``) without adaptive bookkeeping: the
    edges are a, a + L/2^(levels-1), ..., a + L/2, b with L = b - a.
    """
    span = b - a
    return np.array([a] + [a + span / 2.0 ** k for k in range(levels - 1, -1, -1)])


def adaptive_integral(f, edges, rel_tol: float, order: int = 16,
                      max_doublings: int = 6, what="integral"):
    """Panel integral with Gauss order doubled until two evaluations agree.

    A vector integrand (see ``panel_integral``) is accepted component by
    component: each component keeps its value at the first order where its
    own two successive values agree, and the ladder goes on while any
    component is still pending.  The result is a float for a scalar integrand
    and an array for a vector one.

    Raises DomainError at the first order whose value is not finite (the
    integral has left the float range, and no later order would settle it),
    and AccuracyError with a diagnostic when the doubling ladder is exhausted
    without meeting ``rel_tol``.  ``what`` names the integral; for a vector
    integrand it may be a function of the indices of the failing components,
    returning the name.
    """
    def name(failed):
        return what(failed) if callable(what) else what

    def evaluate(k):
        val = np.asarray(panel_integral(f, edges, k))
        failed = np.flatnonzero(~np.isfinite(val))
        if failed.size:
            raise DomainError(f"{name(failed)}: value {val.ravel()[failed].tolist()!r} at "
                              f"Gauss order {k} is past the float range")
        return val

    k = order
    prev = older = evaluate(k)
    out = prev.copy()
    pending = np.ones(prev.shape, dtype=bool)
    for _ in range(max_doublings):
        k *= 2
        val = evaluate(k)
        agree = pending & (np.abs(val - prev) <= rel_tol * np.maximum(np.abs(val), 1e-300))
        out[agree] = val[agree]
        pending &= ~agree
        if not pending.any():
            return float(out) if out.ndim == 0 else out
        prev, older = val, prev
    failed = np.flatnonzero(pending)
    raise AccuracyError(
        f"{name(failed)}: Gauss ladder exhausted at order {k} (last two values "
        f"{np.atleast_1d(older)[failed].tolist()!r} and "
        f"{np.atleast_1d(prev)[failed].tolist()!r}); target rel_tol={rel_tol:g}")
