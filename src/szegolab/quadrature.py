"""Panel integrators: a Gauss-Legendre ladder and nested rules that reuse every node."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["gauss_legendre", "panel_integral", "graded_edges", "adaptive_integral",
           "fejer2", "trapezoid", "nested_integral"]

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


def _nested_order(n: int, first: int) -> np.ndarray:
    """Indices first..n-1 of a rule with n steps, the rule of n/2 steps first.

    For even n the indices 2k of the rule of n/2 steps come first, in that
    rule's own order, then the odd indices, ascending; odd n ends the
    recursion in ascending order.
    """
    if n % 2:
        return np.arange(first, n)
    return np.concatenate([2 * _nested_order(n // 2, first), np.arange(1, n, 2)])


@lru_cache(maxsize=32)
def fejer2(n: int):
    """Fejer's second rule with n steps on [-1, 1]: n - 1 interior nodes.

    Nodes -cos(k pi/n), k = 1..n-1, with the weights
        (4/n) sin(theta_k) sum_{j=1}^{floor(n/2)} sin((2j-1) theta_k)/(2j-1),
    theta_k = k pi/n; the rule is exact for polynomials of degree n - 2 (of
    degree n - 1 for even n, by symmetry).  numpy has no Fejer rule, so the
    weights are formed here.  The nodes come in nested order (see
    ``nested_integral``): the rule of n/2 steps holds the nodes of even k,
    and they lead, equal bit for bit, since (2k pi)/(2n) rounds as (k pi)/n.
    Cached per n, as read-only arrays shared by every caller.
    """
    theta = np.pi * _nested_order(n, 1) / n
    odd = np.arange(1, 2 * (n // 2), 2)
    x = -np.cos(theta)
    w = (4.0 / n) * np.sin(theta) * (np.sin(np.outer(theta, odd)) @ (1.0 / odd))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=32)
def trapezoid(n: int):
    """Periodic trapezoid rule with n steps on [-1, 1): nodes -1 + 2j/n, weights 2/n.

    Nested order as in ``fejer2``: the rule of n/2 steps leads, and for a
    power-of-two n, panel nodes mapped from [-1, 1) to [0, 1) are j/n
    exactly.  Cached per n, as read-only arrays.
    """
    x = 2.0 * _nested_order(n, 0) / n - 1.0
    w = np.full(n, 2.0 / n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def nested_integral(f, rule, edges, n: int, rel_tol: float, max_doublings: int, what: str):
    """Composite nested rule over panels, steps doubled until two levels agree.

    ``rule(n)`` gives nodes and weights on [-1, 1] in nested order: the
    nodes of ``rule(n // 2)`` first, then the nodes new at n (``fejer2``,
    ``trapezoid``).  Each level calls the scalar integrand ``f`` once, on the
    new nodes of every panel only, so a value accepted at n steps has cost
    the nodes of ``rule(n)`` once each.  Raises DomainError at the first
    level whose value is not finite, and AccuracyError, naming ``what``,
    when ``max_doublings`` doublings of n end without two successive values
    agreeing to ``rel_tol``.
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = np.empty((len(half), 0))
    prev = older = None
    for _ in range(max_doublings + 1):
        x, w = rule(n)
        nodes = mid[:, None] + half[:, None] * x[vals.shape[1]:]
        new = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        vals = np.concatenate([vals, new], axis=1)
        cur = float(half @ (vals @ w))
        if not math.isfinite(cur):
            raise DomainError(f"{what}: value {cur!r} at {vals.size} nodes is past the float range")
        if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev, older = cur, prev
        n *= 2
    raise AccuracyError(
        f"{what}: nested rule exhausted at {vals.size} nodes (last two values "
        f"{older!r} and {prev!r}); target rel_tol={rel_tol:g}")
