"""Checks of the program's outputs against computations made apart from it.

Each ``check_*`` takes a task and its output record and returns a list of
failure messages (empty when the output is right).  The reference values
come from scipy, numpy's LAPACK routines and closed forms, never from
szegolab.  Imported only after the timed loop, so scipy adds nothing to the
measured run.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from workloads import GOLDEN, fourier_symbol_values, norm_bound_one

ENDPOINT_REL = 1e-10   # an eigenvalue this close to t1/t2 makes a count ambiguous
PRED_TOL = 5e-3        # published predicted counts are truncated to 2 decimals
TRACE_REL = 1e-8
TRACE_TERM_FLOOR = 1e-17
POW_LIMIT_REL = 1e-12
EIG_REL_TOP = 1e-9
MOMENT_REL = 1e-9
COMPOSITION_REL = 1e-6
FOURIER_RHS_REL = 1e-9
CHART_RHS_REL = 1e-6
DET_REL = 1e-9
LAMBDA_TOL = 1e-6
FAULT_SHORTFALL_MAX = 1e-2   # the truncated small-p traces fall at most 2e-3 short


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def log_eigenvalues(r: float, alpha: float, m: np.ndarray) -> np.ndarray:
    """log of the normalized explicit eigenvalues, with scipy's gammaln."""
    return (0.5 * math.log(2.0 * math.pi / alpha) + (alpha - 1.0) * math.log1p(-r * r)
            + gammaln(alpha + m + 2.0) - gammaln(alpha + 1.0) - gammaln(m + 1.0)
            + (2.0 * m + 1.0) * math.log(r))


def peak_window(r: float, alpha: float, log_floor: float):
    """Indices (lo, hi) around the eigenvalue peak with log lambda below
    ``log_floor`` at both ends (or lo = 0).

    lambda_(m+1)/lambda_m = r^2 (alpha+m+2)/(m+1) decreases in m, so the
    spectrum is unimodal and every eigenvalue outside [lo, hi] is below the
    end values.  The window starts at 12 standard widths of the peak and
    doubles until its ends are low enough.
    """
    m_peak = int((alpha + 1.0) * r * r / (1.0 - r * r))
    width = int(12.0 * math.sqrt(alpha + 1.0) * r / (1.0 - r * r)) + 64
    while True:
        lo, hi = max(0, m_peak - width), m_peak + width
        ends = log_eigenvalues(r, alpha, np.array([lo, hi], dtype=float))
        if (lo == 0 or ends[0] < log_floor) and ends[1] < log_floor:
            return lo, hi
        width *= 2


@lru_cache(maxsize=None)
def count_window(r: float, alpha: float, t1: float, t2: float):
    """(lowest, highest) count the program may report for [t1, t2].

    Eigenvalues come from gammaln over an index window whose ends lie below
    1e-6 t1.  An eigenvalue within ENDPOINT_REL of a finite endpoint may count
    either way; at the norm bound the overshooting eigenvalues count as
    inside, the convention of the paper's tables.
    """
    lo, hi = peak_window(r, alpha, math.log(1e-6 * t1))
    lam = np.exp(log_eigenvalues(r, alpha, np.arange(lo, hi + 1, dtype=float)))
    at_bound = t2 >= norm_bound_one(r) * (1.0 - 1e-12)
    near = np.abs(lam - t1) <= ENDPOINT_REL * t1
    if not at_bound:
        near |= np.abs(lam - t2) <= ENDPOINT_REL * t2
    inside = (lam >= t1) if at_bound else (lam >= t1) & (lam <= t2)
    sure = int(np.sum(inside & ~near))
    return sure, sure + int(np.sum(near))


def count_limit(r: float, t1: float, t2: float) -> float:
    """sqrt(8 pi) r/(1-r^2) [sqrt(ln 1/((1-r^2)^2 t1)) - sqrt(ln 1/((1-r^2)^2 t2))]."""
    def root(t):
        return math.sqrt(max(-math.log((1.0 - r * r) ** 2 * t), 0.0))
    return math.sqrt(8.0 * math.pi) * r / (1.0 - r * r) * (root(t1) - root(t2))


def check_count(task, rows) -> list:
    fails = []
    if [row.alpha for row in rows] != list(task["alphas"]):
        return [f"rows {[row.alpha for row in rows]} do not match the weights"]
    limit = count_limit(task["r"], task["t1"], task["t2"])
    for i, row in enumerate(rows):
        where = f"r={task['r']:.6g} alpha={row.alpha:.6g} [{task['t1']:.6g}, {task['t2']:.6g}]"
        if task["kind"] == "golden":
            g = GOLDEN[task["table"]]
            if row.count_n != g["counts"][i]:
                fails.append(f"{task['table']} {where}: count {row.count_n} != {g['counts'][i]}")
            pred = math.trunc(row.rhs_asymptotic_count * 100.0) / 100.0
            if abs(pred - g["predicted"][i]) > PRED_TOL:
                fails.append(f"{task['table']} {where}: predicted {pred} != {g['predicted'][i]}")
        lo, hi = count_window(task["r"], row.alpha, task["t1"], task["t2"])
        if not lo <= row.count_n <= hi:
            fails.append(f"{where}: count {row.count_n} outside [{lo}, {hi}]")
        if _rel(row.rhs_limit, limit) > POW_LIMIT_REL:
            fails.append(f"{where}: limit {row.rhs_limit!r} != {limit!r}")
    return fails


def ambiguous_rows(task) -> int:
    """Rows of a count task whose count the endpoint rule leaves open."""
    return sum(lo != hi for lo, hi in (count_window(task["r"], a, task["t1"], task["t2"])
                                       for a in task["alphas"]))


def phi_values(spec, lam: np.ndarray) -> np.ndarray:
    kind, arg = spec
    if kind == "pow":
        return lam ** arg
    return sum(c * lam ** (k + 1) for k, c in enumerate(arg))


@lru_cache(maxsize=None)
def full_trace(r: float, alpha: float, spec) -> float:
    """sqrt(pi/alpha) sum_m phi(lambda_m) over an index window whose end
    terms are below TRACE_TERM_FLOOR of the sum (widened until they are).

    phi(lambda) >= c lambda^q near 0 with q = p for pow:p and q = 1 for a
    poly, so the window is first cut where lambda^q falls 1e-20 below the
    peak's; all terms outside it are smaller than the end terms."""
    q = spec[1] if spec[0] == "pow" else 1.0
    m_peak = int((alpha + 1.0) * r * r / (1.0 - r * r))
    log_floor = float(log_eigenvalues(r, alpha, np.array([float(m_peak)]))[0]) + math.log(1e-20) / q
    lo, hi = peak_window(r, alpha, log_floor)
    while True:
        with np.errstate(under="ignore"):
            terms = phi_values(spec, np.exp(log_eigenvalues(r, alpha, np.arange(lo, hi + 1, dtype=float))))
        total = float(np.sum(terms))
        if (lo == 0 or terms[0] < TRACE_TERM_FLOOR * total) and terms[-1] < TRACE_TERM_FLOOR * total:
            return math.sqrt(math.pi / alpha) * total
        lo, hi = max(0, lo - (hi - lo)), hi + (hi - lo)


def power_limit(r: float, p: float) -> float:
    """2 pi r/(1-r^2) (1-r^2)^(-2p)/sqrt(2p), from Q_{1/2}(s^p)(x) = x^p/sqrt(p)."""
    return 2.0 * math.pi * r / (1.0 - r * r) * (1.0 - r * r) ** (-2.0 * p) / math.sqrt(2.0 * p)


def trace_limit(r: float, spec) -> float:
    kind, arg = spec
    if kind == "pow":
        return power_limit(r, arg)
    return sum(c * power_limit(r, k + 1) for k, c in enumerate(arg))


def check_trace(task, rows) -> list:
    fails = []
    if [row.alpha for row in rows] != list(task["alphas"]):
        return [f"rows {[row.alpha for row in rows]} do not match the weights"]
    limit = trace_limit(task["r"], task["phi"])
    for row in rows:
        where = f"r={task['r']:.6g} alpha={row.alpha:.6g} phi={task['phi']}"
        want = full_trace(task["r"], row.alpha, task["phi"])
        if _rel(row.lhs_scaled, want) > TRACE_REL:
            fails.append(f"{where}: trace {row.lhs_scaled!r} vs {want!r} "
                         f"(rel {_rel(row.lhs_scaled, want):.2e})")
        if _rel(row.rhs_limit, limit) > POW_LIMIT_REL:
            fails.append(f"{where}: limit {row.rhs_limit!r} vs {limit!r}")
    return fails


def truncated_trace_only(task, rows) -> bool:
    """True when a trace task's rows are wrong only by the known truncation:
    the weights and limits are right, and every scaled trace lies below the
    gammaln sum by less than FAULT_SHORTFALL_MAX of it."""
    if [row.alpha for row in rows] != list(task["alphas"]):
        return False
    limit = trace_limit(task["r"], task["phi"])
    for row in rows:
        want = full_trace(task["r"], row.alpha, task["phi"])
        if _rel(row.rhs_limit, limit) > POW_LIMIT_REL:
            return False
        if not want * (1.0 - FAULT_SHORTFALL_MAX) <= row.lhs_scaled <= want * (1.0 + TRACE_REL):
            return False
    return True


def fourier_matrix(task, n: int) -> np.ndarray:
    """The n x n truncated operator from its closed-form entries
    (alpha+1)(1-r^2)^alpha (2 pi r/(1-r^2)) delta_j delta_k r^(j+k) a_(j-k),
    delta_m^2 = Gamma(m+alpha+2)/(m! Gamma(alpha+2))."""
    r, a = task["r"], task["alpha"]
    m = np.arange(n, dtype=float)
    log_pref = math.log(a + 1.0) + a * math.log1p(-r * r) + math.log(2.0 * math.pi * r / (1.0 - r * r))
    log_row = 0.5 * (log_pref + gammaln(m + a + 2.0) - gammaln(m + 1.0) - gammaln(a + 2.0)) + m * math.log(r)
    out = np.zeros((n, n), dtype=complex)
    with np.errstate(under="ignore"):
        for off, c in enumerate(task["fourier"]):
            for sign, coeff in ((1, c), (-1, np.conj(c))):
                if off == 0 and sign < 0:
                    continue
                j = np.arange(max(0, sign * off), n + min(0, sign * off))
                out[j, j - sign * off] = np.exp(log_row[j] + log_row[j - sign * off]) * coeff
    return out


def fourier_count_window(lam: np.ndarray, t1: float, t2: float):
    near = (np.abs(lam - t1) <= ENDPOINT_REL * t1) | (np.abs(lam - t2) <= ENDPOINT_REL * t2)
    sure = int(np.sum((lam >= t1) & (lam <= t2) & ~near))
    return sure, sure + int(np.sum(near))


def fourier_rhs(task) -> float:
    """pow:p limit: circumference/sqrt(2) * mean((a s)^p)/sqrt(p), 2^16-point trapezoid."""
    r, p = task["r"], task["p"]
    a = fourier_symbol_values(task["fourier"], np.arange(2 ** 16) / 2 ** 16)
    mean = float(np.mean((a * (1.0 - r * r) ** -2) ** p))
    return 2.0 * math.pi * r / (1.0 - r * r) * mean / math.sqrt(p) / math.sqrt(2.0)


def check_fourier(task, out) -> list:
    fails = []
    ref = fourier_matrix(task, out["n"])
    scale = float(np.max(np.abs(ref)))
    for off, diag in out["band"].items():
        gap = float(np.max(np.abs(diag - np.diagonal(ref, off)), initial=0.0))
        if gap > 1e-10 * scale:
            fails.append(f"matrix diagonal {off}: off by {gap:.2e} (max entry {scale:.3e})")
    if out["outside_band"] > 0.0:
        fails.append(f"matrix has entries {out['outside_band']:.2e} outside the band")
    lam_ref = np.linalg.eigvalsh(ref)[::-1]
    eig = np.asarray(out["eig"])
    if eig.shape != lam_ref.shape:
        return fails + [f"{eig.size} eigenvalues for a matrix of order {out['n']}"]
    top = lam_ref[0]
    if float(np.max(np.abs(eig - lam_ref))) > EIG_REL_TOP * top:
        fails.append(f"eigenvalues off by {float(np.max(np.abs(eig - lam_ref))) / top:.2e} of the top")
    if _rel(float(np.sum(eig)), float(np.trace(ref).real)) > MOMENT_REL:
        fails.append(f"sum of eigenvalues {float(np.sum(eig))!r} != trace {float(np.trace(ref).real)!r}")
    frob = float(np.sum(np.abs(ref) ** 2))
    if _rel(float(np.sum(eig ** 2)), frob) > MOMENT_REL:
        fails.append(f"sum of squares {float(np.sum(eig ** 2))!r} != Frobenius^2 {frob!r}")
    for m, got in out["comp"].items():
        want = float(np.sum(lam_ref ** m))
        if _rel(got, want) > COMPOSITION_REL:
            fails.append(f"composition trace m={m}: {got!r} vs {want!r}")
    norm = math.sqrt(2.0 * math.pi * task["alpha"])
    lo, hi = fourier_count_window(lam_ref / norm, task["t1"], task["t2"])
    if not lo <= out["count"] <= hi:
        fails.append(f"count {out['count']} outside [{lo}, {hi}]")
    want = math.sqrt(math.pi / task["alpha"]) * float(np.sum(np.clip(lam_ref / norm, 0.0, None) ** task["p"]))
    if _rel(out["power_trace"], want) > MOMENT_REL:
        fails.append(f"power trace {out['power_trace']!r} vs {want!r}")
    rhs = fourier_rhs(task)
    if _rel(out["rhs"], rhs) > FOURIER_RHS_REL:
        fails.append(f"szego_rhs {out['rhs']!r} vs {rhs!r} (rel {_rel(out['rhs'], rhs):.2e})")
    return fails


def curve_path(task):
    """gamma(t) and |gamma'(t)| of the task's curve."""
    g = task["geom"]
    if task["curve"] == "radial":
        return (lambda t: g["rho0"] + (g["rho1"] - g["rho0"]) * t), (lambda t: g["rho1"] - g["rho0"])
    return (lambda t: g["rho"]), (lambda t: g["rho"] * g["dtheta"])


def chart_rhs(task) -> float:
    """2^(-1/2) int_0^1 (a/(1-|g|^2)^2)^p p^(-1/2) |g'|/(1-|g|^2) dt by scipy.integrate.quad."""
    radius, speed = curve_path(task)
    c0, c1, c2 = task["symbol"]
    p = task["p"]

    def f(t):
        s = 1.0 - radius(t) ** 2
        return ((c0 + c1 * t + c2 * t * t) / s ** 2) ** p / math.sqrt(p) * speed(t) / s

    return quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0] / math.sqrt(2.0)


EXPECTED_CLASS = {
    "circle": ("lagrangian", ()),
    "sphere3": ("co-isotropic", (1.0,)),
    "open-ball": ("co-isotropic", None),
    "generic2d": ("neither", None),
}


def block_matrix(m: int, W: np.ndarray) -> np.ndarray:
    """2I on the diagonal, -I - iW above, -I + iW below, (m-1) block rows."""
    d = W.shape[0]
    eye = np.eye(d)
    return (np.kron(np.eye(m - 1), 2.0 * eye)
            + np.kron(np.eye(m - 1, k=1), -eye - 1j * W)
            + np.kron(np.eye(m - 1, k=-1), -eye + 1j * W))


def check_chart(task, out) -> list:
    fails = []
    want = chart_rhs(task)
    if _rel(out["rhs"], want) > CHART_RHS_REL:
        fails.append(f"szego_rhs_chart {out['rhs']!r} vs quad {want!r}")
    for cls in out["curve_cls"]:
        if cls.tag != "lagrangian":
            fails.append(f"{task['curve']} curve classified {cls.tag}")
    tag, lams = EXPECTED_CLASS[task["chart"]]
    for cls in out["chart_cls"]:
        if cls.tag != tag:
            fails.append(f"{task['chart']} classified {cls.tag}, expected {tag}")
        elif lams is not None and (len(cls.lambda_spectrum) != len(lams) or any(
                abs(a - b) > LAMBDA_TOL for a, b in zip(cls.lambda_spectrum, lams))):
            fails.append(f"{task['chart']} lambda spectrum {cls.lambda_spectrum} != {lams}")
    ref = complex(np.linalg.det(block_matrix(task["m"], np.linalg.solve(task["G"], task["H"]))))
    for name, got in zip(("direct", "polynomial", "spectrum"), out["dets"]):
        if _rel(got, ref) > DET_REL:
            fails.append(f"det_{name} {got!r} vs numpy {ref!r}")
    d = out["dets"]
    if max(_rel(a, b) for a in d for b in d) > DET_REL:
        fails.append(f"determinants disagree: {d}")
    return fails


CHECKS = {
    "count-scan": check_count,
    "trace-scan": check_trace,
    "fourier-spectrum": check_fourier,
    "chart-limits": check_chart,
}

# Workloads with a task that fails on every run: how that failure must look.
KNOWN_FAULTS = {
    "trace-scan": truncated_trace_only,
}
