import cmath
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate

import gammaln_spectrum
from szegolab import (
    CircleSymbolModel,
    composition_trace_quadrature,
    convergence_scan,
    eigen_count,
    explicit_count,
    explicit_trace,
    hermitian_eigenvalues,
    largest_eigenvalue_index,
    matrix_elements,
    poly_phi,
    power_phi,
)
from szegolab import toeplitz
from szegolab.toeplitz import (
    MAX_MATRIX_ORDER,
    MAX_SPECTRUM_TERMS,
    _log_eigenvalues,
    label_product_batch,
    phase_imag_batch,
)
from szegolab.errors import ContractViolation, DomainError

PROPERTY = settings(max_examples=40, deadline=None, database=None)


class TestModelValidation:
    def test_radius_and_weight(self):
        with pytest.raises(DomainError):
            CircleSymbolModel(r=1.0, alpha=5.0)
        with pytest.raises(DomainError):
            CircleSymbolModel(r=0.5, alpha=-1.0)

    def test_radius_whose_square_underflows(self):
        # r^2 below the smallest normal float: refused, not a math domain error later.
        with pytest.raises(DomainError, match="smallest normal"):
            CircleSymbolModel(r=1e-200, alpha=100.0)
        assert CircleSymbolModel(r=1e-100, alpha=100.0).r == 1e-100

    def test_weight_must_be_finite(self):
        with pytest.raises(DomainError):
            CircleSymbolModel(r=0.5, alpha=math.inf)

    def test_symbol_must_be_nonnegative(self):
        # a = 1 + 3 cos(2 pi theta) dips below zero
        with pytest.raises(DomainError):
            CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 1.5))

    def test_zeroth_coefficient_real(self):
        with pytest.raises(DomainError):
            CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0 + 0.5j, 0.1))

    def test_norm_bound(self):
        m = CircleSymbolModel(r=0.5, alpha=5.0)
        assert m.norm_bound == pytest.approx(16.0 / 9.0, rel=1e-12)
        pert = CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 0.25))
        assert pert.norm_bound == pytest.approx(1.5 * 16.0 / 9.0, rel=1e-6)

    def test_fourier_coefficients_must_be_finite(self):
        # a NaN would pass the negativity check, as every comparison with it
        # is False, and fill the matrix with NaN
        for fourier in ((1.0, math.nan), (math.inf, 0.1), (1.0, complex(0.0, math.inf))):
            with pytest.raises(DomainError, match="finite"):
                CircleSymbolModel(r=0.5, alpha=10.0, fourier=fourier)

    def test_symbol_values_real_series(self):
        m = CircleSymbolModel(r=0.5, alpha=5.0, fourier=(2.0, 0.3 + 0.1j))
        theta = np.linspace(0.0, 1.0, 7, endpoint=False)
        direct = 2.0 + 2.0 * (0.3 * np.cos(2 * np.pi * theta)
                              - 0.1 * np.sin(2 * np.pi * theta))
        assert np.allclose(m.symbol_values(theta), direct, atol=1e-14)


def _evaluated(model, last):
    # The library's normalized eigenvalues at every index 0..last.
    return np.exp(_log_eigenvalues(model, np.arange(last + 1)))


class TestExplicitEigenvalues:
    def test_quotient_identity(self):
        model = CircleSymbolModel(r=0.4, alpha=37.0)
        lam = _evaluated(model, 300)
        m = np.arange(1, 301, dtype=float)
        ratios = lam[1:] / lam[:-1]
        want = (model.alpha + 1.0) * model.r ** 2 / m + model.r ** 2
        mask = lam[1:] > lam.max() * 1e-250
        assert np.max(np.abs(ratios[mask] / want[mask] - 1.0)) < 1e-10

    def test_argmax_is_peak_index(self):
        # The argmax is the largest index within 1e-12 of the maximum, the
        # canonical one of an exact tie (alpha+1) r^2/(1-r^2) in the integers.
        for r, alpha in ((0.5, 100.0), (0.3, 250.0), (1 / math.sqrt(2), 64.0)):
            model = CircleSymbolModel(r=r, alpha=alpha)
            lam = _evaluated(model, _long_index(model))
            argmax = int(np.nonzero(lam >= lam.max() * (1.0 - 1e-12))[0][-1])
            assert argmax == largest_eigenvalue_index(r, alpha)

    @pytest.mark.parametrize("r, alpha", [(0.05, 1.0), (0.5, 100.0), (0.95, 1.0),
                                          (0.9, 1e4), (1 / math.sqrt(2), 64.0)])
    def test_default_ends_at_the_row_floor(self, r, alpha):
        # The default constant-symbol matrix ends at the last index whose
        # eigenvalue is >= u^2 = 2^-106 of the peak, from every value up to
        # where they fall below the smallest normal; above the order cap its
        # refusal names that order.
        model = CircleSymbolModel(r=r, alpha=alpha)
        lam = _evaluated(model, _long_index(model))
        last = int(np.nonzero(lam >= 2.0 ** -106 * lam.max())[0][-1])
        if last + 1 > MAX_MATRIX_ORDER:
            with pytest.raises(DomainError, match=f"order {last + 1}, above the cap"):
                matrix_elements(model)
        else:
            assert matrix_elements(model).shape == (last + 1, last + 1)

    def test_peak_index_float_guard(self):
        # (alpha + 1) r^2/(1 - r^2) is an exact integer for r = 1/sqrt(2);
        # float rounding of r^2 must not push the floor down by one.
        assert largest_eigenvalue_index(1 / math.sqrt(2), 1e5) == 100001

    def test_positive_and_normalized(self):
        # Finite logs, so positive values, on the 1/sqrt(2 pi alpha) scale
        # of the gammaln spectrum down to the smallest normal float, where
        # its log-gammas of size 4e3 carry about 1e-12.
        want = gammaln_spectrum.log_spectrum(0.5, 50.0)
        got = _log_eigenvalues(CircleSymbolModel(r=0.5, alpha=50.0), np.arange(want.size))
        assert np.all(np.isfinite(got))
        normal = want >= math.log(sys.float_info.min)
        assert np.max(np.abs(got - want)[normal]) <= 2e-12

    def test_requires_constant_symbol_and_positive_alpha(self):
        for model, what in ((CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 0.2)),
                             "constant symbol"),
                            (CircleSymbolModel(r=0.5, alpha=-0.5), "alpha > 0")):
            with pytest.raises(DomainError, match=what):
                explicit_count(model, 0.1, 1.0)
            with pytest.raises(DomainError, match=what):
                explicit_trace(model, power_phi(1.0))

    def test_truncation_soundness(self):
        # Doubling the default order of the constant-symbol matrix must not
        # move any eigenvalue in the window [1e-9 lambda_max, lambda_max].
        model = CircleSymbolModel(r=0.5, alpha=200.0)
        lam_base = hermitian_eigenvalues(matrix_elements(model))
        lam_double = hermitian_eigenvalues(
            matrix_elements(model, cutoff=2 * (lam_base.size - 1)))
        window = lam_base >= lam_base[0] * 1e-9
        top_base = lam_base[window]
        top_double = lam_double[: top_base.size]
        assert np.max(np.abs(top_base / top_double - 1.0)) < 1e-10

    def test_high_precision_frozen_values(self):
        # 50-digit reference values for alpha=100, r=1/2 (peak and deep
        # tail), frozen from an exact-arithmetic evaluation with mpmath.
        lam = _evaluated(CircleSymbolModel(r=0.5, alpha=100.0), 150)
        assert lam[33] == pytest.approx(1.786285122586122712, rel=1e-12)
        assert lam[150] == pytest.approx(4.003956646150914453e-30, rel=1e-11)

    def test_finite_alpha_norm_overshoot_envelope(self):
        # The peak eigenvalue approaches sup a/(1-r^2)^2 like
        # sqrt((alpha+1)/alpha), slightly from above at finite alpha; the
        # bare bound itself is only asymptotic.
        for r in (0.3, 0.5, 1 / math.sqrt(2)):
            for alpha in (1.0, 10.0, 100.0):
                model = CircleSymbolModel(r=r, alpha=alpha)
                lam_max = _evaluated(model, _long_index(model)).max()
                envelope = model.norm_bound * math.sqrt((alpha + 1.0) / alpha)
                assert lam_max <= envelope * (1.0 + 1e-9)


def _mp_log_diagonal(r, alpha, m):
    # log(d_m / (2 pi)) from 40-digit log-gammas, r and alpha taken exactly.
    with mpmath.workdps(40):
        r, a = mpmath.mpf(r), mpmath.mpf(alpha)
        return float((a - 1) * mpmath.log(1 - r * r) + mpmath.loggamma(a + m + 2)
                     - mpmath.loggamma(a + 1) - mpmath.loggamma(m + 1)
                     + (2 * m + 1) * mpmath.log(r))


class TestLogDiagonal:
    # The negative-binomial form switches branches at m = 0 (n log p), at
    # m = 15 (table, then series) and where n + m = alpha + 2 + m crosses 15
    # (math.lgamma, then series; only for alpha < 13).
    @pytest.mark.parametrize("alpha", [0.7, 12.0, 12.5, 13.0, 13.5, 100.0])
    @pytest.mark.parametrize("r", [0.3, 0.75])
    def test_branch_seams_against_mpmath(self, r, alpha):
        model = CircleSymbolModel(r=r, alpha=alpha)
        m = np.arange(41)
        got = toeplitz._log_diagonal(model, m, 0.0)
        want = np.array([_mp_log_diagonal(r, alpha, k) for k in m])
        assert np.max(np.abs(got - want)) <= 1e-13
        # the branch taken depends on the index, not on the other indices
        for k in (0, 1, 13, 14, 15, 16, 40):
            assert toeplitz._log_diagonal(model, [k], 0.0)[0] == got[k]
        assert np.array_equal(toeplitz._log_diagonal(model, m[16:], 0.0), got[16:])
        assert np.array_equal(toeplitz._log_diagonal(model, m[::-1], 0.0), got[::-1])

    @pytest.mark.parametrize("alpha", [-0.5, 0.0])
    def test_matrix_rows_without_explicit_spectrum(self, alpha):
        model = CircleSymbolModel(r=0.5, alpha=alpha)
        diag = np.diagonal(matrix_elements(model, cutoff=40))
        want = np.array([math.log(2 * math.pi) + _mp_log_diagonal(0.5, alpha, k)
                         for k in range(41)])
        assert np.max(np.abs(np.log(diag) - want)) <= 1e-13

    @pytest.mark.parametrize("r, alpha", [(0.5, 1e5), (1 / math.sqrt(2), 1e5),
                                          (0.95, 1e5), (0.5, 1e4)])
    def test_large_alpha_against_mpmath(self, r, alpha):
        # Within 10 widths of the peak.  A sum of log-gammas of size 1e6 is
        # off by 3.4e-11 to 3.3e-9 here; the deviance form stays below 1e-12.
        model = CircleSymbolModel(r=r, alpha=alpha)
        sigma = math.sqrt(alpha + 2.0) * r / (1.0 - r * r)
        m = np.unique(np.round(largest_eigenvalue_index(r, alpha)
                               + sigma * np.linspace(-10.0, 10.0, 41)).astype(int))
        got = toeplitz._log_diagonal(model, m, 0.0)
        want = np.array([_mp_log_diagonal(r, alpha, int(k)) for k in m])
        assert np.max(np.abs(got - want)) <= 2e-12


    @pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-7, 1e-9, 1e-100])
    def test_tiny_radius_against_gammaln(self, r):
        # Far below the peak 1 + t = (n+m) r^2/m is tiny; log1p(t) lost up
        # to m u / r^2 there (1e-4 at r = 1e-7, -inf at r = 1e-9).
        model = CircleSymbolModel(r=r, alpha=100.0)
        m = np.arange(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_eigenvalues(model, m)
        want = gammaln_spectrum.log_eigenvalues(r, 100.0, m)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_tiny_radius_count(self):
        # lambda_0 > ... > lambda_3, each about 1e-18 times the one before.
        model = CircleSymbolModel(r=1e-9, alpha=100.0)
        lam3 = math.exp(gammaln_spectrum.log_eigenvalues(1e-9, 100.0, [3])[0])
        assert explicit_count(model, lam3 / 2, model.norm_bound) == 4


def _crossing(log_lam, lo, hi, t):
    # The first index in (lo, hi] where log_lam(m) >= log t switches state, by
    # bisection over indices on one side of the peak; lo = -1 stands for an
    # index below t, so the rising side may switch at 0.
    def above(m):
        return m >= 0 and log_lam(m) >= math.log(t)

    state = above(lo)
    assert above(hi) != state
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid) == state:
            lo = mid
        else:
            hi = mid
    return hi


def _long_index(model):
    # The peak index plus a step, doubled until the eigenvalue there is
    # below the smallest normal float; every later one is smaller.
    m_star = largest_eigenvalue_index(model.r, model.alpha)
    step = 16
    while _log_eigenvalues(model, [m_star + step])[0] >= math.log(sys.float_info.min):
        step *= 2
    return m_star + step


def _threshold(spec, model, kind, u):
    lam = spec.by_index
    if kind == 0:
        return float(spec.eigenvalues.max())           # the peak value itself
    if kind == 1:
        return model.norm_bound
    if kind == 2:
        return float(lam[int(u * (lam.size - 1))])     # exactly an eigenvalue
    if kind == 3:
        return math.nextafter(float(lam[int(u * (lam.size - 1))]), math.inf)
    return float(spec.eigenvalues.max()) * 10.0 ** (-40.0 * u)


class TestExplicitCount:
    # Hypothesis favours small floats, so the large-weight corners and the
    # exact peak tie at r = 1/sqrt(2) are pinned as explicit examples.
    @PROPERTY
    @example(r=0.95, log_alpha=5.0,
             picks=[(0, 0.0, 1, 0.0), (2, 0.5, 0, 0.0), (3, 0.4, 4, 0.3)])
    @example(r=1 / math.sqrt(2), log_alpha=5.0,
             picks=[(0, 0.0, 0, 0.0), (4, 0.01, 2, 0.9), (2, 0.2, 3, 0.2)])
    @given(r=st.floats(0.05, 0.95), log_alpha=st.floats(0.0, 5.0),
           picks=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0),
                                    st.integers(0, 4), st.floats(0.0, 1.0)),
                          min_size=1, max_size=8))
    def test_matches_full_spectrum_count(self, r, log_alpha, picks):
        # The windowed count against eigen_count over the library's own
        # values at every index until they fall below the smallest normal
        # float, each threshold kept at least that (a lower t1 is refused).
        # Thresholds sit exactly on computed values, which only the same
        # evaluator reproduces; test_open_count_matches_gammaln checks the
        # counts against an independent spectrum.
        model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
        spec = gammaln_spectrum.truncation(_evaluated(model, _long_index(model)), model)
        for k1, u1, k2, u2 in picks:
            t1 = max(_threshold(spec, model, k1, u1), sys.float_info.min)
            t2 = max(_threshold(spec, model, k2, u2), sys.float_info.min)
            for lo, hi in ((t1, t2), (t2, t1)):
                assert explicit_count(model, lo, hi) == eigen_count(spec, lo, hi)

    @PROPERTY
    @example(r=0.95, log_alpha=5.0)
    @example(r=1 / math.sqrt(2), log_alpha=5.0)
    @example(r=0.6, log_alpha=4.3)
    @given(r=st.floats(0.05, 0.95), log_alpha=st.floats(0.0, 5.0))
    def test_log_eigenvalues_unimodal(self, r, log_alpha):
        # The windowed count and the default matrix order rely on the
        # computed values rising to a peak at m* (or m* - 1 at a tie) and
        # falling after it.
        model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
        ln = _log_eigenvalues(model, np.arange(_long_index(model) + 1))
        peak = int(np.argmax(ln))
        assert peak - largest_eigenvalue_index(r, model.alpha) in (-1, 0, 1)
        steps = np.diff(ln)
        assert np.all(steps[:peak] >= 0.0) and np.all(steps[peak:] <= 0.0)

    def test_probes_match_full_spectrum_bitwise(self):
        model = CircleSymbolModel(r=0.6, alpha=3e4)
        full = _log_eigenvalues(model, np.arange(_long_index(model) + 1))
        idx = np.array([0, 17, 5000, 16899, full.size - 1])
        assert np.array_equal(_log_eigenvalues(model, idx), full[idx])

    def test_near_unit_radius_bounded_memory(self):
        # m* is about 5e7 here: the spectrum would need ~830 MB, the count
        # evaluates a few indices per threshold.  Oracle: the crossings of t1
        # and t2, bisected on scipy's gammaln; the eigenvalues there are ~1e-5
        # apart (relative), far above the log-gamma differences between the two.
        model = CircleSymbolModel(r=0.999, alpha=1e5)
        t1, t2 = 1e4, 2e5
        tracemalloc.start()
        try:
            got = explicit_count(model, t1, t2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

        r, a = model.r, model.alpha

        def crossing(lo, hi, t):
            return _crossing(lambda m: gammaln_spectrum.log_eigenvalues(r, a, m), lo, hi, t)

        m_star = largest_eigenvalue_index(r, a)
        cut = 2 * m_star   # where lambda is far below t1
        assert gammaln_spectrum.log_eigenvalues(r, a, cut) < math.log(t1)
        want = ((crossing(m_star, cut, t1) - crossing(0, m_star, t1))
                - (crossing(m_star, cut, t2) - crossing(0, m_star, t2)))
        assert abs(got - want) <= 2
        assert got > 5e5

    @pytest.mark.parametrize("alpha", [1e3, 1e5])
    def test_near_unit_radius_down_to_1e_300(self, alpha):
        # Every eigenvalue down to 1e-300 at r = 0.9999: about 1.2e7 and
        # 1.2e8 of them, whose window ends lie up to 8e6 and 6e7 indices
        # from m*.  The crossings of t1 are bisected on 40-digit log-gammas:
        # scipy's gammaln rounds by about 3e-7 at m ~ 5e8, above the 7e-8
        # margin of the upper end at alpha = 1e5, and moves that end by one.
        r, t1 = 0.9999, 1e-300
        model = CircleSymbolModel(r=r, alpha=alpha)
        m_star = largest_eigenvalue_index(r, alpha)

        def crossing(lo, hi):
            return _crossing(lambda m: _mp_log_diagonal(r, alpha, m)
                             + 0.5 * math.log(2.0 * math.pi / alpha), lo, hi, t1)

        want = crossing(m_star, 4 * m_star) - crossing(-1, m_star)
        assert explicit_count(model, t1, model.norm_bound) == want

    def test_bounds_bracket_the_log_ratios(self):
        # The closed-form bound and its reverse, the lower bound, bracket
        # the evaluator's log(lambda_(m*+k) / lambda_m*) on both sides, out
        # to the ends of the 1e-300 window, up to rounding: the bounds' own,
        # up to 5 u |k| on 600 such rows (u = 2^-53), and the evaluator's,
        # up to 1e-13.
        rng = np.random.default_rng(19)
        for r, log_alpha in zip(1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.95), 40),
                                rng.uniform(math.log10(0.5), 7.0, 40)):
            model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
            c = largest_eigenvalue_index(r, model.alpha)
            first, last = toeplitz._window_ends(model, [1e-300 * model.norm_bound])[0]
            ks = [side * k for side, reach in ((1, last - c), (-1, c - first)) if reach > 0
                  for k in np.unique(np.geomspace(1, reach, 25).astype(int))]
            ln = _log_eigenvalues(model, c + np.array(ks)) - _log_eigenvalues(model, [c])[0]
            for k, v in zip(ks, ln):
                k = int(k)
                below = -toeplitz._log_ratio_bound(model, c + k, -k)
                above = toeplitz._log_ratio_bound(model, c, k)
                tol = 1e-12 + 8.0 * 2.0 ** -53 * abs(k)
                assert below - tol <= v <= above + tol

    def test_lower_bound_trails_by_at_most_one_step(self):
        # The basis of the count's margin: on each side the lower bound
        # falls below log(t/lambda_peak) at most one step before the upper
        # bound does (J - j <= 1), or by rounding one step after, so steps
        # J - 3..J + 1 hold the end and one step of margin each way.  Thresholds run from 1e-300 of the
        # peak to the values next to it, on them and within 1e-15, rows up
        # to sigma^2 = 2^50, and the last rows hold exact ties, where
        # (alpha + 1) r^2/(1 - r^2) = M (2^b - 1)^2 is an integer.
        rng = np.random.default_rng(21)
        rows = []
        for r, log2_sigma2 in zip(1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.95), 200),
                                  rng.uniform(0.0, 50.0, 200)):
            alpha = 2.0 ** log2_sigma2 * (1.0 - r * r) ** 2 / (r * r) - 2.0
            if alpha > 0.5:
                rows.append((r, alpha))
        for b, log2_m in zip(rng.integers(1, 11, 40), rng.uniform(0.0, 20.0, 40)):
            rows.append((1.0 - 2.0 ** -int(b),
                         math.floor(2.0 ** log2_m) * (2.0 ** (int(b) + 1) - 1.0) - 1.0))
        sides = 0
        for r, alpha in rows:
            model = CircleSymbolModel(r=r, alpha=alpha)
            m_star = largest_eigenvalue_index(r, alpha)
            near = np.arange(max(m_star - 1, 0), m_star + 2)
            at_near = np.exp(_log_eigenvalues(model, near))
            peak, top = int(near[np.argmax(at_near)]), float(at_near.max())
            nearby = np.exp(_log_eigenvalues(model, np.arange(max(peak - 2, 0), peak + 3)))
            ts = [top * 10.0 ** w for w in rng.uniform(-300.0, 0.0, 4)] + [1e-300 * top]
            ts += [float(v) * (1.0 + e) for v in nearby for e in (0.0, 1e-15, -1e-15)]
            for t in (t for t in ts if t <= top):
                drop = math.log(top) - math.log(t)
                for side, hi in ((1, math.inf), (-1, peak + 1)):
                    def upper(k):
                        return toeplitz._log_ratio_bound(model, peak, side * k)

                    def lower(k):
                        return -toeplitz._log_ratio_bound(model, peak + side * k, -side * k)

                    far = toeplitz._least(lambda k: upper(k) + drop,
                                          toeplitz._first_width(model, drop, side), drop, hi)
                    if far > peak and side < 0:
                        continue   # the window reaches index 0
                    j = far   # the least step where the lower bound falls below
                    while j > 1 and lower(j - 1) < -drop:
                        j -= 1
                    while not lower(j) < -drop:   # rounding can put j past J
                        j += 1
                    assert abs(far - j) <= 1, (r, alpha, t, side)
                    sides += 1
        assert sides > 3000

    def test_a_few_indices_per_threshold(self, monkeypatch):
        # One _log_diagonal call finds the peak and one per threshold takes
        # both of its window ends, up to 10 indices, and the steps come
        # from few evaluations of the closed-form bound, whatever r, alpha
        # and t1 are (at most 51 on 8,000 seeded counts).
        calls = _record_indices(monkeypatch)
        bound, evaluations = toeplitz._log_ratio_bound, []
        monkeypatch.setattr(toeplitz, "_log_ratio_bound",
                            lambda *args: evaluations.append(None) or bound(*args))
        rng = np.random.default_rng(23)
        cases = [(0.9999, 1e3, 1e-300), (0.05, 0.5, 1e-300), (0.5, 1e12, 0.5)] + [
            (1.0 - 10.0 ** u, 10.0 ** v, 10.0 ** w) for u, v, w in
            zip(rng.uniform(-4.0, -0.01, 60), rng.uniform(-0.3, 7.0, 60),
                rng.uniform(-300.0, 0.0, 60))]
        for r, alpha, rel in cases:
            model = CircleSymbolModel(r=r, alpha=alpha)
            t1 = rel * model.norm_bound
            for t2 in (model.norm_bound, math.sqrt(t1 * model.norm_bound)):
                calls.clear()
                evaluations.clear()
                explicit_count(model, t1, t2)
                assert len(calls) <= 3 and all(c.size <= 12 for c in calls)
                assert len(evaluations) <= 80

    def test_a_missed_crossing_is_refused(self, monkeypatch):
        # The evaluation checks what the bound claims: a bound moved up by 1
        # puts both sides' steps past the crossings, and the count is
        # refused rather than taken from the values at hand.
        bound = toeplitz._log_ratio_bound
        monkeypatch.setattr(toeplitz, "_log_ratio_bound", lambda *args: bound(*args) + 1.0)
        model = CircleSymbolModel(r=0.5, alpha=1e4)
        with pytest.raises(DomainError, match="fall through"):
            explicit_count(model, 0.5, model.norm_bound)

    def test_unresolved_neighbours_refused(self):
        # At alpha = 1e12 and r >= 0.999, sigma^2 >= 2.5e17 > 2^50: the
        # bounds round by more than the step between neighbours near the
        # window ends, and a count taken from them could move.
        for r in (0.999, 0.9999):
            model = CircleSymbolModel(r=r, alpha=1e12)
            for t1 in (1e-3, 1e-300):
                with pytest.raises(DomainError, match="resolve"):
                    explicit_count(model, t1, model.norm_bound)

    def test_near_unit_radius_spectrum_refused(self):
        # The only array of the spectrum is the matrix diagonal; its order
        # is refused at the cap, before it is allocated.
        model = CircleSymbolModel(r=0.999, alpha=1e5)
        assert largest_eigenvalue_index(model.r, model.alpha) + 1 > MAX_SPECTRUM_TERMS
        with pytest.raises(DomainError, match="cap"):
            matrix_elements(model)

    @PROPERTY
    @given(r=st.floats(0.05, 0.95), log_alpha=st.floats(0.0, 4.0),
           lo=st.floats(-300.0, 0.0), width=st.floats(0.0, 300.0))
    def test_open_count_matches_gammaln(self, r, log_alpha, lo, width):
        # Every eigenvalue in [t1, t2], t1 down to 1e-300 of the norm bound,
        # against scipy's gammaln; draws with an eigenvalue within 1e-9 of an
        # end are skipped, as the two evaluations differ by about 1e-12 there.
        alpha = 10.0 ** log_alpha
        model = CircleSymbolModel(r=r, alpha=alpha)
        t1 = model.norm_bound * 10.0 ** lo
        t2 = min(t1 * 10.0 ** width, model.norm_bound * (1.0 - 1e-9))
        want, margin = gammaln_spectrum.count(r, alpha, t1, t2)
        assume(margin > 1e-9)
        assert explicit_count(model, t1, t2) == want

    def test_thresholds_at_the_values_next_to_the_peak(self):
        # A threshold on, or within rounding of, a computed value just past
        # the peak, where the closed-form bound that ends the falling bracket
        # is nearly exact: the count matches eigen_count over the same values.
        rng = np.random.default_rng(11)
        for r, log_alpha in zip(rng.uniform(0.05, 0.95, 40), rng.uniform(-1.0, 4.0, 40)):
            model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
            spec = gammaln_spectrum.truncation(_evaluated(model, _long_index(model)), model)
            m_star = largest_eigenvalue_index(model.r, model.alpha)
            for lam in spec.by_index[max(m_star - 2, 0):m_star + 8]:
                for t in (lam, lam * (1.0 + 1e-15), lam * (1.0 - 1e-15)):
                    assert explicit_count(model, t, model.norm_bound) == \
                        eigen_count(spec, t, model.norm_bound)

    def test_index_past_2_53_refused(self):
        # _log_diagonal takes float indices, exact only up to 2^53: at
        # alpha = 1e17 (m* ~ 3.3e16) neighbouring indices round together.
        for alpha in (1e17, 1e20):
            model = CircleSymbolModel(r=0.5, alpha=alpha)
            with pytest.raises(DomainError, match="2\\^53"):
                explicit_count(model, 0.5, 1.7)
            with pytest.raises(DomainError, match="2\\^53"):
                matrix_elements(CircleSymbolModel(r=0.5, alpha=alpha, fourier=(1.0, 0.1)))
        # below 2^53 the window search runs
        assert explicit_count(CircleSymbolModel(r=0.5, alpha=1e12), 0.5, 1.7) > 0

    def test_open_count_reaches_past_the_old_cutoff(self):
        # Every eigenvalue down to 1e-300: 13,632 of them lie past index
        # 48,920, where lambda is already 2e-34.
        model = CircleSymbolModel(r=0.9, alpha=1e4)
        want, margin = gammaln_spectrum.count(0.9, 1e4, 1e-300, 27.7)
        assert margin > 1e-9
        assert explicit_count(model, 1e-300, 27.7) == want == 35420

    def test_open_count_refuses_unbounded_or_subnormal_t1(self):
        model = CircleSymbolModel(r=0.5, alpha=100.0)
        for t1 in (0.0, -1.0, math.nan, math.inf, 1e-320, sys.float_info.min / 2):
            with pytest.raises(DomainError, match="smallest normal"):
                explicit_count(model, t1, 1.0)
        # an empty interval counts nothing
        assert explicit_count(model, sys.float_info.min, 0.0) == 0

    def test_rejects_fourier_symbol_and_negative_cutoff(self):
        with pytest.raises(DomainError):
            explicit_count(CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 0.2)), 0.1, 1.0)
        # a count takes every eigenvalue: there is no truncation index to pass
        with pytest.raises(TypeError, match="cutoff"):
            explicit_count(CircleSymbolModel(r=0.5, alpha=5.0), 0.1, 1.0, cutoff=-1)


def _spectrum_sum(model, phi, last):
    # phi summed over the library's values at every index 0..last.
    with np.errstate(under="ignore"):
        return float(np.sum(phi(_evaluated(model, last))))


def _record_indices(monkeypatch):
    # The list collects the indices m of every evaluation of the explicit
    # spectrum's log-eigenvalues.
    calls = []
    log_diagonal = toeplitz._log_diagonal

    def counted(model, m, log_scale):
        calls.append(np.asarray(m, dtype=float))
        return log_diagonal(model, m, log_scale)

    monkeypatch.setattr(toeplitz, "_log_diagonal", counted)
    return calls


class TestExplicitTrace:
    # Hypothesis favours small floats, so the wide windows (small p, r near
    # 1, large alpha) and the skewed spectra of small alpha are pinned.
    @PROPERTY
    @example(r=0.75, log_alpha=4.0, p=0.05)
    @example(r=0.95, log_alpha=5.0, p=0.05)
    @example(r=0.95, log_alpha=0.0, p=0.05)
    @example(r=0.05, log_alpha=5.0, p=None)
    @given(r=st.floats(0.05, 0.95), log_alpha=st.floats(0.0, 5.0),
           p=st.one_of(st.floats(0.05, 3.0), st.none()))
    def test_matches_full_spectrum_sum(self, r, log_alpha, p):
        # The full sum runs to an index far past the window: 50 widths of
        # lambda^p beyond the peak, plus the geometric tail of ratio r^2.
        # Both sums take the same computed values, so 1e-13 bounds the
        # omitted tails and the summation order; an independent spectrum
        # differs by more at large alpha (see gammaln_spectrum).
        model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
        phi = poly_phi([0.5, 0.2, 1.0]) if p is None else power_phi(p)
        q = phi.p_exponent
        sigma = math.sqrt(model.alpha + 2.0) * r / (1.0 - r * r)
        last = (largest_eigenvalue_index(r, model.alpha)
                + math.ceil(50.0 * sigma / math.sqrt(q) + 400.0 / (q * (1.0 - r * r))))
        want = _spectrum_sum(model, phi, last)
        assert abs(explicit_trace(model, phi) - want) <= 1e-13 * want

    def test_one_log_gamma_call_per_row_under_a_chunk(self, monkeypatch):
        # The pow:1 windows (about 160 to 1.2e3 indices) take one call a
        # row; the pow:0.05 window at alpha = 1e5 (about 1.7e4) takes one
        # call per chunk, each chunk full but the last.
        calls = _record_indices(monkeypatch)
        template = CircleSymbolModel(r=0.5, alpha=1.0)
        rows = convergence_scan(template, [1e2, 1e3, 1e4], phi=power_phi(1.0))
        assert len(calls) == len(rows)
        assert all(c.size < toeplitz._CHUNK for c in calls)
        calls.clear()
        explicit_trace(CircleSymbolModel(r=0.5, alpha=1e5), power_phi(0.05))
        sizes = [c.size for c in calls]
        assert len(sizes) > 1 and len(sizes) == math.ceil(sum(sizes) / toeplitz._CHUNK)
        assert sizes[:-1] == [toeplitz._CHUNK] * (len(sizes) - 1)

    @pytest.mark.parametrize("shift", [-0.5, 0.0, 0.5])
    def test_one_pass_over_a_fixed_window(self, monkeypatch, shift):
        # The window is sized from closed-form bounds alone, before the first
        # evaluation, and then evaluated once: every index once, one
        # interval.  The bounds do not assume that the centre is the peak,
        # so a centre moved half a window off it gives the same sum.
        model = CircleSymbolModel(r=0.6, alpha=3e3)
        phi = power_phi(0.3)
        want = explicit_trace(model, phi)
        m_star = largest_eigenvalue_index(model.r, model.alpha)
        sigma = math.sqrt(model.alpha + 2.0) * model.r / (1.0 - model.r ** 2)
        moved = m_star + int(shift * 8.57 * sigma / math.sqrt(phi.p_exponent))
        monkeypatch.setattr(toeplitz, "largest_eigenvalue_index", lambda r, a: moved)
        bound = toeplitz._log_ratio_bound
        events = _record_indices(monkeypatch)   # the indices of each evaluation
        monkeypatch.setattr(toeplitz, "_log_ratio_bound",
                            lambda *args: events.append(None) or bound(*args))
        got = explicit_trace(model, phi)
        start = next(i for i, e in enumerate(events) if e is not None)
        assert all(e is not None for e in events[start:])
        seen = np.concatenate(events[start:])
        assert np.array_equal(seen, np.arange(seen[0], seen[-1] + 1))
        assert seen[0] <= moved <= seen[-1]
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("r, alpha, p", [
        (0.95, 1.0, 0.05),    # a wide, skewed window of a small power
        (0.05, 1e5, 1.0),     # the window reaches index 0
        (0.99, 50.0, 1.0),    # r near 1: successive ratios near 1 far out
        (0.5, 0.5, 3.0),      # a steep power at small alpha
        (0.3, 2.0, 3.0),
        (0.75, 1e4, 0.05),
        (0.5, 1e5, 2.0)])     # large alpha: the bound is within 1.5x of the tails
    def test_omitted_tails_below_the_tolerance(self, monkeypatch, r, alpha, p):
        # Each omitted tail of sum lambda^p, summed from the same evaluator
        # over indices far past the window, is at most 2^-53 of the peak
        # index's lambda^p, so of the window's sum.
        model = CircleSymbolModel(r=r, alpha=alpha)
        calls = _record_indices(monkeypatch)
        explicit_trace(model, power_phi(p))
        first, last = int(calls[0][0]), int(calls[-1][-1])
        m_star = largest_eigenvalue_index(r, alpha)
        top = p * _log_eigenvalues(model, [m_star])[0]
        far = last
        while p * _log_eigenvalues(model, [far])[0] > top - 200.0:
            far = 2 * far + 16
        ln = p * _log_eigenvalues(model, np.arange(far + 1))
        for tail in (ln[:first], ln[last + 1:]):
            if tail.size:
                assert math.log(np.sum(np.exp(tail - top))) <= math.log(2.0 ** -53)

    def test_window_above_the_cap_is_refused(self, monkeypatch):
        # r = 0.999, alpha = 1e5: the pow:1 window (about 3.1e6 indices)
        # fits under the cap, the pow:0.05 one (about 1.4e7) does not and is
        # refused before any evaluation.
        calls = _record_indices(monkeypatch)
        with pytest.raises(DomainError, match="cap"):
            explicit_trace(CircleSymbolModel(r=0.999, alpha=1e5), power_phi(0.05))
        assert calls == []
        monkeypatch.setattr(toeplitz, "MAX_SPECTRUM_TERMS", 1000)
        with pytest.raises(DomainError, match="cap of 1000"):
            explicit_trace(CircleSymbolModel(r=0.5, alpha=1e4), power_phi(1.0))

    def test_index_past_2_53_refused(self, monkeypatch):
        # Float indices are exact only up to 2^53: a window reaching past it
        # is refused before any evaluation, as is one whose ratio of
        # neighbours next to m* (~8.7e15 here) rounds to 1 at a huge power.
        calls = _record_indices(monkeypatch)
        for r, alpha, p in ((0.5, 1e300, 3.0), (0.995, 1e50, 1.0), (0.5, 1e25, 1e14)):
            with pytest.raises(DomainError, match="2\\^53"):
                explicit_trace(CircleSymbolModel(r=r, alpha=alpha), power_phi(p))
        with pytest.raises(DomainError, match="does not resolve"):
            explicit_trace(CircleSymbolModel(r=0.5, alpha=2.6e16), power_phi(1e300))
        assert calls == []

    def test_window_past_the_float_range_refused(self, monkeypatch):
        # A peak index or a window width that is not finite: m* ~ 3.3e307, or
        # a fall of 36.7/p in log lambda at a tiny (or subnormal) p.
        calls = _record_indices(monkeypatch)
        with pytest.raises(DomainError, match="index 3.33e\\+307, past 2\\^53"):
            explicit_trace(CircleSymbolModel(r=0.5, alpha=1e308), power_phi(1.0))
        with pytest.raises(DomainError, match="peak index is past the float range"):
            explicit_trace(CircleSymbolModel(r=0.9, alpha=1e308), power_phi(1.0))
        for p in (1e-308, 1e-320):
            with pytest.raises(DomainError, match="window width .* past the float range"):
                explicit_trace(CircleSymbolModel(r=0.5, alpha=100.0), power_phi(p))
        assert calls == []

    @pytest.mark.parametrize("r, alpha, p", [(0.1, 1.0, 200.0), (0.1, 1.0, 1000.0),
                                             (0.3, 10.0, 500.0)])
    def test_large_power_at_small_r(self, r, alpha, p):
        # p D(m) lies far below -709 next to m*, so the tail factor d/(1-d)
        # is formed from log d without exponentiating -log d.
        model = CircleSymbolModel(r=r, alpha=alpha)
        phi = power_phi(p)
        want = float(np.sum(phi(np.exp(_log_eigenvalues(model, np.arange(2000))))))
        assert want > 0.0
        assert abs(explicit_trace(model, phi) - want) <= 1e-15 * want

    def test_rejects_what_the_spectrum_rejects(self):
        phi = power_phi(1.0)
        with pytest.raises(DomainError, match="constant symbol"):
            explicit_trace(CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 0.2)), phi)
        with pytest.raises(DomainError, match="alpha > 0"):
            explicit_trace(CircleSymbolModel(r=0.5, alpha=0.0), phi)


class TestMatrixElements:
    def test_dense_matrix_refused_above_cap(self):
        model = CircleSymbolModel(r=0.5, alpha=1e5, fourier=(1.0, 0.3))
        assert largest_eigenvalue_index(model.r, model.alpha) + 1 > MAX_MATRIX_ORDER
        with pytest.raises(DomainError, match="cap"):
            matrix_elements(model)

    def test_default_order_refused_in_bounded_memory(self):
        # The order comes from a few evaluated indices, not from an array of it.
        model = CircleSymbolModel(r=0.5, alpha=1e5, fourier=(1.0, 0.3))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="cap"):
                matrix_elements(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("r, alpha", [
        (0.3, 10.0), (0.3, 100.0), (0.3, 1e3), (0.5, 10.0), (0.5, 100.0), (0.5, 1e3),
        (0.7, 10.0), (0.7, 100.0), (0.7, 1e3),
        # here the threshold lies past about 2 m*, in the geometric tail where
        # the ratio of successive values has dropped to about (1+r^2)/2
        (0.95, 1.0)])
    @pytest.mark.parametrize("fourier", [(1.0, 0.3), (1.0, 0.2 + 0.1j, 0.1)])
    def test_default_order_is_the_row_rule(self, r, alpha, fourier):
        # Bandwidth + the last index past the peak whose diagonal is >= u^2
        # of the peak, from every diagonal value up to well past the cutoff.
        model = CircleSymbolModel(r=r, alpha=alpha, fourier=fourier)
        lam = np.exp(_log_eigenvalues(model, np.arange(_long_index(model) + 1)))
        last = int(np.nonzero(lam >= 2.0 ** -106 * lam.max())[0][-1])
        assert last < lam.size - 1
        assert matrix_elements(model).shape[0] == len(fourier) + last

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("alpha", [10.0, 100.0, 1e3])
    @pytest.mark.parametrize("fourier", [(1.0, 0.3), (1.0, 0.2 + 0.1j, 0.1)])
    def test_default_order_keeps_the_spectrum(self, r, alpha, fourier):
        # Against a longer truncation, 12 (sigma + 50) past the peak: the
        # same head within 1e-14 of the top, and the same power sums.  Both
        # matrices are banded, so scipy's banded solver takes them in O(n)
        # memory.
        model = CircleSymbolModel(r=r, alpha=alpha, fourier=fourier)
        k = len(fourier) - 1
        longer = largest_eigenvalue_index(r, alpha) + math.ceil(
            12.0 * (math.sqrt(alpha + 1.0) * r / (1.0 - r * r) + 50.0))

        def spectrum(mat):
            band = [np.concatenate((np.zeros(k - off), np.diagonal(mat, k - off)))
                    for off in range(k + 1)]
            return scipy.linalg.eigvals_banded(np.array(band))[::-1]

        got = spectrum(matrix_elements(model))
        full = spectrum(matrix_elements(model, cutoff=longer))
        assert got.size < full.size
        assert np.max(np.abs(got - full[:got.size])) <= 1e-14 * full[0]
        for p in (1, 2, 3):
            assert abs(np.sum(got ** p) - np.sum(full ** p)) <= 1e-14 * abs(np.sum(full ** p))

    def test_constant_symbol_is_diagonal(self):
        # alpha <= 0 has no explicit spectrum, but the matrix exists.
        for alpha in (7.0, -0.5, 0.0):
            model = CircleSymbolModel(r=0.5, alpha=alpha)
            mat = matrix_elements(model, cutoff=40)
            off = mat - np.diag(np.diagonal(mat))
            assert np.max(np.abs(off)) == 0.0
            # diagonal m: 2 pi r (1-r^2)^(alpha-1) (alpha+1) delta_m^2 r^(2m)
            r, a = model.r, model.alpha
            for m in (0, 1, 5, 17):
                d2 = math.exp(math.lgamma(m + a + 2) - math.lgamma(m + 1)
                              - math.lgamma(a + 2))
                want = 2 * math.pi * r * (1 - r * r) ** (a - 1) * (a + 1) * d2 * r ** (2 * m)
                assert mat[m, m] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r, alpha", [(0.5, 7.0), (0.3, 100.0), (0.7, 1e3)])
    def test_diagonal_is_explicit_spectrum(self, r, alpha):
        # Both come from one log-gamma expression, so they agree to rounding,
        # in index order.
        model = CircleSymbolModel(r=r, alpha=alpha)
        diag = np.diagonal(matrix_elements(model, cutoff=200))
        want = np.exp(_log_eigenvalues(model, np.arange(201))) * math.sqrt(2 * math.pi * alpha)
        assert np.max(np.abs(diag / want - 1.0)) <= 1e-14

    def test_one_log_gamma_call(self, monkeypatch):
        calls = _record_indices(monkeypatch)
        for fourier in (None, (1.0, 0.2 + 0.1j)):
            calls.clear()
            matrix_elements(CircleSymbolModel(r=0.5, alpha=30.0, fourier=fourier), cutoff=60)
            assert len(calls) == 1 and np.array_equal(calls[0], np.arange(61))

    @pytest.mark.parametrize("r", [0.3, 0.5, 1 / math.sqrt(2)])
    @pytest.mark.parametrize("alpha", [1.0, 10.0, 100.0])
    def test_spectrum_matches_explicit(self, r, alpha):
        model = CircleSymbolModel(r=r, alpha=alpha)
        spec_matrix = hermitian_eigenvalues(matrix_elements(model))
        log_lam = gammaln_spectrum.log_eigenvalues(r, alpha, np.arange(spec_matrix.size))
        spec_explicit = np.sort(np.exp(log_lam))[::-1] * math.sqrt(2 * math.pi * alpha)
        # compare entrywise above the subnormal floor
        mask = spec_explicit > spec_explicit[0] * 1e-200
        a = spec_matrix[mask]
        b = spec_explicit[mask]
        assert np.max(np.abs(a - b) / np.maximum(a, b)) < 1e-9

    def test_perturbation_collapses_to_constant(self):
        # a = 1 + eps cos(2 pi theta): the perturbation is purely
        # off-diagonal, so eigenvalue shifts are O(eps^2) = O(eps).
        alpha, r, cut = 10.0, 0.5, 80
        base = hermitian_eigenvalues(matrix_elements(
            CircleSymbolModel(r=r, alpha=alpha), cutoff=cut))
        for eps in (1e-3, 1e-4):
            pert_model = CircleSymbolModel(r=r, alpha=alpha, fourier=(1.0, eps / 2.0))
            pert = hermitian_eigenvalues(matrix_elements(pert_model, cutoff=cut))
            assert np.max(np.abs(pert - base)) <= eps

    def test_fourier_index_convention_against_quadrature(self):
        # Pins the j-k order of the coefficient lookup: entry (j, j+1) must
        # match the direct integral of e_j conj(e_{j+1}) a over the circle.
        c = 0.3 + 0.2j
        model = CircleSymbolModel(r=0.6, alpha=4.0, fourier=(1.0, c))
        mat = matrix_elements(model, cutoff=12)
        r, a = model.r, model.alpha
        n_grid = 512
        theta = np.arange(n_grid) / n_grid
        a_vals = model.symbol_values(theta)
        for j in (0, 3, 7):
            dj = math.exp(0.5 * (math.lgamma(j + a + 2) - math.lgamma(j + 1)
                                 - math.lgamma(a + 2)))
            dj1 = math.exp(0.5 * (math.lgamma(j + 1 + a + 2) - math.lgamma(j + 2)
                                  - math.lgamma(a + 2)))
            fourier_avg = np.mean(a_vals * np.exp(2j * np.pi * theta))
            want = ((a + 1.0) * (1 - r * r) ** a * (2 * math.pi * r / (1 - r * r))
                    * dj * dj1 * r ** (2 * j + 1) * fourier_avg)
            assert abs(mat[j, j + 1] - want) < 1e-8 * abs(want)

    def test_hermitian_for_fourier_symbol(self):
        model = CircleSymbolModel(r=0.5, alpha=6.0, fourier=(1.0, 0.2 + 0.1j, 0.05))
        mat = matrix_elements(model, cutoff=30)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-14 * np.max(np.abs(mat))

    def test_matrix_truncation_soundness(self):
        model = CircleSymbolModel(r=0.5, alpha=10.0, fourier=(1.0, 0.2))
        lam60 = hermitian_eigenvalues(matrix_elements(model, cutoff=60))
        lam120 = hermitian_eigenvalues(matrix_elements(model, cutoff=120))
        window = lam60 >= lam60[0] * 1e-9
        assert np.max(np.abs(lam60[window] / lam120[: int(window.sum())] - 1.0)) < 1e-10

    def test_graded_spectrum_relative_accuracy(self):
        # The spectrum spans 15 orders of magnitude; a solver that is only
        # accurate relative to the norm loses the small eigenvalues.
        model = CircleSymbolModel(r=0.5, alpha=20.0, fourier=(1.0, 0.3))
        mat = matrix_elements(model, cutoff=50)
        with mpmath.workdps(40):
            ref = mpmath.eighe(mpmath.matrix(mat.tolist()), eigvals_only=True)
            want = np.sort(np.array([float(v) for v in ref]))[::-1]
        assert want[-1] < 1e-14 * want[0]
        got = hermitian_eigenvalues(mat)
        assert np.max(np.abs(got - want) / want) < 1e-9

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0, 10.0])
    @pytest.mark.parametrize("r", [0.3, 0.7])
    def test_constant_diagonal_by_radial_quadrature(self, r, alpha):
        # d_m = (alpha+1) (1-r^2)^alpha (2 pi r/(1-r^2)) r^(2m) / ||z^m||^2,
        # the weighted norm ||z^m||^2 = (alpha+1) 2 int_0^1 rho^(2m+1)
        # (1-rho^2)^alpha drho taken by quadrature, (1-rho)^alpha as weight.
        def norm_sq(m):
            val, _ = integrate.quad(lambda rho: rho ** (2 * m + 1) * (1.0 + rho) ** alpha,
                                    0.0, 1.0, weight="alg", wvar=(0.0, alpha),
                                    epsabs=0.0, epsrel=1e-13)
            return (alpha + 1.0) * 2.0 * val

        if alpha == 0.0:
            assert norm_sq(0) == pytest.approx(1.0, rel=1e-14)
            assert norm_sq(1) == pytest.approx(0.5, rel=1e-14)
        cut = 20
        got = np.diag(matrix_elements(CircleSymbolModel(r=r, alpha=alpha), cutoff=cut))
        for m in range(cut + 1):
            want = ((alpha + 1.0) * (1.0 - r * r) ** alpha * 2.0 * math.pi * r / (1.0 - r * r)
                    * r ** (2 * m) / norm_sq(m))
            assert got[m] == pytest.approx(want, rel=1e-12)

    def test_nonnegative_symbol_gives_nonnegative_spectrum(self):
        # a = 1 + cos(2 pi theta) touches zero; the operator stays positive
        # semidefinite up to solver accuracy.
        model = CircleSymbolModel(r=0.5, alpha=8.0, fourier=(1.0, 0.5))
        lam = hermitian_eigenvalues(matrix_elements(model, cutoff=70))
        assert float(lam.min()) >= -1e-12 * float(lam.max())


class TestHermitianEigenvalues:
    def test_diagonal(self):
        got = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(got, [3.0, 2.0, -1.0], atol=0)

    def test_two_by_two(self):
        got = hermitian_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(got, [3.0, 1.0], atol=1e-14)

    def test_trace_identities_random(self):
        rng = np.random.default_rng(50)
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        a = a + a.conj().T
        lam = hermitian_eigenvalues(a)
        assert np.sum(lam) == pytest.approx(np.trace(a).real, rel=1e-10)
        assert np.sum(lam ** 2) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolation):
            hermitian_eigenvalues(np.array([[1.0, 2.0], [0.5, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        a = np.array([[1.0, bad], [np.conj(bad), 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="NaN or infinite"):
                hermitian_eigenvalues(a)

    def test_large_matrix_known_spectrum(self):
        # U diag(lam) U^H with U unitary (QR of a complex Gaussian) has the
        # spectrum lam by construction.
        rng = np.random.default_rng(53)
        q, _ = np.linalg.qr(rng.normal(size=(150, 150)) + 1j * rng.normal(size=(150, 150)))
        lam = np.sort(rng.uniform(-10.0, 10.0, size=150))[::-1]
        a = (q * lam) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        got = hermitian_eigenvalues(a)
        assert np.max(np.abs(got - lam)) < 1e-11 * np.max(np.abs(lam))


class TestPhase:
    def test_zero_on_diagonal(self):
        p = [0.3 + 0.2j, 0.1]
        assert phase_imag_batch([[p, p, p]])[0] == 0.0

    def test_two_point_disc_value(self):
        got = phase_imag_batch([[[0.3], [0.4]]])[0]
        want = math.log(0.7744 / 0.7644)  # |1-0.12|^2 / ((1-0.09)(1-0.16))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.0130, abs=1e-4)
        assert got > 0

    def test_batch_nonnegative_and_positive_off_diagonal(self):
        rng = np.random.default_rng(51)
        for m in (2, 3, 4, 5):
            re = rng.uniform(-0.6, 0.6, size=(2500, m, 2))
            im = rng.uniform(-0.6, 0.6, size=(2500, m, 2))
            z = re + 1j * im  # |xi| <= sqrt(2*0.72) < 0.9 componentwise box
            scale = np.maximum(np.sqrt(np.sum(np.abs(z) ** 2, axis=2)), 1e-9)
            z *= (0.9 * rng.uniform(0.1, 1.0, size=scale.shape) / np.maximum(scale, 0.9))[..., None]
            vals = phase_imag_batch(z)
            assert float(vals.min()) >= -1e-12
            spread = np.max(np.abs(z - np.roll(z, -1, axis=1)).sum(axis=2), axis=1)
            positive = vals[spread > 1e-3]
            assert np.all(positive > 0)

    def test_matches_scalar_log_sum(self):
        # The cyclic sum written out with cmath, point by point.
        rng = np.random.default_rng(54)
        z = rng.uniform(-0.5, 0.5, size=(300, 4, 2)) + 1j * rng.uniform(-0.5, 0.5, size=(300, 4, 2))
        got = phase_imag_batch(z)
        for row, value in zip(z, got):
            want = 0j
            for j in range(4):
                inner = sum(a * b.conjugate() for a, b in zip(row[j], row[(j + 1) % 4]))
                nsq = sum(abs(a) ** 2 for a in row[j])
                want += cmath.log((1.0 - inner) / (1.0 - nsq))
            want *= 1j
            assert abs(value - want.imag) <= 1e-14 * max(abs(want), 1.0)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            phase_imag_batch([[[0.1]]])
        with pytest.raises(DomainError):
            phase_imag_batch([[0.1, 0.2]])

    def test_rejects_points_outside_ball(self):
        with pytest.raises(DomainError, match="inside the open unit ball"):
            phase_imag_batch([[[0.3], [0.4]], [[1.2], [0.1]]])
        with pytest.raises(DomainError):
            phase_imag_batch([[[0.6, 0.8], [0.1, 0.0]]])


class TestLabelProduct:
    def test_constant_tuple(self):
        assert label_product_batch([[0.37, 0.37, 0.37]])[0] == 1.0

    def test_hand_value(self):
        got = label_product_batch([[0.2, 0.8]])[0]
        assert got == pytest.approx(0.7056 / 0.3456, rel=1e-13)
        assert got > 1

    def test_bulk_sampling_bound(self):
        rng = np.random.default_rng(52)
        for m in (2, 3, 4, 6):
            rows = rng.uniform(1e-3, 1.0 - 1e-3, size=(25000, m))
            vals = label_product_batch(rows)
            assert float(vals.min()) >= 1.0 - 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            label_product_batch([[0.5]])
        with pytest.raises(DomainError):
            label_product_batch([0.5, 0.6])

    def test_rejects_labels_outside_unit_interval(self):
        # [0.5, 1.0] used to give inf, [1.5, -0.2] a value below the bound 1.
        for rows in ([[0.5, 1.0]], [[1.5, -0.2]], [[0.2, 0.3], [0.0, 0.5]], [[0.5, np.nan]]):
            with pytest.raises(DomainError, match="inside \\(0, 1\\)"):
                label_product_batch(rows)


def dense_cyclic_sum(model, m, n_nodes):
    """The trapezoid sum as trace(W^m) of the kernel matrix built entry by entry."""
    r, alpha = model.r, model.alpha
    c = (alpha + 1.0) * 2.0 * math.pi * r / (1.0 - r * r)
    theta = np.arange(n_nodes) / n_nodes
    diff = theta[:, None] - theta[None, :]
    base = 1.0 - r * r * np.exp(2j * np.pi * diff)
    log_edge = alpha * (math.log(1.0 - r * r) - np.log(base)) - 2.0 * np.log(base)
    with np.errstate(under="ignore"):
        edge = np.exp(log_edge)
    weighted = (model.symbol_values(theta)[:, None] * edge) * (c / n_nodes)
    prod = weighted
    for _ in range(m - 1):
        prod = prod @ weighted
    return float(np.trace(prod).real)


def _record_node_counts(monkeypatch):
    # The list collects the node count of every walk of the composition trace.
    calls = []
    cyclic_trace = toeplitz._cyclic_trace

    def counted(model, m, n_nodes):
        calls.append(n_nodes)
        return cyclic_trace(model, m, n_nodes)

    monkeypatch.setattr(toeplitz, "_cyclic_trace", counted)
    return calls


def _composition_grid(count=400, seed=20):
    # (model, m) over r in [0.05, 0.97], alpha log-uniform in [1e-2, 3e4],
    # bandwidth K in 0..3 and m in 2..7; a Fourier symbol has a0 = 1 and
    # sum |a_k| <= 0.5 over k >= 1, so it is positive.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = rng.uniform(0.05, 0.97)
        alpha = 10.0 ** rng.uniform(-2.0, math.log10(3e4))
        band = int(rng.integers(0, 4))
        m = int(rng.integers(2, 8))
        fourier = None
        if band:
            coeffs = rng.normal(size=band) + 1j * rng.normal(size=band)
            coeffs *= rng.uniform(0.05, 0.5) / np.sum(np.abs(coeffs))
            fourier = (1.0,) + tuple(coeffs)
        yield CircleSymbolModel(r=r, alpha=alpha, fourier=fourier), m


class TestCompositionTrace:
    def test_matches_eigenvalue_sum_m2(self):
        model = CircleSymbolModel(r=0.5, alpha=20.0)
        got = composition_trace_quadrature(model, 2)
        lam = np.exp(gammaln_spectrum.log_spectrum(0.5, 20.0)) * math.sqrt(2 * math.pi * 20.0)
        assert got == pytest.approx(float(np.sum(lam ** 2)), rel=1e-8)

    def test_matches_eigenvalue_sum_m3(self):
        model = CircleSymbolModel(r=0.4, alpha=15.0)
        got = composition_trace_quadrature(model, 3)
        lam = np.exp(gammaln_spectrum.log_spectrum(0.4, 15.0)) * math.sqrt(2 * math.pi * 15.0)
        assert got == pytest.approx(float(np.sum(lam ** 3)), rel=1e-7)

    def test_fourier_symbol_matches_matrix_moments(self):
        # Independent routes to Tr(T^m) for a banded symbol: the quadrature
        # of the cyclic integrand vs moments of the basis-integral matrix.
        model = CircleSymbolModel(r=0.5, alpha=12.0, fourier=(1.0, 0.3, 0.1j))
        lam = hermitian_eigenvalues(matrix_elements(model, cutoff=90))
        for m in (2, 3, 4, 5):
            quad = composition_trace_quadrature(model, m)
            assert quad == pytest.approx(float(np.sum(lam ** m)), rel=1e-9)

    @pytest.mark.parametrize("fourier", [None, (1.0, 0.3, 0.1j)])
    @pytest.mark.parametrize("r, alpha", [(0.3, 5.0), (0.5, 50.0), (0.7, 200.0)])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_circulant_kernel_matches_dense_kernel(self, fourier, r, alpha, m, monkeypatch):
        # The kernel evaluated entry by entry on theta_j - theta_k, at the
        # one node count the public result walks.
        model = CircleSymbolModel(r=r, alpha=alpha, fourier=fourier)
        walked = _record_node_counts(monkeypatch)
        quad = composition_trace_quadrature(model, m)
        (n_nodes,) = walked
        want = dense_cyclic_sum(model, m, n_nodes)
        assert abs(quad - want) <= 1e-14 * abs(want)

    def test_one_node_count_matches_four_times_as_many(self, monkeypatch):
        # The node count from the p = 1 window leaves nothing to gain: on a
        # seeded grid the value at 4n differs only by rounding, against
        # 2^-53 for the omitted tails.  The kernel's phase
        # alpha arg(1 - r^2 e^(2 pi i theta)) magnifies the rounding of arg
        # by alpha, m times over, so the gap is about m alpha u, u = 2^-53:
        # the measured worst is 3 m (alpha + 2) u (1.4e-11 at alpha = 2.3e4,
        # m = 5, where an extended-precision column leaves 4e-15).
        cyclic_trace = toeplitz._cyclic_trace
        walked = _record_node_counts(monkeypatch)
        worst = 0.0
        for model, m in _composition_grid():
            walked.clear()
            got = composition_trace_quadrature(model, m)
            (n_nodes,) = walked
            assert n_nodes > m * model.bandwidth
            want = cyclic_trace(model, m, 4 * n_nodes)
            rel = abs(got - want) / abs(want) / (m * (model.alpha + 2.0) * 2.0 ** -53)
            worst = max(worst, rel)
        assert worst <= 8.0

    @pytest.mark.parametrize("fourier", [None, (1.0, 0.3, 0.1j)])
    def test_narrow_windows_take_fewer_than_64_nodes(self, fourier, monkeypatch):
        # r = 0.01, alpha = 1e-3: a window of 14 indices, so 16 nodes for
        # the constant symbol and 32 or 64 with the band's 2mK added.
        model = CircleSymbolModel(r=0.01, alpha=1e-3, fourier=fourier)
        cyclic_trace = toeplitz._cyclic_trace
        walked = _record_node_counts(monkeypatch)
        for m in (2, 3, 7):
            walked.clear()
            got = composition_trace_quadrature(model, m)
            (n_nodes,) = walked
            assert n_nodes == 1 << (13 + 2 * m * model.bandwidth).bit_length() <= 64
            want = cyclic_trace(model, m, 1024)
            assert abs(got - want) <= 1e-15 * abs(want), (m, n_nodes)

    def test_cyclic_shift_invariance(self):
        # The two-variable tensor sum is invariant under rotating the
        # integration variables; summing in the transposed order must give
        # the same value.
        r, alpha, n_nodes = 0.5, 20.0, 64
        theta = np.arange(n_nodes) / n_nodes
        diff = theta[:, None] - theta[None, :]
        base = 1.0 - r * r * np.exp(2j * np.pi * diff)
        edge = np.exp(alpha * (math.log(1 - r * r) - np.log(base)) - 2.0 * np.log(base))
        f = (edge * edge.T).real
        s1 = float(np.sum(f))
        s2 = float(np.sum(f.T))
        assert abs(s1 - s2) <= 1e-12 * abs(s1)

    def test_rejects_invalid_length_and_weight(self):
        model = CircleSymbolModel(r=0.5, alpha=20.0)
        for m in (0, 1, 2.5):
            with pytest.raises(DomainError, match="integer >= 2"):
                composition_trace_quadrature(model, m)
        for alpha in (0.0, -0.5):
            with pytest.raises(DomainError, match="alpha > 0"):
                composition_trace_quadrature(CircleSymbolModel(r=0.5, alpha=alpha), 2)

    def test_peak_past_2_53_is_refused_before_any_evaluation(self):
        with pytest.raises(DomainError, match="past 2\\^53"):
            composition_trace_quadrature(CircleSymbolModel(r=0.5, alpha=1e308), 2)

    def test_node_cap_is_a_domain_error_before_the_walks(self, monkeypatch):
        # r = 1/2, alpha = 1e4 takes 2048 nodes: 2048 walk entries at m = 2
        # pass a cap of 2048, and a cap of 2047 refuses them before any walk.
        model = CircleSymbolModel(r=0.5, alpha=1e4)
        monkeypatch.setattr(toeplitz, "MAX_SPECTRUM_TERMS", 2048)
        walked = _record_node_counts(monkeypatch)
        composition_trace_quadrature(model, 2)
        assert walked == [2048]
        monkeypatch.setattr(toeplitz, "MAX_SPECTRUM_TERMS", 2047)
        walked.clear()
        with pytest.raises(DomainError,
                           match=r"2048 nodes/axis, 2048 walk entries, above the cap of 2047"):
            composition_trace_quadrature(model, 2)
        assert walked == []

    def test_node_cap_counts_only_the_offsets_that_can_close(self, monkeypatch):
        # K = 2, m = 3 at 2048 nodes walks the 2 floor(m/2) K + 1 = 5 offsets
        # that can return to 0, 10,240 entries, not the 2mK + 1 = 13 of the
        # whole band: a cap of 10,240 passes them and 10,239 refuses them.
        model = CircleSymbolModel(r=0.5, alpha=1e4, fourier=(1.0, 0.3, 0.1j))
        monkeypatch.setattr(toeplitz, "MAX_SPECTRUM_TERMS", 10240)
        walked = _record_node_counts(monkeypatch)
        composition_trace_quadrature(model, 3)
        assert walked == [2048]
        monkeypatch.setattr(toeplitz, "MAX_SPECTRUM_TERMS", 10239)
        walked.clear()
        with pytest.raises(DomainError,
                           match=r"2048 nodes/axis, 10240 walk entries, above the cap of 10239"):
            composition_trace_quadrature(model, 3)
        assert walked == []

    def test_overflow_is_a_domain_error(self):
        for alpha, m in ((1e3, 200), (1e5, 10 ** 4)):
            with pytest.raises(DomainError, match="float range"):
                composition_trace_quadrature(CircleSymbolModel(r=0.5, alpha=alpha), m)

    def test_in_range_trace_past_the_prefactors_range(self):
        # At r = 1/2, alpha = 1e3 the factor c = (alpha+1) 2 pi r/(1-r^2) is
        # about 4.2e3, so c^m overflows from m = 85 while the trace, about
        # 141^m, stays in range up to m = 143.
        model = CircleSymbolModel(r=0.5, alpha=1e3)
        for m in (100, 143):
            want = (2.0 * math.pi * 1e3) ** (m / 2) * explicit_trace(model, power_phi(m))
            got = composition_trace_quadrature(model, m)
            assert abs(got - want) <= 1e-11 * want, m

    def test_out_of_range_length_refused_before_the_walks(self, monkeypatch):
        # (a0 d_peak)^m overflows, or a0 sum(d) (sup a d_peak)^(m-1)
        # underflows: refused without a single walk, whatever m.
        def no_walks(*args):
            raise AssertionError("the walks ran")

        monkeypatch.setattr(toeplitz, "_cyclic_trace", no_walks)
        small = CircleSymbolModel(r=0.01, alpha=1.0)
        for model, m, what in ((small, 10 ** 5, "below"), (small, 10 ** 9, "below"),
                               (CircleSymbolModel(r=0.5, alpha=1e3), 200, "exceeds"),
                               (CircleSymbolModel(r=0.5, alpha=1e5), 10 ** 9, "exceeds"),
                               (CircleSymbolModel(r=0.5, alpha=50.0, fourier=(1.0, 0.3)),
                                10 ** 6, "exceeds")):
            with pytest.raises(DomainError, match=f"{what} the float range"):
                composition_trace_quadrature(model, m)

    @pytest.mark.parametrize("r", [0.5, 1.0 / math.sqrt(2.0)])
    @pytest.mark.parametrize("alpha", [1e3, 1e4, 1e5])
    def test_large_alpha_matches_gammaln_sum(self, r, alpha):
        # Unnormalized eigenvalues d_k = 2 pi (1-r^2)^(alpha-1) Gamma(alpha+k+2)
        # / (Gamma(alpha+1) k!) r^(2k+1) from scipy, summed far past the peak
        # (ratio below 2/3 there); the log-gammas of this reference cancel
        # from about 1e6 at alpha = 1e5, hence 1e-8.
        k = np.arange(3 * largest_eigenvalue_index(r, alpha) + 2000)
        log_d = (gammaln_spectrum.log_eigenvalues(r, alpha, k)
                 + 0.5 * math.log(2.0 * math.pi * alpha))
        for m in range(2, 7):
            want = float(np.sum(np.exp(m * log_d)))
            got = composition_trace_quadrature(CircleSymbolModel(r=r, alpha=alpha), m)
            assert abs(got - want) <= 1e-8 * want, (m, got, want)
