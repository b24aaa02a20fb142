import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import gammaln

from szegolab import (
    CircleSymbolModel,
    composition_trace_quadrature,
    default_cutoff,
    eigen_count,
    explicit_count,
    explicit_eigenvalues,
    hermitian_eigenvalues,
    largest_eigenvalue_index,
    log_gamma,
    matrix_elements,
)
from szegolab import toeplitz
from szegolab.specfun import normalizing_constant
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

    def test_symbol_values_real_series(self):
        m = CircleSymbolModel(r=0.5, alpha=5.0, fourier=(2.0, 0.3 + 0.1j))
        theta = np.linspace(0.0, 1.0, 7, endpoint=False)
        direct = 2.0 + 2.0 * (0.3 * np.cos(2 * np.pi * theta)
                              - 0.1 * np.sin(2 * np.pi * theta))
        assert np.allclose(m.symbol_values(theta), direct, atol=1e-14)


class TestExplicitEigenvalues:
    def test_quotient_identity(self):
        model = CircleSymbolModel(r=0.4, alpha=37.0)
        spec = explicit_eigenvalues(model, cutoff=300)
        lam = spec.by_index
        m = np.arange(1, 301, dtype=float)
        ratios = lam[1:] / lam[:-1]
        want = (model.alpha + 1.0) * model.r ** 2 / m + model.r ** 2
        mask = lam[1:] > lam.max() * 1e-250
        assert np.max(np.abs(ratios[mask] / want[mask] - 1.0)) < 1e-10

    def test_argmax_is_peak_index(self):
        for r, alpha in ((0.5, 100.0), (0.3, 250.0), (1 / math.sqrt(2), 64.0)):
            model = CircleSymbolModel(r=r, alpha=alpha)
            spec = explicit_eigenvalues(model)
            assert spec.argmax_index() == largest_eigenvalue_index(r, alpha)

    def test_peak_index_float_guard(self):
        # (alpha + 1) r^2/(1 - r^2) is an exact integer for r = 1/sqrt(2);
        # float rounding of r^2 must not push the floor down by one.
        assert largest_eigenvalue_index(1 / math.sqrt(2), 1e5) == 100001

    def test_positive_and_normalized(self):
        spec = explicit_eigenvalues(CircleSymbolModel(r=0.5, alpha=50.0))
        assert np.all(spec.eigenvalues >= 0)
        assert spec.normalized

    def test_tail_estimate_dominates_remainder(self):
        model = CircleSymbolModel(r=0.5, alpha=50.0)
        short = explicit_eigenvalues(model, cutoff=200)
        longer = explicit_eigenvalues(model, cutoff=800)
        omitted = float(np.sum(longer.by_index[201:]))
        assert short.tail_estimate >= omitted

    def test_requires_constant_symbol_and_positive_alpha(self):
        with pytest.raises(DomainError):
            explicit_eigenvalues(CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 0.2)))
        with pytest.raises(DomainError):
            explicit_eigenvalues(CircleSymbolModel(r=0.5, alpha=-0.5))

    def test_truncation_soundness(self):
        # Doubling the cutoff must not move any reported eigenvalue in the
        # window [1e-9 lambda_max, lambda_max].
        model = CircleSymbolModel(r=0.5, alpha=200.0)
        base = explicit_eigenvalues(model)
        double = explicit_eigenvalues(model, cutoff=2 * base.cutoff_index)
        lam_base = np.sort(base.eigenvalues)[::-1]
        lam_double = np.sort(double.eigenvalues)[::-1]
        window = lam_base >= lam_base[0] * 1e-9
        top_base = lam_base[window]
        top_double = lam_double[: top_base.size]
        assert np.max(np.abs(top_base / top_double - 1.0)) < 1e-10

    def test_high_precision_frozen_values(self):
        # 50-digit reference values for alpha=100, r=1/2 (peak and deep
        # tail), frozen from an exact-arithmetic evaluation with mpmath.
        spec = explicit_eigenvalues(CircleSymbolModel(r=0.5, alpha=100.0))
        assert spec.by_index[33] == pytest.approx(1.786285122586122712, rel=1e-12)
        assert spec.by_index[150] == pytest.approx(4.003956646150914453e-30, rel=1e-11)

    def test_finite_alpha_norm_overshoot_envelope(self):
        # The peak eigenvalue approaches sup a/(1-r^2)^2 like
        # sqrt((alpha+1)/alpha), slightly from above at finite alpha; the
        # bare bound itself is only asymptotic.
        for r in (0.3, 0.5, 1 / math.sqrt(2)):
            for alpha in (1.0, 10.0, 100.0):
                model = CircleSymbolModel(r=r, alpha=alpha)
                lam_max = explicit_eigenvalues(model).eigenvalues.max()
                envelope = model.norm_bound * math.sqrt((alpha + 1.0) / alpha)
                assert lam_max <= envelope * (1.0 + 1e-9)


def _full_array_cutoff(model):
    # The cutoff rule as it was first written: every log-eigenvalue over
    # [0, cut] at each growth step.
    r, a = model.r, model.alpha
    cut = largest_eigenvalue_index(r, a) + math.ceil(
        12.0 * (math.sqrt(a + 1.0) * r / (1.0 - r * r) + 50.0))
    while True:
        ln = _log_eigenvalues(model, np.arange(cut + 1))
        if ln[-1] < ln.max() + math.log(1e-14):
            return cut
        cut = int(cut * 1.25) + 8


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
    @example(r=0.95, log_alpha=5.0, cut_scale=None,
             picks=[(0, 0.0, 1, 0.0), (2, 0.5, 0, 0.0), (3, 0.4, 4, 0.3)])
    @example(r=1 / math.sqrt(2), log_alpha=5.0, cut_scale=None,
             picks=[(0, 0.0, 0, 0.0), (4, 0.01, 2, 0.9), (2, 0.2, 3, 0.2)])
    @example(r=0.5, log_alpha=5.0, cut_scale=0.3,
             picks=[(4, 0.2, 1, 0.0), (2, 0.1, 2, 0.3)])
    @example(r=0.05, log_alpha=0.0, cut_scale=0.0, picks=[(4, 1.0, 1, 0.0)])
    @given(r=st.floats(0.05, 0.95), log_alpha=st.floats(0.0, 5.0),
           cut_scale=st.one_of(st.none(), st.floats(0.0, 2.0)),
           picks=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0),
                                    st.integers(0, 4), st.floats(0.0, 1.0)),
                          min_size=1, max_size=8))
    def test_matches_full_spectrum_count(self, r, log_alpha, cut_scale, picks):
        model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
        cutoff = None if cut_scale is None else int(cut_scale * default_cutoff(model))
        spec = explicit_eigenvalues(model, cutoff=cutoff)
        for k1, u1, k2, u2 in picks:
            t1 = _threshold(spec, model, k1, u1)
            t2 = _threshold(spec, model, k2, u2)
            for lo, hi in ((t1, t2), (t2, t1)):
                assert explicit_count(model, lo, hi, cutoff=cutoff) == \
                    eigen_count(spec, lo, hi)

    @PROPERTY
    @example(r=0.95, log_alpha=5.0)
    @example(r=1 / math.sqrt(2), log_alpha=5.0)
    @example(r=0.6, log_alpha=4.3)
    @given(r=st.floats(0.05, 0.95), log_alpha=st.floats(0.0, 5.0))
    def test_log_eigenvalues_unimodal(self, r, log_alpha):
        # The windowed count and the cutoff rule rely on the computed values
        # rising to a peak at m* (or m* - 1 at a tie) and falling after it.
        model = CircleSymbolModel(r=r, alpha=10.0 ** log_alpha)
        ln = _log_eigenvalues(model, np.arange(default_cutoff(model) + 1))
        peak = int(np.argmax(ln))
        assert peak - largest_eigenvalue_index(r, model.alpha) in (-1, 0, 1)
        steps = np.diff(ln)
        assert np.all(steps[:peak] >= 0.0) and np.all(steps[peak:] <= 0.0)

    def test_cutoff_matches_full_array_rule(self):
        for r in (*np.linspace(0.05, 0.95, 10), 1 / math.sqrt(2)):
            for alpha in np.logspace(0.0, 5.0, 11):
                model = CircleSymbolModel(r=float(r), alpha=float(alpha))
                assert default_cutoff(model) == _full_array_cutoff(model)

    def test_probes_match_full_spectrum_bitwise(self):
        model = CircleSymbolModel(r=0.6, alpha=3e4)
        full = _log_eigenvalues(model, np.arange(default_cutoff(model) + 1))
        idx = np.array([0, 17, 5000, 16899, full.size - 1])
        assert np.array_equal(_log_eigenvalues(model, idx), full[idx])

    def test_near_unit_radius_bounded_memory(self):
        # m* is about 5e7 here: the spectrum would need ~830 MB, the count
        # probes a few hundred indices.  Oracle: the crossings of t1 and t2,
        # bisected on scipy's gammaln; the eigenvalues there are ~1e-5 apart
        # (relative), far above the log-gamma differences between the two.
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

        def log_lam(m):
            return (0.5 * math.log(2 * math.pi / a) + (a - 1) * math.log(1 - r * r)
                    + gammaln(a + m + 2) - gammaln(a + 1) - gammaln(m + 1)
                    + (2 * m + 1) * math.log(r))

        def crossing(lo, hi, t):
            # first index in (lo, hi] where log_lam >= log t switches state
            above_lo = log_lam(lo) >= math.log(t)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if (log_lam(mid) >= math.log(t)) == above_lo:
                    lo = mid
                else:
                    hi = mid
            return hi

        m_star = largest_eigenvalue_index(r, a)
        cut = default_cutoff(model)
        want = ((crossing(m_star, cut, t1) - crossing(0, m_star, t1))
                - (crossing(m_star, cut, t2) - crossing(0, m_star, t2)))
        assert abs(got - want) <= 2
        assert got > 5e5

    def test_near_unit_radius_spectrum_refused(self):
        model = CircleSymbolModel(r=0.999, alpha=1e5)
        assert default_cutoff(model) + 1 > MAX_SPECTRUM_TERMS
        with pytest.raises(DomainError, match="cap"):
            explicit_eigenvalues(model)

    def test_rejects_fourier_symbol_and_negative_cutoff(self):
        with pytest.raises(DomainError):
            explicit_count(CircleSymbolModel(r=0.5, alpha=5.0, fourier=(1.0, 0.2)), 0.1, 1.0)
        with pytest.raises(DomainError):
            explicit_count(CircleSymbolModel(r=0.5, alpha=5.0), 0.1, 1.0, cutoff=-1)


class TestMatrixElements:
    def test_dense_matrix_refused_above_cap(self):
        model = CircleSymbolModel(r=0.5, alpha=1e5, fourier=(1.0, 0.3))
        assert default_cutoff(model) + 1 > MAX_MATRIX_ORDER
        with pytest.raises(DomainError, match="cap"):
            matrix_elements(model)

    def test_default_order_refused_in_bounded_memory(self):
        # The order comes from a few hundred probes, not from an array of it.
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
        # here the threshold lies past default_cutoff, so the bracket grows
        (0.95, 1.0)])
    @pytest.mark.parametrize("fourier", [(1.0, 0.3), (1.0, 0.2 + 0.1j, 0.1)])
    def test_default_order_is_the_row_rule(self, r, alpha, fourier):
        # Bandwidth + the last index past the peak whose diagonal is >= u^2
        # of the peak, from every diagonal value up to well past the cutoff.
        model = CircleSymbolModel(r=r, alpha=alpha, fourier=fourier)
        lam = np.exp(_log_eigenvalues(model, np.arange(4 * default_cutoff(model))))
        last = int(np.nonzero(lam >= 2.0 ** -106 * lam.max())[0][-1])
        assert last < lam.size - 1
        assert matrix_elements(model).shape[0] == len(fourier) + last

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("alpha", [10.0, 100.0, 1e3])
    @pytest.mark.parametrize("fourier", [(1.0, 0.3), (1.0, 0.2 + 0.1j, 0.1)])
    def test_default_order_keeps_the_spectrum(self, r, alpha, fourier):
        # Against the longer default_cutoff truncation: the same head within
        # 1e-14 of the top, and the same power sums.  Both matrices are
        # banded, so scipy's banded solver takes them in O(n) memory.
        model = CircleSymbolModel(r=r, alpha=alpha, fourier=fourier)
        k = len(fourier) - 1

        def spectrum(mat):
            band = [np.concatenate((np.zeros(k - off), np.diagonal(mat, k - off)))
                    for off in range(k + 1)]
            return scipy.linalg.eigvals_banded(np.array(band))[::-1]

        got = spectrum(matrix_elements(model))
        full = spectrum(matrix_elements(model, cutoff=default_cutoff(model)))
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
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(toeplitz, "log_gamma", counted)
        for fourier in (None, (1.0, 0.2 + 0.1j)):
            calls.clear()
            matrix_elements(CircleSymbolModel(r=0.5, alpha=30.0, fourier=fourier), cutoff=60)
            assert calls == [2 * 61 + 1]

    @pytest.mark.parametrize("r", [0.3, 0.5, 1 / math.sqrt(2)])
    @pytest.mark.parametrize("alpha", [1.0, 10.0, 100.0])
    def test_spectrum_matches_explicit(self, r, alpha):
        model = CircleSymbolModel(r=r, alpha=alpha)
        cut = default_cutoff(model)
        mat = matrix_elements(model, cutoff=cut)
        spec_matrix = hermitian_eigenvalues(mat)
        spec_explicit = np.sort(explicit_eigenvalues(model, cutoff=cut).eigenvalues)[::-1] \
            * math.sqrt(2 * math.pi * alpha)
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


class TestCompositionTrace:
    def test_matches_eigenvalue_sum_m2(self):
        model = CircleSymbolModel(r=0.5, alpha=20.0)
        got = composition_trace_quadrature(model, 2)
        lam = explicit_eigenvalues(model).eigenvalues * math.sqrt(2 * math.pi * 20.0)
        assert got == pytest.approx(float(np.sum(lam ** 2)), rel=1e-8)

    def test_matches_eigenvalue_sum_m3(self):
        model = CircleSymbolModel(r=0.4, alpha=15.0)
        got = composition_trace_quadrature(model, 3)
        lam = explicit_eigenvalues(model).eigenvalues * math.sqrt(2 * math.pi * 15.0)
        assert got == pytest.approx(float(np.sum(lam ** 3)), rel=1e-7)

    def test_fourier_symbol_matches_matrix_moments(self):
        # Independent routes to Tr(T^m) for a banded symbol: the quadrature
        # of the cyclic integrand vs moments of the basis-integral matrix.
        model = CircleSymbolModel(r=0.5, alpha=12.0, fourier=(1.0, 0.3, 0.1j))
        lam = hermitian_eigenvalues(matrix_elements(model, cutoff=90))
        for m in (2, 3):
            quad = composition_trace_quadrature(model, m)
            assert quad == pytest.approx(float(np.sum(lam ** m)), rel=1e-9)

    @pytest.mark.parametrize("fourier", [None, (1.0, 0.3, 0.1j)])
    @pytest.mark.parametrize("r, alpha", [(0.3, 5.0), (0.5, 50.0), (0.7, 200.0)])
    @pytest.mark.parametrize("m", [2, 3])
    def test_circulant_kernel_matches_dense_kernel(self, fourier, r, alpha, m):
        # The kernel evaluated entry by entry on theta_j - theta_k, the
        # public result's doubling included, at every node count it visits.
        model = CircleSymbolModel(r=r, alpha=alpha, fourier=fourier)

        def dense_sum(n_nodes):
            theta = np.arange(n_nodes) / n_nodes
            diff = theta[:, None] - theta[None, :]
            base = 1.0 - r * r * np.exp(2j * np.pi * diff)
            log_edge = alpha * (math.log(1.0 - r * r) - np.log(base)) - 2.0 * np.log(base)
            with np.errstate(under="ignore"):
                edge = np.exp(log_edge)
            weighted = (model.symbol_values(theta)[:, None] * edge) / n_nodes
            prod = weighted
            for _ in range(m - 1):
                prod = prod @ weighted
            return float(np.trace(prod).real)

        pref = (normalizing_constant(1, alpha) * 2.0 * math.pi * r / (1.0 - r * r)) ** m
        prev, n_nodes = None, 64
        while True:
            want = dense_sum(n_nodes)
            got = toeplitz._cyclic_trace(model, m, n_nodes)
            assert abs(got - want) <= 1e-14 * abs(want)
            if prev is not None and abs(pref * want - prev) <= 1e-7 * abs(pref * want):
                break
            prev, n_nodes = pref * want, 2 * n_nodes
            assert n_nodes <= 1024
        quad = composition_trace_quadrature(model, m)
        assert abs(quad - pref * want) <= 1e-14 * abs(pref * want)

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

    def test_rejects_unsupported_parameters(self):
        model = CircleSymbolModel(r=0.5, alpha=20.0)
        with pytest.raises(DomainError):
            composition_trace_quadrature(model, 4)
        with pytest.raises(DomainError):
            composition_trace_quadrature(CircleSymbolModel(r=0.5, alpha=500.0), 2)
