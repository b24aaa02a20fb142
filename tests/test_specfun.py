import math

import numpy as np
import pytest

from szegolab import WeightedModel, beta_fn, binomial, log_gamma, normalizing_constant
from szegolab.errors import DomainError

EPS = np.finfo(float).eps


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_accuracy_against_libm(self):
        # math.lgamma is the independent reference; mixed tolerance because
        # ln Gamma vanishes at 1 and 2.
        grid = np.concatenate([
            np.logspace(-3, 7, 4001),
            np.linspace(0.0011, 4.0, 1217),
        ])
        ref = np.array([math.lgamma(x) for x in grid])
        mine = log_gamma(grid)
        err = np.abs(mine - ref) / np.maximum(np.abs(ref), 1.0)
        assert float(err.max()) < 1e-13

    def test_accuracy_against_mpmath_frozen(self):
        # 50-digit reference values computed once with mpmath.loggamma.
        frozen = {
            0.001: 6.907178885383853682512,
            0.4375: 0.705476145985445273593,
            1.5: -0.1207822376352452223455,
            23.75: 50.81874093156325526103,
            3.1e6: 43235422.72079388682337,
        }
        for x, want in frozen.items():
            assert log_gamma(x) == pytest.approx(want, rel=5e-14)

    def test_recurrence(self):
        # lgamma(x+1) - lgamma(x) = ln x.  The subtraction of two rounded
        # doubles cannot beat a few ulps of the larger value, so the fixed
        # 1e-12 budget carries an eps-scaled allowance at large x.
        xs = np.logspace(math.log10(0.1), 6.0, 400)
        lhs = log_gamma(xs + 1.0) - log_gamma(xs) - np.log(xs)
        tol = 1e-12 + 4.0 * EPS * np.abs(log_gamma(xs + 1.0))
        assert np.all(np.abs(lhs) < tol)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                log_gamma(bad)

    def test_array_and_scalar_forms(self):
        vals = log_gamma(np.array([2.0, 3.0, 4.0]))
        assert vals.shape == (3,)
        assert isinstance(log_gamma(3.0), float)


class TestBeta:
    def test_known_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_large_argument_asymptote(self):
        # sqrt(2 pi) x^(x-1/2) y^(y-1/2) / (x+y)^(x+y-1/2) approximates
        # B(x, y) for large x, y; at (101, 101/3) they agree within 1%.
        x, y = 101.0, 101.0 / 3.0
        log_asym = (0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(x)
                    + (y - 0.5) * math.log(y) - (x + y - 0.5) * math.log(x + y))
        exact = beta_fn(x, y)
        assert abs(math.exp(log_asym) / exact - 1.0) < 0.01

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = rng.uniform(0.01, 50.0, size=2)
            assert beta_fn(x, y) == beta_fn(y, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -2.0)


class TestBinomial:
    def test_exact_small(self):
        for m in range(0, 63):
            for k in (0, 1, m // 2, m):
                assert binomial(m, k) == math.comb(m, k)

    def test_large_matches_loggamma_path(self):
        for m, k in [(70, 31), (100, 50), (200, 13)]:
            got = binomial(m, k)
            assert type(got) is int
            assert got == math.comb(m, k)

    def test_out_of_range(self):
        assert binomial(5, 9) == 0
        with pytest.raises(DomainError):
            binomial(-1, 0)


class TestNormalizingConstant:
    def test_known_values(self):
        assert normalizing_constant(1, 2.0) == pytest.approx(3.0, rel=1e-13)
        assert normalizing_constant(2, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_stirling_ratio(self):
        c = normalizing_constant(1, 1000.0)
        assert abs(c * 1.0 / 1000.0 - 1.0) < 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            normalizing_constant(1, -1.0)
        with pytest.raises(DomainError):
            normalizing_constant(0, 1.0)


class TestWeightedModel:
    def test_constant_formula(self):
        for n in (1, 2, 3):
            for alpha in (-0.5, 0.0, 1.5, 30.0):
                model = WeightedModel(n=n, alpha=alpha)
                direct = math.exp(math.lgamma(alpha + 1 + n) - math.lgamma(alpha + 1)
                                  - math.lgamma(n + 1))
                assert model.c_alpha == pytest.approx(direct, rel=1e-12)

    def test_large_alpha_growth(self):
        # c_alpha approaches alpha^n / n!; the 2n/alpha envelope holds for
        # the dimensions the package computes in (n = 1, 2).
        for n in (1, 2):
            for alpha in np.logspace(2, 6, 9):
                model = WeightedModel(n=n, alpha=float(alpha))
                ratio = model.c_alpha * math.factorial(n) / alpha ** n
                assert abs(ratio - 1.0) <= 2.0 * n / alpha

    def test_kernel_exponent(self):
        assert WeightedModel(n=2, alpha=1.5).kernel_exponent == 4.5
