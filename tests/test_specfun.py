import math

import numpy as np
import pytest

from szegolab import WeightedModel, log_gamma
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


class TestWeightedModel:
    def test_validation(self):
        for n, alpha in ((0, 1.0), (1.5, 1.0), (1, -1.0)):
            with pytest.raises(DomainError):
                WeightedModel(n=n, alpha=alpha)
        assert WeightedModel(n=2, alpha=-0.5).n == 2
