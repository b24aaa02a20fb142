import pytest

from szegolab import WeightedModel
from szegolab.errors import DomainError


class TestWeightedModel:
    def test_validation(self):
        for n, alpha in ((0, 1.0), (1.5, 1.0), (1, -1.0)):
            with pytest.raises(DomainError):
                WeightedModel(n=n, alpha=alpha)
        assert WeightedModel(n=2, alpha=-0.5).n == 2
