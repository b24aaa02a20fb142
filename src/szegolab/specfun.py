"""The weighted-space context ``WeightedModel``."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "WeightedModel",
]


@dataclass(frozen=True)
class WeightedModel:
    """Ambient analytic context: complex dimension n and weight alpha > -1."""

    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError(f"dimension n must be a positive integer, got {self.n}")
        if not self.alpha > -1.0:
            raise DomainError(f"weight parameter must exceed -1, got {self.alpha}")
