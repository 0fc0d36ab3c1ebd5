"""Distribution protocol shared by all workload distributions.

Every distribution exposes

* exact first/second moments (``mean``, ``variance``, ``cv`` — the
  coefficient of variation σ/μ used throughout the paper),
* vectorized sampling through a :class:`numpy.random.Generator`, and
* the CDF/inverse CDF where they exist in closed form (all the
  distributions used here are sampled by inverse transform, which keeps a
  single uniform stream per component and makes common-random-number
  comparisons exact).
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = ["Distribution", "validate_probability"]


def validate_probability(p: float, name: str = "p") -> float:
    """Check that *p* lies in [0, 1] and return it."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return float(p)


class Distribution(abc.ABC):
    """A positive continuous distribution with closed-form moments."""

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """First moment E[X]."""

    @property
    @abc.abstractmethod
    def second_moment(self) -> float:
        """Second moment E[X²]."""

    @property
    def variance(self) -> float:
        """Var[X] = E[X²] − E[X]²  (clamped at 0 against rounding)."""
        return max(self.second_moment - self.mean**2, 0.0)

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation σ/μ (the paper's burstiness measure)."""
        if self.mean == 0.0:
            raise ZeroDivisionError("cv undefined for zero-mean distribution")
        return self.std / self.mean

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Inverse CDF (percent-point function)."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Cumulative distribution function."""

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        """Draw samples by inverse transform of ``rng.random``."""
        u = rng.random(size)
        return self.ppf(u)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(mean={self.mean:.6g}, cv={self.cv:.6g})"
