"""Exponential and related memoryless-family distributions."""

from __future__ import annotations

import numpy as np

from .base import Distribution

__all__ = ["Exponential", "Erlang", "Deterministic"]


class Exponential(Distribution):
    """Exponential distribution with the given *rate* (mean = 1/rate).

    This is the M in M/M/1: Poisson arrivals have exponential
    inter-arrival times with CV = 1.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return cls(1.0 / mean)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return 2.0 / self.rate**2

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        out = -np.log1p(-q) / self.rate
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, 0.0, -np.expm1(-self.rate * x))
        return out if out.ndim else float(out)


class Erlang(Distribution):
    """Erlang-k distribution (sum of k exponentials), CV = 1/sqrt(k) < 1.

    Useful as a *smoother-than-Poisson* arrival model in the burstiness
    (CV) ablation sweeps.
    """

    def __init__(self, k: int, rate: float):
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.k = int(k)
        self.rate = float(rate)

    @classmethod
    def from_mean_k(cls, mean: float, k: int) -> "Erlang":
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return cls(k, k / mean)

    @property
    def mean(self) -> float:
        return self.k / self.rate

    @property
    def second_moment(self) -> float:
        # E[X²] = k(k+1)/rate²
        return self.k * (self.k + 1) / self.rate**2

    def ppf(self, q):
        from scipy import stats

        q = np.asarray(q, dtype=float)
        out = stats.gamma.ppf(q, a=self.k, scale=1.0 / self.rate)
        return out if out.ndim else float(out)

    def cdf(self, x):
        from scipy import stats

        x = np.asarray(x, dtype=float)
        out = stats.gamma.cdf(x, a=self.k, scale=1.0 / self.rate)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        # Direct gamma sampling is much faster than the ppf path.
        return rng.gamma(shape=self.k, scale=1.0 / self.rate, size=size)


class Deterministic(Distribution):
    """Point mass at *value* (CV = 0); the D in D/M/1-style ablations."""

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError(f"value must be positive, got {value}")
        self.value = float(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def second_moment(self) -> float:
        return self.value**2

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        out = np.full_like(q, self.value)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = (x >= self.value).astype(float)
        return out if out.ndim else float(out)
