"""Additional job-size families: Lognormal and Weibull.

The paper uses the Bounded Pareto; these two appear throughout the
task-size literature (web object sizes are near-lognormal, UNIX process
lifetimes are Weibull/Pareto-ish) and feed the size-distribution
ablation: under processor sharing the *mean* response ratio is
insensitive to the size distribution (only E[S] matters), while FCFS
degrades with the tail weight — the reason the paper models PS CPUs.

Both support exact moment-matching construction from (mean, cv).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .base import Distribution

__all__ = ["Lognormal", "Weibull"]


class Lognormal(Distribution):
    """Lognormal(μ, σ): log X ~ Normal(μ, σ²)."""

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "Lognormal":
        """Exact moment fit: σ² = ln(1 + cv²), μ = ln(mean) − σ²/2."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv <= 0:
            raise ValueError(f"cv must be positive, got {cv}")
        sigma2 = math.log1p(cv * cv)
        return cls(mu=math.log(mean) - sigma2 / 2.0, sigma=math.sqrt(sigma2))

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @property
    def second_moment(self) -> float:
        return math.exp(2.0 * self.mu + 2.0 * self.sigma**2)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            x <= 0,
            0.0,
            special.ndtr((np.log(np.maximum(x, 1e-300)) - self.mu) / self.sigma),
        )
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        out = np.exp(self.mu + self.sigma * special.ndtri(q))
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.lognormal(self.mu, self.sigma, size)


class Weibull(Distribution):
    """Weibull(shape k, scale λ): F(x) = 1 − exp(−(x/λ)^k).

    Shape < 1 gives a heavy (sub-exponential) tail with cv > 1;
    shape > 1 is lighter than exponential.
    """

    def __init__(self, shape: float, scale: float):
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float, *, tol: float = 1e-12) -> "Weibull":
        """Moment fit: solve Γ(1+2/k)/Γ(1+1/k)² = 1 + cv² for the shape,
        then pick the scale to hit the mean.  Uses a bracketing root
        search on log-gamma (robust for 0.05 ≤ cv-implied shapes)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv <= 0:
            raise ValueError(f"cv must be positive, got {cv}")
        target = math.log1p(cv * cv)

        def gap(k: float) -> float:
            return (
                special.gammaln(1.0 + 2.0 / k)
                - 2.0 * special.gammaln(1.0 + 1.0 / k)
                - target
            )

        # cv is decreasing in k: bracket accordingly.
        lo, hi = 1e-2, 1e2
        if gap(lo) < 0 or gap(hi) > 0:
            raise ValueError(f"cv={cv} outside the representable Weibull range")
        # scipy.optimize is imported here, not at module level: it is
        # heavy, and nothing on the simulation or serving paths needs it.
        from scipy import optimize

        k = optimize.brentq(gap, lo, hi, xtol=tol)
        scale = mean / math.gamma(1.0 + 1.0 / k)
        return cls(shape=k, scale=scale)

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def second_moment(self) -> float:
        return self.scale**2 * math.gamma(1.0 + 2.0 / self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            x < 0, 0.0, -np.expm1(-np.power(np.maximum(x, 0.0) / self.scale, self.shape))
        )
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        out = self.scale * np.power(-np.log1p(-q), 1.0 / self.shape)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.scale * rng.weibull(self.shape, size)
