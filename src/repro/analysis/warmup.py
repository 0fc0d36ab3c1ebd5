"""Warm-up (initial transient) analysis for simulation output.

The paper discards the first quarter of each run (1.0e6 of 4.0e6 s) as
start-up.  This module provides the standard data-driven alternative —
the **MSER (Marginal Standard Error Rule)** truncation point of White —
so users can check that a fixed warm-up fraction is long enough for
their own configurations, plus a simple batching helper to turn per-job
observations into the evenly sized batches MSER expects.

MSER picks the truncation d minimizing the *marginal standard error*

.. math::  \\mathrm{MSER}(d) = \\frac{1}{(n-d)^2}
           \\sum_{j=d}^{n-1} (x_j - \\bar{x}_{d..n-1})^2,

i.e. the half-width proxy of the remaining sample; deleting biased
start-up observations reduces it, deleting stationary ones inflates it.
MSER-5 applies the rule to batch means of 5 consecutive observations:
``mser(batch_means(x, 5))``, whose truncation counts batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MserResult", "mser", "batch_means"]


def batch_means(observations: np.ndarray, batch_size: int) -> np.ndarray:
    """Means of consecutive non-overlapping batches (tail remainder dropped)."""
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 1:
        raise ValueError("observations must be 1-D")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    n_batches = obs.size // batch_size
    if n_batches == 0:
        raise ValueError(
            f"need at least {batch_size} observations, got {obs.size}"
        )
    return obs[: n_batches * batch_size].reshape(n_batches, batch_size).mean(axis=1)


@dataclass(frozen=True)
class MserResult:
    """Truncation decision for one output series."""

    #: Number of leading (batched) observations to discard.
    truncation: int
    #: MSER statistic at the chosen truncation.
    statistic: float
    #: Mean of the retained observations.
    truncated_mean: float
    #: Total number of (batched) observations considered.
    n: int


def mser(observations: np.ndarray, *, max_fraction: float = 0.5) -> MserResult:
    """MSER truncation point of a stationary-tailed series.

    ``max_fraction`` caps the searched truncation (White's rule ignores
    candidates beyond half the run: if more must be deleted, the run is
    simply too short).  Fully vectorized via suffix sums.
    """
    x = np.asarray(observations, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D series with at least two observations")
    if not 0.0 < max_fraction <= 1.0:
        raise ValueError(f"max_fraction must lie in (0, 1], got {max_fraction}")
    n = x.size
    d_max = max(1, int(np.floor(n * max_fraction)))

    # Suffix sums: S1[d] = sum(x[d:]), S2[d] = sum(x[d:]**2).
    s1 = np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]])
    s2 = np.concatenate([np.cumsum((x * x)[::-1])[::-1], [0.0]])
    d = np.arange(d_max)
    m = n - d  # retained counts, all >= n - d_max + ... >= 1
    mean_tail = s1[d] / m
    # Σ (x−mean)² = S2 − m·mean²  (clamped against rounding).
    sse = np.maximum(s2[d] - m * mean_tail**2, 0.0)
    stat = sse / m**2
    best = int(np.argmin(stat))
    return MserResult(
        truncation=best,
        statistic=float(stat[best]),
        truncated_mean=float(mean_tail[best]),
        n=n,
    )
