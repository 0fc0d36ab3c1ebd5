"""Single-run confidence intervals via the method of batch means.

The paper buys statistical confidence with 10 independent replications.
The classical alternative spends one *long* run: split the post-warm-up
output into b contiguous batches, treat the batch means as (nearly)
independent samples, and build a Student-t interval.  Valid when the
batches are long enough that their means decorrelate — checked here via
the lag-1 autocorrelation of the batch means (von Neumann style), which
is reported alongside the interval so callers can tell a trustworthy CI
from an undersized-batch one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["BatchMeansResult", "batch_means_ci"]


@dataclass(frozen=True)
class BatchMeansResult:
    """Batch-means point estimate, CI, and independence diagnostic."""

    mean: float
    half_width: float
    confidence: float
    n_batches: int
    batch_size: int
    #: Lag-1 autocorrelation of the batch means (≈0 for valid batching).
    lag1_autocorrelation: float

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    @property
    def batches_look_independent(self) -> bool:
        """Heuristic: |r₁| below two standard errors (2/√b)."""
        return abs(self.lag1_autocorrelation) <= 2.0 / math.sqrt(self.n_batches)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "" if self.batches_look_independent else " [correlated batches!]"
        return (
            f"{self.mean:.6g} ± {self.half_width:.2g} "
            f"({self.n_batches} batches x {self.batch_size}){flag}"
        )


def _lag1_autocorrelation(xs: np.ndarray) -> float:
    centered = xs - xs.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return 0.0
    return float(centered[:-1] @ centered[1:]) / denom


def batch_means_ci(
    observations,
    *,
    n_batches: int = 20,
    confidence: float = 0.95,
) -> BatchMeansResult:
    """Batch-means CI for the steady-state mean of one output series.

    *observations* should already exclude the warm-up (pair with
    :func:`repro.analysis.warmup.mser` to find the truncation point).
    The trailing remainder that does not fill a whole batch is dropped.
    """
    xs = np.asarray(observations, dtype=float)
    if xs.ndim != 1:
        raise ValueError("observations must be 1-D")
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    batch_size = xs.size // n_batches
    if batch_size < 1:
        raise ValueError(
            f"{xs.size} observations cannot fill {n_batches} batches"
        )
    means = (
        xs[: n_batches * batch_size].reshape(n_batches, batch_size).mean(axis=1)
    )
    grand = float(means.mean())
    std = float(means.std(ddof=1))
    t = float(special.stdtrit(n_batches - 1, 0.5 + confidence / 2.0))
    return BatchMeansResult(
        mean=grand,
        half_width=t * std / math.sqrt(n_batches),
        confidence=confidence,
        n_batches=n_batches,
        batch_size=batch_size,
        lag1_autocorrelation=_lag1_autocorrelation(means),
    )
