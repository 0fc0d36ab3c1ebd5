"""Workload allocation deviation — the paper's Figure 2 metric.

For a time interval, the deviation is Σᵢ (αᵢ − α'ᵢ)² where αᵢ is the
expected fraction of jobs for computer i and α'ᵢ the fraction actually
dispatched to it during the interval (paper footnote 4).  Low, stable
deviation across intervals means the dispatcher tracks the target
fractions even over short horizons — the round-robin dispatcher's whole
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..queueing.network import validate_allocation

__all__ = ["interval_deviations", "DeviationSeries"]


def interval_deviations(
    expected,
    dispatch_times: np.ndarray,
    dispatch_targets: np.ndarray,
    interval_length: float,
    n_intervals: int,
    *,
    start_time: float = 0.0,
) -> "DeviationSeries":
    """Per-interval deviations for a dispatch trace (vectorized).

    Parameters
    ----------
    expected:
        Target fractions α.
    dispatch_times, dispatch_targets:
        Parallel arrays: arrival time and chosen computer per job.
    interval_length, n_intervals, start_time:
        The observation windows: [start + k·L, start + (k+1)·L) for
        k = 0..n_intervals−1.  Figure 2 uses L = 120 s, 30 intervals.
    """
    expected = validate_allocation(expected)
    times = np.asarray(dispatch_times, dtype=float)
    targets = np.asarray(dispatch_targets, dtype=np.int64)
    if times.shape != targets.shape:
        raise ValueError("dispatch_times and dispatch_targets must align")
    if interval_length <= 0:
        raise ValueError(f"interval_length must be positive, got {interval_length}")
    if n_intervals <= 0:
        raise ValueError(f"n_intervals must be positive, got {n_intervals}")
    if targets.size and (targets.min() < 0 or targets.max() >= expected.size):
        raise ValueError("dispatch target out of range for expected fractions")

    k = np.floor((times - start_time) / interval_length).astype(np.int64)
    in_window = (k >= 0) & (k < n_intervals)
    # 2-D histogram: counts[interval, server].
    counts = np.zeros((n_intervals, expected.size))
    np.add.at(counts, (k[in_window], targets[in_window]), 1.0)

    totals = counts.sum(axis=1, keepdims=True)
    actual = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    deviations = np.sum((actual - expected[None, :]) ** 2, axis=1)
    # Empty intervals carry no dispatch evidence: zero deviation.
    deviations[totals[:, 0] == 0] = 0.0
    return DeviationSeries(
        deviations=deviations,
        counts=counts,
        interval_length=interval_length,
        start_time=start_time,
    )


@dataclass(frozen=True)
class DeviationSeries:
    """Per-interval deviation values plus the underlying counts."""

    deviations: np.ndarray
    counts: np.ndarray
    interval_length: float
    start_time: float

    @property
    def n_intervals(self) -> int:
        return int(self.deviations.size)

    @property
    def mean(self) -> float:
        return float(self.deviations.mean())

    @property
    def max(self) -> float:
        return float(self.deviations.max())

    @property
    def std(self) -> float:
        return float(self.deviations.std())
