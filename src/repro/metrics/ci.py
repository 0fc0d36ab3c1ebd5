"""Replication statistics: each figure point averages independent runs.

The paper reports each data point as the average of 10 independent runs
with different random streams.  :class:`ReplicationSummary` carries that
average plus a Student-t confidence interval so EXPERIMENTS.md can state
whether paper-vs-measured gaps are within run-to-run noise.

:class:`PairedSummary` is the common-random-numbers companion: because
every policy evaluated with the same replication seed sees the *same*
arrival and size streams (see :mod:`repro.rng`), per-replication metric
differences between two policies are matched pairs.  The paired t
interval on those differences cancels the between-replication stream
noise that dominates independent intervals, so policy comparisons reach
a target precision with far fewer replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special


@lru_cache(maxsize=256)
def _t_quantile(confidence: float, df: int) -> float:
    """Student-t quantile, memoized: sweeps call this thousands of times
    with a handful of distinct (confidence, df) pairs.

    ``special.stdtrit`` gives the bits of ``scipy.stats.t.ppf`` without
    importing ``scipy.stats``, most of the package's import time and
    start-up memory."""
    return float(special.stdtrit(df, 0.5 + confidence / 2.0))

__all__ = [
    "ReplicationSummary",
    "summarize_replications",
    "PairedSummary",
    "summarize_paired",
]


def _safe_half_width(std: float, n: int, confidence: float) -> tuple[float, bool]:
    """t half-width guarded against degenerate spread estimates.

    ``std(ddof=1)`` is NaN for n=1 and can be NaN/inf when the inputs
    themselves are non-finite; a NaN half-width poisons every downstream
    comparison (``NaN <= target`` is False, so precision loops burn
    replications to their cap without ever converging).  Degenerate
    spreads collapse to an explicitly flagged zero-width interval
    instead: no spread estimate is possible, and adding replications of
    the same degenerate data would never tighten it.
    """
    if not math.isfinite(std):
        return 0.0, True
    if std == 0.0:
        return 0.0, True
    t = _t_quantile(confidence, n - 1)
    return t * std / math.sqrt(n), False


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean over replications with a symmetric t confidence interval.

    ``degenerate`` marks intervals whose width is zero by *construction*
    rather than by measurement: a single replication, a zero-variance
    sample, or non-finite inputs.  Consumers that iterate "until the
    interval is tight" must treat a degenerate interval as final.
    """

    mean: float
    std: float
    n: int
    half_width: float
    confidence: float
    #: True when no spread estimate was possible (n=1, zero variance,
    #: or non-finite inputs) and the zero width is a flag, not a fact.
    degenerate: bool = False

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """CI half-width as a fraction of the mean (precision gauge)."""
        if not math.isfinite(self.mean):
            # A non-finite mean can never be measured to a precision;
            # inf (not NaN) keeps `<= target` comparisons well-defined.
            return math.inf
        if self.mean == 0:
            return math.inf if self.half_width > 0 else 0.0
        return self.half_width / abs(self.mean)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.6g} ± {self.half_width:.2g} (n={self.n})"


def summarize_replications(values, confidence: float = 0.95) -> ReplicationSummary:
    """Summarize one metric across replications.

    A single replication, a zero-variance sample, or non-finite inputs
    yield a zero-width interval flagged ``degenerate`` (no spread
    estimate is possible); everything else uses the Student-t quantile.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no replication values")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return ReplicationSummary(mean=mean, std=0.0, n=1, half_width=0.0,
                                  confidence=confidence, degenerate=True)
    with np.errstate(invalid="ignore", over="ignore"):
        std = float(arr.std(ddof=1))
    half, degenerate = _safe_half_width(std, int(arr.size), confidence)
    if degenerate:
        std = 0.0
    return ReplicationSummary(mean=mean, std=std, n=int(arr.size),
                              half_width=half, confidence=confidence,
                              degenerate=degenerate)


@dataclass(frozen=True)
class PairedSummary:
    """Paired-difference summary of metric ``a − b`` under CRN.

    ``mean_diff`` is the mean per-replication difference; the t interval
    is on the differences, so shared stream noise cancels.  For the
    paper's metrics smaller is better, hence the verdict reads a
    significantly *negative* difference as a win for ``a``.
    """

    a: str
    b: str
    mean_diff: float
    std: float
    n: int
    half_width: float
    confidence: float
    #: True when the interval width is a flag, not a measurement: one
    #: pair, an exactly zero-variance difference vector (identical
    #: policies under CRN), or non-finite inputs.
    degenerate: bool = False

    @property
    def lower(self) -> float:
        return self.mean_diff - self.half_width

    @property
    def upper(self) -> float:
        return self.mean_diff + self.half_width

    @property
    def verdict(self) -> str:
        """``"a_wins"``, ``"b_wins"``, or ``"tie"`` (interval spans 0)."""
        if self.upper < 0.0:
            return "a_wins"
        if self.lower > 0.0:
            return "b_wins"
        return "tie"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.a}−{self.b}: {self.mean_diff:.6g} ± {self.half_width:.2g} "
            f"(n={self.n}, {self.verdict})"
        )


def summarize_paired(
    a_values,
    b_values,
    confidence: float = 0.95,
    labels: tuple[str, str] = ("A", "B"),
) -> PairedSummary:
    """Paired t interval on per-replication differences ``a − b``.

    The two sequences must come from replications sharing seeds (common
    random numbers) and be aligned by replication index — that is what
    makes them matched pairs.  A single pair yields a zero-width
    interval, mirroring :func:`summarize_replications`.
    """
    a = np.asarray(list(a_values), dtype=float)
    b = np.asarray(list(b_values), dtype=float)
    if a.size == 0:
        raise ValueError("no replication values")
    if a.shape != b.shape:
        raise ValueError(
            f"paired sequences must align, got {a.size} vs {b.size} values"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    diff = a - b
    mean = float(diff.mean())
    if diff.size == 1:
        return PairedSummary(a=labels[0], b=labels[1], mean_diff=mean, std=0.0,
                             n=1, half_width=0.0, confidence=confidence,
                             degenerate=True)
    with np.errstate(invalid="ignore", over="ignore"):
        std = float(diff.std(ddof=1))
    half, degenerate = _safe_half_width(std, int(diff.size), confidence)
    if degenerate:
        std = 0.0
    return PairedSummary(a=labels[0], b=labels[1], mean_diff=mean, std=std,
                         n=int(diff.size), half_width=half,
                         confidence=confidence, degenerate=degenerate)
