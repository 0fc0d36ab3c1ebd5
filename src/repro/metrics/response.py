"""Job-level performance metrics (Section 2.3 / 4.1 definitions).

* **Mean response time** — average completion time (departure − arrival)
  over all jobs.
* **Response ratio** of a job — response time divided by its *size*,
  where size is the job's run time on an idle speed-1 machine.  The mean
  response ratio removes the job-size effect; a ratio of r means the job
  took r times its standalone speed-1 duration.
* **Fairness** — the standard deviation of the response ratio over all
  jobs (smaller is better/fairer: users tolerate delays proportional to
  job size, not arbitrary ones).
"""

from __future__ import annotations

from dataclasses import dataclass

from .online import RunningStats

__all__ = ["ResponseMetrics", "MetricsCollector"]


@dataclass(frozen=True)
class ResponseMetrics:
    """Final metric values for one simulation run."""

    jobs: int
    mean_response_time: float
    mean_response_ratio: float
    fairness: float
    max_response_ratio: float
    mean_job_size: float

    def as_dict(self) -> dict[str, float]:
        return {
            "jobs": self.jobs,
            "mean_response_time": self.mean_response_time,
            "mean_response_ratio": self.mean_response_ratio,
            "fairness": self.fairness,
            "max_response_ratio": self.max_response_ratio,
            "mean_job_size": self.mean_job_size,
        }


class MetricsCollector:
    """Accumulates per-job statistics, honouring the warm-up cutoff.

    Only jobs *arriving* at or after ``warmup_end`` count (the paper
    collects statistics from the jobs that arrive after the start-up
    period); jobs arriving earlier are ignored entirely even if they
    complete later.
    """

    def __init__(self, warmup_end: float = 0.0):
        if warmup_end < 0:
            raise ValueError(f"warmup_end must be non-negative, got {warmup_end}")
        self.warmup_end = float(warmup_end)
        self.response_time = RunningStats()
        self.response_ratio = RunningStats()
        self.job_size = RunningStats()

    def record(self, arrival: float, completion: float, size: float) -> None:
        """Record one finished job (no-op if it arrived during warm-up)."""
        if arrival < self.warmup_end:
            return
        if completion < arrival:
            raise ValueError(
                f"completion {completion} precedes arrival {arrival}"
            )
        if size <= 0:
            raise ValueError(f"job size must be positive, got {size}")
        response = completion - arrival
        self.response_time.add(response)
        self.response_ratio.add(response / size)
        self.job_size.add(size)

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector in (e.g. per-server collectors)."""
        if other.warmup_end != self.warmup_end:
            raise ValueError(
                f"warm-up mismatch: {self.warmup_end} vs {other.warmup_end}"
            )
        self.response_time.merge(other.response_time)
        self.response_ratio.merge(other.response_ratio)
        self.job_size.merge(other.job_size)

    @property
    def jobs(self) -> int:
        return self.response_time.count

    def finalize(self) -> ResponseMetrics:
        """Snapshot the three paper metrics (raises if nothing recorded)."""
        if self.jobs == 0:
            raise ValueError("no jobs recorded after warm-up")
        return ResponseMetrics(
            jobs=self.jobs,
            mean_response_time=self.response_time.mean,
            mean_response_ratio=self.response_ratio.mean,
            fairness=self.response_ratio.std,
            max_response_ratio=self.response_ratio.max,
            mean_job_size=self.job_size.mean,
        )
