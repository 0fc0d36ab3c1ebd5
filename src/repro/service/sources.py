"""Job sources for the quasi-static scheduler service.

A source hands the service loop the jobs arriving in each control
window: :meth:`JobSource.jobs_until` is incremental and monotone, so
calling it with successive window boundaries walks the stream exactly
once.  Two implementations:

* :class:`SyntheticJobSource` — the paper's workload (renewal arrivals,
  configurable size distribution) drawn from seeded substreams, with an
  optional :class:`~repro.sim.modulated.RateProfile` for step-change
  and drift scenarios (pass un-normalized profiles from
  :func:`~repro.sim.modulated.step_profile` /
  :func:`~repro.sim.modulated.drift_profile` so the load actually
  moves).
* :class:`TraceJobSource` — replays recorded (time, size) pairs, the
  workload-replay driver behind ``repro serve --trace``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..rng import substream
from ..sim.arrivals import Workload

__all__ = ["JobSource", "SyntheticJobSource", "TraceJobSource"]


class JobSource(abc.ABC):
    """Incremental supplier of (arrival time, job size) pairs."""

    @abc.abstractmethod
    def jobs_until(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """All jobs with arrival time ≤ *horizon* not yet emitted.

        Horizons must be non-decreasing across calls; the returned
        times are non-decreasing within and across calls.
        """


class SyntheticJobSource(JobSource):
    """Seeded synthetic stream built on :class:`~repro.sim.arrivals.Workload`.

    Uses the same substream roles as the offline simulators (arrivals /
    sizes), so a service run and a static replication with the same
    seed see related — not identical — streams: the service's horizon
    chunking consumes the arrival stream in the same order, keeping the
    run reproducible end to end.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self._stream = workload.arrival_stream(substream(seed, "arrivals"))
        self._size_rng = substream(seed, "sizes")
        self._horizon = 0.0

    def jobs_until(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        if horizon < self._horizon:
            raise ValueError(
                f"horizons must be non-decreasing ({horizon} after {self._horizon})"
            )
        self._horizon = float(horizon)
        times = self._stream.arrivals_until(horizon)
        sizes = self.workload.sample_sizes(self._size_rng, times.size)
        return times, sizes


class TraceJobSource(JobSource):
    """Replay of a recorded trace of (arrival time, size) pairs."""

    def __init__(self, times, sizes):
        # Contiguous copies when needed (a trace file's columns are
        # strided views): the compiled window replay reads raw buffers.
        t = np.ascontiguousarray(times, dtype=float)
        s = np.ascontiguousarray(sizes, dtype=float)
        if t.ndim != 1 or t.shape != s.shape:
            raise ValueError(
                f"times and sizes must be matching 1-D vectors, got {t.shape} vs {s.shape}"
            )
        if t.size and np.any(np.diff(t) < 0):
            raise ValueError("trace times must be non-decreasing")
        if np.any(s <= 0):
            raise ValueError("trace sizes must be positive")
        self.times = t
        self.sizes = s
        self._pos = 0
        self._horizon = 0.0

    @property
    def remaining(self) -> int:
        return self.times.size - self._pos

    def jobs_until(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        if horizon < self._horizon:
            raise ValueError(
                f"horizons must be non-decreasing ({horizon} after {self._horizon})"
            )
        self._horizon = float(horizon)
        end = int(np.searchsorted(self.times, horizon, side="right"))
        start, self._pos = self._pos, max(self._pos, end)
        return self.times[start:self._pos], self.sizes[start:self._pos]
