"""Trace-driven workloads: replay recorded arrival/size traces.

The paper motivates its arrival model with Zhou's trace measurements
(inter-arrival CV 2.64).  This module closes the loop for users who have
real traces: load (time, size) pairs, inspect their moments, and replay
them through the static-policy simulator — the synthetic fast path's
own dispatch stage and stage-3 replay call
(:func:`repro.sim.fastpath._replay_cell_plans`) with the PS discipline,
so results are directly comparable with the distribution-driven
experiments: a trace of a synthetic run's streams replays to the same
bits.

Dynamic policies need the event engine's feedback machinery and are not
supported on traces (a static trace cannot answer "what did the
scheduler know at time t" without the full engine; use
:func:`repro.sim.engine.run_simulation` with a synthetic workload
matched to the trace's moments instead).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dispatch.base import Dispatcher
from .fastpath import (
    _dispatch_targets,
    _replay_cell_plans,
    _validate_plan_inputs,
)
from .results import SimulationResults

__all__ = ["JobTrace", "run_trace_simulation"]


@dataclass(frozen=True)
class JobTrace:
    """An ordered sequence of (arrival time, size) job records."""

    arrival_times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.arrival_times, dtype=float)
        sizes = np.asarray(self.sizes, dtype=float)
        if times.ndim != 1 or times.shape != sizes.shape:
            raise ValueError("arrival_times and sizes must be matching 1-D arrays")
        if times.size == 0:
            raise ValueError("trace must contain at least one job")
        # Bounds written so NaN fails them.
        if not np.all(np.isfinite(times)):
            raise ValueError("arrival times must be finite")
        if not np.all(np.diff(times) >= 0):
            raise ValueError("arrival_times must be non-decreasing")
        if not times[0] >= 0:
            raise ValueError("arrival times must be non-negative")
        if not np.all((sizes > 0) & np.isfinite(sizes)):
            raise ValueError("job sizes must be positive and finite")
        object.__setattr__(self, "arrival_times", times)
        object.__setattr__(self, "sizes", sizes)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_csv(cls, path: str | Path) -> "JobTrace":
        """Load a two-column CSV (arrival_time, size); header optional."""
        times: list[float] = []
        sizes: list[float] = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or len(row) < 2:
                    continue
                try:
                    t, s = float(row[0]), float(row[1])
                except ValueError:
                    continue  # header or comment line
                times.append(t)
                sizes.append(s)
        if not times:
            raise ValueError(f"no job records found in {path}")
        return cls(np.asarray(times), np.asarray(sizes))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["arrival_time", "size"])
            for t, s in zip(self.arrival_times, self.sizes):
                writer.writerow([repr(float(t)), repr(float(s))])

    @classmethod
    def synthesize(cls, workload, rng: np.random.Generator, horizon: float) -> "JobTrace":
        """Generate a trace from a :class:`~repro.sim.arrivals.Workload`,
        e.g. to snapshot a reproducible input for cross-tool comparison."""
        times = workload.arrival_stream(rng).arrivals_until(horizon)
        if times.size == 0:
            raise ValueError("horizon too short: no arrivals generated")
        sizes = workload.sample_sizes(rng, times.size)
        return cls(times, sizes)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        return int(self.arrival_times.size)

    @property
    def horizon(self) -> float:
        return float(self.arrival_times[-1])

    @property
    def mean_size(self) -> float:
        return float(self.sizes.mean())

    @property
    def mean_interarrival(self) -> float:
        if self.n_jobs < 2:
            raise ValueError("need at least two jobs for inter-arrival statistics")
        return float(np.diff(self.arrival_times).mean())

    @property
    def interarrival_cv(self) -> float:
        """The burstiness measure Zhou reported as 2.64 for real traces."""
        gaps = np.diff(self.arrival_times)
        if gaps.size < 2:
            raise ValueError("need at least three jobs for an inter-arrival CV")
        m = gaps.mean()
        if m == 0:
            raise ZeroDivisionError("degenerate trace: all arrivals simultaneous")
        return float(gaps.std() / m)

    def offered_load(self, total_speed: float) -> float:
        """Implied system utilization against a cluster of the given
        aggregate speed: (work arrived per second) / capacity."""
        if total_speed <= 0:
            raise ValueError(f"total speed must be positive, got {total_speed}")
        if self.horizon == 0:
            raise ValueError("trace horizon is zero")
        return float(self.sizes.sum()) / (self.horizon * total_speed)


def run_trace_simulation(
    trace: JobTrace,
    speeds,
    dispatcher: Dispatcher,
    alphas,
    *,
    warmup: float = 0.0,
    record_trace: bool = False,
) -> SimulationResults:
    """Replay *trace* through a static policy on PS servers.

    :func:`repro.sim.fastpath.run_static_simulation` with the trace
    replacing the synthetic generators: the same dispatch stage and the
    same stage-3 replay and summary call, so a trace of a synthetic
    run's streams reproduces that run's results exactly.  All jobs run
    to completion (drain semantics) and statistics cover jobs arriving
    at or after *warmup*.
    """
    if not dispatcher.is_static:
        raise ValueError(
            f"{type(dispatcher).__name__} needs feedback; trace replay is static-only"
        )
    speeds = np.asarray(speeds, dtype=float)
    if speeds.ndim != 1 or speeds.size == 0 or np.any(speeds <= 0):
        raise ValueError(f"speeds must be a non-empty positive vector, got {speeds}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")

    times, sizes, speeds = _validate_plan_inputs(
        trace.arrival_times, trace.sizes, speeds
    )
    dispatcher.reset(alphas)
    targets = _dispatch_targets(dispatcher, sizes)
    return _replay_cell_plans(
        [targets], times, sizes, speeds, "ps", warmup, trace.horizon,
        record_trace,
    )[0]
