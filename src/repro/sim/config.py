"""Simulation configuration mirroring Section 4.1's experimental setup."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..distributions import Distribution
from ..faults.models import FaultConfig
from ..queueing.network import HeterogeneousNetwork
from .arrivals import PAPER_ARRIVAL_CV, Workload
from .feedback import FeedbackModel

__all__ = ["SimulationConfig", "PAPER_DURATION", "PAPER_WARMUP_FRACTION"]

#: Section 4.1: each run simulates 4.0e6 seconds ...
PAPER_DURATION = 4.0e6
#: ... discarding the first quarter (1.0e6 s) as warm-up.
PAPER_WARMUP_FRACTION = 0.25

_DISCIPLINES = ("ps", "fcfs", "rr_quantum")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one replication of one system.

    Parameters
    ----------
    speeds:
        Relative computer speeds (Section 2's sᵢ).
    utilization:
        Target system utilization ρ ∈ (0, 1).
    duration:
        Simulated seconds of the arrival horizon (paper: 4.0e6).
    warmup:
        Start-up period excluded from statistics; defaults to a quarter
        of the duration like the paper.
    size_distribution:
        Job sizes; defaults to the paper's Bounded Pareto.
    arrival_cv:
        Inter-arrival coefficient of variation (paper: 3.0 → H2).
    discipline:
        Per-computer CPU scheduling: "ps" (default, the paper's model),
        "fcfs", or "rr_quantum" (ablations).
    quantum:
        Time quantum for discipline "rr_quantum".
    drain:
        Run departures to completion after the arrival horizon
        (statistics still only count jobs arriving in the horizon).
    feedback:
        Delay model for the Dynamic Least-Load load-update messages.
    rate_profile:
        Optional :class:`~repro.sim.modulated.RateProfile`; when set the
        arrival rate follows the (normalized) profile while the long-run
        utilization stays at *utilization*.
    faults:
        Optional :class:`~repro.faults.FaultConfig`; when set the event
        engine injects server failures/repairs and speed-degradation
        episodes (static fast-path runs fall back to the engine).
        ``None`` (the default) is a strict no-op: no fault code runs
        and results are bit-identical to a fault-free build.
    """

    speeds: tuple[float, ...]
    utilization: float
    duration: float = PAPER_DURATION
    warmup: float | None = None
    size_distribution: Distribution | None = None
    arrival_cv: float = PAPER_ARRIVAL_CV
    discipline: str = "ps"
    quantum: float = 0.1
    drain: bool = True
    feedback: FeedbackModel = field(default_factory=FeedbackModel)
    #: Optional RateProfile for time-varying (e.g. diurnal) arrivals.
    rate_profile: object | None = None
    #: Optional FaultConfig enabling fault injection (engine path only).
    faults: FaultConfig | None = None

    def __post_init__(self):
        speeds = tuple(float(s) for s in self.speeds)
        if not speeds:
            raise ValueError("at least one computer speed is required")
        # Each bound is written so that NaN fails it.
        if not all(0.0 < s < math.inf for s in speeds):
            raise ValueError(f"speeds must be positive and finite, got {speeds}")
        object.__setattr__(self, "speeds", speeds)
        if not 0.0 < self.utilization < 1.0:
            raise ValueError(f"utilization must lie in (0, 1), got {self.utilization}")
        if not 0.0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be positive and finite, got {self.duration}"
            )
        if self.warmup is None:
            object.__setattr__(self, "warmup", PAPER_WARMUP_FRACTION * self.duration)
        elif not 0.0 <= self.warmup < self.duration:
            raise ValueError(
                f"warmup must lie in [0, duration), got {self.warmup}"
            )
        if self.discipline not in _DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; expected one of {_DISCIPLINES}"
            )
        if not 0.0 < self.quantum < math.inf:
            raise ValueError(
                f"quantum must be positive and finite, got {self.quantum}"
            )
        if not 0.0 <= self.arrival_cv < math.inf:
            raise ValueError(
                f"arrival_cv must be non-negative and finite, got {self.arrival_cv}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise TypeError(
                f"faults must be a FaultConfig or None, got {type(self.faults).__name__}"
            )

    # ------------------------------------------------------------------
    # Derived models
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.speeds)

    @property
    def total_speed(self) -> float:
        return float(sum(self.speeds))

    def workload(self) -> Workload:
        return Workload(
            total_speed=self.total_speed,
            utilization=self.utilization,
            size_distribution=self.size_distribution,
            arrival_cv=self.arrival_cv,
            rate_profile=self.rate_profile,
        )

    def network(self) -> HeterogeneousNetwork:
        """The analytical model matching this configuration."""
        workload = self.workload()
        return HeterogeneousNetwork(
            np.asarray(self.speeds), mu=workload.mu, utilization=self.utilization
        )
