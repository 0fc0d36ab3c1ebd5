"""M/G/1 results: Pollaczek–Khinchine (FCFS) and PS insensitivity.

The simulation uses Bounded Pareto service times, i.e. M(λ)/G/1 per
server when arrivals are Poisson.  Two classical facts anchor the
validation tests:

* **FCFS**: mean wait W = λ E[S²] / (2(1 − ρ)) — heavily penalized by the
  huge second moment of heavy-tailed sizes.
* **PS**: mean response T = E[S] / (1 − ρ), *independent of the service
  distribution beyond its mean* (insensitivity).  This is why the paper's
  M/M/1-based allocation optimum remains the right objective under
  Bounded Pareto sizes, and why PS/round-robin CPU scheduling is the
  sensible discipline for heavy-tailed work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributions.base import Distribution

__all__ = ["MG1"]


@dataclass(frozen=True)
class MG1:
    """M/G/1 queue: Poisson(λ) arrivals, generic service distribution."""

    arrival_rate: float
    service: Distribution

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ValueError(f"arrival rate must be non-negative, got {self.arrival_rate}")

    @property
    def rho(self) -> float:
        return self.arrival_rate * self.service.mean

    @property
    def stable(self) -> bool:
        return self.rho < 1.0

    def _check(self) -> None:
        if not self.stable:
            raise ValueError(f"queue unstable: rho={self.rho:.4f} >= 1")

    # ------------------------------------------------------------------
    # FCFS (Pollaczek–Khinchine)
    # ------------------------------------------------------------------

    @property
    def mean_waiting_time_fcfs(self) -> float:
        """W = λ E[S²] / (2 (1 − ρ))."""
        self._check()
        return self.arrival_rate * self.service.second_moment / (2.0 * (1.0 - self.rho))

    @property
    def mean_response_time_fcfs(self) -> float:
        self._check()
        return self.service.mean + self.mean_waiting_time_fcfs

    # ------------------------------------------------------------------
    # Processor sharing
    # ------------------------------------------------------------------

    @property
    def mean_response_time_ps(self) -> float:
        """T = E[S] / (1 − ρ), insensitive to the service distribution."""
        self._check()
        return self.service.mean / (1.0 - self.rho)

    def conditional_response_ps(self, size: float) -> float:
        """E[T | S = t] = t / (1 − ρ)."""
        self._check()
        if size < 0:
            raise ValueError(f"job size must be non-negative, got {size}")
        return size / (1.0 - self.rho)
