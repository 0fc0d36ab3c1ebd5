"""The paper's analytical model of the heterogeneous network (Section 2.3).

A network of n computers c₁..cₙ with relative speeds sᵢ > 0 and a
base-line service rate μ (so cᵢ serves at rate sᵢμ).  Jobs arrive at
rate λ and a static scheme routes a fraction αᵢ to cᵢ.  Modeling each
computer as an M/M/1-PS queue gives (paper equations (1)–(3)):

* per-computer mean response time  T̄ᵢ = 1 / (sᵢμ − αᵢλ)
* per-computer mean response ratio R̄ᵢ = μ / (sᵢμ − αᵢλ)
* system mean response time        T̄ = Σᵢ αᵢ / (sᵢμ − αᵢλ)
* system mean response ratio       R̄ = μ T̄

so minimizing T̄ and minimizing R̄ are the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HeterogeneousNetwork", "validate_allocation", "ALLOCATION_ATOL"]

#: How far an allocation may stray outside [0, 1] and off a unit sum.
ALLOCATION_ATOL = 1e-9


def validate_allocation(alphas: np.ndarray, *,
                        atol: float = ALLOCATION_ATOL) -> np.ndarray:
    """Check αᵢ ∈ [0, 1] and Σαᵢ = 1; return as a float array.

    Both checks are written so that NaN fails them.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"allocation must be a 1-D vector, got shape {a.shape}")
    if not ((a >= -atol).all() and (a <= 1.0 + atol).all()):
        raise ValueError(f"allocation fractions must lie in [0, 1], got {a}")
    total = float(a.sum())
    if not abs(total - 1.0) <= max(atol, 1e-9 * len(a)):
        raise ValueError(f"allocation fractions must sum to 1, got {total}")
    return a.clip(0.0, 1.0)


@dataclass(frozen=True)
class HeterogeneousNetwork:
    """The system model of Figure 1: speeds, base-line rate, arrival rate.

    Parameters
    ----------
    speeds:
        Relative speeds sᵢ > 0 (need not be sorted).
    mu:
        Base-line job service rate μ (jobs/second for a speed-1 machine).
    arrival_rate:
        System job arrival rate λ.
    """

    speeds: np.ndarray
    mu: float
    arrival_rate: float

    def __init__(self, speeds, mu: float = 1.0, arrival_rate: float | None = None,
                 utilization: float | None = None):
        s = np.asarray(speeds, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(s <= 0):
            raise ValueError(f"speeds must be positive, got {s}")
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        if (arrival_rate is None) == (utilization is None):
            raise ValueError("specify exactly one of arrival_rate / utilization")
        if arrival_rate is None:
            if not 0.0 <= utilization < 1.0:
                raise ValueError(f"utilization must lie in [0, 1), got {utilization}")
            arrival_rate = utilization * mu * float(s.sum())
        if arrival_rate < 0:
            raise ValueError(f"arrival rate must be non-negative, got {arrival_rate}")
        object.__setattr__(self, "speeds", s)
        object.__setattr__(self, "mu", float(mu))
        object.__setattr__(self, "arrival_rate", float(arrival_rate))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.speeds.size)

    @property
    def total_speed(self) -> float:
        return float(self.speeds.sum())

    @property
    def capacity(self) -> float:
        """Aggregate service rate Σ sᵢμ."""
        return self.total_speed * self.mu

    @property
    def utilization(self) -> float:
        """System utilization ρ = λ / (μ Σsᵢ)."""
        return self.arrival_rate / self.capacity

    @property
    def stable(self) -> bool:
        return self.utilization < 1.0

    def service_rates(self) -> np.ndarray:
        """Per-computer service rates sᵢμ."""
        return self.speeds * self.mu

    def with_utilization(self, utilization: float) -> "HeterogeneousNetwork":
        """Same computers, different load level."""
        return HeterogeneousNetwork(self.speeds, mu=self.mu, utilization=utilization)

    # ------------------------------------------------------------------
    # Per-allocation performance (paper equations (1)–(3))
    # ------------------------------------------------------------------

    def per_server_utilization(self, alphas) -> np.ndarray:
        """ρᵢ = αᵢλ / (sᵢμ)."""
        a = validate_allocation(alphas)
        self._match(a)
        return a * self.arrival_rate / self.service_rates()

    def _match(self, a: np.ndarray) -> None:
        if a.size != self.n:
            raise ValueError(f"allocation has {a.size} entries for {self.n} computers")

    def _denominators(self, a: np.ndarray) -> np.ndarray:
        """sᵢμ − αᵢλ, validated positive wherever αᵢ > 0."""
        denom = self.service_rates() - a * self.arrival_rate
        if np.any(denom[a > 0] <= 0):
            bad = np.nonzero((a > 0) & (denom <= 0))[0]
            raise ValueError(
                f"allocation saturates computer(s) {bad.tolist()}: alpha*lambda >= s*mu"
            )
        return denom

    def mean_response_time(self, alphas) -> float:
        """T̄ = Σᵢ αᵢ / (sᵢμ − αᵢλ)   (paper equation (3))."""
        a = validate_allocation(alphas)
        self._match(a)
        denom = self._denominators(a)
        mask = a > 0
        return float(np.sum(a[mask] / denom[mask]))

    def mean_response_ratio(self, alphas) -> float:
        """R̄ = μ T̄."""
        return self.mu * self.mean_response_time(alphas)
