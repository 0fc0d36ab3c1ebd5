"""G/G/1 waiting-time approximations.

The paper's arrival process is *not* Poisson (hyperexponential with
CV = 3), so the per-server queues in the simulation are really
H2/G/1-PS.  No closed form exists, but the Allen–Cunneen / Kingman
heavy-traffic style approximation

.. math::  W \\approx \\frac{c_a^2 + c_s^2}{2} \\cdot W_{M/M/1}

quantifies how arrival burstiness inflates waiting — the effect the
round-robin dispatcher attacks by smoothing each computer's substream.
These approximations are used for sanity envelopes in tests and for the
analysis notes in EXPERIMENTS.md, not inside the optimizer (the paper's
optimizer deliberately sticks to the M/M/1 model).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GG1Approximation", "kingman_waiting_time"]


def _validate(arrival_rate: float, service_rate: float) -> float:
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be non-negative, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service rate must be positive, got {service_rate}")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        raise ValueError(f"queue unstable: rho={rho:.4f} >= 1")
    return rho


def kingman_waiting_time(
    arrival_rate: float, service_rate: float, ca2: float, cs2: float
) -> float:
    """Kingman's G/G/1 upper bound / heavy-traffic approximation.

    W ≈ (ρ / (1 − ρ)) · (c_a² + c_s²)/2 · (1/μ).
    """
    rho = _validate(arrival_rate, service_rate)
    if ca2 < 0 or cs2 < 0:
        raise ValueError("squared CVs must be non-negative")
    return (rho / (1.0 - rho)) * ((ca2 + cs2) / 2.0) / service_rate


@dataclass(frozen=True)
class GG1Approximation:
    """Approximate G/G/1 queue characterized by rates and squared CVs."""

    arrival_rate: float
    service_rate: float
    ca2: float = 1.0
    cs2: float = 1.0

    @property
    def rho(self) -> float:
        return _validate(self.arrival_rate, self.service_rate)

    @property
    def mean_waiting_time(self) -> float:
        return kingman_waiting_time(self.arrival_rate, self.service_rate, self.ca2, self.cs2)

    @property
    def mean_response_time(self) -> float:
        return self.mean_waiting_time + 1.0 / self.service_rate
