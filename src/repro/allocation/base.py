"""Workload-allocation interfaces.

An *allocator* maps the system model (speeds + utilization) to the
fraction vector α = (α₁..αₙ) that the dispatcher then realizes job by
job.  All allocators are pure functions of the model — static scheduling
never looks at instantaneous state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..queueing.network import HeterogeneousNetwork, validate_allocation

__all__ = ["Allocator", "AllocationResult"]


@dataclass(frozen=True)
class AllocationResult:
    """An allocation α with provenance and convenience accessors."""

    alphas: np.ndarray
    network: HeterogeneousNetwork
    allocator_name: str

    def __post_init__(self):
        object.__setattr__(self, "alphas", validate_allocation(self.alphas))

    @property
    def n(self) -> int:
        return int(self.alphas.size)

    @property
    def zero_share_indices(self) -> list[int]:
        """Computers allocated exactly no workload (Theorem 2 cutoff)."""
        return np.nonzero(self.alphas == 0.0)[0].tolist()

    def per_server_utilization(self) -> np.ndarray:
        return self.network.per_server_utilization(self.alphas)

    def predicted_mean_response_ratio(self) -> float:
        """Analytical R̄ = μT̄ under this allocation."""
        return self.network.mean_response_ratio(self.alphas)


class Allocator(abc.ABC):
    """Strategy object computing workload fractions for a network."""

    #: Short name used in experiment tables ("weighted", "optimized", ...).
    name: str = "base"

    @abc.abstractmethod
    def compute(self, network: HeterogeneousNetwork) -> AllocationResult:
        """Return the allocation for *network*.

        Implementations must return fractions that sum to one, are
        non-negative, and keep every individual computer unsaturated
        (αᵢλ < sᵢμ) whenever the system itself is unsaturated.
        """

    def __call__(self, network: HeterogeneousNetwork) -> AllocationResult:
        return self.compute(network)

    def fractions(self, network: HeterogeneousNetwork) -> np.ndarray:
        """Shorthand returning just the α vector."""
        return self.compute(network).alphas
