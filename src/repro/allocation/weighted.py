"""Simple weighted allocation (Section 2.1)."""

from __future__ import annotations

from ..queueing.network import HeterogeneousNetwork
from .base import AllocationResult, Allocator

__all__ = ["WeightedAllocator"]


class WeightedAllocator(Allocator):
    """αᵢ = sᵢ / Σⱼsⱼ — equalize utilization across computers.

    The paper's naive baseline: speed-aware but utilization-balanced, the
    scheme used by classic DNS/HTTP weighted load balancing.  The
    optimized scheme of Section 2.3 strictly improves on it whenever the
    system is heterogeneous and not fully loaded.
    """

    name = "weighted"

    def compute(self, network: HeterogeneousNetwork) -> AllocationResult:
        alphas = network.speeds / network.total_speed
        return AllocationResult(alphas=alphas, network=network, allocator_name=self.name)
