"""Workload allocation schemes (the paper's Section 2).

* :class:`WeightedAllocator` — αᵢ ∝ sᵢ (Section 2.1 baseline).
* :class:`OptimizedAllocator` — Algorithm 1 closed form (Theorems 1–3).
* :class:`NumericAllocator` — SLSQP cross-check of the closed form.
* :class:`MisestimatedOptimizedAllocator` — ORR(±e%) for Figure 6.
"""

from .base import AllocationResult, Allocator
from .numeric import NumericAllocator, compare_with_closed_form, numeric_fractions
from .optimized import (
    OptimizedAllocator,
    optimized_fractions,
    unconstrained_fractions,
    zero_share_cutoff,
)
from .perturbed import MisestimatedOptimizedAllocator, clamp_estimated_utilization
from .planning import (
    best_single_upgrade,
    marginal_response_time,
    optimal_mean_response_time,
    value_of_added_machine,
)
from .weighted import WeightedAllocator

__all__ = [
    "Allocator",
    "AllocationResult",
    "WeightedAllocator",
    "OptimizedAllocator",
    "optimized_fractions",
    "unconstrained_fractions",
    "zero_share_cutoff",
    "NumericAllocator",
    "numeric_fractions",
    "compare_with_closed_form",
    "MisestimatedOptimizedAllocator",
    "clamp_estimated_utilization",
    "optimal_mean_response_time",
    "marginal_response_time",
    "value_of_added_machine",
    "best_single_upgrade",
]
