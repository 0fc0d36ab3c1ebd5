"""Optimized workload allocation — the paper's Algorithm 1 (Section 2.3).

Minimizes F(α) = Σ sᵢμ/(sᵢμ − αᵢλ) subject to Σαᵢ = 1 and
0 ≤ αᵢ < sᵢμ/λ.  Theorem 1 gives the interior KKT point

.. math::  \\alpha_i = \\frac{1}{\\lambda}\\Bigl(s_i\\mu -
           \\sqrt{s_i\\mu}\\,\\frac{\\sum_j s_j\\mu - \\lambda}
                                  {\\sum_j \\sqrt{s_j\\mu}}\\Bigr),

which can go negative for very slow computers; Theorem 2 shows the
optimum then pins those αᵢ to zero, and because the offending indices
are a contiguous prefix of the speed-sorted order, a binary search
(Algorithm 1 steps 4–5) locates the cutoff m.  Computers c₁..c_m get no
work at all; the remaining fast computers share the load by the
Theorem 1 formula restricted to the active suffix.

The result depends only on the relative speeds and the system
utilization ρ = λ/(μΣsᵢ) — μ and λ never need to be known separately.
"""

from __future__ import annotations

import numpy as np

from ..queueing.network import HeterogeneousNetwork
from .base import AllocationResult, Allocator

__all__ = [
    "OptimizedAllocator",
    "optimized_fractions",
    "unconstrained_fractions",
    "zero_share_cutoff",
    "CUTOFF_RTOL",
]

#: Relative tolerance of the Theorem 3 drop predicate.  The suffix sums
#: behind the predicate carry O(n·ulp) accumulation noise; at very light
#: loads (λ smaller than that noise) the *strict* inequality of the
#: paper's listing mis-drops machines of a perfectly homogeneous network
#: — the gap it tests is pure rounding error.  A machine is therefore
#: only dropped when the inequality holds by more than this fraction of
#: the suffix capacity, which is deterministic, scale-free, and far
#: below any physically meaningful speed difference.
CUTOFF_RTOL = 1e-12


def unconstrained_fractions(network: HeterogeneousNetwork) -> np.ndarray:
    """Theorem 1's interior solution, *without* the αᵢ ≥ 0 constraint.

    Entries may be negative (that is precisely the signal Theorem 2
    handles); useful for tests and for visualizing how slow a computer
    must be to be dropped.
    """
    _require_usable(network)
    rates = network.service_rates()
    sqrt_rates = np.sqrt(rates)
    c = (rates.sum() - network.arrival_rate) / sqrt_rates.sum()
    return (rates - sqrt_rates * c) / network.arrival_rate


def _require_usable(network: HeterogeneousNetwork) -> None:
    if network.arrival_rate <= 0:
        raise ValueError(
            "optimized allocation needs a positive arrival rate (utilization > 0)"
        )
    if not network.stable:
        raise ValueError(
            f"system saturated (utilization={network.utilization:.4f} >= 1): "
            "no allocation can stabilize it"
        )


def zero_share_cutoff(sorted_rates: np.ndarray, arrival_rate: float) -> int:
    """Binary search of Algorithm 1 steps 3–5 on speed-sorted service rates.

    Returns m, the number of slowest computers that receive zero share:
    the largest index (1-based) for which

    .. math::  \\sqrt{s_m\\mu} < \\frac{\\sum_{j=m}^n s_j\\mu - \\lambda}
                                       {\\sum_{j=m}^n \\sqrt{s_j\\mu}},

    or 0 when no computer is dropped.  The predicate is monotone along
    the sorted order (proved in the paper's technical report), which is
    what makes the binary search valid; the suffix sums are precomputed
    so each probe is O(1).

    The strict inequality is relaxed by :data:`CUTOFF_RTOL`: a machine
    is dropped only when the condition holds beyond the floating-point
    noise floor of the suffix sums.  Without the tolerance, homogeneous
    networks at very light load (λ below the cumsum rounding error)
    mis-drop machines whose predicate "gap" is pure rounding — the
    boundary-condition failure mode flagged in Mondal's note on optimal
    static load balancing.
    """
    n = sorted_rates.size
    sqrt_rates = np.sqrt(sorted_rates)
    # suffix_rate[i] = sum of sorted_rates[i:], suffix_sqrt likewise.
    suffix_rate = np.concatenate([np.cumsum(sorted_rates[::-1])[::-1], [0.0]])
    suffix_sqrt = np.concatenate([np.cumsum(sqrt_rates[::-1])[::-1], [0.0]])

    def dropped(i: int) -> bool:  # 0-based index of the probe computer
        gap = (suffix_rate[i] - arrival_rate) - sqrt_rates[i] * suffix_sqrt[i]
        return gap > CUTOFF_RTOL * max(suffix_rate[i], arrival_rate)

    lower, upper = 0, n - 1
    while lower <= upper:
        mid = (lower + upper) // 2
        if dropped(mid):
            lower = mid + 1
        else:
            upper = mid - 1
    return lower  # == paper's m (count of zero-share computers)


def optimized_fractions(network: HeterogeneousNetwork) -> np.ndarray:
    """Run Algorithm 1 and return α in the network's original speed order.

    The compiled scalar path (``optimized_alloc``) runs the numpy body
    below operation for operation — numpy's summation order included —
    so both return the same bits; the body runs when the kernel is
    unavailable or defers.
    """
    _require_usable(network)
    from ..sim import ckernel

    fn = ckernel.entry("alloc")
    if fn is not None:
        alphas = ckernel.optimized_alloc_c(
            fn, network.speeds, network.mu, network.arrival_rate, CUTOFF_RTOL
        )
        if alphas is not None:
            return alphas
    order = np.argsort(network.speeds, kind="stable")
    rates = network.service_rates()[order]
    lam = network.arrival_rate

    m = zero_share_cutoff(rates, lam)
    if m >= network.n:  # cannot happen for a stable system; guard anyway
        raise AssertionError("Algorithm 1 dropped every computer")

    active = rates[m:]
    sqrt_active = np.sqrt(active)
    c = (active.sum() - lam) / sqrt_active.sum()
    sorted_alphas = np.zeros(network.n)
    sorted_alphas[m:] = (active - sqrt_active * c) / lam

    alphas = np.empty(network.n)
    alphas[order] = sorted_alphas
    # The closed form sums to 1 exactly up to rounding; renormalize the
    # ~1e-16 drift so downstream validation is airtight.
    alphas = np.clip(alphas, 0.0, None)
    total = alphas.sum()
    if not np.isfinite(total) or total <= 0.0:
        # Catastrophic cancellation: the active numerators sum to λ
        # exactly in real arithmetic, but at λ below the rounding noise
        # of sᵢμ-sized terms every one of them can evaluate ≤ 0.  The
        # KKT point is then numerically indistinguishable from the
        # capacity-proportional split of the active set, so return that
        # instead of a NaN vector.
        sorted_alphas[m:] = active / active.sum()
        alphas[order] = sorted_alphas
        return alphas
    return alphas / total


class OptimizedAllocator(Allocator):
    """Allocator wrapper around Algorithm 1.

    Parameters
    ----------
    utilization_override:
        If given, compute the allocation *as if* the system utilization
        were this value (used by the Figure 6 sensitivity study where
        ρ is misestimated).  The analytical predictions in the returned
        :class:`AllocationResult` still use the *true* network.
    """

    name = "optimized"

    def __init__(self, utilization_override: float | None = None):
        if utilization_override is not None and not 0.0 < utilization_override < 1.0:
            raise ValueError(
                f"utilization_override must lie in (0, 1), got {utilization_override}"
            )
        self.utilization_override = utilization_override

    def compute(self, network: HeterogeneousNetwork) -> AllocationResult:
        model = network
        if self.utilization_override is not None:
            model = network.with_utilization(self.utilization_override)
        alphas = optimized_fractions(model)
        return AllocationResult(alphas=alphas, network=network, allocator_name=self.name)
