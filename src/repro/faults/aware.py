"""Failure-aware dispatching: re-solve the allocation over survivors.

The paper's static policies fix the workload fractions α once, from the
full machine set.  When servers fail that allocation keeps shipping
work to dead machines (the *oblivious* mode).  The failure-aware mode
wraps any allocator-backed static policy: on each detected membership
change it re-solves the Theorem 1–3 allocation over the surviving
machine set — Algorithm 1 on the surviving sub-network — and resets the
inner dispatcher with the new fractions, which rebuilds the weighted
round-robin sequence (Algorithm 2 state) from scratch.

The controller stays *static* in the paper's sense between membership
changes: no per-job feedback, no inter-computer messages — it only
reacts to the (rare) failure/repair notifications the engine delivers.
If the surviving capacity cannot carry the offered load (ρ over the
survivors ≥ 1) no finite-response allocation exists; the wrapper falls
back to capacity-proportional (weighted) fractions over the survivors,
which at least balances the overload.
"""

from __future__ import annotations

import numpy as np

from ..allocation.base import Allocator
from ..dispatch.base import Dispatcher
from ..queueing.network import HeterogeneousNetwork

__all__ = ["survivor_fractions", "FailureAwareDispatcher"]


def survivor_fractions(speeds, up, utilization, solve=None) -> np.ndarray | None:
    """Full-length allocation with zero share on every down server.

    The FA_ORR core, shared by the batch-engine
    :class:`FailureAwareDispatcher` and the service controller's
    failure detector: solve Theorems 1–3 over the surviving
    sub-network, scatter back into a full-length vector.  When the
    survivors cannot carry the load (``utilization`` outside (0, 1) or
    the solve degenerates) the fallback is capacity-proportional over
    the survivors, which at least balances the overload.  Returns
    ``None`` on total outage — no allocation exists and the caller
    should keep its current one.

    ``solve`` maps a :class:`HeterogeneousNetwork` to an alpha vector;
    it defaults to the closed-form
    :func:`~repro.allocation.optimized.optimized_fractions`, and then
    the whole re-solve — survivor subset, Algorithm 1, fallbacks and
    scatter — runs as one compiled scalar call (``survivor_alloc``)
    with the numpy body's bits; the body below runs without the kernel
    or when it defers.
    """
    up = np.asarray(up, dtype=bool)
    speeds = np.asarray(speeds, dtype=float)
    if up.shape != speeds.shape:
        raise ValueError(
            f"membership mask has {up.size} entries for {speeds.size} servers"
        )
    if solve is None:
        from ..allocation.optimized import CUTOFF_RTOL, optimized_fractions
        from ..sim import ckernel

        fn = ckernel.entry("survivors")
        if fn is not None and speeds.ndim == 1:
            status, full = ckernel.survivor_alloc_c(
                fn, speeds, up, utilization, CUTOFF_RTOL
            )
            if status != 2:
                return full
        solve = optimized_fractions
    survivors = np.flatnonzero(up)
    if survivors.size == 0:
        return None
    sub_speeds = speeds[survivors]
    sub_alphas = None
    if 0.0 < utilization < 1.0:
        try:
            network = HeterogeneousNetwork(sub_speeds, utilization=utilization)
            sub_alphas = solve(network)
        except ValueError:
            sub_alphas = None
    if sub_alphas is None:
        sub_alphas = sub_speeds / sub_speeds.sum()
    full = np.zeros(speeds.size)
    full[survivors] = sub_alphas
    return full


class FailureAwareDispatcher(Dispatcher):
    """Wrap a static dispatcher with membership-triggered re-allocation.

    Parameters
    ----------
    inner:
        The dispatcher realizing the allocation job-by-job (random or
        weighted round robin).  Delegation is total: between membership
        changes this wrapper is behaviourally identical to *inner*.
    allocator:
        The policy's allocator (e.g. ``OptimizedAllocator``), re-run on
        the surviving sub-network at each membership change.
    speeds:
        Nominal speeds of the full machine set.
    """

    name = "failure_aware"
    is_static = True

    def __init__(self, inner: Dispatcher, allocator: Allocator, speeds):
        super().__init__()
        self.inner = inner
        self.allocator = allocator
        self.speeds = np.asarray(speeds, dtype=float)
        self.reallocations = 0

    # -- lifecycle ------------------------------------------------------

    def reset(self, alphas) -> None:
        super().reset(alphas)
        self.inner.reset(alphas)
        self.reallocations = 0

    def _setup(self) -> None:  # inner reset handles state
        pass

    # -- delegation -----------------------------------------------------

    def select(self, size: float) -> int:
        return self.inner.select(size)

    def select_batch(self, sizes: np.ndarray) -> np.ndarray:
        return self.inner.select_batch(sizes)

    def observe_arrival(self, now: float) -> None:
        self.inner.observe_arrival(now)

    def on_load_update(self, server: int) -> None:
        self.inner.on_load_update(server)

    @property
    def wants_feedback(self) -> bool:
        return self.inner.wants_feedback

    # -- the failure-aware part ----------------------------------------

    def on_membership_change(
        self, up: np.ndarray, utilization: float, speeds=None
    ) -> None:
        """Re-solve the allocation over the machines currently up.

        ``utilization`` is the offered load relative to the *surviving*
        capacity; ``speeds`` are the (possibly drift-perturbed) speed
        estimates the controller sees — defaults to the nominal speeds.
        """
        perceived = self.speeds if speeds is None else np.asarray(speeds, dtype=float)
        full = survivor_fractions(
            perceived,
            up,
            utilization,
            solve=lambda network: self.allocator.compute(network).alphas,
        )
        if full is None:
            return  # total outage: keep the last allocation, jobs bounce
        self.alphas = full
        self.inner.reset(full)  # rebuilds the WRR sequence state
        self.reallocations += 1
