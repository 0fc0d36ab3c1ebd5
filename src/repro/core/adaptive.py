"""Adaptive ORR — periodic re-estimation of the system utilization.

The paper's Section 5.4 establishes two operational facts: (a) a
long-run average utilization suffices to run ORR, and (b) estimates
should be padded *upward* because underestimation is dangerous.  This
extension turns those facts into a controller for workloads whose load
level drifts (e.g. the diurnal cycles of
:mod:`repro.sim.modulated`):

* the scheduler observes only what it already sees — arrival instants
  and job sizes — and accumulates the offered work per estimation
  window;
* at each window boundary it forms ρ̂ = (work arrived)/(capacity ×
  window), smooths it with an EWMA, pads it by a safety margin, and
  recomputes Algorithm 1's fractions;
* dispatching between updates is plain Algorithm 2 round robin on the
  current fractions.

No inter-computer communication is introduced — the controller remains
a *static* scheme in the paper's sense (it never reads remote state),
merely one that refreshes its single input periodically.
"""

from __future__ import annotations

import numpy as np

from ..allocation.optimized import optimized_fractions
from ..allocation.perturbed import clamp_estimated_utilization
from ..dispatch.base import Dispatcher
from ..dispatch.round_robin import RoundRobinDispatcher
from ..queueing.network import HeterogeneousNetwork

__all__ = ["AdaptiveOrrDispatcher"]


class AdaptiveOrrDispatcher(Dispatcher):
    """Round-robin dispatcher with windowed utilization re-estimation.

    Parameters
    ----------
    speeds:
        Relative computer speeds.
    update_interval:
        Seconds between allocation recomputations.  Should be much
        larger than the mean inter-arrival time (the window needs enough
        jobs for a stable estimate) and smaller than the load cycle it
        is meant to track.
    safety_margin:
        Relative pad applied to the estimate (ρ̂ × (1 + margin)) —
        the paper's "conservatively overestimate" advice.
    ewma_weight:
        Weight of the newest window in the exponential smoothing;
        1.0 disables smoothing.
    initial_utilization:
        ρ̂ before the first window completes.
    """

    is_static = False  # needs wall-clock observation → event engine

    def __init__(
        self,
        speeds,
        *,
        update_interval: float = 3600.0,
        safety_margin: float = 0.05,
        ewma_weight: float = 0.5,
        initial_utilization: float = 0.5,
    ):
        super().__init__()
        self.speeds = np.asarray(speeds, dtype=float)
        if self.speeds.ndim != 1 or self.speeds.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(self.speeds <= 0):
            raise ValueError(f"speeds must be positive, got {self.speeds}")
        if update_interval <= 0:
            raise ValueError(f"update_interval must be positive, got {update_interval}")
        if safety_margin < 0:
            raise ValueError(f"safety_margin must be non-negative, got {safety_margin}")
        if not 0.0 < ewma_weight <= 1.0:
            raise ValueError(f"ewma_weight must lie in (0, 1], got {ewma_weight}")
        if not 0.0 < initial_utilization < 1.0:
            raise ValueError(
                f"initial_utilization must lie in (0, 1), got {initial_utilization}"
            )
        self.update_interval = float(update_interval)
        self.safety_margin = float(safety_margin)
        self.ewma_weight = float(ewma_weight)
        self.initial_utilization = float(initial_utilization)
        self.name = f"adaptive_orr({update_interval:g}s,+{safety_margin:.0%})"

        self._inner = RoundRobinDispatcher()
        self._capacity = float(self.speeds.sum())
        self._estimate = self.initial_utilization
        self._window_start = 0.0
        self._window_work = 0.0

    @property
    def wants_feedback(self) -> bool:
        return False  # arrival-driven only: still no load messages

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self, alphas=None) -> None:
        """*alphas* is ignored — the controller derives its own fractions."""
        self.alphas = None
        self._estimate = self.initial_utilization
        self._window_start = 0.0
        self._window_work = 0.0
        self._apply_estimate()

    def _apply_estimate(self) -> None:
        rho_hat = clamp_estimated_utilization(
            self._estimate * (1.0 + self.safety_margin)
        )
        network = HeterogeneousNetwork(self.speeds, utilization=rho_hat)
        fractions = optimized_fractions(network)
        self._inner.reset(fractions)
        self.alphas = fractions

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def observe_arrival(self, now: float) -> None:
        if now - self._window_start >= self.update_interval:
            elapsed = now - self._window_start
            window_rho = self._window_work / (elapsed * self._capacity)
            window_rho = min(max(window_rho, 1e-3), 2.0)  # sane bounds
            w = self.ewma_weight
            self._estimate = (1.0 - w) * self._estimate + w * window_rho
            self._window_start = now
            self._window_work = 0.0
            self._apply_estimate()

    def select(self, size: float) -> int:
        if self.alphas is None:
            raise RuntimeError("reset() must be called before dispatching")
        # The job's size is offered work for the *current* window.
        self._window_work += size
        return self._inner.select(size)
