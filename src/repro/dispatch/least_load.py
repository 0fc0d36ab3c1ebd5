"""Dynamic Least-Load dispatching — the paper's dynamic yardstick.

The central scheduler tracks each computer's run-queue length *as known
to it*.  An arriving job goes to the computer minimizing the normalized
load ``(run_queue_length + 1) / speed`` (Section 2.2).  Bookkeeping
follows Section 4.2 exactly:

* **Arrival** — the scheduler increments the target's known queue length
  immediately after sending the job (no rescheduling, so the information
  is locally exact).
* **Departure** — the *computer* must notice the completion (it polls
  its load index every second → U(0, 1) detection delay) and then send a
  load-update message (exponential transfer delay, mean 0.05 s).  Only
  when the message arrives does the scheduler decrement its view.

The delays make the scheduler's view stale, which is what keeps this an
honest dynamic baseline rather than an oracle.  The simulation engine
owns the delay machinery (:mod:`repro.sim.feedback`) and calls
:meth:`LeastLoadDispatcher.on_load_update` on message arrival.
"""

from __future__ import annotations

import numpy as np

from .base import Dispatcher

__all__ = ["LeastLoadDispatcher"]


class LeastLoadDispatcher(Dispatcher):
    """Least normalized-load policy over the scheduler's (stale) view.

    Ties on the normalized load are broken toward the fastest computer
    (it clears the extra job soonest), then lowest index for determinism.
    """

    name = "least_load"
    is_static = False

    def __init__(self, speeds):
        super().__init__()
        self.speeds = np.asarray(speeds, dtype=float)
        if self.speeds.ndim != 1 or self.speeds.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(self.speeds <= 0):
            raise ValueError(f"speeds must be positive, got {self.speeds}")
        self._known_queue: np.ndarray | None = None

    def reset(self, alphas=None) -> None:
        """Least-load ignores workload fractions; *alphas* may be None."""
        if alphas is None:
            self.alphas = np.full(self.speeds.size, 1.0 / self.speeds.size)
        else:
            super().reset(alphas)
            if self.alphas.size != self.speeds.size:
                raise ValueError(
                    f"{self.alphas.size} fractions for {self.speeds.size} speeds"
                )
        self._known_queue = np.zeros(self.speeds.size, dtype=np.int64)

    def _queue(self) -> np.ndarray:
        if self._known_queue is None:
            raise RuntimeError("reset() must be called before dispatching")
        return self._known_queue

    def select(self, size: float) -> int:
        q = self._queue()
        normalized = (q + 1) / self.speeds
        best = normalized.min()
        # Ties: fastest first, then lowest index.
        candidates = np.nonzero(normalized == best)[0]
        choice = int(candidates[np.argmax(self.speeds[candidates])])
        q[choice] += 1
        return choice

    def on_load_update(self, server: int) -> None:
        """A departure notification arrived: decrement the known load."""
        q = self._queue()
        if not 0 <= server < q.size:
            raise IndexError(f"server index {server} out of range")
        if q[server] <= 0:
            raise RuntimeError(
                f"load update for server {server} with known queue already 0 — "
                "feedback double-counted a departure"
            )
        q[server] -= 1
