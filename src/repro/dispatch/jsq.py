"""Power-of-d-choices dispatching — JSQ(d) with stale information.

An extension filling the spectrum between the paper's two endpoints:

* d = 1 is random dispatching (no information), and
* d = n is exactly the Dynamic Least-Load yardstick (full information),

while 1 < d < n samples d computers per job and picks the one with the
least *known* normalized load — the classic "power of two choices"
scheme, here driven by the same delayed load-update feedback as
Least-Load so its information is equally stale.  The extension bench
shows how much of Least-Load's advantage two samples already capture,
and where ORR (zero runtime information) sits against it.
"""

from __future__ import annotations

import numpy as np

from .base import Dispatcher

__all__ = ["PowerOfDChoicesDispatcher"]


class PowerOfDChoicesDispatcher(Dispatcher):
    """JSQ(d) over the scheduler's (stale) per-computer queue view.

    Ties on normalized load go to the fastest sampled computer, then
    lowest index.

    **Heterogeneity pitfall** — with *uniform* sampling
    (``weighted_sampling=False``) the offered load per speed class is
    proportional to head-count, not capacity: on a cluster whose slow
    machines outnumber their capacity share, JSQ(d) with small d is
    outright *unstable* (the extension bench demonstrates it).  The
    default samples computers with probability proportional to speed,
    which restores capacity-proportional offered load while keeping the
    d-sample advantage.
    """

    is_static = False

    def __init__(self, speeds, d: int, rng: np.random.Generator,
                 *, weighted_sampling: bool = True):
        super().__init__()
        self.speeds = np.asarray(speeds, dtype=float)
        if self.speeds.ndim != 1 or self.speeds.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(self.speeds <= 0):
            raise ValueError(f"speeds must be positive, got {self.speeds}")
        if not 1 <= d <= self.speeds.size:
            raise ValueError(
                f"d must lie in [1, {self.speeds.size}], got {d}"
            )
        self.d = int(d)
        self.rng = rng
        self.weighted_sampling = bool(weighted_sampling)
        self._sample_p = self.speeds / self.speeds.sum()
        suffix = "" if weighted_sampling else ",uniform"
        self.name = f"jsq({d}{suffix})"
        self._known_queue: np.ndarray | None = None

    def reset(self, alphas=None) -> None:
        """JSQ ignores workload fractions; *alphas* may be None."""
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
        n = self.speeds.size
        if self.d == n:
            sample = np.arange(n)
        elif self.weighted_sampling:
            sample = self.rng.choice(n, size=self.d, replace=False, p=self._sample_p)
        else:
            sample = self.rng.choice(n, size=self.d, replace=False)
        normalized = (q[sample] + 1) / self.speeds[sample]
        best = normalized.min()
        candidates = sample[normalized == best]
        choice = int(candidates[np.argmax(self.speeds[candidates])])
        q[choice] += 1
        return choice

    def on_load_update(self, server: int) -> None:
        q = self._queue()
        if not 0 <= server < q.size:
            raise IndexError(f"server index {server} out of range")
        if q[server] <= 0:
            raise RuntimeError(
                f"load update for server {server} with known queue already 0"
            )
        q[server] -= 1
