"""Least-work dispatching — a richer load index than queue length.

The paper's Dynamic Least-Load uses the run-queue length, citing Kunz's
finding that it is a "simple and effective" load index (footnote 2).
This dispatcher implements the richer alternative for the load-index
ablation: the scheduler tracks each computer's *outstanding work* (sum
of the sizes of jobs it has sent that have not yet been confirmed done)
and routes to the computer with the least normalized outstanding work
``(W + size) / speed``.

Two flavours:

* ``use_sizes=True`` (clairvoyant): counts actual job sizes — an upper
  bound on what any practical index could know;
* ``use_sizes=False``: counts every job at the long-run mean size,
  which collapses to queue-length scheduling with a different tie
  structure — quantifying how much of the gap is *size information*
  rather than index form.

Like Least-Load, the index is stale: it decrements only when the
delayed departure message arrives.
"""

from __future__ import annotations

import numpy as np

from .base import Dispatcher

__all__ = ["LeastWorkDispatcher"]


class LeastWorkDispatcher(Dispatcher):
    """Least normalized outstanding-work policy with stale feedback."""

    is_static = False

    def __init__(self, speeds, *, use_sizes: bool = True, mean_size: float = 1.0):
        super().__init__()
        self.speeds = np.asarray(speeds, dtype=float)
        if self.speeds.ndim != 1 or self.speeds.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(self.speeds <= 0):
            raise ValueError(f"speeds must be positive, got {self.speeds}")
        if mean_size <= 0:
            raise ValueError(f"mean_size must be positive, got {mean_size}")
        self.use_sizes = bool(use_sizes)
        self.mean_size = float(mean_size)
        self.name = "least_work" if use_sizes else "least_count_work"
        self._known_work: np.ndarray | None = None
        # FIFO of dispatched sizes per computer so departures retire the
        # right amount of work (jobs complete out of order under PS, but
        # the *sum* is what matters; FIFO keeps the bookkeeping exact in
        # aggregate even if per-job attribution is approximate).
        self._pending: list[list[float]] | None = None

    def reset(self, alphas=None) -> None:
        if alphas is None:
            self.alphas = np.full(self.speeds.size, 1.0 / self.speeds.size)
        else:
            super().reset(alphas)
            if self.alphas.size != self.speeds.size:
                raise ValueError(
                    f"{self.alphas.size} fractions for {self.speeds.size} speeds"
                )
        self._known_work = np.zeros(self.speeds.size)
        self._pending = [[] for _ in range(self.speeds.size)]

    def _state(self):
        if self._known_work is None:
            raise RuntimeError("reset() must be called before dispatching")
        return self._known_work, self._pending

    def select(self, size: float) -> int:
        work, pending = self._state()
        counted = size if self.use_sizes else self.mean_size
        normalized = (work + counted) / self.speeds
        best = normalized.min()
        candidates = np.nonzero(normalized == best)[0]
        choice = int(candidates[np.argmax(self.speeds[candidates])])
        work[choice] += counted
        pending[choice].append(counted)
        return choice

    def on_load_update(self, server: int) -> None:
        work, pending = self._state()
        if not 0 <= server < work.size:
            raise IndexError(f"server index {server} out of range")
        if not pending[server]:
            raise RuntimeError(
                f"load update for server {server} with no outstanding jobs"
            )
        done = pending[server].pop(0)
        work[server] = max(work[server] - done, 0.0)
