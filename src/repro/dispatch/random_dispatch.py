"""Random based job dispatching (Section 3.1).

Each arriving job is sent to computer cᵢ with probability αᵢ,
independently of everything else.  Combined with the weighted and
optimized allocations this yields the paper's WRAN and ORAN algorithms.
Its weakness — the motivation for Section 3.2 — is that the realized
fractions over short intervals fluctuate widely, so individual
computers see bursty substreams.
"""

from __future__ import annotations

import numpy as np

from .base import StaticDispatcher

__all__ = ["RandomDispatcher"]

#: Lazily imported repro.sim.ckernel module (function-level to keep the
#: dispatch package import-independent of the sim package).
_ck = None


def _ckernel():
    global _ck
    if _ck is None:
        from ..sim import ckernel

        _ck = ckernel
    return _ck


class RandomDispatcher(StaticDispatcher):
    """Probability-proportional random splitting driven by *rng*."""

    name = "random"

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.rng = rng
        self._cum: np.ndarray | None = None

    def _setup(self) -> None:
        # Inverse-CDF lookup over the cumulative fractions: a single
        # uniform per job, searchsorted for the branch.  Guarantees the
        # last bucket absorbs rounding so every draw maps to a computer.
        cum = np.cumsum(self.alphas)
        cum[-1] = 1.0
        self._cum = cum

    def select(self, size: float) -> int:
        cum = self._cum
        if cum is None:
            self._require_reset()
            raise AssertionError("unreachable")  # pragma: no cover
        return int(np.searchsorted(cum, self.rng.random(), side="right"))

    def select_batch(self, sizes: np.ndarray) -> np.ndarray:
        return self.select_batch_given(self.draw(np.asarray(sizes).size))

    def allocation_key(self) -> bytes:
        """Hashable fingerprint of the reset allocation — two random
        dispatchers with equal keys map equal uniforms to equal targets
        (the cell path memoizes the mapping on this)."""
        cum = self._cum
        if cum is None:
            self._require_reset()
            raise AssertionError("unreachable")  # pragma: no cover
        return cum.tobytes()

    def draw(self, n_jobs: int) -> np.ndarray:
        """The next ``n_jobs`` uniforms from this dispatcher's stream —
        exactly the draws :meth:`select_batch` would consume.  Under
        common random numbers every random dispatcher of one replication
        is built from an identical fresh "dispatch" substream, so one
        member's draws can stand in for every member's (the cell path
        exploits this to draw once per replication)."""
        return self.rng.random(int(n_jobs))

    def select_batch_given(self, u: np.ndarray) -> np.ndarray:
        """Map externally drawn uniforms to targets — bit-identical to
        :meth:`select_batch` consuming the same draws.

        The inverse-CDF lookup is an integer-valued upper-bound search,
        so the compiled mapper (when available) and numpy's
        ``searchsorted`` produce identical targets, ties included.
        """
        cum = self._cum
        if cum is None:
            self._require_reset()
            raise AssertionError("unreachable")  # pragma: no cover
        u = np.ascontiguousarray(u, dtype=float)
        ck = _ckernel()
        fn = ck.entry("map_uniform")
        if fn is not None:
            out = np.empty(u.size, dtype=np.int64)
            ck.map_uniform_c(fn, cum, u, out)
            return out
        return np.searchsorted(cum, u, side="right").astype(np.int64, copy=False)
