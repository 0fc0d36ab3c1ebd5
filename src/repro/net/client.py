"""Load-generator client: windows of arrivals, credit-based rate control.

The client walks a :class:`~repro.service.sources.JobSource` one
control window at a time with the exact call pattern of the in-process
loop (``jobs_until(end)`` at each
:func:`~repro.service.window.window_bounds` end), so the source's RNG
stream state — and therefore the offered stream — is identical between
a networked run and a :class:`SchedulerService` run of the same seed.

Rate control is a credit window: at most ``max_inflight`` submitted
windows may be unacknowledged per shard; a RESOLVE returns the credit.
``max_inflight = 1`` is the strict barrier mode the equivalence tests
pin; the overload drill raises it to prove the orchestrator's bounded
queue holds under a client pushing far ahead of the dispatch plane.

**Capacity-aware shard routing.**  With ``n_shards > 1`` each window's
jobs are split by a weighted round robin over the shards, driven by
the per-shard capacity weights the orchestrators publish (sum of
nominal speeds of each shard's live servers, carried on every RESOLVE
and moving only on membership edges).  The discretization is the same
virtual-deadline scheme as the Algorithm 2 sequence — each shard's
next job carries a deadline of ``(count+1)/fraction`` arrivals and the
earliest eligible deadline wins — so the split is deterministic,
CRN-stable, and never strays more than one job from the exact
fractional share (:class:`CapacityRouter`).  A capacity update takes
effect ``max_inflight`` windows after the window that published it:
that is the freshest window whose RESOLVEs are *guaranteed* banked
before the next submit on both transports, which keeps the split — and
therefore the per-shard reports — byte-identical between the
in-process and socket modes even under a pipelined client.

``split="even"`` keeps the legacy job-index interleave (job ``j`` to
shard ``j mod S``) — heterogeneity-blind, retained as the control arm
of the rebalanced-overload drill.

The client also tracks RESOLVE round-trip latency per shard ack in a
:class:`~repro.metrics.online.LatencyStats` (``rtt``): submit-to-RESOLVE
wall time, surfaced as p50/p99 by ``NetMetrics`` and ``bench --net``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..metrics.online import LatencyStats
from ..service.sources import JobSource
from ..service.window import window_bounds, window_count
from .protocol import Resolve, Submit

__all__ = ["CapacityRouter", "LoadClient"]


class CapacityRouter:
    """Deterministic weighted split of a job stream across shards.

    The same deadline discretization as the Algorithm 2 dispatch
    sequence: shard *s*'s ``c+1``-th job carries a virtual deadline of
    ``(c+1)/f_s`` arrivals, and every arriving job goes to the
    *eligible* shard with the earliest deadline (ties to the lowest
    index), where a shard is eligible once its fractional share has
    released the job (``c_s ≤ n·f_s`` after ``n`` jobs total).  The
    eligibility gate bounds over-service — a shard is only ever served
    at or below its exact share, so ``c_s ≤ n·f_s + 1`` — and
    earliest-deadline-first at total utilization one meets every
    deadline, bounding under-service (``c_s > n·f_s − 1``): each
    shard's count stays within one job of its exact fractional share
    ``n·f_s``, the bound the hypothesis suite pins.  (The plain
    largest-claim accumulator lacks the eligibility gate and can starve
    one of two equal-weight shards past a full job.)  The deadline
    state carries across windows, so the bound is global, not
    per-window.  Weight changes reset it (a new regime, like a
    dispatcher swap); identical weights are a no-op, so steady
    republication of an unchanged capacity never perturbs the split.
    """

    def __init__(self, weights):
        self.fractions: np.ndarray | None = None
        self.set_weights(weights)

    def set_weights(self, weights) -> bool:
        """Adopt *weights* (any positive scale); True if they changed."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError(f"weights must be finite and >= 0, got {w}")
        # The exactly rounded sum is independent of shard order, so each
        # shard's fraction depends on its own weight alone and permuting
        # the weights permutes the split.
        total = math.fsum(w)
        if total <= 0.0:
            raise ValueError("at least one weight must be positive")
        fractions = w / total
        if self.fractions is not None and np.array_equal(
            fractions, self.fractions
        ):
            return False
        self.fractions = fractions
        self._frac = [float(f) for f in fractions]
        self._inv = [1.0 / f if f > 0.0 else float("inf") for f in self._frac]
        self._active = [i for i, f in enumerate(self._frac) if f > 0.0]
        self._counts = [0] * fractions.size
        self._jobs = 0
        return True

    def route(self, count: int) -> np.ndarray:
        """Shard targets for the next *count* jobs of the stream."""
        targets = np.empty(int(count), dtype=np.int64)
        counts, frac, inv = self._counts, self._frac, self._inv
        for j in range(int(count)):
            n = self._jobs
            sel = -1
            best = 0.0
            for i in self._active:
                if counts[i] > n * frac[i]:  # share hasn't released it
                    continue
                d = (counts[i] + 1) * inv[i]
                if sel == -1 or d < best:
                    best, sel = d, i
            if sel == -1:
                # Float-rounding corner (Σf marginally < 1 can leave no
                # shard released): earliest deadline outright.
                for i in self._active:
                    d = (counts[i] + 1) * inv[i]
                    if sel == -1 or d < best:
                        best, sel = d, i
            counts[sel] += 1
            self._jobs = n + 1
            targets[j] = sel
        return targets


class LoadClient:
    """Sans-IO window submitter over a job source."""

    def __init__(
        self,
        source: JobSource,
        duration: float,
        control_period: float,
        *,
        n_shards: int = 1,
        max_inflight: int = 1,
        shard_weights=None,
        split: str = "capacity",
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if split not in ("capacity", "even"):
            raise ValueError(f"split must be 'capacity' or 'even', got {split!r}")
        self.source = source
        self.duration = float(duration)
        self.control_period = float(control_period)
        self.n_shards = int(n_shards)
        self.max_inflight = int(max_inflight)
        self.split = split
        if shard_weights is None:
            shard_weights = np.ones(self.n_shards)
        self.shard_weights = np.asarray(shard_weights, dtype=float)
        if self.shard_weights.size != self.n_shards:
            raise ValueError(
                f"shard_weights has {self.shard_weights.size} entries "
                f"for {self.n_shards} shards"
            )
        self.router = CapacityRouter(self.shard_weights)
        self.n_windows = window_count(self.duration, self.control_period)
        self.next_window = 0
        self.inflight = 0  # unacknowledged (window, shard) submits
        self.peak_inflight = 0  # in windows, max over the run
        self.acked_windows = 0
        self.resolves: list[Resolve] = []
        self.rtt = LatencyStats()  # submit → RESOLVE round trips
        self._acks_pending: dict[int, int] = {}
        self._submitted_at: dict[int, float] = {}
        #: Per-window published capacities: window → per-shard vector.
        self._capacities: dict[int, list[float]] = {}

    @property
    def done(self) -> bool:
        return self.acked_windows >= self.n_windows

    def can_submit(self) -> bool:
        """Whether the credit window admits another submit right now."""
        return (
            self.next_window < self.n_windows
            and len(self._acks_pending) < self.max_inflight
        )

    def _weights_for(self, k: int) -> np.ndarray:
        """Routing weights for window *k*: the freshest guaranteed set.

        The credit window proves every shard's RESOLVE for window
        ``k - max_inflight`` is banked before window ``k`` can be
        submitted — so that window's published capacities are the
        newest ones whose availability does not depend on socket
        timing.  Windows before the first guaranteed publication (and a
        degenerate all-zero publication, i.e. every bank dead) fall
        back to the initial nominal weights.
        """
        ref = k - self.max_inflight
        published = self._capacities.get(ref)
        if published is not None and sum(published) > 0.0:
            weights = np.asarray(published, dtype=float)
        else:
            weights = self.shard_weights
        # Drop publications too old to ever be referenced again.
        for w in [w for w in self._capacities if w < ref]:
            del self._capacities[w]
        return weights

    def next_submits(self) -> list[Submit] | None:
        """Produce window ``next_window``'s SUBMIT per shard, or None.

        Call only when :meth:`can_submit`; the transport awaits credit
        otherwise.  Consumes the job source — call exactly once per
        window, in order.
        """
        if self.next_window >= self.n_windows:
            return None
        k = self.next_window
        _, end = window_bounds(k, self.duration, self.control_period)
        times, sizes = self.source.jobs_until(end)
        final = k == self.n_windows - 1
        submits = []
        if self.split == "even" or self.n_shards == 1:
            for s in range(self.n_shards):
                submits.append(
                    Submit(
                        window=k,
                        times=times[s::self.n_shards],
                        sizes=sizes[s::self.n_shards],
                        final=final,
                    )
                )
        else:
            self.router.set_weights(self._weights_for(k))
            targets = self.router.route(times.size)
            for s in range(self.n_shards):
                idx = targets == s
                submits.append(
                    Submit(
                        window=k,
                        times=times[idx],
                        sizes=sizes[idx],
                        final=final,
                    )
                )
        self.next_window += 1
        self._acks_pending[k] = self.n_shards
        self._submitted_at[k] = time.perf_counter()
        self.inflight = len(self._acks_pending)
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        return submits

    def handle_resolve(self, msg: Resolve, shard: int = 0) -> None:
        """Bank one shard's RESOLVE; release the credit on the last."""
        remaining = self._acks_pending.get(msg.window)
        if remaining is None:
            raise RuntimeError(f"RESOLVE for unsubmitted window {msg.window}")
        self.resolves.append(msg)
        self.rtt.observe(
            max(0.0, time.perf_counter() - self._submitted_at[msg.window])
        )
        caps = self._capacities.setdefault(msg.window, [0.0] * self.n_shards)
        caps[int(shard)] = float(msg.capacity)
        if remaining == 1:
            del self._acks_pending[msg.window]
            del self._submitted_at[msg.window]
            self.acked_windows += 1
        else:
            self._acks_pending[msg.window] = remaining - 1
        self.inflight = len(self._acks_pending)
