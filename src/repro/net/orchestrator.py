"""Orchestrator shard: Algorithm 2 dispatch over a message boundary.

One shard owns a subset of the server pool and runs the in-process
service's control window — the same
:class:`~repro.service.window.WindowStep` — with the window *replay*
moved behind DISPATCH/COMPLETE messages to server stubs.  SUBMIT runs
``admit → select_batch`` and partitions the admitted jobs by server
with the grouped replay's stable argsort; each stub replays its slice
with the bank's per-server Lindley recursion
(:func:`~repro.service.replay.lindley_window`); the last COMPLETE
closes a per-window barrier, and the replies, in server-index order,
are the replay's server-grouped arrays for ``fold`` and ``close``.
Sim-vs-live identity therefore holds by construction.  The shard is
sans-IO: handlers map one inbound message to outbound messages, and
both transports (deterministic in-process loop, asyncio sockets) drive
the same code.

Windows are processed strictly in order, one at a time — SUBMITs queue
in the transport while a window is in flight (that queue, plus the
client's credit window, is the backpressure story).  The dispatch
*decision* stays O(jobs) vectorized work per window; its wall-clock
cost is tracked per window in ``decision_latency`` and surfaced by
``repro bench --net`` as ``dispatch_ns_per_job``.

**Membership.**  A dead stub is detected by connection EOF (primary)
or heartbeat staleness (fallback); its pending slice is counted lost
(``on_failure="lose"`` semantics — the networked layer has no retry
path yet), the controller's failure detector is informed, and the next
boundary re-solve redistributes over the survivors via FA_ORR.  The
repair mirror: a restarted stub reconnects and sends a REGISTER naming
its rejoin window; the shard parks it (*registering*) and folds it back
into membership when that window's SUBMIT arrives — deferring to the
window boundary makes the rejoin land identically on both transports
regardless of when the REGISTER raced in.  Folding in runs
``mark_server_up`` with fresh estimates (*warming*: the server's speed
EWMA is reset so it re-enters at its nominal speed rather than a stale
pre-crash estimate), which dirties membership and forces the
out-of-band re-solve back to the full-bank optimum at the same
boundary.  Every RESOLVE publishes the shard's live capacity (sum of
nominal speeds of its up servers) for the client's capacity-aware
router, so both membership edges — kill and rejoin — reshape the
cross-shard split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..metrics.online import LatencyStats
from ..obs import counters
from ..service.controller import ControlDecision
from ..service.loop import ServiceConfig
from ..service.window import ServiceReport, WindowStep, window_bounds
from .protocol import (
    Complete,
    Dispatch,
    Heartbeat,
    Register,
    Resolve,
    Submit,
)

__all__ = ["OrchestratorShard", "shard_config"]


def shard_config(config: ServiceConfig, shard: int, n_shards: int) -> ServiceConfig:
    """The per-shard config: servers partitioned round-robin.

    Shard ``s`` of ``S`` owns global servers ``s, s+S, s+2S, ...`` —
    local index ``i`` is global ``s + i*S``.  Every other knob is
    inherited unchanged.
    """
    import dataclasses

    if not 0 <= shard < n_shards:
        raise ValueError(f"shard {shard} out of range for {n_shards} shards")
    speeds = tuple(config.speeds[shard::n_shards])
    if not speeds:
        raise ValueError(
            f"shard {shard} of {n_shards} owns no servers "
            f"(pool has {len(config.speeds)})"
        )
    return dataclasses.replace(config, speeds=speeds)


@dataclass
class _WindowState:
    """One in-flight window awaiting its COMPLETE barrier."""

    window: int
    start: float
    end: float
    offered: int
    adm_times: np.ndarray
    adm_sizes: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    final: bool
    expected: set[int] = field(default_factory=set)
    replies: dict[int, Complete] = field(default_factory=dict)
    lost: int = 0


class OrchestratorShard:
    """Sans-IO dispatch brain for one shard of the pool."""

    def __init__(self, config: ServiceConfig, *, shard_id: int = 0):
        self.config = config
        self.shard_id = int(shard_id)
        self.n = len(config.speeds)
        self.step = WindowStep(config)
        self.up = np.ones(self.n, dtype=bool)
        self.decisions: list[ControlDecision] = []
        self.decision_latency = LatencyStats()
        self.last_heartbeat: dict[int, float] = {}
        self.windows_done = 0
        self.finished = False
        self._pending: _WindowState | None = None
        #: Parked rejoins: server → its REGISTER, applied at the
        #: boundary of the window the registration names.
        self._rejoins: dict[int, Register] = {}

    @property
    def report(self) -> ServiceReport:
        return self.step.report

    def _bounds(self, k: int) -> tuple[float, float]:
        return window_bounds(k, self.config.duration, self.config.control_period)

    @property
    def busy(self) -> bool:
        """Whether a window is in flight (awaiting its barrier)."""
        return self._pending is not None

    @property
    def awaiting(self) -> set[int]:
        """Servers whose COMPLETE the in-flight window still awaits."""
        return set(self._pending.expected) if self._pending else set()

    # ------------------------------------------------------------------
    # Inbound handlers
    # ------------------------------------------------------------------

    def handle_submit(
        self, msg: Submit
    ) -> tuple[list[Dispatch], Resolve | None]:
        """Open window *msg.window*: decide placements, cut dispatches.

        Returns the per-server DISPATCH fan-out and — for a window with
        no live targets — the immediate RESOLVE.
        """
        if self._pending is not None:
            raise RuntimeError(
                f"window {self._pending.window} still in flight; the "
                "transport must serialize submits"
            )
        if self.finished:
            raise RuntimeError("shard already finalized")
        k = msg.window
        if self._rejoins:
            self._apply_rejoins(k)
        start, end = self._bounds(k)
        times = np.asarray(msg.times, dtype=float)
        sizes = np.asarray(msg.sizes, dtype=float)

        t0 = time.perf_counter()
        adm_times, adm_sizes = self.step.admit(times, sizes)
        targets = self.step.dispatcher.select_batch(adm_sizes)
        # Same stable group-by-server partition as the grouped replay.
        order = np.argsort(targets, kind="stable")
        bounds = np.searchsorted(targets[order], np.arange(self.n + 1))
        self.decision_latency.observe(
            time.perf_counter() - t0, jobs=int(adm_times.size)
        )

        state = _WindowState(
            window=k,
            start=start,
            end=end,
            offered=int(times.size),
            adm_times=adm_times,
            adm_sizes=adm_sizes,
            order=order,
            bounds=bounds,
            final=msg.final,
        )
        dispatches: list[Dispatch] = []
        for i in range(self.n):
            idx = order[bounds[i]:bounds[i + 1]]
            if idx.size == 0:
                continue
            if not self.up[i]:
                state.lost += int(idx.size)
                continue
            state.expected.add(i)
            dispatches.append(
                Dispatch(
                    window=k,
                    server=i,
                    times=tuple(adm_times[idx].tolist()),
                    sizes=tuple(adm_sizes[idx].tolist()),
                )
            )
        self._pending = state
        resolve = None
        if not state.expected:
            resolve = self._finalize_window()
        return dispatches, resolve

    def handle_complete(self, msg: Complete) -> Resolve | None:
        """Bank one stub's reply; close the window when all are in."""
        state = self._pending
        if state is None or msg.window != state.window:
            raise RuntimeError(
                f"unexpected COMPLETE for window {msg.window} "
                f"(pending: {None if state is None else state.window})"
            )
        if msg.server not in state.expected:
            raise RuntimeError(
                f"COMPLETE from server {msg.server} not awaited in "
                f"window {msg.window}"
            )
        state.expected.discard(msg.server)
        state.replies[msg.server] = msg
        if state.expected:
            return None
        return self._finalize_window()

    def handle_heartbeat(self, msg: Heartbeat) -> None:
        self.last_heartbeat[msg.server] = time.monotonic()

    def handle_register(self, msg: Register) -> None:
        """A stub announced itself: record it, park a rejoin if down.

        The initial hello (server already up) just refreshes the
        heartbeat registry.  A registration for a *down* server is the
        rejoin path: it is parked and folded into membership when the
        SUBMIT for ``msg.window`` arrives, so the membership edge lands
        at a deterministic window boundary on both transports no matter
        when the reconnection raced in.
        """
        if not 0 <= msg.server < self.n:
            raise ValueError(f"server {msg.server} out of range")
        nominal = float(self.config.speeds[msg.server])
        if float(msg.speed) != nominal:
            raise RuntimeError(
                f"server {msg.server} registered speed {msg.speed!r}, "
                f"config says {nominal!r} — speed vectors drifted between "
                "components"
            )
        self.last_heartbeat[msg.server] = time.monotonic()
        if self.up[msg.server]:
            return
        self._rejoins[msg.server] = msg
        counters.inc("net.server_register", state="parked")

    def _apply_rejoins(self, window: int) -> None:
        """Fold parked rejoins due at *window* back into membership.

        The repair mirror of :meth:`handle_server_down`: flip the
        shard-local up mask, then ``mark_server_up`` with fresh
        estimates — the warm-up guard resets the server's speed EWMA so
        it re-enters at nominal speed (a restarted process has no
        backlog and its pre-crash throughput is stale) — which dirties
        membership and forces the out-of-band full-bank re-solve at
        this window's boundary.
        """
        start, _ = self._bounds(window)
        for server in sorted(self._rejoins):
            if self._rejoins[server].window <= window:
                del self._rejoins[server]
                self.up[server] = True
                self.step.controller.mark_server_up(
                    server, start, fresh_estimates=True
                )
                counters.inc("net.server_rejoin")

    def live_capacity(self) -> float:
        """The shard's live capacity: nominal speeds of its up servers.

        Published on every RESOLVE for the client's capacity-aware
        router; moves only on membership edges.
        """
        return float(
            np.asarray(self.config.speeds, dtype=float)[self.up].sum()
        )

    def handle_server_down(self, server: int) -> Resolve | None:
        """Failure-detector input: *server* is gone (EOF or timeout).

        Marks it down for the controller's next boundary re-solve and
        converts its pending slice — if any — to losses; returns the
        RESOLVE when this completes the in-flight window's barrier.
        """
        if not 0 <= server < self.n:
            raise ValueError(f"server {server} out of range")
        if not self.up[server]:
            return None
        self.up[server] = False
        state = self._pending
        now = state.end if state is not None else self._bounds(self.windows_done)[0]
        self.step.controller.mark_server_down(server, now)
        counters.inc("net.server_down")
        if state is not None and server in state.expected:
            lo, hi = state.bounds[server], state.bounds[server + 1]
            state.lost += int(hi - lo)
            state.expected.discard(server)
            if not state.expected:
                return self._finalize_window()
        return None

    # ------------------------------------------------------------------
    # Window close-out
    # ------------------------------------------------------------------

    def _finalize_window(self) -> Resolve:
        """Gather the replies, fold and close the window, emit the RESOLVE.

        Replies in server-index order concatenate to the replay's
        server-grouped arrays; a lost slice contributes no witnesses and
        no response samples.
        """
        state = self._pending
        assert state is not None
        self._pending = None
        n_adm = int(state.adm_times.size)
        replies = [state.replies[i] for i in sorted(state.replies)]
        svc = np.concatenate([np.empty(0), *(r.service_times for r in replies)])
        dep = np.concatenate([np.empty(0), *(r.departures for r in replies)])
        if state.lost:
            # Survivors only: compacted server groups, and responses
            # reduced in server-grouped order.
            counters.inc("service.jobs_lost", value=int(state.lost))
            offsets = np.zeros(self.n + 1, dtype=np.int64)
            parts = [state.order[:0]]
            for i in sorted(state.replies):
                lo, hi = state.bounds[i], state.bounds[i + 1]
                parts.append(state.order[lo:hi])
                offsets[i + 1] = hi - lo
            np.cumsum(offsets, out=offsets)
            idx = np.concatenate(parts)
            response = dep - state.adm_times[idx]
            sizes = state.adm_sizes[idx]
        else:
            # Every slice is back: the replay's own grouping, with
            # departures scattered back to arrival order as the replay
            # returns them.
            idx, offsets = state.order, state.bounds
            departures = np.empty(n_adm)
            departures[idx] = dep
            response = departures - state.adm_times
            sizes = state.adm_sizes
        mrt, ratio = self.step.fold(
            state.adm_sizes[idx] / svc, offsets, response, sizes
        )
        decision = self.step.close(
            state.start, state.end, offered=state.offered, admitted=n_adm,
            mrt=mrt, ratio=ratio, completed=n_adm - state.lost,
            lost=state.lost, servers_up=int(self.up.sum()),
        )
        self.decisions.append(decision)
        self.windows_done += 1
        if state.final:
            self.report.clean_shutdown = True
            self.finished = True
        return Resolve(
            window=state.window,
            alphas=tuple(float(a) for a in decision.alphas),
            swapped=decision.swapped,
            reason=decision.reason,
            offered=state.offered,
            admitted=n_adm,
            shed=state.offered - n_adm,
            lost=state.lost,
            final=state.final,
            capacity=self.live_capacity(),
        )
