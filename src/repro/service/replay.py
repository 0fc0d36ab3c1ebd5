"""Windowed FCFS replay with residual backlog carried across windows.

The offline fast path (:mod:`repro.sim.fastpath`) replays a *complete*
substream at once; the service dispatches in control windows, so each
server's queue state must survive the window boundary.  The only state
FCFS needs is the time the server frees up: with per-window arrival
times t, service demands ``svc = size/speed``, and carried ``free_at``,
the Lindley recursion vectorizes as

    dep_j = cum_j + max( free_at, max_{k≤j}( t_k − cum_{k−1} ) )

where ``cum`` is the running sum of svc
(:func:`~repro.sim.fastpath.lindley_window`).  Replaying one stream in
windows agrees with replaying it whole to float-rounding accuracy (the
window split re-bases the cumulative sums), which lets the oracle
comparison in the online experiments attribute MRT differences to the
*allocation*, not the replay.

**Failure support.**  The fault-tolerant serving path needs more than
``free_at``: a down server must reject dispatches and bounce its
resident jobs, and a degraded server stretches everything still in
flight.  In fault mode the bank therefore tracks each in-flight job
(origin arrival, size, service time, projected departure, failed
placements) as a float64 record in a per-server array FIFO whose
departure projections stay valid until a fault event rewrites them.
Every call works on a whole fault segment (the jobs between two fault
events), not on one job:

* :meth:`dispatch` queues a segment's jobs in one compiled call
  (``fcfs_dispatch_segment``) through the step
  ``max(free_at, t) + size/speed`` — a max-plus step in the per-job
  float order, not the cumulative-sum :func:`lindley_window`, which
  rounds differently; jobs aimed at a down server come back NaN,
* :meth:`collect_completions` finalizes jobs whose departure has
  passed, one ``searchsorted`` per server,
* :meth:`fail` / :meth:`repair` flip membership, bouncing residents,
* :meth:`set_speed_factor` rescales in-flight work for degradation —
  for FCFS everything after *now* on one server is service work at the
  new speed, so ``dep' = now + (dep − now)·(s_old/s_new)`` is exact.

The fault-free :meth:`replay_window` path is untouched, keeping
fault-free service runs bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from ..sim import ckernel
from ..sim.fastpath import group_by_server, lindley_window

__all__ = ["ServerBank"]

#: In-flight record layout: [origin, size, svc, dep, attempts].
_ORIGIN, _SIZE, _SVC, _DEP, _ATTEMPTS = range(5)


class ServerBank:
    """Per-server FCFS queues whose backlog persists across windows."""

    def __init__(self, speeds):
        s = np.asarray(speeds, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(s <= 0):
            raise ValueError(f"speeds must be positive, got {s}")
        self.speeds = s.copy()
        self.free_at = np.zeros(s.size)
        self.up = np.ones(s.size, dtype=bool)
        self.speed_factor = np.ones(s.size)
        self._inflight = [_Fifo() for _ in range(s.size)]

    @property
    def n(self) -> int:
        return int(self.speeds.size)

    def replay_window(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Process one window of dispatched jobs; update server state.

        Returns ``(departures, service_times)`` aligned with the input
        arrival order.  ``times`` must be non-decreasing and must not
        precede any earlier window.

        Validating compatibility wrapper around
        :meth:`replay_window_grouped`; the returned arrays are fresh
        copies the caller may keep across windows.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=float)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        if not (targets.shape == times.shape == sizes.shape):
            raise ValueError("targets, times, and sizes must align")
        departures, service_times, _, _ = self.replay_window_grouped(
            targets, times, sizes
        )
        return departures.copy(), service_times.copy()

    def replay_window_grouped(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The serve hot path: one window in one compiled call.

        Inputs must be contiguous, shape-aligned arrays (int64 targets,
        float64 times/sizes) — the service loop guarantees this, so the
        per-window cost carries no re-validation or conversion.  Returns
        ``(departures, service_times, order, offsets)``: the first two
        in arrival order, ``order`` the stable group-by-server
        permutation and ``offsets`` the per-server group bounds
        (length ``n + 1``), which callers reuse to fold per-server
        speed witnesses without a second argsort.

        All four arrays are views of per-process arena buffers —
        consume them before the next replay call, never store them
        (:meth:`replay_window` copies for callers that accumulate).
        The compiled carry-state sweep (``fcfs_window_sweep``) and the
        numpy fallback compute identical bits; either updates
        ``free_at`` in place.
        """
        n = times.size
        a = ckernel.arena()
        if n == 0:
            offsets = a.i64("window.offsets", self.n + 1)
            offsets[:] = 0
            return (
                a.f64("window.dep", 0),
                a.f64("window.svc", 0),
                a.i64("window.order", 0),
                offsets,
            )
        fn = ckernel.window_fn()
        if fn is not None:
            dep, svc, order, offsets, ok = ckernel.replay_window_c(
                fn, times, sizes, self.speeds, targets, self.free_at
            )
            if not ok:
                # The kernel validates every target before touching any
                # state, so free_at is intact here.
                raise ValueError("dispatch target out of range")
            return dep, svc, order, offsets
        return self._replay_grouped_python(targets, times, sizes)

    def _replay_grouped_python(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Numpy fallback of :meth:`replay_window_grouped` (same bits).

        :func:`~repro.sim.fastpath.lindley_window` per server, with the
        server's carried ``free_at``.  Kept separate so the bit-identity
        property tests can pin the two paths against each other.
        """
        n = times.size
        a = ckernel.arena()
        departures = a.f64("window.dep", n)
        service_times = a.f64("window.svc", n)
        order, bounds = group_by_server(targets, self.n)
        for i in range(self.n):
            idx = order[bounds[i]:bounds[i + 1]]
            if idx.size == 0:
                continue
            dep, svc, self.free_at[i] = lindley_window(
                times[idx], sizes[idx], self.speeds[i], self.free_at[i]
            )
            departures[idx] = dep
            service_times[idx] = svc
        order_out = a.i64("window.order", n)
        np.copyto(order_out, order)
        offsets = a.i64("window.offsets", self.n + 1)
        np.copyto(offsets, bounds)
        return departures, service_times, order_out, offsets

    def backlog_at(self, now: float) -> np.ndarray:
        """Remaining busy time per server as of *now* (≥ 0)."""
        return np.maximum(self.free_at - float(now), 0.0)

    # ------------------------------------------------------------------
    # Fault-mode API (segment calls over per-job records; replay_window
    # stays untouched)
    # ------------------------------------------------------------------

    def effective_speed(self, server: int) -> float:
        return float(self.speeds[server] * self.speed_factor[server])

    def dispatch(
        self,
        targets: np.ndarray,
        times: np.ndarray,
        sizes: np.ndarray,
        origins: np.ndarray,
        attempts: np.ndarray,
    ) -> np.ndarray:
        """Queue one fault segment's jobs; their departures, NaN if bounced.

        The jobs (aligned arrays, ``times`` non-decreasing) go to their
        ``targets`` in arrival order, each through the step
        ``max(free_at, t) + size/speed`` at the server's effective
        speed.  A job aimed at a down server is refused: its departure
        reads NaN and nothing is queued.  ``origins`` are the jobs'
        first arrival times (response times span retries) and
        ``attempts`` their failed placements so far.

        Raises ``ValueError`` on an out-of-range target before any
        state changes.  The returned array may be an arena view:
        consume it before the next call.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=float)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        if not (
            targets.shape == times.shape == sizes.shape
            == np.shape(origins) == np.shape(attempts)
        ):
            raise ValueError("targets, times, sizes, origins and attempts must align")
        eff = self.speeds * self.speed_factor
        fn = ckernel.segment_fn()
        if fn is not None:
            dep, svc, order, offsets, ok = ckernel.dispatch_segment_c(
                fn, times, sizes, eff, self.up, targets, self.free_at
            )
            if not ok:
                raise ValueError("dispatch target out of range")
        else:
            # Validates every target before the step writes anything.
            order, offsets = group_by_server(targets, self.n)
            dep, svc = self._dispatch_python(targets, times, sizes, eff)
        # Queue the accepted jobs server by server: a job bounces iff
        # its server is down, so a down server's whole group is skipped.
        records = np.stack([origins, sizes, svc, dep, attempts])[:, order]
        for s in np.flatnonzero(self.up & (offsets[1:] > offsets[:-1])):
            lo, hi = offsets[s], offsets[s + 1]
            self._inflight[s].push(records[:, lo:hi])
        return dep

    def _dispatch_python(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray,
        eff: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interpreted fallback of the compiled segment step (same bits)."""
        eff_l = eff.tolist()
        up = self.up.tolist()
        free_at = self.free_at.tolist()
        deps = []
        svcs = []
        for s, t, w in zip(targets.tolist(), times.tolist(), sizes.tolist()):
            v = w / eff_l[s]
            svcs.append(v)
            if not up[s]:
                deps.append(math.nan)
                continue
            d = max(free_at[s], t) + v
            deps.append(d)
            free_at[s] = d
        self.free_at[:] = free_at
        return np.array(deps, dtype=float), np.array(svcs, dtype=float)

    def collect_completions(self, now: float) -> np.ndarray:
        """Finalize jobs whose departure is ≤ *now*.

        Returns an ``(m, 5)`` float64 array of ``(server, origin, size,
        svc, dep)`` rows in server-major, per-server FIFO order — a
        fixed, documented order so downstream streaming estimators stay
        deterministic.
        """
        now = float(now)
        parts = []
        total = 0
        for i, q in enumerate(self._inflight):
            rec = q.pop_until(now)
            if rec is not None:
                parts.append((i, rec))
                total += rec.shape[1]
        done = np.empty((total, 5))
        row = 0
        for i, rec in parts:
            m = rec.shape[1]
            done[row:row + m, 0] = i
            done[row:row + m, 1:] = rec[:_ATTEMPTS].T
            row += m
        return done

    def fail(self, server: int, now: float) -> np.ndarray:
        """Take *server* down at *now*; bounce its unfinished residents.

        Jobs already past their projected departure are finalized by the
        caller via :meth:`collect_completions` *before* applying the
        failure; everything still resident is returned, in FIFO order,
        as ``(m, 3)`` rows of ``(origin, size, attempts)`` for the retry
        policy to re-place.  The server rejoins empty on :meth:`repair`.
        """
        self.up[server] = False
        q = self._inflight[server]
        bounced = q.live()[[_ORIGIN, _SIZE, _ATTEMPTS]].T
        q.clear()
        self.free_at[server] = float(now)
        return bounced

    def repair(self, server: int, now: float) -> None:
        """Bring *server* back at *now*, empty (its backlog was bounced)."""
        self.up[server] = True
        self.free_at[server] = float(now)

    def set_speed_factor(self, server: int, now: float, factor: float) -> None:
        """Change *server*'s speed multiplier; rescale in-flight work.

        All work on one FCFS server after *now* is service time at the
        (old) effective speed, so departures and the free-up point shift
        affinely: ``x' = now + (x − now)·(s_old/s_new)``.  Recorded
        service times rescale by the same factor, so the speed
        estimator's witnesses reflect the degraded speed.
        """
        if factor <= 0.0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        now = float(now)
        old = self.effective_speed(server)
        self.speed_factor[server] = float(factor)
        scale = old / self.effective_speed(server)
        if scale == 1.0:
            return
        live = self._inflight[server].live()
        busy = live[_DEP] > now
        live[_DEP, busy] = now + (live[_DEP, busy] - now) * scale
        live[_SVC, busy] *= scale
        if self.free_at[server] > now:
            self.free_at[server] = now + (self.free_at[server] - now) * scale

    def inflight_count(self) -> int:
        return sum(len(q) for q in self._inflight)

    def state_dict(self) -> dict:
        return {
            "free_at": [float(x) for x in self.free_at],
            "up": [bool(u) for u in self.up],
            "speed_factor": [float(x) for x in self.speed_factor],
            # Per server, the 5-field records [origin, size, svc, dep,
            # attempts] with an int attempts count.
            "inflight": [
                [[*job[:_ATTEMPTS], int(job[_ATTEMPTS])]
                 for job in q.live().T.tolist()]
                for q in self._inflight
            ],
        }

    def load_state(self, state: dict) -> None:
        free_at = np.asarray(state["free_at"], dtype=float)
        if free_at.shape != self.free_at.shape:
            raise ValueError(
                f"bank state has {free_at.size} servers, expected {self.n}"
            )
        self.free_at = free_at
        self.up = np.asarray(state["up"], dtype=bool)
        self.speed_factor = np.asarray(state["speed_factor"], dtype=float)
        self._inflight = []
        for jobs in state["inflight"]:
            q = _Fifo()
            q.push(np.asarray(jobs, dtype=float).reshape(-1, 5).T)
            self._inflight.append(q)


class _Fifo:
    """One server's in-flight jobs: a float64 record FIFO.

    The live records are the columns ``buf[:, head:tail]`` (one row per
    field, :data:`_ORIGIN` … :data:`_ATTEMPTS`), oldest first.  Popping
    only advances ``head``; a push that would run past the end first
    compacts the live records to the front, and the capacity doubles
    only when the live records plus the new ones do not fit.
    """

    __slots__ = ("buf", "head", "tail")

    #: Initial capacity (records).
    _MIN_CAPACITY = 16

    def __init__(self):
        self.buf = np.empty((5, self._MIN_CAPACITY))
        self.head = 0
        self.tail = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def live(self) -> np.ndarray:
        """The live records, a writable ``(5, len)`` view."""
        return self.buf[:, self.head:self.tail]

    def push(self, records: np.ndarray) -> None:
        """Append ``(5, k)`` records after the live ones."""
        k = records.shape[1]
        buf = self.buf
        if self.tail + k > buf.shape[1]:
            live = self.tail - self.head
            if live + k > buf.shape[1]:
                grown = np.empty((5, max(2 * buf.shape[1], live + k)))
                grown[:, :live] = buf[:, self.head:self.tail]
                self.buf = buf = grown
            else:
                buf[:, :live] = buf[:, self.head:self.tail]
            self.head = 0
            self.tail = live
        buf[:, self.tail:self.tail + k] = records
        self.tail += k

    def pop_until(self, now: float) -> np.ndarray | None:
        """Pop the records with ``dep <= now``; a view, or None if none.

        Departures are non-decreasing along the FIFO, so the finished
        records are its prefix.  The view stays valid until the next
        :meth:`push`.
        """
        head = self.head
        if head == self.tail or self.buf[_DEP, head] > now:
            return None
        k = int(np.searchsorted(
            self.buf[_DEP, head:self.tail], now, side="right"
        ))
        self.head = head + k
        return self.buf[:, head:head + k]

    def clear(self) -> None:
        self.head = 0
        self.tail = 0
