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
placements) as a five-double record in one float64 block for the whole
bank (:class:`~repro.sim.ckernel.InflightRings`): server ``s`` owns a
slot of ``cap`` records, its live records ``[head[s], tail[s])`` oldest
first, and their departure projections stay valid until a fault event
rewrites them.  :meth:`run_fault_window` runs a whole control window
in one compiled call (``fault_window``): its fault events cut it into
segments, and for each one it

* queues the segment's jobs through the step ``max(free_at, t) +
  size/speed`` — a max-plus step in the per-job float order, not the
  cumulative-sum :func:`lindley_window`, which rounds differently —
  pushing each accepted job's record onto its server's ring; a job
  aimed at a down server joins the window's bounce block instead,
* pops every record whose departure has passed by the event, all
  servers at once, onto the window's completion block, which
  :meth:`take_completions` hands over,
* applies the event: a failure bounces its server's residents, a
  repair brings the server back empty, and a speed change rescales
  in-flight work for degradation — for FCFS everything after *now* on
  one server is service work at the new speed, so ``dep' = now + (dep
  − now)·(s_old/s_new)`` is exact.

The kernel counts each server's jobs before it writes anything: a ring
whose records would run past its slot is compacted to the front, and
when the live records plus the new ones do not fit at all the call
writes nothing and the bank grows the block and calls again.  The
interpreted fallback runs the same window segment by segment over the
same arrays, through :meth:`dispatch`, :meth:`collect_completions`,
:meth:`fail`, :meth:`repair` and :meth:`set_speed_factor`.

The fault-free :meth:`replay_window_grouped` keeps the cumulative-sum
recursion above and only borrows the rings' scratch buffers, whose
addresses are cached.  It is the one FCFS window entry of the service
and of every network server stub, which is a one-server bank.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..sim import ckernel
from ..sim.fastpath import group_by_server, lindley_window

__all__ = ["ServerBank", "FaultWindow", "EVENT_DOWN", "EVENT_UP", "EVENT_SPEED"]

#: In-flight record layout: [origin, size, svc, dep, attempts].
_ORIGIN, _SIZE, _SVC, _DEP, _ATTEMPTS = range(5)

#: Event codes of a fault window's ``[time, code, server, factor]`` rows.
EVENT_DOWN, EVENT_UP, EVENT_SPEED = 0, 1, 2

_WINDOW_INPUT_ERROR = (
    "fault window input out of range: a target or event server outside "
    "the bank, an event time that is not finite, an unknown event code "
    "or a speed factor that is not positive and finite"
)


class FaultWindow(NamedTuple):
    """What :meth:`ServerBank.run_fault_window` hands back."""

    #: Each job's departure in job order, NaN for a bounced job.
    departures: np.ndarray
    #: Completion rows the window collected.
    completed: int
    #: ``(b, 4)`` rows ``[bounce time, origin, size, failed placements
    #: before this one]`` in bounce order.
    bounces: np.ndarray
    #: Per event, whether it changed membership.
    applied: np.ndarray
    #: Servers up at the window's end.
    servers_up: int


class ServerBank:
    """Per-server FCFS queues whose backlog persists across windows."""

    def __init__(self, speeds):
        s = np.asarray(speeds, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if not np.all(np.isfinite(s) & (s > 0)):
            raise ValueError(f"speeds must be positive and finite, got {s}")
        self.speeds = s.copy()
        self._free_at = np.zeros(s.size)
        self._up = np.ones(s.size, dtype=bool)
        self._speed_factor = np.ones(s.size)
        self._rings = ckernel.InflightRings(
            self.speeds, self._free_at, self._up, self._speed_factor
        )
        # Completion rows collected since the last take_completions(),
        # and how many of them the fold inputs in the rings cover (a
        # compiled window computes them; -1 when they are stale).
        self._ndone = 0
        self._folded = -1

    @property
    def n(self) -> int:
        return int(self.speeds.size)

    # The per-server vectors are updated in place only (never rebound):
    # the rings hold their addresses for the compiled calls.

    @property
    def free_at(self) -> np.ndarray:
        """Per-server instant the server frees up (writable in place)."""
        return self._free_at

    @property
    def up(self) -> np.ndarray:
        """Per-server membership mask (writable in place)."""
        return self._up

    @property
    def speed_factor(self) -> np.ndarray:
        """Per-server speed multiplier (writable in place)."""
        return self._speed_factor

    def replay_window_grouped(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Process one window of dispatched jobs; update server state.

        ``times`` must be non-decreasing and must not precede any
        earlier window.  The three inputs must have one shape; they are
        taken as contiguous int64 targets and float64 times/sizes,
        copied only when they are not that already (the service loop's
        own arrays are, and pass through as they are).  Returns ``(departures, service_times,
        order, offsets)``: the first two in arrival order, ``order``
        the stable group-by-server permutation and ``offsets`` the
        per-server group bounds (length ``n + 1``), which callers reuse
        to fold per-server speed witnesses without a second argsort.

        All four arrays are views of this bank's buffers, valid until
        its next :meth:`replay_window_grouped` or :meth:`dispatch` —
        consume or copy them first, never store them.  The compiled
        carry-state sweep (``fcfs_window_sweep``) and the numpy
        fallback compute identical bits; either updates ``free_at`` in
        place.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=np.float64)
        sizes = np.ascontiguousarray(sizes, dtype=np.float64)
        if not (targets.shape == times.shape == sizes.shape):
            raise ValueError("targets, times, and sizes must align")
        fn = ckernel.entry("window")
        if fn is None:
            return self._replay_grouped_python(targets, times, sizes)
        n = times.size
        r = self._rings
        r.reserve(n)
        if not ckernel.replay_window_c(fn, r, times, sizes, targets):
            # The kernel validates every target before touching any
            # state, so free_at is intact here.
            raise ValueError("dispatch target out of range")
        return r.dep[:n], r.svc[:n], r.order[:n], r.scratch[:self.n + 1]

    def _replay_grouped_python(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Numpy fallback of :meth:`replay_window_grouped` (same bits).

        :func:`~repro.sim.fastpath.lindley_window` per server, with the
        server's carried ``free_at``.  Kept separate so the bit-identity
        property tests can pin the two paths against each other.
        """
        n = times.size
        r = self._rings
        r.reserve(n)
        order, bounds = group_by_server(targets, self.n)
        for i in range(self.n):
            idx = order[bounds[i]:bounds[i + 1]]
            if idx.size == 0:
                continue
            r.dep[idx], r.svc[idx], self.free_at[i] = lindley_window(
                times[idx], sizes[idx], self.speeds[i], self.free_at[i]
            )
        r.order[:n] = order
        r.scratch[:self.n + 1] = bounds
        return r.dep[:n], r.svc[:n], r.order[:n], r.scratch[:self.n + 1]

    # ------------------------------------------------------------------
    # Fault-mode API (the in-flight rings)
    # ------------------------------------------------------------------

    def effective_speed(self, server: int) -> float:
        return float(self.speeds[server] * self.speed_factor[server])

    def run_fault_window(
        self,
        targets: np.ndarray,
        jobs: np.ndarray,
        events: np.ndarray,
        end: float,
    ) -> FaultWindow:
        """Run one fault-mode window: its segments and its fault events.

        ``jobs`` is a ``(4, k)`` float64 block of the window's jobs —
        rows time, origin (first arrival, as response times span
        retries), size and failed placements so far — with times
        non-decreasing, and ``targets`` their servers.  ``events`` is an
        ``(e, 4)`` float64 block of ``[time, code, server, factor]``
        rows, times non-decreasing: code :data:`EVENT_DOWN` takes the
        server down, :data:`EVENT_UP` brings it back and
        :data:`EVENT_SPEED` sets its speed factor to ``factor``.

        Each event closes a segment.  The jobs not yet placed whose time
        is at or before the event's (every job left, after the last
        event) are dispatched in arrival order, each through the step
        ``max(free_at, t) + size/speed`` at its server's effective
        speed; a job aimed at a down server bounces at its own time.
        Every record whose departure is at or before the event's time
        (``end``, after the last event) is then collected, and the event
        applies: a DOWN on an up server bounces its residents at the
        event's time in FIFO order (:meth:`fail`), an UP on a down
        server calls :meth:`repair`, a speed event
        :meth:`set_speed_factor`.  A DOWN on a down server and an UP on
        an up one change nothing.

        Returns a :class:`FaultWindow` of views of the bank's buffers,
        valid until the next window: consume them first.  The collected
        rows join the block :meth:`take_completions` hands over.  With
        the compiled kernel the whole window is one call; the fallback
        runs the per-segment loop of the interpreted segment step,
        :meth:`collect_completions`, :meth:`fail`, :meth:`repair` and
        :meth:`set_speed_factor` and writes the same bits.  A target or
        event server outside the bank, an event time that is not finite,
        an unknown code or a speed factor that is not positive and
        finite raises ``ValueError`` before any state changes.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        jobs = np.ascontiguousarray(jobs, dtype=np.float64)
        events = np.ascontiguousarray(events, dtype=np.float64)
        k = targets.size
        if jobs.shape != (4, k) or events.ndim != 2 or events.shape[1] != 4:
            raise ValueError("jobs must be a (4, k) block for k targets and "
                             "events an (e, 4) block")
        r = self._rings
        nev = len(events)
        row = self._ndone
        end = float(end)
        r.reserve_window(row, k, nev)
        fn = ckernel.entry("fault_window")
        if fn is None:
            return self._fault_window_python(targets, jobs, events, end)
        status = ckernel.fault_window_c(fn, r, jobs, targets, events, end, row)
        if status == 2:
            # Nothing was written: grow to fit the counted jobs, retry.
            self._make_room(r.scratch[:self.n])
            r.reserve_window(row, k, nev)
            status = ckernel.fault_window_c(fn, r, jobs, targets, events,
                                            end, row)
        if status:
            raise ValueError(_WINDOW_INPUT_ERROR)
        m, b, up = r.window_out.tolist()
        self._ndone = self._folded = row + m
        return FaultWindow(r.dep[:k], m, r.bounce[:b], r.applied[:nev], up)

    def _fault_window_python(
        self, targets: np.ndarray, jobs: np.ndarray, events: np.ndarray,
        end: float,
    ) -> FaultWindow:
        """Interpreted fallback of the compiled window: the per-segment
        loop, writing the same departures, rows, flags and bank state."""
        n = self.n
        time, code, server, factor = events.T
        speed = code == EVENT_SPEED
        if (
            (targets.size and not 0 <= targets.min() <= targets.max() < n)
            or not np.all(np.isfinite(time))
            or not np.all((code == EVENT_DOWN) | (code == EVENT_UP) | speed)
            or not np.all((server >= 0) & (server < n)
                          & (server == np.floor(server)))
            or not np.all((factor[speed] > 0) & (factor[speed] < math.inf))
        ):
            raise ValueError(_WINDOW_INPUT_ERROR)
        r = self._rings
        times, origins, sizes, attempts = jobs
        k = times.size
        dep = r.dep[:k]
        applied = r.applied[:len(events)]
        bounces = []
        completed = pos = 0
        evs = events.tolist()
        for e in range(len(evs) + 1):
            last = e == len(evs)
            now = end if last else evs[e][0]
            stop = k if last else int(np.searchsorted(times, now, side="right"))
            if stop > pos:
                seg = slice(pos, stop)
                self._dispatch_python(targets[seg], times[seg], sizes[seg],
                                      origins[seg], attempts[seg], dep[seg])
                idx = np.flatnonzero(np.isnan(dep[seg])) + pos
                bounces.append(jobs[:, idx].T)
                pos = stop
            # Finalize everything that departed before the event: a
            # failure must not bounce jobs that already finished.
            completed += len(self.collect_completions(now))
            if last:
                break
            _, kind, s, f = evs[e]
            s = int(s)
            applied[e] = False
            if kind == EVENT_DOWN:
                if self.up[s]:
                    residents = self.fail(s, now)
                    bounces.append(np.column_stack(
                        [np.full(len(residents), now), residents]
                    ))
                    applied[e] = True
            elif kind == EVENT_UP:
                if not self.up[s]:
                    self.repair(s, now)
                    applied[e] = True
            else:
                self.set_speed_factor(s, now, f)
        b = sum(len(x) for x in bounces)
        if b:
            r.bounce[:b] = np.concatenate(bounces)
        return FaultWindow(dep, completed, r.bounce[:b], applied,
                           int(np.count_nonzero(self.up)))

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
        state changes.  The returned array is a view of the bank's
        scratch: consume it before the next call.  Interpreted: the
        service runs its segments through :meth:`run_fault_window`.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=float)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        origins = np.ascontiguousarray(origins, dtype=float)
        attempts = np.ascontiguousarray(attempts, dtype=np.int64)
        k = times.size
        if not (
            targets.shape == times.shape == sizes.shape == origins.shape
            == attempts.shape
        ):
            raise ValueError("targets, times, sizes, origins and attempts must align")
        r = self._rings
        r.reserve(k)
        return self._dispatch_python(targets, times, sizes, origins, attempts,
                                     r.dep[:k])

    def _make_room(self, counts: np.ndarray) -> None:
        """Fit ``counts`` more records on every server.

        Grows the ring block (to at least double, every server's live
        records moved to the front of its slot) when some server's live
        records plus its new ones exceed the capacity, and otherwise
        compacts a server whose new records would run past the end of
        its slot.
        """
        r = self._rings
        recv = counts > 0
        need = int(((r.tail - r.head + counts)[recv]).max(initial=0))
        if need > r.cap:
            r.grow(max(need, 2 * r.cap))
        for s in np.flatnonzero(recv & (r.tail + counts > r.cap)).tolist():
            h, t = int(r.head[s]), int(r.tail[s])
            r.ring[s, :t - h] = r.ring[s, h:t]
            r.head[s] = 0
            r.tail[s] = t - h

    def _dispatch_python(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray,
        origins: np.ndarray, attempts: np.ndarray, dep: np.ndarray,
    ) -> np.ndarray:
        """The segment step, writing the departures into ``dep``."""
        # Validates every target before anything is written.
        order, offsets = group_by_server(targets, self.n)
        counts = offsets[1:] - offsets[:-1]
        self._make_room(counts)
        r = self._rings
        eff_l = (self.speeds * self.speed_factor).tolist()
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
        dep[:] = deps
        svc = np.array(svcs, dtype=float)
        # Push the accepted jobs server by server: a job bounces iff its
        # server is down, so a down server's whole group is skipped.
        for s in np.flatnonzero(self.up & (counts > 0)).tolist():
            idx = order[offsets[s]:offsets[s + 1]]
            t = int(r.tail[s])
            rec = r.ring[s, t:t + idx.size]
            rec[:, _ORIGIN] = origins[idx]
            rec[:, _SIZE] = sizes[idx]
            rec[:, _SVC] = svc[idx]
            rec[:, _DEP] = dep[idx]
            rec[:, _ATTEMPTS] = attempts[idx]
            r.tail[s] = t + idx.size
        return dep

    def collect_completions(self, now: float) -> np.ndarray:
        """Finalize jobs whose departure is ≤ *now*.

        Returns an ``(m, 5)`` float64 array of ``(server, origin, size,
        svc, dep)`` rows in server-major, per-server FIFO order — a
        fixed, documented order so downstream streaming estimators stay
        deterministic.  The rows are appended to the window's
        completion block (:meth:`take_completions`); the returned array
        is a view of them.  Interpreted, like :meth:`dispatch`.
        """
        r = self._rings
        row = self._ndone
        # Room for every live record.
        r.reserve_done(row, self.n * r.cap)
        m = 0
        for s in range(self.n):
            h, t = int(r.head[s]), int(r.tail[s])
            # Departures do not decrease along a ring: the finished
            # records are its prefix.
            k = int(np.searchsorted(r.ring[s, h:t, _DEP], now, side="right"))
            out = r.done[row + m:row + m + k]
            out[:, 0] = s
            out[:, 1:] = r.ring[s, h:h + k, :_ATTEMPTS]
            m += k
            if h + k == t:
                r.head[s] = r.tail[s] = 0
            else:
                r.head[s] = h + k
        self._ndone = row + m
        return r.done[row:row + m]

    def take_completions(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows collected since the last take, and their fold inputs.

        Returns ``(rows, witnesses, offsets, responses)``: the ``(m, 5)``
        rows in collect order; their speed witnesses ``size / svc``
        regrouped by server — stable, so server ``s`` owns
        ``witnesses[offsets[s]:offsets[s + 1]]`` in collect order; and
        their response times ``dep − origin`` in row order.  All four
        are views of the bank's buffers, which the next
        :meth:`collect_completions` starts refilling: consume them
        first.
        """
        r = self._rings
        m = self._ndone
        self._ndone = 0
        rows = r.done[:m]
        folded, self._folded = self._folded, -1
        if folded == m:
            # A compiled window computed them with its collects.
            return rows, r.wit[:m], r.fold_scratch[:self.n + 1], r.resp[:m]
        srv, origin, size, svc, dep = rows.T
        order, offsets = group_by_server(srv.astype(np.int64), self.n)
        return rows, (size / svc)[order], offsets, dep - origin

    def fail(self, server: int, now: float) -> np.ndarray:
        """Take *server* down at *now*; bounce its unfinished residents.

        Jobs already past their projected departure are finalized by the
        caller via :meth:`collect_completions` *before* applying the
        failure; everything still resident is returned, in FIFO order,
        as ``(m, 3)`` rows of ``(origin, size, attempts)`` for the retry
        policy to re-place.  The server rejoins empty on :meth:`repair`.
        """
        self.up[server] = False
        r = self._rings
        h, t = int(r.head[server]), int(r.tail[server])
        bounced = r.ring[server, h:t][:, [_ORIGIN, _SIZE, _ATTEMPTS]]
        r.head[server] = r.tail[server] = 0
        self.free_at[server] = float(now)
        return bounced

    def repair(self, server: int, now: float) -> None:
        """Bring *server* back at *now*, empty (its backlog was bounced).

        Raises ``ValueError``, changing nothing, when *server* is up:
        rewinding a live server's ``free_at`` would let a later job
        depart before the jobs already queued on it.
        """
        if self.up[server]:
            raise ValueError(f"server {server} is up; only a down server "
                             "can be repaired")
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
        if not 0.0 < factor < math.inf:
            raise ValueError(f"speed factor must be positive and finite, got {factor}")
        now = float(now)
        old = self.effective_speed(server)
        self.speed_factor[server] = float(factor)
        scale = old / self.effective_speed(server)
        if scale == 1.0:
            return
        live = self._live(server)
        busy = live[:, _DEP] > now
        live[busy, _DEP] = now + (live[busy, _DEP] - now) * scale
        live[busy, _SVC] *= scale
        if self.free_at[server] > now:
            self.free_at[server] = now + (self.free_at[server] - now) * scale

    def _live(self, server: int) -> np.ndarray:
        """*server*'s live records, a writable ``(k, 5)`` view."""
        r = self._rings
        return r.ring[server, int(r.head[server]):int(r.tail[server])]

    def inflight_count(self) -> int:
        r = self._rings
        return int((r.tail - r.head).sum())

    def state_dict(self) -> dict:
        return {
            "free_at": [float(x) for x in self.free_at],
            "up": [bool(u) for u in self.up],
            "speed_factor": [float(x) for x in self.speed_factor],
            # Per server, the 5-field records [origin, size, svc, dep,
            # attempts] with an int attempts count.
            "inflight": [
                [[*job[:_ATTEMPTS], int(job[_ATTEMPTS])]
                 for job in self._live(s).tolist()]
                for s in range(self.n)
            ],
        }

    def load_state(self, state: dict) -> None:
        """Adopt a :meth:`state_dict`, validated in full before any of it.

        Every vector must have one entry per server, speed factors must
        be positive, and each server's in-flight list must hold 5-field
        records with finite departures that do not decrease and
        non-negative integral attempt counts.  A ``ValueError`` names
        the field (and the server) that does not fit the bank.
        """
        n = self.n
        vectors = {
            name: _vector(state, name, dtype, n)
            for name, dtype in
            (("free_at", float), ("up", bool), ("speed_factor", float))
        }
        factors = vectors["speed_factor"]
        if not np.all(np.isfinite(factors) & (factors > 0)):
            raise ValueError(
                f"bank state speed_factor must be positive and finite, "
                f"got {factors.tolist()}"
            )
        inflight = state["inflight"]
        if len(inflight) != n:
            raise ValueError(
                f"bank state inflight has {len(inflight)} servers, expected {n}"
            )
        records = [_records(jobs, s) for s, jobs in enumerate(inflight)]
        self.free_at[:] = vectors["free_at"]
        self.up[:] = vectors["up"]
        self.speed_factor[:] = factors
        r = self._rings
        r.head[:] = 0
        r.tail[:] = 0
        need = max(len(rec) for rec in records)
        if need > r.cap:
            r.grow(max(need, 2 * r.cap))
        for s, rec in enumerate(records):
            r.ring[s, :len(rec)] = rec
            r.tail[s] = len(rec)


def _vector(state: dict, name: str, dtype, n: int) -> np.ndarray:
    """``state[name]`` as a length-``n`` vector, or a ``ValueError``."""
    v = np.asarray(state[name], dtype=dtype)
    if v.shape != (n,):
        raise ValueError(
            f"bank state {name} has shape {v.shape}, expected {n} servers"
        )
    return v


def _records(jobs, server: int) -> np.ndarray:
    """One server's checkpointed in-flight list as a ``(k, 5)`` block.

    Raises a ``ValueError`` naming the server unless every record has
    5 fields, the departures are finite and do not decrease (the
    collect pops a ring's finished prefix), and the attempt counts are
    non-negative integers.
    """
    where = f"bank state inflight[{server}]"
    try:
        rec = np.array(jobs, dtype=float) if len(jobs) else np.empty((0, 5))
    except (TypeError, ValueError):
        rec = None
    if rec is None or rec.ndim != 2 or rec.shape[1] != 5:
        raise ValueError(f"{where}: every record needs 5 numeric fields "
                         "[origin, size, svc, dep, attempts]")
    dep = rec[:, _DEP]
    if not np.all(np.isfinite(dep)):
        raise ValueError(f"{where}: departures must be finite, got {dep.tolist()}")
    if np.any(dep[1:] < dep[:-1]):
        raise ValueError(f"{where}: departures decrease, got {dep.tolist()}")
    att = rec[:, _ATTEMPTS]
    if not np.all(np.isfinite(att) & (att >= 0) & (att == np.floor(att))):
        raise ValueError(
            f"{where}: attempts must be non-negative integers, got {att.tolist()}"
        )
    return rec
