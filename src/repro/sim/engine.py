"""The general discrete-event engine (Section 4.1's simulator).

Handles any dispatcher — including Dynamic Least-Load with its delayed
feedback — by processing three event kinds over a lazy-invalidation
event heap:

* ARRIVAL: draw the job's size, ask the dispatcher for a target, hand
  the job to that server, schedule the next arrival.
* DEPARTURE: a server's own next event (job completion or quantum
  rotation).  Version-stamped; stale events are skipped.
* LOAD_UPDATE: a delayed departure notification reaches the scheduler
  (only scheduled for dispatchers that want feedback).

Statistics follow the paper: only jobs *arriving* after the warm-up
period count, and each run processes every job to completion
(``drain=True``) or stops cold at the horizon (``drain=False``).

Fault injection (``config.faults``) adds four event kinds on top:
SERVER_DOWN / SERVER_UP (Markov failure/repair), SERVER_DEGRADE
(transient speed loss), and RETRY (a bounced job re-entering dispatch).
The full fault timeline is pre-generated from dedicated RNG substreams
before the run starts (:func:`repro.faults.models.build_timeline`), so
faulty runs are exactly reproducible and the arrival/size/dispatch
streams are never perturbed.  With ``faults=None`` none of this code
runs and results are bit-identical to a fault-free build.
"""

from __future__ import annotations

import numpy as np

from ..dispatch.base import Dispatcher
from ..metrics.response import MetricsCollector
from ..obs.spans import span
from .arrivals import _CHUNK
from .config import SimulationConfig
from .events import EventKind, EventQueue
from .job import Job
from .results import DispatchTrace, FaultStats, ServerStats, SimulationResults
from .server import FCFSServer, ProcessorSharingServer, RoundRobinQuantumServer, Server
from ..rng import StreamFactory

__all__ = ["run_simulation"]


def _make_server(config: SimulationConfig, speed: float) -> Server:
    if config.discipline == "ps":
        return ProcessorSharingServer(speed)
    if config.discipline == "fcfs":
        return FCFSServer(speed)
    return RoundRobinQuantumServer(speed, config.quantum)


class _SizeStream:
    """Chunked job-size sampler (consumes the stream like the fast path)."""

    __slots__ = ("dist", "rng", "_buf", "_pos")

    def __init__(self, dist, rng):
        self.dist = dist
        self.rng = rng
        self._buf = np.empty(0)
        self._pos = 0

    def next_size(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = np.asarray(self.dist.sample(self.rng, _CHUNK), dtype=float)
            self._pos = 0
        x = self._buf[self._pos]
        self._pos += 1
        return float(x)


def run_simulation(
    config: SimulationConfig,
    dispatcher: Dispatcher,
    alphas=None,
    *,
    seed: int | np.random.SeedSequence = 0,
    record_trace: bool = False,
) -> SimulationResults:
    """Run one replication and return its :class:`SimulationResults`.

    Parameters
    ----------
    config:
        System and workload description.
    dispatcher:
        Dispatching strategy; it is ``reset`` here, so instances can be
        reused across runs.
    alphas:
        Workload fractions for static dispatchers; may be ``None`` for
        policies that ignore fractions (Dynamic Least-Load).
    seed:
        Root seed for this replication's independent substreams.
    record_trace:
        Keep the (time, target) dispatch trace — needed by the Figure 2
        deviation analysis, off by default (it is O(total jobs) memory).
    """
    streams = StreamFactory(seed)
    workload = config.workload()
    servers = [_make_server(config, s) for s in config.speeds]
    n = len(servers)

    dispatcher.reset(alphas)
    wants_feedback = dispatcher.wants_feedback
    feedback_rng = streams.feedback if wants_feedback else None

    arrivals = workload.arrival_stream(streams.arrivals)
    sizes = _SizeStream(workload.sizes, streams.sizes)
    metrics = MetricsCollector(warmup_end=config.warmup)

    queue = EventQueue()
    queue.push(arrivals.next_arrival(), EventKind.ARRIVAL)

    # ------------------------------------------------------------------
    # Fault injection setup (zero-cost when config.faults is None: no
    # events are scheduled, no RNG is touched, no per-event work added).
    # ------------------------------------------------------------------
    faults = config.faults if config.faults is not None and config.faults.enabled else None
    up = [True] * n
    if faults is not None:
        from ..faults import models as fault_models

        for ev in fault_models.build_timeline(faults, n, config.duration, seed):
            if ev.kind == fault_models.DOWN:
                queue.push(ev.time, EventKind.SERVER_DOWN, ev.server)
            elif ev.kind == fault_models.UP:
                queue.push(ev.time, EventKind.SERVER_UP, ev.server)
            elif ev.kind == fault_models.DEGRADE_START:
                queue.push(ev.time, EventKind.SERVER_DEGRADE, ev.server, 1)
            else:
                queue.push(ev.time, EventKind.SERVER_DEGRADE, ev.server, 0)
        drift_rng = (
            fault_models.drift_stream(seed) if faults.estimate_drift > 0 else None
        )
        degrade_depth = [0] * n
        base_speeds = list(config.speeds)
        retry_jobs: dict[int, Job] = {}
        failed_placements: dict[int, int] = {}
        retry_ticket = 0
        jobs_lost = jobs_lost_total = jobs_retried = fault_events = 0

    scheduled_version = [0] * n
    dispatch_counts = np.zeros(n, dtype=np.int64)  # post-warm-up only
    trace_times: list[float] = [] if record_trace else None
    trace_targets: list[int] = [] if record_trace else None

    duration = config.duration
    warmup = config.warmup
    drain = config.drain
    total_arrivals = 0
    job_counter = 0

    def resync(i: int) -> None:
        server = servers[i]
        if scheduled_version[i] != server.version:
            nxt = server.next_event_time()
            if nxt is not None:
                queue.push(nxt, EventKind.DEPARTURE, i, server.version)
            scheduled_version[i] = server.version

    def membership_change(now: float) -> None:
        """Notify the dispatcher that the surviving set changed."""
        capacity = sum(s for s, alive in zip(base_speeds, up) if alive)
        if capacity > 0.0:
            rho = config.utilization * config.total_speed / capacity
        else:
            rho = float("inf")
        perceived = None
        if drift_rng is not None:
            perceived = np.asarray(base_speeds) * drift_rng.lognormal(
                mean=0.0, sigma=faults.estimate_drift, size=n
            )
        dispatcher.on_membership_change(np.asarray(up, dtype=bool), rho, perceived)

    def handle_bounce(job: Job, now: float) -> None:
        """A placement failed (server down): retry with backoff or drop."""
        nonlocal jobs_lost, jobs_lost_total, retry_ticket
        attempts = failed_placements.get(job.job_id, 0) + 1
        failed_placements[job.job_id] = attempts
        if faults.on_failure == "lose" or attempts >= faults.retry.max_attempts:
            failed_placements.pop(job.job_id, None)
            jobs_lost_total += 1
            if job.arrival_time >= warmup:
                jobs_lost += 1
            return
        retry_ticket += 1
        retry_jobs[retry_ticket] = job
        queue.push(
            now + faults.retry.delay(attempts - 1), EventKind.RETRY, retry_ticket
        )

    # Manual enter/exit keeps the event loop un-indented; the span is
    # a shared no-op whenever tracing is off.
    replay_span = span("replay", backend="engine").__enter__()
    while queue:
        t, kind, a, b = queue.pop()
        if not drain and t > duration:
            break

        if kind == EventKind.DEPARTURE:
            server = servers[a]
            if b != server.version:
                continue  # superseded by a later state change
            job = server.on_event(t)
            resync(a)
            if job is not None:
                metrics.record(job.arrival_time, t, job.size)
                if wants_feedback:
                    delay = config.feedback.sample_delay(feedback_rng)
                    queue.push(t + delay, EventKind.LOAD_UPDATE, a)

        elif kind == EventKind.ARRIVAL:
            if t > duration:
                continue  # horizon reached: stop generating arrivals
            size = sizes.next_size()
            dispatcher.observe_arrival(t)
            target = dispatcher.select(size)
            job = Job(job_counter, t, size)
            job.server = target
            job_counter += 1
            total_arrivals += 1
            if faults is not None and not up[target]:
                handle_bounce(job, t)
            else:
                servers[target].arrive(job, t)
                resync(target)
            if t >= warmup:
                dispatch_counts[target] += 1
            if record_trace:
                trace_times.append(t)
                trace_targets.append(target)
            queue.push(arrivals.next_arrival(), EventKind.ARRIVAL)

        elif kind == EventKind.LOAD_UPDATE:
            dispatcher.on_load_update(a)

        elif kind == EventKind.SERVER_DOWN:
            up[a] = False
            evicted = servers[a].fail(t)
            resync(a)
            fault_events += 1
            membership_change(t)
            for job in evicted:
                handle_bounce(job, t)

        elif kind == EventKind.SERVER_UP:
            servers[a].repair(t)
            # A degradation episode spanning the outage still applies.
            factor = faults.degrade_factor if degrade_depth[a] > 0 else 1.0
            nominal = base_speeds[a] * factor
            if servers[a].speed != nominal:
                servers[a].set_speed(nominal, t)
            up[a] = True
            resync(a)
            fault_events += 1
            membership_change(t)

        elif kind == EventKind.SERVER_DEGRADE:
            degrade_depth[a] += 1 if b else -1
            if up[a]:
                factor = faults.degrade_factor if degrade_depth[a] > 0 else 1.0
                servers[a].set_speed(base_speeds[a] * factor, t)
                resync(a)
            fault_events += 1

        elif kind == EventKind.RETRY:
            job = retry_jobs.pop(a)
            target = dispatcher.select(job.size)
            if up[target]:
                job.server = target
                servers[target].arrive(job, t)
                resync(target)
                failed_placements.pop(job.job_id, None)
                jobs_retried += 1
            else:
                handle_bounce(job, t)

    replay_span.set(jobs=total_arrivals).__exit__(None, None, None)

    summarize_span = span("summarize", jobs=total_arrivals).__enter__()
    post_warmup_total = int(dispatch_counts.sum())
    fractions = (
        dispatch_counts / post_warmup_total if post_warmup_total else np.zeros(n)
    )
    server_stats = tuple(
        ServerStats(
            index=i,
            speed=srv.speed,
            jobs_received=srv.jobs_received,
            jobs_completed=srv.jobs_completed,
            busy_time=srv.busy_time,
            dispatch_fraction=float(fractions[i]),
        )
        for i, srv in enumerate(servers)
    )
    trace = None
    if record_trace:
        trace = DispatchTrace(
            times=np.asarray(trace_times, dtype=float),
            targets=np.asarray(trace_targets, dtype=np.int64),
        )
    fault_stats = None
    if faults is not None:
        fault_stats = FaultStats(
            jobs_lost=jobs_lost,
            jobs_lost_total=jobs_lost_total,
            jobs_retried=jobs_retried,
            # Bounced jobs whose retry event lies beyond the processed
            # horizon: neither completed, lost, nor resident in a
            # server — the conservation ledger needs them named.
            jobs_pending_retry=len(retry_jobs),
            fault_events=fault_events,
            reallocations=getattr(dispatcher, "reallocations", 0),
            loss_rate=jobs_lost / post_warmup_total if post_warmup_total else 0.0,
        )
    out = SimulationResults(
        metrics=metrics.finalize(),
        servers=server_stats,
        duration=duration,
        warmup=warmup,
        total_arrivals=total_arrivals,
        trace=trace,
        faults=fault_stats,
    )
    summarize_span.__exit__(None, None, None)
    return out
