"""The quasi-static scheduler service loop.

:class:`SchedulerService` ties the pieces together: a
:class:`~repro.service.sources.JobSource` supplies arrivals, a
:class:`~repro.service.window.WindowStep` runs each window's control
plane (estimators, admission gate, Algorithm 2 dispatcher, Theorems 1–3
re-solve, report), and the :class:`~repro.service.replay.ServerBank`
carries each server's FCFS backlog across control windows.

Time advances one control period at a time, and every window is
``admit → select_batch → replay → fold → close``.  Within a window the
dispatch sequence is immutable — Algorithm 2's interleaving invariant
holds for the segment — and ``close`` may swap it only at the boundary
(drain-and-switch).  Admission thinning decided at the last re-solve
applies to the *next* window's arrivals, mirroring how a real
controller can only act on what it has already measured.  The default
replay is one compiled call; ``reference=True`` keeps the original
per-job window as the oracle the fast path is pinned against.

**Fault tolerance.**  With a :class:`~repro.faults.models.FaultConfig`
(or a scripted event list — the chaos harness, checked when the
service is built) the bank tracks every in-flight job in per-server
rings inside one record block, and each window is one
:meth:`ServerBank.run_fault_window` call — one compiled call on the
kernel path.  The window's jobs go in as one ``(4, k)`` block (fresh
arrivals and due retries, one stable sort), with the window's events
from the pre-generated fault timeline.  The events cut the window into
segments: each segment's jobs go through the per-job step
``max(free_at, t) + size/speed`` onto their servers' rings, every
completion up to the event's timestamp is collected into the window's
completion block, and then the event applies — so jobs at an event's
timestamp dispatch before it.  At the close the block comes back from
:meth:`ServerBank.take_completions` with its speed witnesses already
regrouped by server for the fold.  A job aimed at a down server — and
every resident of a server that fails — lands in the window's bounce
block and, after the call, goes through the
:class:`~repro.faults.models.RetryPolicy`: it re-enters the stream at
``bounce_time + delay`` with its original arrival as response-time
origin, or counts as lost once ``max_attempts`` placements failed (or
immediately under ``on_failure="lose"``).  Pending retries wait in one
``(k, 4)`` float block of ``[due, origin, size, failed placements]``
rows sorted by due time, ties in bounce order: each window's bounce
block is merged in by one stable sort on due time — nothing reads the
pending retries inside a window — and each window takes the due rows
as one prefix.  The dispatch sequence stays immutable within the
window even when a failure lands mid-window; after the call the
controller learns of each membership change (failure detector) in
timeline order, and the *next boundary* re-solve runs out-of-band over
the survivors.  Admission, the completion fold and the close are the
same step calls as fault-free.

**Conservation.**  After every window :meth:`SchedulerService.run`
checks the job ledger — offered = dispatched + shed, and dispatched =
completed + lost + pending retries + in flight — and raises naming the
window and its path if either identity breaks.

**Crash safety.**  A :class:`~repro.service.checkpoint.ServiceCheckpoint`
snapshots the full loop state (controller, gate, bank, dispatcher
mid-sequence position, pending retries, report-so-far) every
``checkpoint_every`` windows; :meth:`SchedulerService.restore` plus the
source fast-forward in :meth:`run` continue a crashed run to a report
field-for-field equal to the uninterrupted one.  ``crash_after``
simulates the crash (raising :class:`ServiceCrash`) so the CI
``chaos-smoke`` job can assert exactly that round trip.

The run is fully deterministic given the seed: estimator updates,
thinning, dispatch, replay, fault timelines, and retry backoff all
avoid hidden randomness, so a service run is a reproducible
experiment, not just a demo.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from ..faults.models import (
    DEGRADE_END,
    DEGRADE_START,
    DOWN,
    UP,
    FaultConfig,
    FaultEvent,
    build_timeline,
)
from ..obs import counters
from ..obs.spans import span
from ..sim import ckernel
from .checkpoint import ServiceCheckpoint
from .controller import QuasiStaticController
from .replay import EVENT_DOWN, EVENT_SPEED, EVENT_UP, ServerBank
from .sources import JobSource
from .window import (
    ServiceReport,
    WindowRecord,
    WindowStep,
    build_controller,
    window_bounds,
    window_count,
)

__all__ = [
    "ServiceConfig",
    "WindowRecord",
    "ServiceReport",
    "SchedulerService",
    "ServiceCrash",
    "build_controller",
]


#: The bank's event code of each fault-event kind.
_EVENT_CODES = {
    DOWN: EVENT_DOWN,
    UP: EVENT_UP,
    DEGRADE_START: EVENT_SPEED,
    DEGRADE_END: EVENT_SPEED,
}


def _check_event(index: int, event: FaultEvent, n_servers: int) -> None:
    """Refuse a fault event the window cannot apply, naming its field.

    An unknown kind would be skipped, a server outside the pool would
    index another server (or fail mid-run), and a NaN time would hold
    back every later event.
    """
    where = f"fault_events[{index}]"
    if event.kind not in _EVENT_CODES:
        raise ValueError(
            f"{where}.kind must be one of {sorted(_EVENT_CODES)}, "
            f"got {event.kind!r}"
        )
    try:
        server = operator.index(event.server)
    except TypeError:
        server = -1
    if isinstance(event.server, bool) or not 0 <= server < n_servers:
        raise ValueError(
            f"{where}.server must be an integer in [0, {n_servers}), "
            f"got {event.server!r}"
        )
    if not (isinstance(event.time, numbers.Real) and math.isfinite(event.time)):
        raise ValueError(f"{where}.time must be a finite number, got {event.time!r}")


class ServiceCrash(RuntimeError):
    """Simulated hard crash (``crash_after``): the loop stops mid-run,
    leaving recovery to ``serve --resume`` from the last checkpoint."""

    def __init__(self, windows_completed: int):
        super().__init__(f"simulated crash after window {windows_completed}")
        self.windows_completed = windows_completed


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the service loop (workload construction lives with
    the callers — CLI and experiments — which build the JobSource)."""

    speeds: tuple[float, ...]
    duration: float
    control_period: float
    estimator_window: float | None = None  # default: 2 control periods
    # 1/weight ≈ 100-sample memory: mean-size estimates with a shorter
    # memory make ρ̂ swing ±20% on exponential sizes, which churns the
    # swap logic for nothing.
    ewma_weight: float = 0.01
    shed_threshold: float = 0.95
    rho_cap: float = 0.98
    swap_tolerance: float = 0.01
    min_arrivals_to_shed: int = 200
    # SLO-targeted shedding (None keeps the legacy ρ̂-threshold rule).
    slo_target: float | None = None
    min_responses_to_shed: int = 50
    max_shed_fraction: float = 0.9
    # Fault injection: a FaultConfig drives a pre-generated failure
    # timeline from its own RNG substreams (never the arrival streams).
    faults: FaultConfig | None = None
    fault_seed: int = 0

    def __post_init__(self):
        # Every bound is written so that NaN fails it.
        if len(self.speeds) == 0 or not all(0 < s < math.inf for s in self.speeds):
            raise ValueError(f"speeds must be positive and finite, got {self.speeds}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if not 0 < self.control_period <= self.duration:
            raise ValueError(
                f"control_period must lie in (0, duration], got {self.control_period}"
            )
        if self.slo_target is not None and not self.slo_target > 0:
            raise ValueError(f"slo_target must be positive, got {self.slo_target}")
        # The controller's and estimators' own bounds, checked here too so
        # a bad value fails at configuration, before any window runs.
        if self.estimator_window is not None and not self.estimator_window > 0:
            raise ValueError(
                f"estimator_window must be positive, got {self.estimator_window}"
            )
        if not self.swap_tolerance >= 0:
            raise ValueError(
                f"swap_tolerance must be >= 0, got {self.swap_tolerance}"
            )
        if not 0 < self.ewma_weight <= 1:
            raise ValueError(f"ewma_weight must lie in (0, 1], got {self.ewma_weight}")
        for name in ("shed_threshold", "rho_cap", "max_shed_fraction"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")

    @property
    def window(self) -> float:
        return (
            self.estimator_window
            if self.estimator_window is not None
            else 2.0 * self.control_period
        )


class SchedulerService:
    """Run the quasi-static loop over a job source until the horizon.

    Parameters
    ----------
    fault_events:
        Optional scripted fault timeline (the chaos harness passes one).
        When omitted and ``config.faults`` is enabled, the timeline is
        pre-generated via :func:`~repro.faults.models.build_timeline`.
        Passing a list — even an empty one — selects the fault-mode
        window; otherwise fault mode engages only for an enabled
        ``config.faults``.
    checkpoint:
        A :class:`~repro.service.checkpoint.ServiceCheckpoint` to
        snapshot into every ``checkpoint_every`` completed windows.
    crash_after:
        Simulate a crash (raise :class:`ServiceCrash`) once this many
        windows completed in *this* run — test/CI hook for resume.
    reference:
        Run the fault-free window through the original per-job loop
        (scalar gate, per-job estimator updates, live Algorithm 2
        scans) instead of the vectorized hot path.  The two produce
        field-for-field identical reports — the reference branch exists
        as the oracle the bit-identity tests and the ``bench --serve``
        speedup measure against.
    """

    def __init__(
        self,
        config: ServiceConfig,
        source: JobSource,
        controller: QuasiStaticController | None = None,
        *,
        fault_events: list[FaultEvent] | None = None,
        checkpoint: ServiceCheckpoint | None = None,
        checkpoint_every: int = 10,
        crash_after: int | None = None,
        reference: bool = False,
    ):
        self.config = config
        self.source = source
        self.step = WindowStep(config, controller, reference=reference)
        self.bank = ServerBank(config.speeds)

        timeline = fault_events
        if timeline is None and config.faults is not None and config.faults.enabled:
            timeline = build_timeline(
                config.faults, len(config.speeds), config.duration, config.fault_seed
            )
        self._faulted = timeline is not None
        for i, ev in enumerate(timeline or []):
            _check_event(i, ev, len(config.speeds))
        self.fault_events: list[FaultEvent] = sorted(
            timeline or [], key=lambda e: (e.time, e.server, e.kind)
        )
        # The timeline as the bank's [time, code, server, factor] event
        # rows; each window writes its degrade events' factors.
        self._events = np.array(
            [[e.time, _EVENT_CODES[e.kind], e.server, 1.0]
             for e in self.fault_events],
            dtype=float,
        ).reshape(-1, 4)
        # Retry policy, on_failure and degrade_factor (a scripted
        # timeline may come without a config).
        self._faults = config.faults or FaultConfig()
        self._delay_table = np.empty(0)
        self._event_pos = 0
        # Pending retries, a (k, 4) block of [due, origin arrival, size,
        # failed placements] rows sorted by due time, ties in bounce
        # order.
        self._pending = np.empty((0, 4))
        self._degrade_level = [0] * len(config.speeds)

        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        self.crash_after = None if crash_after is None else int(crash_after)
        self._start_window = 0
        # Jobs completed so far, for the per-window ledger check.
        self._completed = 0

    @property
    def controller(self) -> QuasiStaticController:
        return self.step.controller

    @property
    def dispatcher(self):
        """The live dispatcher (replaced, never mutated, at a swap)."""
        return self.step.dispatcher

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self) -> ServiceReport:
        config = self.config
        n_windows = window_count(config.duration, config.control_period)
        with span("service.run", windows=n_windows,
                  servers=len(config.speeds), faulted=self._faulted):
            for k in range(n_windows):
                start, end = window_bounds(
                    k, config.duration, config.control_period
                )
                if k < self._start_window:
                    # Resume fast-forward: replay the job source with the
                    # original call pattern so its stream state matches
                    # the crashed run exactly; everything else came from
                    # the checkpoint.
                    self.source.jobs_until(end)
                    continue
                if self._faulted:
                    path = "faulted"
                    self._run_window_faulted(start, end)
                elif self.step.reference:
                    path = "reference"
                    self._run_window_reference(start, end)
                else:
                    path = "fast"
                    self._run_window(start, end)
                done = k + 1
                report = self.step.report
                report.jobs_pending_retry = len(self._pending)
                report.jobs_in_flight = self.bank.inflight_count()
                self._completed += report.windows[-1].completed
                self._check_ledger(k, path)
                if (
                    self.checkpoint is not None
                    and done < n_windows
                    and done % self.checkpoint_every == 0
                ):
                    self.checkpoint.append(self.state_dict(done, report))
                if (
                    self.crash_after is not None
                    and done < n_windows
                    and done - self._start_window >= self.crash_after
                ):
                    raise ServiceCrash(done)
        report = self.step.report
        report.clean_shutdown = True
        return report

    def _check_ledger(self, window: int, path: str) -> None:
        """Job conservation, checked after every window (O(1), always on).

        Every offered job was dispatched or shed, and every dispatched
        job has completed, was lost, waits for a retry or is still in
        flight.  A broken identity is a bug in the window that just
        closed, so the error names it, its path and every count.
        """
        r = self.step.report
        if (
            r.jobs_offered == r.jobs_dispatched + r.jobs_shed
            and r.jobs_dispatched
            == self._completed + r.jobs_lost + r.jobs_pending_retry
            + r.jobs_in_flight
        ):
            return
        raise RuntimeError(
            f"job ledger broken after window {window} ({path} path): "
            f"offered={r.jobs_offered} dispatched={r.jobs_dispatched} "
            f"shed={r.jobs_shed} completed={self._completed} "
            f"lost={r.jobs_lost} pending_retry={r.jobs_pending_retry} "
            f"in_flight={r.jobs_in_flight}"
        )

    # ------------------------------------------------------------------
    # Fault-free windows
    # ------------------------------------------------------------------

    def _run_window(self, start: float, end: float) -> None:
        """The vectorized serve hot path (default fault-free window).

        One compiled carry-state replay call plus batched estimator
        folds per window — no per-job Python.  Field-for-field
        identical report to :meth:`_run_window_reference`: every batch
        operation either runs the identical float recursion (compiled
        folds, grouped replay) or a formulation proven equal on the
        values the loop produces (the gate's cumulative-sum mask).
        """
        step = self.step
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = step.admit(times, sizes)
        # Dispatch under the window's (immutable) sequence, replay with
        # carried backlog, and feed completions back to the estimator.
        targets = step.dispatcher.select_batch(adm_sizes)
        departures, service_times, order, offsets = self.bank.replay_window_grouped(
            targets, adm_times, adm_sizes
        )
        n_adm = int(adm_times.size)
        a = ckernel.arena()
        # Per-server speed witnesses, folded in server-grouped order
        # (identical EWMA state: per-server estimators are independent
        # and the stable grouping preserves each server's observation
        # order).
        wit = a.f64("loop.wit", n_adm)
        np.divide(adm_sizes, service_times, out=wit)
        witg = a.f64("loop.witg", n_adm)
        np.take(wit, order, out=witg)
        response = a.f64("loop.resp", n_adm)
        np.subtract(departures, adm_times, out=response)
        mrt, ratio = step.fold(witg, offsets, response, adm_sizes)
        step.close(
            start, end, offered=int(times.size), admitted=n_adm,
            mrt=mrt, ratio=ratio, completed=n_adm,
            servers_up=len(self.config.speeds),
        )

    def _run_window_reference(self, start: float, end: float) -> None:
        """The original per-job fault-free window (oracle path).

        Kept verbatim up to the boundary close — scalar admission
        accumulator, per-job estimator updates, live Algorithm 2 scans
        — so the property tests and
        ``bench --serve`` can pin the vectorized path against it,
        report for report.
        """
        step = self.step
        controller = step.controller
        times, sizes = self.source.jobs_until(end)
        for t, x in zip(times, sizes):
            controller.observe_arrival(t, x)
        keep = 1.0 - controller.shed_fraction
        mask = step.gate.admit_mask_scalar(times.size, keep)
        adm_times = times[mask]
        adm_sizes = sizes[mask]

        targets = step.dispatcher.select_batch(adm_sizes)
        departures, service_times, _, _ = self.bank.replay_window_grouped(
            targets, adm_times, adm_sizes
        )
        for srv, x, svc in zip(targets, adm_sizes, service_times):
            controller.observe_service(int(srv), float(x), float(svc))

        shed = int(times.size - adm_times.size)
        counters.inc("service.jobs_dispatched", value=int(adm_times.size))
        if shed:
            counters.inc("service.jobs_shed", value=shed)

        if adm_times.size:
            response = departures - adm_times
            mrt = float(response.mean())
            ratio = float((response / adm_sizes).mean())
            for r in response:
                controller.observe_response(float(r))
        else:
            mrt = float("nan")
            ratio = float("nan")

        step.close(
            start, end, offered=int(times.size), admitted=int(adm_times.size),
            mrt=mrt, ratio=ratio, completed=int(adm_times.size),
            servers_up=len(self.config.speeds),
        )

    # ------------------------------------------------------------------
    # Fault-mode window (segment dispatch, cut at fault events)
    # ------------------------------------------------------------------

    def _bounce(self, rows: np.ndarray) -> tuple[int, int]:
        """Placements just failed: queue each job's retry or lose it.

        *rows* is a window's bounce block, ``[bounce time, origin, size,
        failed placements before this one]`` in bounce order.  A job is
        lost once ``max_attempts`` placements failed (at once under
        ``on_failure="lose"``); the others become due after
        ``RetryPolicy.delay(failed)`` and join the pending block behind
        every row due no later, which keeps it sorted by due time with
        ties in bounce order.  Returns ``(lost, retried)`` and adds them
        to the service counters.
        """
        retried = 0
        if self._faults.on_failure == "retry":
            keep = rows[:, 3] + 1 < self._faults.retry.max_attempts
            retried = int(np.count_nonzero(keep))
        lost = len(rows) - retried
        if lost:
            counters.inc("service.jobs_lost", value=lost)
        if retried:
            counters.inc("service.jobs_retried", value=retried)
            queued = rows[keep] if lost else rows.copy()
            failed = queued[:, 3].astype(np.int64)
            queued[:, 0] += self._delays(int(failed.max()))[failed]
            queued[:, 3] += 1
            # A stable sort of the block followed by the batch orders
            # equal due times by bounce order.
            block = np.concatenate([self._pending, queued])
            self._pending = block[np.argsort(block[:, 0], kind="stable")]
        return lost, retried

    def _delays(self, top: int) -> np.ndarray:
        """``RetryPolicy.delay(k)`` for every ``k`` up to *top* at least.

        The scalar values, each computed once (a vector ``backoff**k``
        need not round like libm's pow); the table grows to the largest
        failed-placement count seen, never past ``max_attempts - 1``.
        """
        if top >= self._delay_table.size:
            retry = self._faults.retry
            self._delay_table = np.array(
                [retry.delay(k) for k in range(top + 1)], dtype=float
            )
        return self._delay_table

    def _run_window_faulted(self, start: float, end: float) -> None:
        step = self.step
        controller = step.controller
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = step.admit(times, sizes)

        # The window's jobs, one (4, k) block whose rows are time,
        # origin, size and failed placements.  A retry scheduled for
        # time d re-enters the sequence as an arrival at max(d, start) —
        # bounces become eligible at the *next* window, never inside
        # the one that bounced them.  Ties go to fresh arrivals (stable
        # sort, arrivals listed first); the due retries are the pending
        # block's prefix, already in (due, bounce) order, and its
        # [due, origin, size, failed] columns transpose onto those rows.
        n_due = int(np.searchsorted(self._pending[:, 0], end, side="right"))
        due, self._pending = self._pending[:n_due], self._pending[n_due:]
        n_adm = adm_times.size
        jobs = np.empty((4, n_adm + n_due))
        jobs[:2, :n_adm] = adm_times
        jobs[2, :n_adm] = adm_sizes
        jobs[3, :n_adm] = 0.0
        if n_due:
            jobs[:, n_adm:] = due.T
            np.maximum(jobs[0, n_adm:], start, out=jobs[0, n_adm:])
            jobs = np.take(jobs, np.argsort(jobs[0], kind="stable"), axis=1)

        # The window's dispatch sequence is fixed up front — a failure
        # mid-window never rewrites it (Algorithm 2's invariant); the
        # re-plan waits for the boundary close below.
        targets = step.dispatcher.select_batch(jobs[2])

        # The window's fault events; a degrade episode's start or end
        # sets the server's factor to degrade_factor**level.
        pos = stop = self._event_pos
        timeline = self.fault_events
        while stop < len(timeline) and timeline[stop].time <= end:
            ev = timeline[stop]
            if ev.kind in (DEGRADE_START, DEGRADE_END):
                level = self._degrade_level[ev.server]
                level = level + 1 if ev.kind == DEGRADE_START else max(0, level - 1)
                self._degrade_level[ev.server] = level
                self._events[stop, 3] = self._faults.degrade_factor**level
            stop += 1
        self._event_pos = stop
        events = self._events[pos:stop]

        # Jobs at exactly an event's timestamp dispatch before the event
        # applies (arrival-then-event tie-break, documented), and every
        # completion up to the event is collected before it.
        window = self.bank.run_fault_window(targets, jobs, events, end)
        # The controller learns of each membership change (failure
        # detector) in timeline order; nothing reads it inside the
        # window.  A repaired server is the same machine, so its
        # pre-outage speed history stays; the networked rejoin path
        # passes fresh_estimates=True instead (restarted process).
        if stop > pos:
            for i in np.flatnonzero(window.applied).tolist():
                ev = timeline[pos + i]
                if ev.kind == DOWN:
                    controller.mark_server_down(ev.server, ev.time)
                else:
                    controller.mark_server_up(ev.server, ev.time)
        # Pending retries are never read inside a window, so one stable
        # merge of its bounce block equals a merge per bounce batch.
        lost = retried = 0
        if len(window.bounces):
            lost, retried = self._bounce(window.bounces)

        # Completion-based accounting: response times span retries
        # (departure minus *original* arrival) and land in the window
        # the job finished in; the block holds one server-major collect
        # run per segment, so the speed witnesses come regrouped by
        # server (stable), keeping each server's completion order.
        rows, witnesses, offsets, responses = self.bank.take_completions()
        mrt, ratio = step.fold(
            witnesses, offsets, responses, rows[:, 2], sequential=True
        )
        step.close(
            start, end, offered=int(times.size), admitted=int(n_adm),
            mrt=mrt, ratio=ratio, completed=window.completed,
            # Every bounce is either lost or retried.
            lost=lost, retried=retried, bounced=lost + retried,
            servers_up=window.servers_up,
        )

    # ------------------------------------------------------------------
    # Crash-safe checkpointing
    # ------------------------------------------------------------------

    def state_dict(self, next_window: int, report: ServiceReport) -> dict:
        """Full loop state after ``next_window`` windows completed."""
        step = self.step
        return {
            "next_window": int(next_window),
            "config": self._config_fingerprint(),
            "controller": step.controller.state_dict(),
            "gate": step.gate.state_dict(),
            "bank": self.bank.state_dict(),
            "dispatcher": step.dispatcher.state_dict(),
            # 4-field [due, origin, size, failed] rows in block order.
            "pending": [
                [due, origin, size, int(failed)]
                for due, origin, size, failed in self._pending.tolist()
            ],
            "degrade_level": [int(x) for x in self._degrade_level],
            "event_pos": int(self._event_pos),
            "report": report.state_dict(),
        }

    def _config_fingerprint(self) -> dict:
        return {
            "speeds": [float(s) for s in self.config.speeds],
            "duration": float(self.config.duration),
            "control_period": float(self.config.control_period),
            "faulted": bool(self._faulted),
        }

    def restore(self, state: dict) -> None:
        """Adopt a checkpointed state; :meth:`run` then continues it.

        The service must be constructed with the same config and an
        equivalent job source (same seed / trace) as the crashed run —
        the fingerprint check catches mismatched geometry, but stream
        identity is the caller's contract.
        """
        fingerprint = self._config_fingerprint()
        if state["config"] != fingerprint:
            raise ValueError(
                "checkpoint belongs to a different run configuration: "
                f"{state['config']} != {fingerprint}"
            )
        step = self.step
        step.controller.load_state(state["controller"])
        step.gate.load_state(state["gate"])
        self.bank.load_state(state["bank"])
        step.dispatcher = step.new_dispatcher()
        step.dispatcher.load_state(state["dispatcher"])
        pending = [[float(x) for x in r] for r in state["pending"]]
        # A due of +inf is a retry that never comes due (max_delay=inf
        # writes one); NaN anywhere would break the due-time order.
        if not all(
            len(r) == 4 and -math.inf < r[0] and all(map(math.isfinite, r[1:]))
            for r in pending
        ):
            raise ValueError(
                "checkpoint pending retries must be [due, origin, size, "
                "failed] rows of numbers, finite but for a +inf due"
            )
        # A stable sort by due keeps the saved order among ties.
        block = np.array(pending).reshape(-1, 4)
        self._pending = block[np.argsort(block[:, 0], kind="stable")]
        self._degrade_level = [int(x) for x in state["degrade_level"]]
        self._event_pos = int(state["event_pos"])
        self._start_window = int(state["next_window"])
        step.report = ServiceReport.from_state(self.config, state["report"])
        self._completed = sum(w.completed for w in step.report.windows)
