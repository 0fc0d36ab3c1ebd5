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
(or a scripted event list — the chaos harness) the replay is job-level:
the pre-generated fault timeline splits each window into segments, jobs
dispatch one at a time through :meth:`ServerBank.dispatch`, and each
fault event is applied after the jobs at or before its timestamp.  A
job aimed at a down server — and every resident of a server that fails
— bounces through the :class:`~repro.faults.models.RetryPolicy`: it
re-enters the stream at ``bounce_time + delay`` with its original
arrival as response-time origin, or counts as lost once
``max_attempts`` placements failed (or immediately under
``on_failure="lose"``).  The dispatch sequence stays immutable within
the window even when a failure lands mid-window; the controller learns
of the membership change (failure detector) and the *next boundary*
re-solve runs out-of-band over the survivors.  Admission, the
completion fold and the close are the same step calls as fault-free.

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

import heapq
from dataclasses import dataclass

import numpy as np

from ..faults.models import (
    DEGRADE_END,
    DEGRADE_START,
    DOWN,
    UP,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
    build_timeline,
)
from ..obs import counters
from ..obs.spans import span
from ..sim import ckernel
from .checkpoint import ServiceCheckpoint
from .controller import QuasiStaticController
from .replay import ServerBank
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
        if len(self.speeds) == 0 or any(s <= 0 for s in self.speeds):
            raise ValueError(f"speeds must be positive, got {self.speeds}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.control_period <= 0 or self.control_period > self.duration:
            raise ValueError(
                f"control_period must lie in (0, duration], got {self.control_period}"
            )
        if self.slo_target is not None and self.slo_target <= 0:
            raise ValueError(f"slo_target must be positive, got {self.slo_target}")

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
        Passing a list — even an empty one — selects the job-level
        fault-mode window; otherwise fault mode engages only for an
        enabled ``config.faults``.
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
        self.fault_events: list[FaultEvent] = sorted(
            timeline or [], key=lambda e: (e.time, e.server, e.kind)
        )
        fc = config.faults
        self._retry: RetryPolicy = fc.retry if fc is not None else RetryPolicy()
        self._on_failure = fc.on_failure if fc is not None else "retry"
        self._degrade_factor = fc.degrade_factor if fc is not None else 0.5
        self._event_pos = 0
        # Pending retries, heap-ordered by (due time, insertion seq):
        # (due, seq, origin arrival, size, failed placements).  The seq
        # tie-break reproduces the schedule order a stable sort by due
        # time would give, while due-time re-entry pops the heap front
        # instead of scanning the whole list every window.
        self._pending: list[tuple] = []
        self._pending_seq = 0
        self._degrade_level = [0] * len(config.speeds)

        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        self.crash_after = None if crash_after is None else int(crash_after)
        self._start_window = 0

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
                    self._run_window_faulted(start, end)
                elif self.step.reference:
                    self._run_window_reference(start, end)
                else:
                    self._run_window(start, end)
                done = k + 1
                report = self.step.report
                report.jobs_pending_retry = len(self._pending)
                report.jobs_in_flight = self.bank.inflight_count()
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
        accumulator, per-job estimator updates, live Algorithm 2 scans,
        fresh replay outputs — so the property tests and
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
        departures, service_times = self.bank.replay_window(
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
    # Fault-mode window (job-level dispatch, segmented by fault events)
    # ------------------------------------------------------------------

    def _bounce(self, now: float, origin: float, size: float, attempts: int) -> str:
        """A placement just failed; retry or lose the job.

        *attempts* counts failed placements *before* this one.  Returns
        ``"lost"`` or ``"retried"``.
        """
        failed = attempts + 1
        if self._on_failure == "lose" or failed >= self._retry.max_attempts:
            counters.inc("service.jobs_lost")
            return "lost"
        counters.inc("service.jobs_retried")
        due = now + self._retry.delay(attempts)
        heapq.heappush(
            self._pending,
            (float(due), self._pending_seq, float(origin), float(size), int(failed)),
        )
        self._pending_seq += 1
        return "retried"

    def _apply_degrade(self, server: int, now: float) -> None:
        level = self._degrade_level[server]
        self.bank.set_speed_factor(server, now, self._degrade_factor**level)

    def _run_window_faulted(self, start: float, end: float) -> None:
        step = self.step
        controller = step.controller
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = step.admit(times, sizes)

        # Fold due retries into the window's stream: a retry scheduled
        # for time d re-enters the sequence as an arrival at max(d,
        # start) — bounces become eligible at the *next* window, never
        # inside the one that bounced them.  Ties go to fresh arrivals
        # (stable sort, arrivals listed first).
        # Heap pops come out ordered by (due, insertion seq) — exactly
        # the stable sort by due time the list scan used to do, at
        # O(due · log pending) instead of two full-list passes.
        due: list[tuple] = []
        while self._pending and self._pending[0][0] <= end:
            due.append(heapq.heappop(self._pending))
        if due:
            job_times = np.concatenate(
                [adm_times, [max(r[0], start) for r in due]]
            )
            job_sizes = np.concatenate([adm_sizes, [r[3] for r in due]])
            job_origins = np.concatenate([adm_times, [r[2] for r in due]])
            job_attempts = np.concatenate(
                [np.zeros(adm_times.size, dtype=np.int64),
                 np.asarray([r[4] for r in due], dtype=np.int64)]
            )
            order = np.argsort(job_times, kind="stable")
            job_times = job_times[order]
            job_sizes = job_sizes[order]
            job_origins = job_origins[order]
            job_attempts = job_attempts[order]
        else:
            job_times = adm_times
            job_sizes = adm_sizes
            job_origins = adm_times
            job_attempts = np.zeros(adm_times.size, dtype=np.int64)

        # The window's dispatch sequence is fixed up front — a failure
        # mid-window never rewrites it (Algorithm 2's invariant); the
        # re-plan waits for the boundary close below.
        targets = step.dispatcher.select_batch(job_sizes)

        events: list[FaultEvent] = []
        while (
            self._event_pos < len(self.fault_events)
            and self.fault_events[self._event_pos].time <= end
        ):
            events.append(self.fault_events[self._event_pos])
            self._event_pos += 1

        completed: list[tuple] = []
        lost = retried = bounced = 0
        pos = 0
        n_jobs = int(job_times.size)
        for ev in [*events, None]:
            seg_end = end if ev is None else ev.time
            # Jobs at exactly an event's timestamp dispatch before the
            # event applies (arrival-then-event tie-break, documented).
            while pos < n_jobs and job_times[pos] <= seg_end:
                srv = int(targets[pos])
                dep = self.bank.dispatch(
                    srv,
                    float(job_times[pos]),
                    float(job_sizes[pos]),
                    float(job_origins[pos]),
                    int(job_attempts[pos]),
                )
                if dep is None:
                    bounced += 1
                    outcome = self._bounce(
                        float(job_times[pos]),
                        float(job_origins[pos]),
                        float(job_sizes[pos]),
                        int(job_attempts[pos]),
                    )
                    if outcome == "lost":
                        lost += 1
                    else:
                        retried += 1
                pos += 1
            # Finalize everything that departed before the event — a
            # failure must not bounce jobs that already finished.
            completed.extend(self.bank.collect_completions(seg_end))
            if ev is None:
                continue
            if ev.kind == DOWN:
                if self.bank.up[ev.server]:
                    residents = self.bank.fail(ev.server, ev.time)
                    controller.mark_server_down(ev.server, ev.time)
                    for origin, size, att in residents:
                        bounced += 1
                        outcome = self._bounce(ev.time, origin, size, int(att))
                        if outcome == "lost":
                            lost += 1
                        else:
                            retried += 1
            elif ev.kind == UP:
                if not self.bank.up[ev.server]:
                    self.bank.repair(ev.server, ev.time)
                    # The same machine resumes, so its pre-outage speed
                    # history stays; the networked rejoin path passes
                    # fresh_estimates=True instead (restarted process).
                    controller.mark_server_up(ev.server, ev.time)
            elif ev.kind == DEGRADE_START:
                self._degrade_level[ev.server] += 1
                self._apply_degrade(ev.server, ev.time)
            elif ev.kind == DEGRADE_END:
                self._degrade_level[ev.server] = max(
                    0, self._degrade_level[ev.server] - 1
                )
                self._apply_degrade(ev.server, ev.time)

        mrt, ratio = self._fold_completions(completed)
        step.close(
            start, end, offered=int(times.size), admitted=int(adm_times.size),
            mrt=mrt, ratio=ratio, completed=len(completed),
            lost=lost, retried=retried, bounced=bounced,
            servers_up=int(np.count_nonzero(self.bank.up)),
        )

    def _fold_completions(self, completed: list[tuple]) -> tuple[float, float]:
        """Fold a fault-mode window's completions through the step.

        Completion-based accounting: response times span retries
        (departure minus *original* arrival) and land in the window the
        job actually finished in; they reach the quantiles in completion
        order and the means sum left to right.  ``completed`` joins one
        server-major :meth:`ServerBank.collect_completions` list per
        fault segment, so it is server-major only *within* a segment: a
        stable argsort by server regroups the speed witnesses while
        keeping each server's completion order.
        """
        srv, origin, size, svc, dep = (
            np.array(completed, dtype=float).reshape(-1, 5).T
        )
        order = np.argsort(srv, kind="stable")
        offsets = np.searchsorted(srv[order], np.arange(self.bank.n + 1))
        return self.step.fold(
            (size / svc)[order], offsets, dep - origin, size, sequential=True
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
            # External format unchanged from the list era: 4-field
            # records in (due, schedule) order, no heap internals.
            "pending": [
                [r[0], r[2], r[3], r[4]] for r in sorted(self._pending)
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
        # Re-number insertion seqs in checkpointed (due, schedule)
        # order: future pops keep breaking due-time ties exactly as the
        # uninterrupted run would.
        self._pending = [
            (float(r[0]), seq, float(r[1]), float(r[2]), int(r[3]))
            for seq, r in enumerate(state["pending"])
        ]
        self._pending_seq = len(self._pending)
        heapq.heapify(self._pending)
        self._degrade_level = [int(x) for x in state["degrade_level"]]
        self._event_pos = int(state["event_pos"])
        self._start_window = int(state["next_window"])
        step.report = ServiceReport.from_state(self.config, state["report"])
