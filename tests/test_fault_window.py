"""One compiled call per fault-mode window.

:meth:`ServerBank.run_fault_window` runs a window's segments and fault
events in one kernel call, and its interpreted fallback runs them
segment by segment.  Both must write the bits of a per-segment loop —
a test-local oracle over the bank's interpreted :meth:`ServerBank.dispatch`,
:meth:`ServerBank.collect_completions`, :meth:`ServerBank.fail`,
:meth:`ServerBank.repair` and :meth:`ServerBank.set_speed_factor` — in
bank state, departures, bounce rows, applied events and completion
rows.  At the service level the same three paths must give the same
report, pending retries, bank state and counters under
``on_failure="lose"`` and ``"retry"``, with ``max_attempts`` saturating.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.models import (
    DEGRADE_END,
    DEGRADE_START,
    DOWN,
    UP,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.obs import counters
from repro.service import SchedulerService, ServerBank, ServiceConfig
from repro.service.replay import EVENT_DOWN, EVENT_SPEED, EVENT_UP
from repro.service.sources import TraceJobSource
from repro.sim import ckernel

needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable"
)

#: The window legs: the compiled call, its fallback, the per-segment loop.
LEGS = ("compiled", "fallback", "segments")


@contextlib.contextmanager
def _window_fallback():
    """Unbind only the window entry, so the fallback window runs with
    every other compiled entry (folds, re-solve) still loaded."""
    entry = ckernel.entry
    ckernel.entry = lambda name: None if name == "fault_window" else entry(name)
    try:
        yield
    finally:
        ckernel.entry = entry


@contextlib.contextmanager
def _one_record_rings():
    """Rings start at one record per server: growth on every window."""
    saved = ckernel.InflightRings.MIN_CAPACITY
    ckernel.InflightRings.MIN_CAPACITY = 1
    try:
        yield
    finally:
        ckernel.InflightRings.MIN_CAPACITY = saved


def _segment_loop(bank: ServerBank, targets, jobs, events, end):
    """A fault window as a per-segment loop over the bank's interpreted
    calls: one dispatch and one collect per segment, each event applied
    after the jobs at or before its time."""
    times, origins, sizes, attempts = jobs
    attempts = attempts.astype(np.int64)
    dep = np.empty(times.size)
    bounces, applied = [], []
    completed = pos = 0
    for ev in [*events.tolist(), None]:
        seg_end = end if ev is None else ev[0]
        stop = int(np.searchsorted(times, seg_end, side="right"))
        if stop > pos:
            d = bank.dispatch(targets[pos:stop], times[pos:stop],
                              sizes[pos:stop], origins[pos:stop],
                              attempts[pos:stop])
            dep[pos:stop] = d
            for i in np.flatnonzero(np.isnan(d)) + pos:
                bounces.append(jobs[:, i].tolist())
            pos = stop
        completed += len(bank.collect_completions(seg_end))
        if ev is None:
            continue
        _, code, server, factor = ev
        s = int(server)
        changed = False
        if code == EVENT_DOWN:
            if bank.up[s]:
                for origin, size, failed in bank.fail(s, seg_end).tolist():
                    bounces.append([seg_end, origin, size, failed])
                changed = True
        elif code == EVENT_UP:
            if not bank.up[s]:
                bank.repair(s, seg_end)
                changed = True
        else:
            bank.set_speed_factor(s, seg_end, factor)
        applied.append(changed)
    return (dep, completed, np.reshape(bounces, (-1, 4)),
            np.array(applied, dtype=bool), int(np.count_nonzero(bank.up)))


def _run_leg(leg: str, bank: ServerBank, targets, jobs, events, end,
             early: float | None = None):
    if early is not None:
        # Rows collected before the window join its completion block.
        bank.collect_completions(early)
    if leg == "segments":
        out = _segment_loop(bank, targets, jobs, events, end)
    else:
        ctx = _window_fallback() if leg == "fallback" else contextlib.nullcontext()
        with ctx:
            w = bank.run_fault_window(targets, jobs, events, end)
        out = (w.departures, w.completed, w.bounces, w.applied, w.servers_up)
    dep, completed, bounces, applied, up = out
    rows, wit, offsets, resp = bank.take_completions()
    return {
        "dep_nan": np.isnan(dep).tolist(),
        "dep": dep[~np.isnan(dep)].tobytes(),
        "completed": completed,
        "bounces": np.asarray(bounces, dtype=float).tobytes(),
        "applied": np.asarray(applied).tolist(),
        "servers_up": up,
        "rows": rows.tobytes(),
        "fold": (wit.tobytes(), offsets.tolist(), resp.tobytes()),
        "state": json.dumps(bank.state_dict()),
        "free_at": bank.free_at.tobytes(),
        "inflight": bank.inflight_count(),
    }


#: Window length and the time grid: jobs and events share the grid, so
#: events tie with job times and land exactly on a window's end.
SPAN, GRID = 8.0, 0.25


def _window(rng, w: int, n: int, all_down: bool):
    start, end = w * SPAN, (w + 1) * SPAN
    slots = int(SPAN / GRID)
    m = int(rng.integers(0, 30))
    times = np.sort(start + rng.integers(0, slots + 1, m) * GRID)
    if rng.random() < 0.5:
        sizes = rng.integers(1, 12, m) * GRID
    else:
        sizes = rng.lognormal(0.0, 1.0, m)
    jobs = np.array([times, times - rng.integers(0, 4, m) * 0.5, sizes,
                     rng.integers(0, 3, m)], dtype=float).reshape(4, m)
    targets = rng.integers(0, n, m).astype(np.int64)
    e = int(rng.integers(0, 5))
    events = np.empty((e, 4))
    events[:, 0] = np.sort(start + rng.integers(0, slots + 1, e) * GRID)
    events[:, 1] = rng.integers(0, 3, e)
    events[:, 2] = rng.integers(0, n, e)
    events[:, 3] = 0.5 ** rng.integers(0, 3, e)
    if all_down and w == 0:
        down = [[start, EVENT_DOWN, s, 1.0] for s in range(n)]
        events = np.concatenate([np.reshape(down, (-1, 4)), events])
    return targets, jobs, events, end


class TestWindowBits:
    @given(
        seed=st.integers(0, 2**32 - 1),
        speeds=st.lists(st.integers(-1, 2), min_size=1, max_size=4),
        windows=st.integers(1, 4),
        all_down=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_compiled_fallback_and_segment_loop_agree(self, seed, speeds,
                                                      windows, all_down):
        """DOWN/UP/speed events, ties with job times and at ``end``,
        all servers down, rows collected before the window, and rings
        growing from one record per server: every leg writes the same
        bits, window after window."""
        speeds = [2.0**k for k in speeds]
        n = len(speeds)
        rng = np.random.default_rng(seed)
        inputs = [(*_window(rng, w, n, all_down),
                   (w + rng.random()) * SPAN if rng.random() < 0.3 else None)
                  for w in range(windows)]
        with _one_record_rings():
            banks = {leg: ServerBank(speeds) for leg in LEGS}
            for window in inputs:
                got = {leg: _run_leg(leg, banks[leg], *window) for leg in LEGS}
                assert got["compiled"] == got["segments"]
                assert got["fallback"] == got["segments"]

    @pytest.mark.parametrize("leg", ["compiled", "fallback"])
    @pytest.mark.parametrize(
        "event",
        [[1.0, EVENT_DOWN, 2, 1.0], [1.0, EVENT_DOWN, -1, 1.0],
         [1.0, 7, 0, 1.0], [1.0, EVENT_SPEED, 0, 0.0],
         [1.0, EVENT_SPEED, 0, math.inf], [math.nan, EVENT_UP, 0, 1.0],
         [1.0, EVENT_UP, 0.5, 1.0]],
    )
    def test_bad_input_raises_and_leaves_state(self, leg, event):
        bank = ServerBank([1.0, 2.0])
        bank.dispatch(np.array([0, 1]), np.array([0.0, 0.0]),
                      np.array([4.0, 4.0]), np.zeros(2), np.zeros(2))
        before = json.dumps(bank.state_dict())
        jobs = np.array([[0.5], [0.5], [1.0], [0.0]])
        ctx = _window_fallback() if leg == "fallback" else contextlib.nullcontext()
        with ctx, pytest.raises(ValueError, match="out of range"):
            bank.run_fault_window(np.array([1]), jobs, np.array([event]), 2.0)
        assert json.dumps(bank.state_dict()) == before
        assert bank.take_completions()[0].size == 0


# ----------------------------------------------------------------------
# Service level: the window as the loop ran it before
# ----------------------------------------------------------------------


class _SegmentLoopService(SchedulerService):
    """The service with a per-segment fault window: a dispatch and a
    collect per segment, each event applied in the loop, and each
    bounce batch merged into the pending block as it happens — the
    oracle the one-call window is pinned to."""

    def _bounce_batch(self, now, origins, sizes, attempts):
        retry = self._faults.retry
        attempts = np.asarray(attempts).astype(np.int64)
        keep = (attempts + 1 < retry.max_attempts) & (
            self._faults.on_failure == "retry"
        )
        retried = int(np.count_nonzero(keep))
        lost = attempts.size - retried
        if lost:
            counters.inc("service.jobs_lost", value=lost)
        if retried:
            counters.inc("service.jobs_retried", value=retried)
            ks = np.unique(attempts)
            waits = np.array([retry.delay(int(k)) for k in ks], dtype=float)
            due = now + waits[np.searchsorted(ks, attempts)]
            rows = np.column_stack([due, origins, sizes, attempts + 1])[keep]
            block = np.concatenate([self._pending, rows])
            self._pending = block[np.argsort(block[:, 0], kind="stable")]
        return lost, retried

    def _run_window_faulted(self, start, end):
        step = self.step
        controller = step.controller
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = step.admit(times, sizes)
        n_due = int(np.searchsorted(self._pending[:, 0], end, side="right"))
        due, self._pending = self._pending[:n_due], self._pending[n_due:]
        job_times, job_sizes, job_origins = adm_times, adm_sizes, adm_times
        job_attempts = np.zeros(adm_times.size, dtype=np.int64)
        if n_due:
            job_times = np.concatenate([adm_times, np.maximum(due[:, 0], start)])
            order = np.argsort(job_times, kind="stable")
            job_times = job_times[order]
            job_sizes = np.concatenate([adm_sizes, due[:, 2]])[order]
            job_origins = np.concatenate([adm_times, due[:, 1]])[order]
            job_attempts = np.concatenate(
                [job_attempts, due[:, 3].astype(np.int64)]
            )[order]
        targets = step.dispatcher.select_batch(job_sizes)
        events = []
        while (self._event_pos < len(self.fault_events)
               and self.fault_events[self._event_pos].time <= end):
            events.append(self.fault_events[self._event_pos])
            self._event_pos += 1
        completed = lost = retried = pos = 0
        for ev in [*events, None]:
            seg_end = end if ev is None else ev.time
            stop = int(np.searchsorted(job_times, seg_end, side="right"))
            if stop > pos:
                dep = self.bank.dispatch(
                    targets[pos:stop], job_times[pos:stop],
                    job_sizes[pos:stop], job_origins[pos:stop],
                    job_attempts[pos:stop],
                )
                idx = np.flatnonzero(np.isnan(dep)) + pos
                if idx.size:
                    a, b = self._bounce_batch(
                        job_times[idx], job_origins[idx],
                        job_sizes[idx], job_attempts[idx],
                    )
                    lost += a
                    retried += b
                pos = stop
            completed += len(self.bank.collect_completions(seg_end))
            if ev is None:
                continue
            if ev.kind == DOWN:
                if self.bank.up[ev.server]:
                    residents = self.bank.fail(ev.server, ev.time)
                    controller.mark_server_down(ev.server, ev.time)
                    a, b = self._bounce_batch(
                        ev.time, residents[:, 0], residents[:, 1],
                        residents[:, 2],
                    )
                    lost += a
                    retried += b
            elif ev.kind == UP:
                if not self.bank.up[ev.server]:
                    self.bank.repair(ev.server, ev.time)
                    controller.mark_server_up(ev.server, ev.time)
            else:
                level = self._degrade_level[ev.server]
                level = level + 1 if ev.kind == DEGRADE_START else max(0, level - 1)
                self._degrade_level[ev.server] = level
                self.bank.set_speed_factor(
                    ev.server, ev.time, self._faults.degrade_factor**level
                )
        rows, witnesses, offsets, responses = self.bank.take_completions()
        mrt, ratio = step.fold(
            witnesses, offsets, responses, rows[:, 2], sequential=True
        )
        step.close(
            start, end, offered=int(times.size), admitted=int(adm_times.size),
            mrt=mrt, ratio=ratio, completed=completed,
            lost=lost, retried=retried, bounced=lost + retried,
            servers_up=int(np.count_nonzero(self.bank.up)),
        )


_KINDS = (DOWN, UP, DEGRADE_START, DEGRADE_END)


def _service_run(leg: str, speeds, faults, events, times, sizes):
    config = ServiceConfig(speeds=tuple(speeds), duration=200.0,
                           control_period=20.0, faults=faults,
                           min_arrivals_to_shed=10**6)
    cls = _SegmentLoopService if leg == "segments" else SchedulerService
    service = cls(config, TraceJobSource(times, sizes), fault_events=events)
    ctx = _window_fallback() if leg == "fallback" else contextlib.nullcontext()
    with ctx, counters.scoped() as delta:
        report = service.run()
    state = service.state_dict(0, report)
    return {
        "report": json.dumps(report.as_dict(), sort_keys=True),
        "pending": json.dumps(state["pending"]),
        "bank": json.dumps(state["bank"]),
        "degrade": state["degrade_level"],
        "counters": {k: v for k, v in delta.items()
                     if k.startswith("service.")},
    }


class TestServiceWindowBits:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        on_failure=st.sampled_from(["lose", "retry"]),
        max_attempts=st.integers(1, 3),
        base_delay=st.sampled_from([0.0, 0.5, 7.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_service_paths_agree(self, seed, n, on_failure, max_attempts,
                                 base_delay):
        """Reports, pending retries, bank state and counters agree on
        the compiled window, its fallback and the per-segment loop,
        with bounces both lost and retried (``max_attempts`` reached)."""
        rng = np.random.default_rng(seed)
        speeds = [float(2.0 ** k) for k in rng.integers(-1, 2, n)]
        m = int(rng.integers(50, 400))
        times = np.sort(rng.integers(0, 800, m) * GRID)
        sizes = rng.integers(1, 12, m) * GRID
        events = [
            FaultEvent(float(t), _KINDS[int(k)], int(s))
            for t, k, s in zip(rng.integers(0, 800, 12) * GRID,
                               rng.integers(0, 4, 12), rng.integers(0, n, 12))
        ]
        faults = FaultConfig(
            on_failure=on_failure, degrade_factor=0.5,
            retry=RetryPolicy(max_attempts=max_attempts,
                              base_delay=base_delay, max_delay=30.0),
        )
        runs = {leg: _service_run(leg, speeds, faults, events, times, sizes)
                for leg in LEGS}
        assert runs["compiled"] == runs["segments"]
        assert runs["fallback"] == runs["segments"]


class _Spy:
    """Counts compiled window calls by status and ring growths."""

    def __init__(self, monkeypatch):
        self.statuses: list[int] = []
        self.grows = 0
        call = ckernel.fault_window_c
        grow = ckernel.InflightRings.grow

        def counted_call(*args):
            status = call(*args)
            self.statuses.append(status)
            return status

        def counted_grow(rings, cap):
            self.grows += 1
            grow(rings, cap)

        def refuse(*args, **kwargs):
            raise AssertionError("an interpreted segment step ran")

        monkeypatch.setattr(ckernel, "fault_window_c", counted_call)
        monkeypatch.setattr(ckernel.InflightRings, "grow", counted_grow)
        for name in ("dispatch", "collect_completions", "fail", "repair",
                     "set_speed_factor"):
            monkeypatch.setattr(ServerBank, name, refuse)


@needs_kernel
class TestOneCallPerWindow:
    def test_compiled_window_never_runs_the_segment_steps(self, monkeypatch):
        """Each window runs its segments and events in exactly one
        kernel call; ``ServerBank.dispatch``, ``collect_completions``,
        ``fail``, ``repair`` and ``set_speed_factor`` never run.  A call
        refused for ring room (status 2) writes nothing and is repeated
        once after the block grows."""
        config = ServiceConfig(
            speeds=(1.0, 2.0, 3.0, 4.0), duration=2000.0, control_period=50.0,
            faults=FaultConfig(mtbf=300.0, mttr=60.0, degrade_rate=0.004,
                               degrade_duration=100.0, on_failure="retry"),
            fault_seed=5,
        )
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(1.0 / 7.0, 14000))
        times = times[times < 2000.0]
        source = TraceJobSource(times, rng.exponential(1.0, times.size))
        service = SchedulerService(config, source)
        spy = _Spy(monkeypatch)
        report = service.run()
        assert report.membership_changes > 0 and report.jobs_retried > 0
        assert spy.statuses.count(0) == len(report.windows)
        assert set(spy.statuses) <= {0, 2}
        assert spy.statuses.count(2) == spy.grows > 0
