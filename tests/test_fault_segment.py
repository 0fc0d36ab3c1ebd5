"""Fault-mode segment dispatch: bits, validation, checkpoints, ledger.

A fault-mode window runs its segments through one
:meth:`ServerBank.run_fault_window` call; :meth:`ServerBank.dispatch`
and :meth:`ServerBank.collect_completions` are the interpreted segment
steps of its fallback.  A window with no events is one segment, so the
compiled legs below run windows: one with no jobs and no events
collects, one ending at ``-inf`` dispatches and collects nothing.  The
compiled step, the interpreted one and a scalar ``max(free_at, t) +
size/eff`` oracle must agree bit for bit; an out-of-range target must
be refused before any state changes; a bank checkpoint in the original
record format must load and re-serialise unchanged; and the service's
conservation ledger must catch a window that loses a completion.
"""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.models import FaultEvent
from repro.service import SchedulerService, ServerBank, ServiceConfig
from repro.service.replay import EVENT_DOWN, EVENT_SPEED, EVENT_UP
from repro.service.sources import SyntheticJobSource
from repro.sim import ckernel
from repro.sim.arrivals import Workload
from repro.sim.fastpath import group_by_server

from .conftest import KERNEL_PATHS, kernel_path


def _segment(seed: int, n: int, nservers: int, grid: bool):
    """A bank state and one segment of jobs.

    On the grid every time, size and speed is a multiple of a power of
    two, so ``t == free_at`` ties happen often; off it the floats are
    realistic.
    """
    rng = np.random.default_rng(seed)
    if grid:
        times = np.cumsum(rng.integers(0, 3, n) * 0.25)
        sizes = rng.integers(1, 8, n) * 0.25
        speeds = 2.0 ** rng.integers(-1, 3, nservers)
    else:
        times = np.cumsum(rng.exponential(0.5, n))
        sizes = rng.lognormal(0.0, 1.2, n)
        speeds = rng.uniform(0.2, 5.0, nservers)
    targets = rng.integers(0, nservers, n).astype(np.int64)
    bank = ServerBank(speeds)
    # Degrade factors 0.5**k, as fault mode applies them.
    bank.speed_factor[:] = 0.5 ** rng.integers(0, 4, nservers)
    bank.up[:] = rng.random(nservers) < 0.7
    # Carried free-up instants, some equal to a job's arrival time.
    if n:
        bank.free_at[:] = np.where(
            rng.random(nservers) < 0.5, times[rng.integers(0, n, nservers)], 0.0
        )
    origins = times - rng.exponential(1.0, n)
    attempts = rng.integers(0, 4, n)
    return bank, targets, times, sizes, origins, attempts


def _oracle(bank: ServerBank, targets, times, sizes):
    """The per-job step, one scalar at a time."""
    free = [float(f) for f in bank.free_at]
    deps = []
    for s, t, w in zip(targets.tolist(), times.tolist(), sizes.tolist()):
        if not bank.up[s]:
            deps.append(math.nan)
            continue
        d = max(free[s], t) + w / bank.effective_speed(s)
        free[s] = d
        deps.append(d)
    return np.array(deps, dtype=float), np.array(free)


def _clone(bank: ServerBank) -> ServerBank:
    out = ServerBank(bank.speeds)
    out.load_state(bank.state_dict())
    return out


_NO_EVENTS = np.empty((0, 4))


def _window_dispatch(bank, targets, times, sizes, origins, attempts):
    """:meth:`ServerBank.dispatch` as a window: one segment, and the
    collect at ``end = -inf`` pops nothing."""
    jobs = np.array([times, origins, sizes, attempts], dtype=float)
    return bank.run_fault_window(
        targets, jobs.reshape(4, -1), _NO_EVENTS, -math.inf
    ).departures


def _window_event(bank, now, code, server, factor=1.0):
    """One event at *now* as a window with no jobs: a collect at *now*,
    the event, a second collect at *now*.  Returns the window."""
    events = np.array([[now, code, server, factor]])
    return bank.run_fault_window(
        np.empty(0, dtype=np.int64), np.empty((4, 0)), events, now
    )


def _window_collect(bank, now):
    """:meth:`ServerBank.collect_completions` as a window with no jobs
    and no events; returns the rows it collected."""
    row = bank._ndone
    m = bank.run_fault_window(
        np.empty(0, dtype=np.int64), np.empty((4, 0)), _NO_EVENTS, now
    ).completed
    return bank._rings.done[row:row + m]


class TestSegmentDispatchBits:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 200),
        nservers=st.integers(1, 6),
        grid=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernel_fallback_and_oracle_agree(self, seed, n, nservers, grid):
        bank, targets, times, sizes, origins, attempts = _segment(
            seed, n, nservers, grid
        )
        want_dep, want_free = _oracle(bank, targets, times, sizes)

        runs = []
        for path in ("compiled", "python"):
            b = _clone(bank)
            if path == "python":
                dep = b.dispatch(targets, times, sizes, origins, attempts).copy()
            else:
                dep = _window_dispatch(
                    b, targets, times, sizes, origins, attempts
                ).copy()
            runs.append((b, dep))
            assert np.array_equal(dep, want_dep, equal_nan=True), path
            assert np.array_equal(b.free_at, want_free), path

        (bc, _), (bp, _) = runs
        assert bc.state_dict() == bp.state_dict()
        # Every accepted job is in flight, on its server, in job order.
        accepted = ~np.isnan(want_dep)
        assert bc.inflight_count() == int(accepted.sum())
        done = bc.collect_completions(math.inf)
        for s in range(nservers):
            mine = accepted & (targets == s)
            rows = done[done[:, 0] == s]
            assert np.array_equal(rows[:, 1], origins[mine])
            assert np.array_equal(rows[:, 4], want_dep[mine])

    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_out_of_range_target_raises_and_leaves_state(self, path):
        for bad in (2, -1):
            bank = ServerBank([1.0, 2.0])
            bank.free_at[:] = [3.0, 4.0]
            targets = np.array([0, 1, bad], dtype=np.int64)
            times = np.array([5.0, 5.0, 5.0])
            with pytest.raises(ValueError, match="out of range"):
                if path == "python":
                    bank.dispatch(targets, times, times, times, np.zeros(3))
                else:
                    _window_dispatch(bank, targets, times, times, times,
                                     np.zeros(3))
            assert bank.free_at.tolist() == [3.0, 4.0]
            assert bank.inflight_count() == 0


#: A bank checkpoint as the per-job deque bank wrote it: per server, a
#: list of [origin, size, svc, dep, attempts] with an int attempts.
PARENT_BANK_STATE = {
    "free_at": [12.5, 4.0, 7.25],
    "up": [True, False, True],
    "speed_factor": [1.0, 1.0, 0.5],
    "inflight": [
        [[8.0, 2.0, 2.0, 10.5, 0], [9.25, 2.0, 2.0, 12.5, 2]],
        [],
        [[6.0, 0.5, 1.0, 7.25, 1]],
    ],
}


class TestBankCheckpointFormat:
    def test_parent_format_loads_and_reserialises_identically(self):
        bank = ServerBank([1.0, 2.0, 1.0])
        bank.load_state(json.loads(json.dumps(PARENT_BANK_STATE)))
        state = bank.state_dict()
        assert state == PARENT_BANK_STATE
        assert json.dumps(state) == json.dumps(PARENT_BANK_STATE)
        attempts = [job[4] for q in state["inflight"] for job in q]
        assert all(type(a) is int for a in attempts)
        assert bank.inflight_count() == 3

    def test_fifo_survives_growth_and_compaction(self):
        """Records keep FIFO order through ring growth and compaction,
        through windows and through the interpreted segment calls.

        A backlog builds on server 0 until its ring grows past the
        initial capacity, then drains while segments keep arriving, so
        pushes run past the end of the slot and compact; server 1 is
        down throughout, so its jobs bounce and never take room.
        """
        for windows in (True, False):
            self._growth_and_compaction(windows)

    @staticmethod
    def _growth_and_compaction(windows: bool):
        dispatch = _window_dispatch if windows else ServerBank.dispatch
        collect = _window_collect if windows else ServerBank.collect_completions
        bank = ServerBank([1.0, 4.0])
        bank.fail(1, 0.0)
        rings = bank._rings
        cap0 = rings.cap
        expect = []
        grew = compacted = 0
        t = 0.0
        for k in range(120):
            m = k % 7
            times = t + np.arange(m, dtype=float)
            t += m
            # Twice the server's capacity for 40 rounds, then half.
            size = 2.0 if k < 40 else 0.5
            targets = (np.arange(m) % 5 == 4).astype(np.int64)
            cap, head = rings.cap, int(rings.head[0])
            live = int(rings.tail[0]) - head
            dep = dispatch(
                bank, targets, times, np.full(m, size), times,
                np.zeros(m, dtype=np.int64),
            )
            assert np.isnan(dep[targets == 1]).all()
            grew += rings.cap > cap
            compacted += (rings.cap == cap and head > 0 and live > 0
                          and rings.head[0] == 0)
            expect.extend(dep[targets == 0].tolist())
            done = collect(bank, t - 3.0)
            assert (done[:, 0] == 0).all()
            assert done[:, 4].tolist() == expect[: len(done)]
            del expect[: len(done)]
            assert bank.inflight_count() == len(expect)
            rows, wit, offsets, resp = bank.take_completions()
            assert rows.tolist() == done.tolist()
            assert wit.tolist() == (done[:, 2] / done[:, 3]).tolist()
            assert offsets.tolist() == [0, len(done), len(done)]
            assert resp.tolist() == (done[:, 4] - done[:, 1]).tolist()
        assert rings.cap > cap0 and grew
        assert compacted
        state = bank.state_dict()
        assert [j[3] for j in state["inflight"][0]] == expect
        assert state["inflight"][1] == []


class TestBankStateValidation:
    """A checkpointed bank state that does not fit the bank is refused
    up front, naming the field and server, with the bank untouched."""

    def _bank(self):
        bank = ServerBank([1.0, 2.0, 1.0, 2.0])
        dep = bank.dispatch(
            np.array([0, 0, 3], dtype=np.int64), np.array([1.0, 2.0, 3.0]),
            np.ones(3), np.array([1.0, 2.0, 3.0]), np.array([0, 1, 2]),
        )
        assert not np.isnan(dep).any()
        return bank

    def _state(self):
        return json.loads(json.dumps(self._bank().state_dict()))

    @pytest.mark.parametrize(
        ("field", "value"),
        [("inflight", lambda st: st["inflight"][:3]),
         ("up", lambda st: st["up"][:3]),
         ("speed_factor", lambda st: st["speed_factor"][:2]),
         ("free_at", lambda st: st["free_at"] + [0.0])],
    )
    def test_vector_of_the_wrong_length_is_refused(self, field, value):
        state = self._state()
        state[field] = value(state)
        bank = self._bank()
        before = json.dumps(bank.state_dict())
        with pytest.raises(ValueError, match=f"bank state {field}"):
            bank.load_state(state)
        assert json.dumps(bank.state_dict()) == before

    @pytest.mark.parametrize(
        ("record", "message"),
        [([1.0, 1.0, 1.0, float("nan"), 0], "departures must be finite"),
         ([1.0, 1.0, 1.0, float("inf"), 0], "departures must be finite"),
         ([1.0, 1.0, 1.0, 0.5, 0], "departures decrease"),
         ([1.0, 1.0, 1.0, 9.0], "5 numeric fields"),
         ([1.0, 1.0, 1.0, 9.0, 0, 0], "5 numeric fields"),
         ([1.0, 1.0, 1.0, "late", 0], "5 numeric fields"),
         (9.0, "5 numeric fields"),
         ([1.0, 1.0, 1.0, 9.0, -1], "attempts must be non-negative integers"),
         ([1.0, 1.0, 1.0, 9.0, 1.5], "attempts must be non-negative integers")],
    )
    def test_bad_record_is_refused_naming_the_server(self, record, message):
        state = self._state()
        state["inflight"][0].append(record)
        bank = self._bank()
        before = json.dumps(bank.state_dict())
        with pytest.raises(ValueError, match=r"inflight\[0\].*" + message):
            bank.load_state(state)
        assert json.dumps(bank.state_dict()) == before

    def test_non_positive_speed_factor_is_refused(self):
        state = self._state()
        state["speed_factor"][2] = 0.0
        with pytest.raises(ValueError, match="speed_factor"):
            self._bank().load_state(state)

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0])
    def test_speed_factor_that_is_not_positive_and_finite_is_refused(
        self, path, factor
    ):
        """A NaN factor would leave free_at NaN and the job in flight
        forever: the bank refuses it and keeps its state."""
        with kernel_path(path):
            bank = ServerBank([1.0])
            one = np.ones(1)
            bank.dispatch(np.zeros(1, np.int64), 0 * one, 4 * one, 0 * one,
                          np.zeros(1, np.int64))
            before = json.dumps(bank.state_dict())
            with pytest.raises(ValueError, match="speed factor"):
                bank.set_speed_factor(0, 1.0, factor)
            assert json.dumps(bank.state_dict()) == before
            assert bank.collect_completions(100.0)[:, 4].tolist() == [4.0]

    @pytest.mark.parametrize("speeds", [[math.nan, 1.0], [1.0, math.inf]])
    def test_speed_that_is_not_finite_is_refused(self, speeds):
        with pytest.raises(ValueError, match="speeds must be positive and finite"):
            ServerBank(speeds)

    def test_valid_state_loads_into_a_bank_with_a_smaller_ring(self):
        big = ServerBank([1.0, 2.0])
        m = 3 * big._rings.cap
        times = np.arange(m, dtype=float)
        big.dispatch(np.zeros(m, dtype=np.int64), times, np.full(m, 2.0),
                     times, np.zeros(m, dtype=np.int64))
        state = json.loads(json.dumps(big.state_dict()))
        small = ServerBank([1.0, 2.0])
        small.load_state(state)
        assert small.state_dict() == state
        assert small.inflight_count() == m


class _ListBank:
    """The in-flight semantics as per-server Python lists: the model the
    ring bank is checked against."""

    def __init__(self, speeds):
        self.speeds = [float(s) for s in speeds]
        n = len(self.speeds)
        self.free_at = [0.0] * n
        self.up = [True] * n
        self.factor = [1.0] * n
        self.jobs = [[] for _ in range(n)]

    def dispatch(self, targets, times, sizes, origins, attempts):
        deps = []
        for s, t, w, o, a in zip(targets, times, sizes, origins, attempts):
            v = w / (self.speeds[s] * self.factor[s])
            if not self.up[s]:
                deps.append(math.nan)
                continue
            d = max(self.free_at[s], t) + v
            self.free_at[s] = d
            self.jobs[s].append([o, w, v, d, int(a)])
            deps.append(d)
        return deps

    def collect(self, now):
        rows = []
        for s, q in enumerate(self.jobs):
            while q and q[0][3] <= now:
                o, w, v, d, _ = q.pop(0)
                rows.append([float(s), o, w, v, d])
        return rows

    def fail(self, s, now):
        self.up[s] = False
        out = [[o, w, float(a)] for o, w, _, _, a in self.jobs[s]]
        self.jobs[s] = []
        self.free_at[s] = now
        return out

    def repair(self, s, now):
        self.up[s] = True
        self.free_at[s] = now

    def set_speed_factor(self, s, now, factor):
        old = self.speeds[s] * self.factor[s]
        self.factor[s] = factor
        scale = old / (self.speeds[s] * factor)
        if scale == 1.0:
            return
        for job in self.jobs[s]:
            if job[3] > now:
                job[3] = now + (job[3] - now) * scale
                job[2] *= scale
        if self.free_at[s] > now:
            self.free_at[s] = now + (self.free_at[s] - now) * scale

    def state_dict(self):
        return {
            "free_at": list(self.free_at),
            "up": list(self.up),
            "speed_factor": list(self.factor),
            "inflight": [[list(job) for job in q] for q in self.jobs],
        }


@contextlib.contextmanager
def _one_record_rings():
    """Start every ring at one record per server, so growth and
    compaction happen constantly."""
    saved = ckernel.InflightRings.MIN_CAPACITY
    ckernel.InflightRings.MIN_CAPACITY = 1
    try:
        yield
    finally:
        ckernel.InflightRings.MIN_CAPACITY = saved


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("dispatch"), st.integers(0, 40), st.integers(0, 2**31)),
        st.tuples(st.just("collect"), st.integers(-8, 40), st.booleans()),
        st.tuples(st.just("fail"), st.integers(0, 3), st.integers(0, 8)),
        st.tuples(st.just("repair"), st.integers(0, 3), st.integers(0, 8)),
        st.tuples(st.just("degrade"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


class TestRingBankAgainstListModel:
    """Random segment dispatches (down targets and ``t == free_at`` ties
    on a power-of-two grid, off-grid sizes too), collects, failures, repairs, speed changes
    and a JSON checkpoint round trip: the ring bank, on either kernel
    path, matches the list model bit for bit.  The initial ring holds
    one record per server, so growth and compaction happen constantly.
    The compiled leg runs every operation as a window, whose event
    first collects at its own time, so the model collects there too;
    the python leg calls the interpreted bank methods.
    """

    @pytest.mark.parametrize("path", ["compiled", "python"])
    @given(ops=_OPS, speeds=st.lists(st.integers(-1, 2), min_size=4, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_matches_list_model(self, path, ops, speeds):
        speeds = [2.0**k for k in speeds]
        model = _ListBank(speeds)
        clock = 0.0
        windows = path == "compiled"
        with _one_record_rings():
            bank = ServerBank(speeds)
            for op, a, b in ops:
                if op == "dispatch":
                    rng = np.random.default_rng(b)
                    times = clock + np.cumsum(rng.integers(0, 3, a) * 0.25)
                    sizes = rng.integers(1, 8, a) * 0.25
                    if b % 2:
                        # Off-grid sizes: size / svc then rounds apart
                        # from the speed, so witness order shows.
                        sizes = rng.lognormal(0.0, 1.0, a)
                    targets = rng.integers(0, 4, a).astype(np.int64)
                    origins = times - rng.integers(0, 4, a) * 0.5
                    attempts = rng.integers(0, 3, a).astype(np.int64)
                    if a:
                        clock = float(times[-1])
                    dispatch = _window_dispatch if windows else ServerBank.dispatch
                    got = dispatch(bank, targets, times, sizes, origins, attempts)
                    want = model.dispatch(
                        targets.tolist(), times.tolist(), sizes.tolist(),
                        origins.tolist(), attempts.tolist(),
                    )
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(got), nan)
                    assert _bits(got[~nan]) == _bits(np.asarray(want)[~nan])
                elif op == "collect":
                    # Any instant: before, at or past departures.
                    now = clock + a * 0.25
                    if b:
                        clock = max(clock, now)
                    collect = (_window_collect if windows
                               else ServerBank.collect_completions)
                    got = collect(bank, now)
                    want = model.collect(now)
                    assert _bits(got) == _bits(np.reshape(want, (-1, 5)))
                elif op == "fail" and model.up[a]:
                    clock += b * 0.25
                    want_done = model.collect(clock)
                    if windows:
                        row = bank._ndone
                        w = _window_event(bank, clock, EVENT_DOWN, a)
                        done = bank._rings.done[row:row + w.completed]
                        assert w.applied.tolist() == [True]
                        assert (w.bounces[:, 0] == clock).all()
                        got = w.bounces[:, 1:]
                    else:
                        done = bank.collect_completions(clock)
                        got = bank.fail(a, clock)
                    assert _bits(done) == _bits(np.reshape(want_done, (-1, 5)))
                    want = model.fail(a, clock)
                    assert _bits(got) == _bits(np.reshape(want, (-1, 3)))
                elif op == "repair" and not model.up[a]:
                    clock += b * 0.25
                    if windows:
                        model.collect(clock)
                        w = _window_event(bank, clock, EVENT_UP, a)
                        assert w.applied.tolist() == [True]
                    else:
                        bank.repair(a, clock)
                    model.repair(a, clock)
                elif op == "degrade":
                    if windows:
                        model.collect(clock)
                        w = _window_event(bank, clock, EVENT_SPEED, a, 0.5**b)
                        assert w.applied.tolist() == [False]
                    else:
                        bank.set_speed_factor(a, clock, 0.5**b)
                    model.set_speed_factor(a, clock, 0.5**b)
                elif op == "checkpoint":
                    state = json.loads(json.dumps(bank.state_dict()))
                    bank = ServerBank(speeds)
                    bank.load_state(state)
                # The fold inputs of everything collected since the
                # last take: the numpy regroup, bit for bit.
                rows, wit, offsets, resp = bank.take_completions()
                order, want = group_by_server(rows[:, 0].astype(np.int64), 4)
                assert _bits(wit) == _bits((rows[:, 2] / rows[:, 3])[order])
                assert offsets.tolist() == want.tolist()
                assert _bits(resp) == _bits(rows[:, 4] - rows[:, 1])
                assert json.dumps(bank.state_dict()) == json.dumps(
                    model.state_dict()
                )
                assert np.array_equal(bank.free_at, model.free_at)
                assert bank.inflight_count() == sum(map(len, model.jobs))


SPEEDS = (1.0, 2.0, 3.0, 2.0)
CONTROL_PERIOD = 100.0


def _faulted_service():
    config = ServiceConfig(
        speeds=SPEEDS, duration=1500.0, control_period=CONTROL_PERIOD
    )
    source = SyntheticJobSource(
        Workload(total_speed=sum(SPEEDS), utilization=0.7), 11
    )
    events = [FaultEvent(450.0, "down", 2), FaultEvent(850.0, "up", 2)]
    return SchedulerService(config, source, fault_events=events)


class TestConservationLedger:
    def test_dropped_completion_raises_naming_the_window(self, monkeypatch):
        run_window = ServerBank.run_fault_window
        dropped: list[float] = []

        def lossy(bank, targets, jobs, events, end):
            window = run_window(bank, targets, jobs, events, end)
            if not dropped and end > 500.0 and window.completed:
                dropped.append(end)
                return window._replace(completed=window.completed - 1)
            return window

        monkeypatch.setattr(ServerBank, "run_fault_window", lossy)
        service = _faulted_service()
        with pytest.raises(RuntimeError) as err:
            service.run()
        window = math.ceil(dropped[0] / CONTROL_PERIOD) - 1
        msg = str(err.value)
        assert f"after window {window} (faulted path)" in msg
        for name in ("offered=", "dispatched=", "shed=", "completed=",
                     "lost=", "pending_retry=", "in_flight="):
            assert name in msg
