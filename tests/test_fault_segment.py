"""Fault-mode segment dispatch: bits, validation, checkpoints, ledger.

Fault mode queues each fault segment's jobs through one
:meth:`ServerBank.dispatch` call.  The compiled step, its Python
fallback and a scalar ``max(free_at, t) + size/eff`` oracle must agree
bit for bit; an out-of-range target must be refused before any state
changes; a bank checkpoint in the original record format must load and
re-serialise unchanged; and the service's conservation ledger must
catch a window that loses a completion.
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
from repro.service.sources import SyntheticJobSource
from repro.sim import ckernel
from repro.sim.arrivals import Workload


@contextlib.contextmanager
def _python_path():
    """Run the body on the interpreted fallback, then restore the probe."""
    saved = ckernel._fns
    ckernel._fns = False
    try:
        yield
    finally:
        ckernel._fns = saved


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
            ctx = _python_path() if path == "python" else contextlib.nullcontext()
            with ctx:
                dep = b.dispatch(targets, times, sizes, origins, attempts).copy()
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
        bank = ServerBank([1.0, 2.0])
        bank.free_at[:] = [3.0, 4.0]
        targets = np.array([0, 1, 2], dtype=np.int64)
        times = np.array([5.0, 5.0, 5.0])
        ctx = _python_path() if path == "python" else contextlib.nullcontext()
        with ctx, pytest.raises(ValueError, match="out of range"):
            bank.dispatch(targets, times, times, times, np.zeros(3))
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
        bank = ServerBank([1.0])
        expect = []
        t = 0.0
        for k in range(60):
            m = k % 7
            times = t + np.arange(m, dtype=float)
            t += m
            dep = bank.dispatch(
                np.zeros(m, dtype=np.int64), times, np.ones(m), times,
                np.zeros(m),
            )
            expect.extend(dep.tolist())
            done = bank.collect_completions(t - 3.0)
            assert done[:, 4].tolist() == expect[: len(done)]
            del expect[: len(done)]
        assert [j[3] for j in bank.state_dict()["inflight"][0]] == expect


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
        collect = ServerBank.collect_completions
        dropped: list[float] = []

        def lossy(bank, now):
            done = collect(bank, now)
            if not dropped and now > 500.0 and len(done):
                dropped.append(now)
                return done[:-1]
            return done

        monkeypatch.setattr(ServerBank, "collect_completions", lossy)
        service = _faulted_service()
        with pytest.raises(RuntimeError) as err:
            service.run()
        window = math.ceil(dropped[0] / CONTROL_PERIOD) - 1
        msg = str(err.value)
        assert f"after window {window} (faulted path)" in msg
        for name in ("offered=", "dispatched=", "shed=", "completed=",
                     "lost=", "pending_retry=", "in_flight="):
            assert name in msg
