"""Property tests for the compiled FCFS cell kernel (kernel v4).

The C kernel replays FCFS with an online per-server Lindley recursion in
one arrival-order sweep; the oracle here is the original numpy pipeline
(stable sort by target, per-server :func:`fcfs_replay`, scatter back).
Bit-identity — ``np.array_equal``, not ``allclose`` — is the contract:
the C code mirrors the numpy float op order and is compiled with
``-ffp-contract=off``, so any drift is a bug.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.controller import QuasiStaticController
from repro.service.replay import ServerBank
from repro.sim import ckernel
from repro.sim.fastpath import fcfs_replay

pytestmark = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="compiled kernel unavailable (no C compiler)",
)


def oracle_fcfs(times, work, speeds, targets):
    """Grouped-replay oracle: completions in arrival order."""
    comp = np.empty_like(times)
    for s in range(speeds.size):
        mask = targets == s
        comp[mask] = fcfs_replay(times[mask], work[mask], float(speeds[s]))
    return comp


def replay(times, work, speeds, plans, **kw):
    fn = ckernel.entry("cell")
    assert fn is not None
    out = ckernel.replay_cell_c(fn, times, work, speeds, plans, False, **kw)
    comp, gw, offsets, tail, ok = out
    assert ok
    # Arena-backed views: copy before the arena is reused.
    return (
        comp.copy(),
        gw.copy(),
        offsets.copy(),
        None if tail is None else tuple(t.copy() for t in tail),
    )


def case(draw_n, draw_servers, seed, *, simultaneous=False):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.exponential(1.0, draw_n))
    if simultaneous and draw_n >= 2:
        # Collapse pairs onto shared instants: ties must not reorder.
        times[1::2] = times[::2][: times[1::2].size]
        times = np.sort(times)
    work = rng.exponential(1.0, draw_n) + 1e-9
    speeds = rng.uniform(0.1, 10.0, draw_servers)
    targets = rng.integers(0, draw_servers, draw_n)
    return times, work, speeds, targets


class TestOracleIdentity:
    @given(
        n=st.integers(min_value=1, max_value=400),
        nservers=st.integers(min_value=1, max_value=24),
        nplans=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_oracle(self, n, nservers, nplans, seed):
        times, work, speeds, _ = case(n, nservers, seed)
        rng = np.random.default_rng(seed + 1)
        plans = [rng.integers(0, nservers, n) for _ in range(nplans)]
        comp, gw, offsets, _ = replay(times, work, speeds, plans)
        for k, targets in enumerate(plans):
            assert np.array_equal(comp[k], oracle_fcfs(times, work, speeds, targets))
            # Grouped work must be the stable per-server grouping.
            order = np.argsort(targets, kind="stable")
            assert np.array_equal(gw[k], work[order])
            assert np.array_equal(
                offsets[k][1:] - offsets[k][:-1],
                np.bincount(targets, minlength=nservers),
            )

    @given(
        n=st.integers(min_value=1, max_value=300),
        nservers=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_tail_precursors_match_numpy(self, n, nservers, seed, frac):
        times, work, speeds, targets = case(n, nservers, seed)
        cut = int(frac * n)
        comp, _, _, tail = replay(times, work, speeds, [targets], warmup_cut=cut)
        if cut >= n:
            assert tail is None
            return
        resp, ratio, pcounts = tail
        want_resp = comp[0][cut:] - times[cut:]
        assert np.array_equal(resp[0], want_resp)
        assert np.array_equal(ratio[0], want_resp / work[cut:])
        assert np.array_equal(
            pcounts[0], np.bincount(targets[cut:], minlength=nservers)
        )


class TestEdgeCases:
    def test_empty_servers(self):
        """Servers no plan routes to stay empty and do not disturb the
        completions of the servers that do get jobs."""
        times, work, speeds, _ = case(50, 8, 7)
        targets = np.zeros(50, dtype=np.int64)  # servers 1..7 idle
        comp, _, offsets, _ = replay(times, work, speeds, [targets])
        assert np.array_equal(comp[0], oracle_fcfs(times, work, speeds, targets))
        assert np.array_equal(offsets[0][2:], np.full(7, 50))

    def test_singleton_job(self):
        times = np.array([0.5])
        work = np.array([2.0])
        speeds = np.array([0.25, 4.0])
        for s in (0, 1):
            targets = np.array([s], dtype=np.int64)
            comp, _, _, _ = replay(times, work, speeds, [targets])
            assert comp[0][0] == times[0] + work[0] / speeds[s]

    def test_simultaneous_arrivals(self):
        """Ties in arrival time queue FCFS in arrival order — exactly
        what the numpy oracle's stable sort encodes."""
        times, work, speeds, targets = case(120, 4, 11, simultaneous=True)
        comp, _, _, _ = replay(times, work, speeds, [targets])
        assert np.array_equal(comp[0], oracle_fcfs(times, work, speeds, targets))

    def test_tiny_n_smaller_than_server_state(self):
        """n < 2*nservers exercises the scratch-stride floor: the fused
        sweep needs 2*nservers doubles of per-server state per thread
        even when the job count is tiny."""
        times = np.array([0.1, 0.2])
        work = np.array([1.0, 1.0])
        speeds = np.linspace(1.0, 2.0, 18)
        targets = np.array([0, 17], dtype=np.int64)
        comp, _, _, _ = replay(times, work, speeds, [targets])
        assert np.array_equal(comp[0], oracle_fcfs(times, work, speeds, targets))

    def test_out_of_range_target_flags_not_crashes(self):
        times, work, speeds, targets = case(20, 3, 3)
        bad = targets.copy()
        bad[5] = 3  # == nservers, out of range
        fn = ckernel.entry("cell")
        *_, ok = ckernel.replay_cell_c(fn, times, work, speeds, [bad], False)
        assert not ok


class TestThreadIdentity:
    @pytest.mark.skipif(
        not ckernel.openmp_enabled(), reason="kernel built without OpenMP"
    )
    def test_threads_vs_serial_bit_identical(self):
        times, work, speeds, _ = case(5000, 10, 23)
        rng = np.random.default_rng(42)
        plans = [rng.integers(0, 10, 5000) for _ in range(6)]
        before = ckernel.omp_max_threads()
        try:
            ckernel.set_omp_threads(1)
            serial = replay(times, work, speeds, plans, warmup_cut=1000)
            ckernel.set_omp_threads(4)
            threaded = replay(times, work, speeds, plans, warmup_cut=1000)
        finally:
            ckernel.set_omp_threads(before)
        assert np.array_equal(serial[0], threaded[0])
        assert np.array_equal(serial[1], threaded[1])
        assert np.array_equal(serial[2], threaded[2])
        for a, b in zip(serial[3], threaded[3]):
            assert np.array_equal(a, b)


class TestNoCycleGarbage:
    """Kernel calls must leave nothing for the cycle collector.

    Typed ``data_as(POINTER(...))`` arguments go through ``ctypes.cast``,
    which leaves a reference cycle per pointer; the serve loop makes
    several kernel calls per window, so that garbage would pile up until
    a full collection.
    """

    @staticmethod
    def garbage_after(call):
        call()  # warm: arena buffers and entry points already resolved
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                call()
            return gc.collect()
        finally:
            gc.enable()

    def test_estimator_step_leaves_no_cycles(self):
        controller = QuasiStaticController([1.0, 2.0], window=10.0)
        windows = iter(range(100))
        offsets = np.array([0, 3, 8])

        def step():
            times = np.arange(1.0, 9.0) + 8.0 * next(windows)
            controller.observe_arrivals(times, np.ones(8))
            controller.observe_services_grouped(np.ones(8), offsets, times)

        assert ckernel.entry("completions") is not None
        assert self.garbage_after(step) == 0

    def test_window_sweep_leaves_no_cycles(self):
        fn = ckernel.entry("window")
        times, work, speeds, targets = case(200, 4, 3)
        targets = targets.astype(np.int64)
        rings = ServerBank(speeds)._rings
        rings.reserve(times.size)
        assert self.garbage_after(
            lambda: ckernel.replay_window_c(fn, rings, times, work, targets)
        ) == 0
