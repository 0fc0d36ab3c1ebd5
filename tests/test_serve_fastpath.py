"""Bit-identity of the vectorized serve hot path.

The serving loop's throughput work (compiled carry-state window sweep,
memoized dispatch slices, cumulative-sum admission, batched estimator
folds) is only admissible because every piece reproduces the per-job
reference computation *exactly* — same bits, not same-to-tolerance.
These tests pin each piece against its reference and then the whole
window pipeline against the untouched per-job loop, on whichever kernel
path (compiled or numpy fallback) the environment provides; the CI
matrix runs the file on both.
"""

import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch import (
    RoundRobinDispatcher,
    SequenceRoundRobin,
    dispatch_sequence_slice,
)
from repro.distributions.fitting import distribution_from_mean_cv
from repro.faults.models import FaultConfig, FaultEvent, RetryPolicy
from repro.metrics.online import (
    _P2,
    EwmaEstimator,
    EwmaRateEstimator,
    P2Quantile,
    WindowedRateEstimator,
)
from repro.obs.gate import check_gate
from repro.service.checkpoint import ServiceCheckpoint
from repro.service.controller import AdmissionGate, QuasiStaticController
from repro.service.loop import (
    SchedulerService,
    ServiceConfig,
    ServiceCrash,
    ServiceReport,
)
from repro.service.replay import ServerBank
from repro.service.sources import SyntheticJobSource, TraceJobSource, Workload
from repro.sim import ckernel
from repro.sim.fastpath import lindley_window

from .conftest import KERNEL_PATHS, kernel_path, needs_compiler

# ---------------------------------------------------------------------------
# Strategies: job streams are generated from a drawn seed so hypothesis
# shrinks over geometry (counts, splits) while the floats stay realistic.
# ---------------------------------------------------------------------------

seed_strategy = st.integers(min_value=0, max_value=2**31 - 1)
nservers_strategy = st.integers(min_value=1, max_value=6)
njobs_strategy = st.integers(min_value=0, max_value=300)


def _stream(seed: int, n: int, nservers: int):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(0.5, n))
    sizes = rng.lognormal(mean=0.0, sigma=1.2, size=n)
    targets = rng.integers(0, nservers, n)
    speeds = rng.uniform(0.2, 5.0, nservers)
    return times, sizes, targets.astype(np.int64), speeds


def _chunks(n: int, seed: int):
    """A random partition of range(n) into contiguous windows."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    cuts = np.sort(rng.integers(0, n + 1, rng.integers(0, 6)))
    return np.concatenate([[0], cuts, [n]]).astype(int)


# ---------------------------------------------------------------------------
# Carry-state window sweep
# ---------------------------------------------------------------------------


class TestWindowSweepBitIdentity:
    @given(seed=seed_strategy, n=njobs_strategy, nservers=nservers_strategy)
    @settings(max_examples=120, deadline=None)
    def test_window_split_agrees_with_whole(self, seed, n, nservers):
        """Replaying one stream in control-period chunks agrees with
        replaying it whole to float-rounding accuracy (the split
        re-bases the cumulative sums, so exact bit equality is between
        *implementations* under one chunking, not between chunkings)."""
        times, sizes, targets, speeds = _stream(seed, n, nservers)
        whole = ServerBank(speeds)
        dep_whole, svc_whole, _, _ = (
            a.copy() for a in whole.replay_window_grouped(targets, times, sizes)
        )

        split = ServerBank(speeds)
        deps, svcs = [], []
        bounds = _chunks(n, seed)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            d, s, _, _ = split.replay_window_grouped(
                targets[lo:hi], times[lo:hi], sizes[lo:hi]
            )
            deps.append(d.copy())
            svcs.append(s.copy())
        dep_split = np.concatenate(deps) if deps else np.empty(0)
        svc_split = np.concatenate(svcs) if svcs else np.empty(0)

        assert np.allclose(dep_whole, dep_split, rtol=1e-12, atol=0.0)
        # Service demands never re-base: exactly equal.
        assert np.array_equal(svc_whole, svc_split)
        assert np.allclose(whole.free_at, split.free_at, rtol=1e-12, atol=0.0)

    @pytest.mark.skipif(
        ckernel.entry("window") is None, reason="compiled kernel unavailable"
    )
    @given(seed=seed_strategy, n=njobs_strategy, nservers=nservers_strategy)
    @settings(max_examples=120, deadline=None)
    def test_compiled_matches_python_across_window_splits(
        self, seed, n, nservers
    ):
        """The C carry-state sweep and the numpy Lindley recursion emit
        identical bits — departures, grouping, carried free_at — for
        every control-period chunking of the same stream.  This is the
        invariant that lets the serve loop pick either backend without
        perturbing a single report field."""
        times, sizes, targets, speeds = _stream(seed, n, nservers)
        bank_c = ServerBank(speeds)
        bank_py = ServerBank(speeds)
        bounds = _chunks(n, seed)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ct, cs, cg = times[lo:hi], sizes[lo:hi], targets[lo:hi]
            out_c = bank_c.replay_window_grouped(cg, ct, cs)
            # Bank views: copy before the next window reuses them.
            out_c = tuple(a.copy() for a in out_c)
            out_py = bank_py._replay_grouped_python(cg, ct, cs)
            for got, want in zip(out_c, out_py):
                assert np.array_equal(got, want)
            assert np.array_equal(bank_c.free_at, bank_py.free_at)

    def test_grouped_offsets_partition_jobs(self):
        times, sizes, targets, speeds = _stream(7, 64, 4)
        bank = ServerBank(speeds)
        dep, svc, order, offsets = bank.replay_window_grouped(
            targets, times, sizes
        )
        assert offsets[0] == 0 and offsets[-1] == times.size
        for s in range(speeds.size):
            group = order[offsets[s]:offsets[s + 1]]
            assert np.all(targets[group] == s)
            # Stable grouping: arrival order preserved within a server.
            assert np.all(np.diff(group) > 0)

    def test_out_of_range_target_rejected_without_state_damage(self):
        times, sizes, targets, speeds = _stream(11, 32, 3)
        bank = ServerBank(speeds)
        bad = targets.copy()
        bad[17] = 3
        before = bank.free_at.copy()
        with pytest.raises(ValueError, match="target out of range"):
            bank.replay_window_grouped(bad, times, sizes)
        assert np.array_equal(bank.free_at, before)


# ---------------------------------------------------------------------------
# Memoized dispatch slices
# ---------------------------------------------------------------------------


class TestSequenceRoundRobin:
    @given(
        seed=seed_strategy,
        nservers=st.integers(min_value=1, max_value=5),
        total=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunked_slices_match_live_scan(self, seed, nservers, total):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.05, 1.0, nservers)
        alphas = alphas / alphas.sum()

        live = RoundRobinDispatcher()
        live.reset(alphas)
        want = live.select_batch(np.zeros(total))

        fast = SequenceRoundRobin()
        fast.reset(alphas)
        got = []
        bounds = _chunks(total, seed)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            got.append(fast.select_batch(np.zeros(hi - lo)))
        got = np.concatenate(got) if got else np.empty(0, dtype=np.int64)
        assert np.array_equal(want, got)

    def test_state_round_trips_across_dispatcher_kinds(self):
        alphas = np.array([0.5, 0.3, 0.2])
        fast = SequenceRoundRobin()
        fast.reset(alphas)
        fast.select_batch(np.zeros(17))

        # Sequence state adopted by the live dispatcher (checkpoint
        # written by the fast path, resumed on the reference path) ...
        live = RoundRobinDispatcher()
        live.reset(alphas)
        live.load_state(fast.state_dict())
        # ... and live state adopted by the fast path.
        fast2 = SequenceRoundRobin()
        fast2.reset(alphas)
        fast2.load_state(live.state_dict())

        a = live.select_batch(np.zeros(23))
        b = fast2.select_batch(np.zeros(23))
        fast3 = SequenceRoundRobin()
        fast3.reset(alphas)
        fast3.select_batch(np.zeros(17))
        want = fast3.select_batch(np.zeros(23))
        assert np.array_equal(want, a)
        assert np.array_equal(want, b)

    def test_slice_prefix_property(self):
        alphas = np.array([0.6, 0.25, 0.15])
        whole = dispatch_sequence_slice(alphas, 0, 500)
        again = np.concatenate([
            dispatch_sequence_slice(alphas, 0, 123),
            dispatch_sequence_slice(alphas, 123, 500),
        ])
        assert np.array_equal(whole, again)


# ---------------------------------------------------------------------------
# Vectorized admission gate
# ---------------------------------------------------------------------------


class TestAdmissionGateVectorized:
    @given(
        keep=st.floats(min_value=0.0, max_value=1.0),
        counts=st.lists(
            st.integers(min_value=0, max_value=200), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_accumulator(self, keep, counts):
        """Identical masks window after window; the carried accumulators
        may differ in their last bits (closed form vs running sum — the
        class docstring scopes the guarantee) but stay within the 1e-9
        epsilon that keeps future masks aligned."""
        vec = AdmissionGate()
        ref = AdmissionGate()
        for count in counts:
            got = vec.admit_mask(count, keep)
            want = ref.admit_mask_scalar(count, keep)
            assert np.array_equal(want, got)
            assert abs(vec._acc - ref._acc) < 1e-9

    def test_exact_keep_fraction_over_many_windows(self):
        gate = AdmissionGate()
        admitted = sum(
            int(gate.admit_mask(100, 0.7).sum()) for _ in range(10)
        )
        assert admitted == 700


# ---------------------------------------------------------------------------
# Batched estimator folds
# ---------------------------------------------------------------------------


class TestBatchedEstimators:
    @given(seed=seed_strategy, n=st.integers(min_value=0, max_value=400))
    @settings(max_examples=100, deadline=None)
    def test_p2_batch_equals_sequential(self, seed, n):
        xs = np.random.default_rng(seed).lognormal(0.0, 1.0, n)
        for p in (0.5, 0.99):
            batch, seq = P2Quantile(p), P2Quantile(p)
            bounds = _chunks(n, seed)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                batch.update_batch(xs[lo:hi])
            for x in xs:
                seq.update(float(x))
            assert batch.state_dict() == seq.state_dict()

    @given(seed=seed_strategy, n=st.integers(min_value=0, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_ewma_batch_equals_sequential(self, seed, n):
        xs = np.random.default_rng(seed).exponential(1.0, n)
        batch, seq = EwmaEstimator(0.05), EwmaEstimator(0.05)
        batch.update_batch(xs)
        for x in xs:
            seq.update(float(x))
        assert batch.state_dict() == seq.state_dict()

    @given(seed=seed_strategy, n=st.integers(min_value=0, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_rate_estimators_batch_equals_sequential(self, seed, n):
        times = np.cumsum(np.random.default_rng(seed).exponential(0.3, n))
        b1, s1 = EwmaRateEstimator(0.05), EwmaRateEstimator(0.05)
        b2, s2 = WindowedRateEstimator(5.0), WindowedRateEstimator(5.0)
        bounds = _chunks(n, seed)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b1.observe_batch(times[lo:hi])
            b2.observe_batch(times[lo:hi])
        for t in times:
            s1.observe(float(t))
            s2.observe(float(t))
        assert b1.state_dict() == s1.state_dict()
        assert b2.state_dict() == s2.state_dict()


# ---------------------------------------------------------------------------
# Fused P² folds: several marker sets in one compiled pass
# ---------------------------------------------------------------------------




def _quantile(p: float, warm, rng):
    """A P² estimator fed ``warm`` observations (< 5: mid warm-up)."""
    q = P2Quantile(p)
    for x in rng.lognormal(0.0, 1.0, warm):
        q.update(float(x))
    return q


class TestFusedP2:
    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @given(
        seed=seed_strategy,
        n=st.integers(min_value=0, max_value=40),
        warm=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_update_many_equals_per_element(self, path, seed, n, warm):
        """1–4 estimators, each part-way through its warm-up or past it,
        so each enters the compiled pass at its own offset (0 to 5) or
        not at all; batches of 0–40 elements, many shorter than 5."""
        rng = np.random.default_rng(seed)
        fused = [_quantile(p, w, rng) for p, w in zip((0.5, 0.99, 0.5, 0.9), warm)]
        seq = [P2Quantile(q.p) for q in fused]
        for a, b in zip(fused, seq):
            b.load_state(a.state_dict())
        xs = rng.lognormal(0.0, 1.0, n)
        with kernel_path(path):
            P2Quantile.update_many(fused, xs)
        for q in seq:
            for x in xs:
                q.update(float(x))
        assert [q.state_dict() for q in fused] == [q.state_dict() for q in seq]

    @needs_compiler
    @given(
        seed=seed_strategy,
        m=st.integers(min_value=0, max_value=40),
        warm=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_completion_step_kernel_matches_update(self, seed, m, warm):
        """The kernel entry itself: each P² block of one vector, part way
        through its warm-up or past it, finishes the warm-up from the
        batch and then takes the marker updates — bit for bit the
        per-element updates."""
        rng = np.random.default_rng(seed)
        ps = (0.5, 0.99, 0.25, 0.9)[: len(warm)]
        blocks = np.zeros(len(ps) * _P2)
        fused = [P2Quantile(p, storage=blocks[i * _P2 : (i + 1) * _P2])
                 for i, p in enumerate(ps)]
        seq = [P2Quantile(p) for p in ps]
        for f, q, w in zip(fused, seq, warm):
            for x in rng.lognormal(0.0, 1.0, w).tolist():
                f.update(x)
                q.update(x)
        xs = rng.lognormal(0.0, 1.0, m)
        state = np.zeros(12)  # an estimator vector with no servers
        with kernel_path("c") as fn:
            ckernel.est_completions_c(fn, state.ctypes.data, None, None, 0,
                                      blocks.ctypes.data, len(ps), xs)
        for q in seq:
            for x in xs.tolist():
                q.update(x)
        assert [q.state_dict() for q in fused] == [q.state_dict() for q in seq]

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @given(
        seed=seed_strategy,
        sizes=st.lists(st.integers(min_value=0, max_value=30), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_observe_responses_equals_four_update_batches(self, path, seed, sizes):
        """The controller's one fused call leaves the state four
        separate folds leave — window quantiles restarting at every
        resolve included."""
        rng = np.random.default_rng(seed)
        fused = QuasiStaticController([1.0, 2.0], window=10.0)
        split = QuasiStaticController([1.0, 2.0], window=10.0)
        with kernel_path(path):
            for w, size in enumerate(sizes):
                responses = rng.lognormal(0.0, 1.0, size)
                fused.observe_responses(responses)
                for q in (split.p50, split.p99, split._win_p50, split._win_p99):
                    q.update_batch(responses)
                split.responses_seen += size
                fused.resolve(10.0 * (w + 1))
                split.resolve(10.0 * (w + 1))
        assert fused.state_dict() == split.state_dict()


# ---------------------------------------------------------------------------
# The bank's window and repair entries on both kernel paths
# ---------------------------------------------------------------------------


class TestBankInputs:
    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_strided_window_replays_like_its_contiguous_copy(self, path):
        """Views with a stride (what a column slice of a trace hands
        over) give the departures of their contiguous copies, window
        after window, on either kernel path."""
        times, sizes, targets, speeds = _stream(5, 400, 3)
        with kernel_path(path):
            strided = ServerBank(speeds)
            dense = ServerBank(speeds)
            for lo, hi in ((0, 160), (160, 400)):
                views = (targets[lo:hi:2], times[lo:hi:2], sizes[lo:hi:2])
                assert not views[1].flags.c_contiguous
                got = [a.copy() for a in strided.replay_window_grouped(*views)]
                want = dense.replay_window_grouped(
                    *(np.ascontiguousarray(v) for v in views)
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                assert np.array_equal(strided.free_at, dense.free_at)
            with pytest.raises(ValueError, match="align"):
                strided.replay_window_grouped(targets[:3], times[:2], sizes[:2])

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_window_replays_right_after_its_buffers_grow(self, path):
        """Windows of 8, 40 and 2000 jobs make the bank re-allocate its
        window buffers twice; every window still matches the per-server
        Lindley recursion bit for bit, so the compiled call writes
        through the new buffers' addresses, not stale ones."""
        times, sizes, targets, speeds = _stream(9, 2048, 3)
        with kernel_path(path):
            bank = ServerBank(speeds)
            grown = [bank._rings.dep.size]
            free_at = np.zeros(speeds.size)
            for lo, hi in ((0, 8), (8, 48), (48, 2048)):
                t, x, g = times[lo:hi], sizes[lo:hi], targets[lo:hi]
                dep, svc, order, offsets = bank.replay_window_grouped(g, t, x)
                grown.append(bank._rings.dep.size)
                for s in range(speeds.size):
                    idx = np.flatnonzero(g == s)
                    want_dep, want_svc, free_at[s] = lindley_window(
                        t[idx], x[idx], speeds[s], free_at[s]
                    )
                    assert dep[idx].tobytes() == want_dep.tobytes()
                    assert svc[idx].tobytes() == want_svc.tobytes()
                    assert order[offsets[s]:offsets[s + 1]].tolist() == (
                        idx.tolist()
                    )
                assert bank.free_at.tobytes() == free_at.tobytes()
            assert grown[0] == grown[1] < grown[2] < grown[3]

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_repair_of_an_up_server_raises_and_changes_nothing(self, path):
        with kernel_path(path):
            bank = ServerBank([1.0])
            one = np.ones(1)
            bank.dispatch(np.zeros(1, np.int64), 0 * one, 10 * one, 0 * one,
                          np.zeros(1, np.int64))
            before = json.dumps(bank.state_dict())
            with pytest.raises(ValueError, match="server 0 is up"):
                bank.repair(0, 1.0)
            assert json.dumps(bank.state_dict()) == before
            dep = bank.dispatch(np.zeros(1, np.int64), one, one, one,
                                np.zeros(1, np.int64))
            assert dep.tolist() == [11.0]
            assert bank.collect_completions(5.0).size == 0
            assert bank.collect_completions(11.0)[:, 4].tolist() == [10.0, 11.0]


# ---------------------------------------------------------------------------
# The whole pipeline: vectorized window vs the per-job reference loop
# ---------------------------------------------------------------------------


def _service(reference: bool, *, seed=3, utilization=0.9, slo=None,
             checkpoint=None, checkpoint_every=10, crash_after=None):
    speeds = (1.0, 2.0, 3.0)
    cfg = ServiceConfig(
        speeds=speeds, duration=400.0, control_period=10.0,
        slo_target=slo, min_responses_to_shed=30,
    )
    wl = Workload(
        total_speed=sum(speeds), utilization=utilization,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SchedulerService(
        cfg, SyntheticJobSource(wl, seed), reference=reference,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every,
        crash_after=crash_after,
    )


def _report_text(report) -> str:
    # JSON text keeps NaN fields comparable (nan != nan under ==).
    return json.dumps(report.as_dict(), sort_keys=True)


class TestReferenceVsFast:
    @pytest.mark.parametrize(
        "utilization,slo",
        [(0.5, None), (0.85, None), (0.9, 0.8)],
        ids=["light", "loaded", "slo-shedding"],
    )
    def test_reports_field_for_field_identical(self, utilization, slo):
        ref = _service(True, utilization=utilization, slo=slo).run()
        fast = _service(False, utilization=utilization, slo=slo).run()
        assert _report_text(ref) == _report_text(fast)
        if slo is not None:
            # The scenario must actually exercise the thinning branch.
            assert fast.jobs_shed > 0

    def test_resume_round_trip_on_fast_path(self, tmp_path):
        """serve --resume on the vectorized path: crash mid-run, restore
        from the checkpoint, and finish to a report identical to the
        uninterrupted run's."""
        full = _service(False).run()

        ck = ServiceCheckpoint(tmp_path / "state.jsonl")
        crashed = _service(
            False, checkpoint=ck, checkpoint_every=5, crash_after=17
        )
        with pytest.raises(ServiceCrash):
            crashed.run()

        resumed_service = _service(False)
        resumed_service.restore(ck.load_last())
        resumed = resumed_service.run()
        assert _report_text(full) == _report_text(resumed)


    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @pytest.mark.parametrize("faulted", [False, True], ids=["fast", "faulted"])
    def test_strided_trace_columns_replay_like_contiguous_ones(self, faulted,
                                                               path):
        """A trace read from a file arrives as the strided columns of one
        (n, 2) array; every kernel path must replay it exactly like the
        same trace in contiguous arrays."""
        rng = np.random.default_rng(5)
        table = np.empty((600, 2))
        table[:, 0] = np.cumsum(rng.exponential(0.2, 600))
        table[:, 1] = rng.exponential(1.0, 600)
        cfg = ServiceConfig(speeds=(1.0, 2.0, 3.0), duration=100.0,
                            control_period=10.0)
        events = [FaultEvent(35.0, "down", 1), FaultEvent(62.0, "up", 1)]

        def run(times, sizes):
            return _report_text(SchedulerService(
                cfg, TraceJobSource(times, sizes),
                fault_events=events if faulted else None,
            ).run())

        with kernel_path(path):
            want = run(table[:, 0].copy(), table[:, 1].copy())
            assert run(table[:, 0], table[:, 1]) == want


# ---------------------------------------------------------------------------
# Pending-retry block
# ---------------------------------------------------------------------------


def _retry_service(policy: RetryPolicy, on_failure: str = "retry"):
    """A fault-mode service (scripted, empty timeline) for bounce tests."""
    cfg = ServiceConfig(
        speeds=(1.0, 2.0, 3.0), duration=400.0, control_period=10.0,
        faults=FaultConfig(on_failure=on_failure, retry=policy),
    )
    return SchedulerService(cfg, TraceJobSource([1.0], [1.0]), fault_events=[])


def _heap_bounce(heap, seq, policy, on_failure, now, origins, sizes, attempts):
    """The per-job retry heap the block replaces, as an oracle: each job
    in bounce order is lost or pushed as (due, seq, origin, size, failed).
    Returns (lost, retried, next seq)."""
    lost = 0
    for t, origin, size, att in zip(np.broadcast_to(now, len(origins)).tolist(),
                                    origins, sizes, attempts):
        if on_failure == "lose" or att + 1 >= policy.max_attempts:
            lost += 1
            continue
        heapq.heappush(heap, (t + policy.delay(att), seq, origin, size, att + 1))
        seq += 1
    return lost, len(origins) - lost, seq


def _heap_rows(heap):
    return [[due, origin, size, failed]
            for due, _, origin, size, failed in sorted(heap)]


def _bounce(svc, now, origins, sizes, attempts):
    """One bounce batch through the service's retry path, as the
    window's ``[bounce time, origin, size, failed]`` block; *now* is
    one time for all or one per job."""
    n = len(origins)
    return svc._bounce(np.column_stack(
        [np.broadcast_to(np.asarray(now, dtype=float), n), origins, sizes,
         attempts]
    ).astype(float).reshape(n, 4))


_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=5),
    base_delay=st.sampled_from([0.0, 0.3, 1.0]),
    backoff=st.sampled_from([1.0, 1.7, 2.0]),
    max_delay=st.sampled_from([1.0, 4.0, 60.0]),
)
# Few distinct times, so equal due times occur within and across batches.
_times = st.sampled_from([0.0, 1.0, 1.3, 2.0, 5.0, 9.7])
_batch = st.tuples(
    st.booleans(),  # one bounce time for the batch (residents) or per job
    _times,
    st.lists(st.tuples(_times, st.integers(min_value=0, max_value=4)),
             max_size=8),
    st.one_of(st.none(), _times),  # a window start taking the due rows
)


class TestPendingRetryBlock:
    @settings(max_examples=150, deadline=None)
    @given(policy=_policies, lose=st.booleans(),
           batches=st.lists(_batch, max_size=8))
    def test_block_matches_the_retry_heap(self, policy, lose, batches):
        on_failure = "lose" if lose else "retry"
        svc = _retry_service(policy, on_failure)
        heap, seq, job = [], 0, 0
        for scalar_now, now, jobs, window_end in batches:
            n = len(jobs)
            origins = np.arange(job, job + n, dtype=float)
            sizes = origins * 0.5 + 0.25
            job += n
            # Attempts run up to max_attempts - 1: the last retry is lost.
            attempts = np.array(
                [min(a, policy.max_attempts - 1) for _, a in jobs],
                dtype=np.int64,
            )
            when = now if scalar_now else np.array([t for t, _ in jobs])
            lost, retried, seq = _heap_bounce(
                heap, seq, policy, on_failure, when,
                origins.tolist(), sizes.tolist(), attempts.tolist(),
            )
            assert _bounce(svc, when, origins, sizes, attempts) == (lost, retried)
            assert svc._pending.tolist() == _heap_rows(heap)
            if window_end is not None:
                # A window start takes every row due by its end, as the
                # heap popped them: the block's prefix.
                k = int(np.searchsorted(svc._pending[:, 0], window_end,
                                        side="right"))
                popped = []
                while heap and heap[0][0] <= window_end:
                    popped.append(heapq.heappop(heap))
                assert svc._pending[:k].tolist() == _heap_rows(popped)
                svc._pending = svc._pending[k:]
        assert svc.state_dict(1, ServiceReport(config=svc.config))[
            "pending"] == _heap_rows(heap)

    def test_state_dict_pending_json_is_unchanged(self):
        """The same bounces write the same checkpoint text as the heap
        did: [due, origin, size, failed] rows, due order, ties in bounce
        order (10.51 twice, across two batches)."""
        svc = _retry_service(RetryPolicy(max_attempts=4, base_delay=0.3,
                                         backoff=1.7, max_delay=5.0))
        _bounce(svc, 10.0, np.array([1.5, 2.25, 3.125]),
                np.array([0.5, 1.1, 2.7]), np.array([0.0, 2.0, 1.0]))
        _bounce(svc, np.array([10.0, 10.3, 11.9, 12.0]),
                np.array([4.0, 5.0, 6.0, 7.0]),
                np.array([0.25, 3.5, 1.0, 0.75]),
                np.array([1, 0, 3, 0]))
        state = svc.state_dict(1, ServiceReport(config=svc.config))
        assert json.dumps(state["pending"]) == (
            "[[10.3, 1.5, 0.5, 1], [10.51, 3.125, 2.7, 2], "
            "[10.51, 4.0, 0.25, 2], [10.600000000000001, 5.0, 3.5, 1], "
            "[10.866999999999999, 2.25, 1.1, 3], [12.3, 7.0, 0.75, 1]]"
        )

    def test_restore_sorts_rows_by_due_keeping_ties_in_saved_order(self):
        svc = _retry_service(RetryPolicy())
        state = svc.state_dict(1, ServiceReport(config=svc.config))
        state["pending"] = [[5.0, 1.0, 1.0, 1], [2.0, 2.0, 2.0, 1],
                            [5.0, 3.0, 3.0, 2], [2.0, 4.0, 4.0, 1],
                            [math.inf, 5.0, 5.0, 3]]
        other = _retry_service(RetryPolicy())
        other.restore(state)
        resumed = other.state_dict(1, ServiceReport(config=other.config))
        assert resumed["pending"] == [
            [2.0, 2.0, 2.0, 1], [2.0, 4.0, 4.0, 1], [5.0, 1.0, 1.0, 1],
            [5.0, 3.0, 3.0, 2], [math.inf, 5.0, 5.0, 3],
        ]
        # New bounces join behind the restored rows due no later.
        _bounce(other, 1.0, np.array([6.0]), np.array([6.0]), np.array([0]))
        assert other._pending[:, 1].tolist() == [2.0, 4.0, 6.0, 1.0, 3.0, 5.0]

    @pytest.mark.parametrize("row", [
        [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 1, 0], [math.nan, 1.0, 1.0, 1],
        [1.0, math.inf, 1.0, 1], [1.0, 1.0, math.nan, 1],
        [1.0, 1.0, 1.0, math.inf], [-math.inf, 1.0, 1.0, 1],
    ])
    def test_restore_refuses_a_malformed_pending_row(self, row):
        svc = _retry_service(RetryPolicy())
        state = svc.state_dict(1, ServiceReport(config=svc.config))
        state["pending"] = [[1.0, 1.0, 1.0, 1], row]
        with pytest.raises(ValueError, match="pending"):
            _retry_service(RetryPolicy()).restore(state)


# ---------------------------------------------------------------------------
# Gate floor for the serve benchmark
# ---------------------------------------------------------------------------


class TestServeGateFloor:
    def _record(self, speedup, backend):
        return {
            "scale": "quick",
            "serve": {
                "serve_speedup": speedup,
                "report_identical": True,
                "backend": backend,
            },
        }

    def test_floor_fails_slow_compiled_serve(self):
        result = check_gate(self._record(3.0, "c"), [])
        assert not result.passed
        assert any("serve" in f for f in result.failures)

    def test_floor_passes_fast_compiled_serve(self):
        assert check_gate(self._record(25.0, "c"), []).passed

    def test_floor_skipped_on_python_fallback(self):
        assert check_gate(self._record(1.1, "python"), []).passed

    def test_identity_divergence_fails_any_backend(self):
        record = self._record(25.0, "python")
        record["serve"]["report_identical"] = False
        result = check_gate(record, [])
        assert not result.passed
