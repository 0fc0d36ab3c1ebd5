"""Tests for the fault-injection subsystem (repro.faults + engine)."""

import numpy as np
import pytest

from repro.allocation import OptimizedAllocator, WeightedAllocator
from repro.core import get_policy, run_policy_once
from repro.dispatch import RoundRobinDispatcher
from repro.faults import (
    FailureAwareDispatcher,
    FaultConfig,
    RetryPolicy,
    build_timeline,
)
from repro.faults.models import DEGRADE_END, DEGRADE_START, DOWN, UP
from repro.sim import SimulationConfig, run_simulation
from repro.sim.server import FCFSServer, ProcessorSharingServer, RoundRobinQuantumServer
from repro.sim.job import Job


SPEEDS = (1.0, 1.0, 4.0)


def _config(**kw):
    kw.setdefault("speeds", SPEEDS)
    kw.setdefault("utilization", 0.6)
    kw.setdefault("duration", 2.0e4)
    return SimulationConfig(**kw)


class TestFaultConfig:
    def test_disabled_by_default(self):
        assert not FaultConfig().enabled

    def test_enabled_by_mtbf_or_degrade(self):
        assert FaultConfig(mtbf=100.0).enabled
        assert FaultConfig(degrade_rate=0.01, degrade_duration=5.0).enabled

    def test_parse_round_trip(self):
        fc = FaultConfig.parse("mtbf=500,mttr=50,on_failure=lose,max_attempts=3")
        assert fc.mtbf == 500.0
        assert fc.mttr == 50.0
        assert fc.on_failure == "lose"
        assert fc.retry.max_attempts == 3

    def test_parse_rejects_unknown_key_listing_valid_ones(self):
        with pytest.raises(ValueError, match="unknown") as excinfo:
            FaultConfig.parse("mtbf=500,bogus=1")
        message = str(excinfo.value)
        assert "bogus" in message
        for valid in FaultConfig.PARSE_KEYS:
            assert valid in message

    def test_parse_missing_equals_lists_valid_keys(self):
        with pytest.raises(ValueError, match="key=value") as excinfo:
            FaultConfig.parse("mtbf")
        assert "mttr" in str(excinfo.value)

    def test_parse_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate") as excinfo:
            FaultConfig.parse("mtbf=500,mtbf=600")
        assert "mtbf" in str(excinfo.value)

    def test_parse_rejects_duplicate_retry_key(self):
        # Retry knobs route to a nested RetryPolicy; the duplicate check
        # must still see them as one flat namespace.
        with pytest.raises(ValueError, match="duplicate"):
            FaultConfig.parse("base_delay=1,base_delay=2")

    @pytest.mark.parametrize(
        ("spec", "key"),
        [("mtbf=100,max_attempts=2.5", "max_attempts"),
         ("mtbf=abc,mttr=50", "mtbf"),
         ("mttr=50,drift=x", "drift")],
    )
    def test_parse_names_the_key_of_a_bad_value(self, spec, key):
        with pytest.raises(ValueError, match=f"key '{key}' needs"):
            FaultConfig.parse(spec)

    def test_parse_accepts_each_key_once(self):
        fc = FaultConfig.parse("mtbf=500,mttr=50,base_delay=1,backoff=3")
        assert fc.mtbf == 500.0
        assert fc.retry.backoff == 3.0

    def test_retry_delay_is_bounded(self):
        rp = RetryPolicy(base_delay=1.0, backoff=2.0, max_delay=5.0)
        delays = [rp.delay(k) for k in range(10)]
        assert delays[0] == 1.0
        assert max(delays) == 5.0

    def test_retry_delay_saturates_instead_of_overflowing(self):
        # backoff**k leaves the float range (k >= 1024 at backoff 2,
        # k >= 309 at backoff 10): the wait is max_delay, not an error.
        assert RetryPolicy(max_attempts=5000).delay(1100) == 60.0
        rp = RetryPolicy(max_attempts=5000, backoff=10.0, max_delay=30.0)
        assert rp.delay(309) == 30.0
        assert RetryPolicy(backoff=10, max_delay=30.0).delay(400) == 30.0
        zero = RetryPolicy(base_delay=0.0, backoff=10.0, max_delay=0.0)
        assert zero.delay(5000) == 0.0
        # Below saturation the value is the plain product, bit for bit.
        for rp in (RetryPolicy(), RetryPolicy(base_delay=0.3, backoff=1.7,
                                              max_delay=1e300)):
            for k in range(1, 1000):
                want = min(rp.max_delay, rp.base_delay * rp.backoff**k)
                assert rp.delay(k).hex() == want.hex()

    @pytest.mark.parametrize(
        ("spec", "field"),
        [("mtbf=nan,mttr=50", "mtbf"),
         ("mtbf=500,mttr=nan", "mttr"),
         ("degrade_rate=nan,degrade_duration=5", "degrade_rate"),
         ("degrade_rate=0.1,degrade_duration=nan", "degrade_duration"),
         ("mtbf=500,drift=nan", "estimate_drift"),
         ("mtbf=500,base_delay=nan", "base_delay"),
         ("mtbf=500,backoff=nan", "backoff"),
         ("mtbf=500,max_delay=nan", "max_delay")],
    )
    def test_parse_rejects_nan_naming_the_field(self, spec, field):
        """NaN passes ``x <= 0``; a NaN mtbf would keep build_timeline
        from ever reaching its horizon."""
        with pytest.raises(ValueError, match=field):
            FaultConfig.parse(spec)

    @pytest.mark.parametrize("bad", [float("nan"), 2.5, True, "5", 0, -3])
    def test_retry_max_attempts_must_be_an_integer_of_at_least_one(self, bad):
        """``nan < 1`` is False, and with NaN ``failed >= max_attempts``
        never holds: no job would ever be lost."""
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=bad)

    def test_retry_max_attempts_takes_any_integer_type(self):
        rp = RetryPolicy(max_attempts=np.int64(3))
        assert rp.max_attempts == 3 and type(rp.max_attempts) is int
        assert RetryPolicy(max_attempts=10**9).max_attempts == 10**9

    def test_config_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            _config(faults="mtbf=500")


class TestTimeline:
    def test_deterministic(self):
        fc = FaultConfig(mtbf=500.0, mttr=50.0, degrade_rate=0.001,
                         degrade_duration=20.0)
        a = build_timeline(fc, 3, 1.0e4, seed=42)
        b = build_timeline(fc, 3, 1.0e4, seed=42)
        assert [(e.time, e.kind, e.server) for e in a] == [
            (e.time, e.kind, e.server) for e in b
        ]
        assert a  # the horizon is many MTBFs long

    def test_seed_changes_timeline(self):
        fc = FaultConfig(mtbf=500.0, mttr=50.0)
        a = build_timeline(fc, 3, 1.0e4, seed=1)
        b = build_timeline(fc, 3, 1.0e4, seed=2)
        assert [e.time for e in a] != [e.time for e in b]

    def test_alternates_down_up_per_server(self):
        fc = FaultConfig(mtbf=300.0, mttr=30.0)
        events = build_timeline(fc, 2, 1.0e4, seed=7)
        for s in range(2):
            kinds = [e.kind for e in events if e.server == s]
            assert kinds
            assert kinds[0] == DOWN
            for i, k in enumerate(kinds):
                assert k == (DOWN if i % 2 == 0 else UP)

    def test_servers_filter(self):
        fc = FaultConfig(mtbf=300.0, mttr=30.0, servers=(1,))
        events = build_timeline(fc, 3, 1.0e4, seed=7)
        assert events and all(e.server == 1 for e in events)

    def test_degrade_episodes_do_not_self_overlap(self):
        fc = FaultConfig(degrade_rate=0.01, degrade_duration=40.0)
        events = build_timeline(fc, 1, 1.0e4, seed=3)
        state = 0
        for e in events:
            if e.kind == DEGRADE_START:
                assert state == 0
                state = 1
            elif e.kind == DEGRADE_END:
                assert state == 1
                state = 0


class TestServerFaultHooks:
    def test_ps_fail_returns_jobs_in_arrival_order(self):
        srv = ProcessorSharingServer(1.0)
        jobs = [Job(i, float(i), 10.0) for i in range(3)]
        for j in jobs:
            srv.arrive(j, j.arrival_time)
        evicted = srv.fail(5.0)
        assert [j.job_id for j in evicted] == [0, 1, 2]
        assert not srv.is_up and srv.n_active == 0
        srv.repair(7.0)
        assert srv.is_up
        srv.arrive(Job(9, 7.0, 2.0), 7.0)
        assert srv.next_event_time() == pytest.approx(9.0)

    def test_fcfs_retime_preserves_remaining_work(self):
        srv = FCFSServer(1.0)
        srv.arrive(Job(0, 0.0, 10.0), 0.0)
        srv.set_speed(2.0, 5.0)  # 5 units left, now at speed 2
        assert srv.next_event_time() == pytest.approx(7.5)

    def test_ps_retime_keeps_departure_consistent(self):
        srv = ProcessorSharingServer(1.0)
        srv.arrive(Job(0, 0.0, 10.0), 0.0)
        srv.set_speed(2.0, 5.0)
        assert srv.next_event_time() == pytest.approx(7.5)

    def test_rr_quantum_retime_charges_partial_slice(self):
        srv = RoundRobinQuantumServer(1.0, quantum=4.0)
        srv.arrive(Job(0, 0.0, 10.0), 0.0)
        srv.set_speed(2.0, 2.0)  # 2 units done; 8 left at speed 2
        # Fresh slice: min(quantum, 8/2) = 4 → next event at 6.0
        assert srv.next_event_time() == pytest.approx(6.0)
        job = None
        t = srv.next_event_time()
        while job is None:
            job = srv.on_event(t)
            t = srv.next_event_time() or t
        assert job.completion_time == pytest.approx(6.0)

    def test_down_server_accrues_no_busy_time(self):
        srv = FCFSServer(1.0)
        srv.arrive(Job(0, 0.0, 4.0), 0.0)
        srv.fail(2.0)
        busy_at_fail = srv.busy_time
        srv.repair(100.0)
        srv.arrive(Job(1, 100.0, 1.0), 100.0)
        srv.on_event(srv.next_event_time())
        assert srv.busy_time == pytest.approx(busy_at_fail + 1.0)


class TestEngineFaults:
    def test_disabled_faults_bit_identical(self):
        pol = get_policy("ORR")
        base = run_policy_once(_config(), pol, seed=7, force_engine=True)
        noop = FaultConfig()  # no mtbf, no degradation: disabled
        with_field = run_policy_once(
            _config(faults=noop), pol, seed=7, force_engine=True
        )
        assert base.metrics.mean_response_time == with_field.metrics.mean_response_time
        assert base.metrics.fairness == with_field.metrics.fairness
        assert base.faults is None and with_field.faults is None

    def test_faulty_run_is_reproducible(self):
        cfg = _config(faults=FaultConfig(mtbf=2000.0, mttr=200.0))
        pol = get_policy("ORR")
        a = run_policy_once(cfg, pol, seed=7)
        b = run_policy_once(cfg, pol, seed=7)
        assert a.faults == b.faults
        assert a.faults.fault_events > 0
        assert a.metrics.mean_response_time == b.metrics.mean_response_time

    def test_faults_force_engine_path(self):
        cfg = _config(faults=FaultConfig(mtbf=2000.0, mttr=200.0))
        result = run_policy_once(cfg, get_policy("ORR"), seed=7)
        assert result.faults is not None  # fast path would return None

    def test_lose_mode_drops_without_retry(self):
        cfg = _config(
            faults=FaultConfig(mtbf=1000.0, mttr=300.0, on_failure="lose")
        )
        result = run_policy_once(cfg, get_policy("ORR"), seed=7)
        assert result.faults.jobs_lost_total > 0
        assert result.faults.jobs_retried == 0
        assert result.loss_rate > 0.0

    def test_retry_mode_salvages_jobs(self):
        cfg = _config(faults=FaultConfig(mtbf=1000.0, mttr=300.0))
        lose = run_policy_once(
            _config(faults=FaultConfig(mtbf=1000.0, mttr=300.0,
                                       on_failure="lose")),
            get_policy("ORR"), seed=7,
        )
        retry = run_policy_once(cfg, get_policy("ORR"), seed=7)
        assert retry.faults.jobs_retried > 0
        assert retry.faults.jobs_lost_total < lose.faults.jobs_lost_total

    def test_degradation_only_keeps_all_jobs(self):
        cfg = _config(
            faults=FaultConfig(degrade_rate=1e-3, degrade_duration=100.0,
                               degrade_factor=0.25)
        )
        plain = run_policy_once(_config(), get_policy("ORR"), seed=7,
                                force_engine=True)
        degraded = run_policy_once(cfg, get_policy("ORR"), seed=7)
        assert degraded.faults.fault_events > 0
        assert degraded.faults.jobs_lost_total == 0
        assert degraded.metrics.jobs == plain.metrics.jobs
        # Quarter-speed episodes must hurt response times.
        assert (degraded.metrics.mean_response_time
                > plain.metrics.mean_response_time)

    def test_loss_rate_zero_without_faults(self):
        result = run_policy_once(_config(), get_policy("ORR"), seed=7)
        assert result.loss_rate == 0.0


class TestFailureAwareDispatcher:
    def _make(self, allocator=None):
        fa = FailureAwareDispatcher(
            RoundRobinDispatcher(), allocator or OptimizedAllocator(),
            np.asarray(SPEEDS),
        )
        fa.reset(np.asarray([0.2, 0.2, 0.6]))
        return fa

    def test_membership_change_zeroes_down_servers(self):
        fa = self._make()
        fa.on_membership_change(np.asarray([True, True, False]), 0.9)
        assert fa.alphas[2] == 0.0
        assert fa.alphas.sum() == pytest.approx(1.0)
        assert fa.reallocations == 1

    def test_overloaded_survivors_fall_back_to_weighted(self):
        fa = self._make()
        # Offered load exceeds surviving capacity: rho_s > 1.
        fa.on_membership_change(np.asarray([True, False, False]), 2.5)
        np.testing.assert_allclose(fa.alphas, [1.0, 0.0, 0.0])

    def test_total_outage_keeps_last_allocation(self):
        fa = self._make()
        before = fa.alphas.copy()
        fa.on_membership_change(np.asarray([False, False, False]), 0.9)
        np.testing.assert_array_equal(fa.alphas, before)
        assert fa.reallocations == 0

    def test_delegates_like_inner_between_changes(self):
        fa = self._make()
        rr = RoundRobinDispatcher()
        rr.reset(np.asarray([0.2, 0.2, 0.6]))
        assert [fa.select(1.0) for _ in range(20)] == [
            rr.select(1.0) for _ in range(20)
        ]

    def test_failure_aware_reduces_losses(self):
        cfg = _config(faults=FaultConfig(mtbf=2000.0, mttr=200.0))
        oblivious = run_policy_once(cfg, get_policy("ORR"), seed=7)
        aware = run_policy_once(cfg, get_policy("FA_ORR"), seed=7)
        assert aware.faults.reallocations > 0
        assert aware.faults.jobs_lost_total < oblivious.faults.jobs_lost_total

    def test_fa_policy_matches_orr_without_faults(self):
        plain = run_policy_once(_config(), get_policy("ORR"), seed=7,
                                force_engine=True)
        fa = run_policy_once(_config(), get_policy("FA_ORR"), seed=7,
                             force_engine=True)
        assert fa.metrics.mean_response_time == plain.metrics.mean_response_time

    def test_weighted_allocator_variant(self):
        fa = self._make(WeightedAllocator())
        fa.on_membership_change(np.asarray([True, True, False]), 0.9)
        np.testing.assert_allclose(fa.alphas, [0.5, 0.5, 0.0])


class TestGridDeterminism:
    def test_faulty_sweep_serial_parallel_identical(self):
        from repro.core.executor import (
            ReplicationTask,
            run_replication_grid,
            shutdown_shared_executor,
        )
        from repro.rng import replication_seeds

        cfg = _config(faults=FaultConfig(mtbf=2000.0, mttr=200.0),
                      duration=1.0e4)
        tasks = [
            ReplicationTask(
                key=(p, r), config=cfg, policy_name=p,
                estimation_error=None, seed=seed,
            )
            for p in ("ORR", "FA_ORR")
            for r, seed in enumerate(replication_seeds(2000, 2))
        ]
        serial = run_replication_grid(tasks, n_jobs=1)
        try:
            grid = run_replication_grid(tasks, n_jobs=2)
        finally:
            shutdown_shared_executor()
        assert set(serial.outcomes) == set(grid.outcomes)
        for key in serial.outcomes:
            a, b = serial.outcomes[key], grid.outcomes[key]
            assert a[:4] == b[:4]
            np.testing.assert_array_equal(a[4], b[4])
            assert a[5] == b[5]


class TestEvaluatorLossRate:
    def test_every_evaluator_summarizes_loss_rate(self):
        """Serial, cell and parallel evaluators share one fold, so a
        fault-enabled config gets the same loss-rate summary from each."""
        from repro.core import evaluate_cell, evaluate_policy

        cfg = _config(faults=FaultConfig(mtbf=500.0, mttr=50.0), duration=5.0e3)
        # Five replications: more members than the grid runs in
        # process, so n_jobs=2 goes through the pool.
        parallel = evaluate_cell(
            cfg, ["ORR"], replications=5, base_seed=2000, n_jobs=2
        )["ORR"]
        serial = evaluate_policy(
            cfg, get_policy("ORR"), replications=5, base_seed=2000
        )
        cell = evaluate_cell(cfg, ["ORR"], replications=5, base_seed=2000,
                             n_jobs=1)["ORR"]
        assert parallel.loss_rate is not None and parallel.loss_rate.mean > 0
        for ev in (serial, cell):
            assert ev.loss_rate == parallel.loss_rate
            assert ev.mean_response_ratio == parallel.mean_response_ratio
