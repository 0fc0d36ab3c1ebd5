"""Fault-tolerant serving: failure detector, retry/loss accounting,
SLO-targeted shedding, and crash-safe checkpoint/resume.

The scenarios are all scripted and seeded — every assertion here is a
deterministic regression gate, mirroring the chaos harness
(:mod:`repro.experiments.extension_chaos`) at unit-test scale.
"""

import json
import math

import numpy as np
import pytest

from repro.faults import survivor_fractions
from repro.faults.models import FaultConfig, FaultEvent, RetryPolicy
from repro.service import (
    STATE_VERSION,
    SchedulerService,
    ServerBank,
    ServiceCheckpoint,
    ServiceConfig,
    ServiceCrash,
    SyntheticJobSource,
)
from repro.service.controller import QuasiStaticController
from repro.sim.arrivals import Workload

SPEEDS = (1.0, 2.0, 3.0, 2.0)


def make_service(seed=11, duration=3000.0, utilization=0.7, events=None,
                 faults=None, slo_target=None, **kwargs):
    config = ServiceConfig(
        speeds=SPEEDS,
        duration=duration,
        control_period=100.0,
        slo_target=slo_target,
        min_responses_to_shed=10,
        faults=faults,
    )
    workload = Workload(total_speed=sum(SPEEDS), utilization=utilization)
    source = SyntheticJobSource(workload, seed)
    return SchedulerService(config, source, fault_events=events, **kwargs)


KILL_REPAIR = [FaultEvent(1050.0, "down", 2), FaultEvent(1450.0, "up", 2)]


# ----------------------------------------------------------------------
# ServerBank fault mode
# ----------------------------------------------------------------------


def put(bank, server, t, size, origin, attempts):
    """Dispatch one job as a one-job segment; its departure (NaN: bounced)."""
    dep = bank.dispatch(
        np.array([server]), np.array([t]), np.array([size]),
        np.array([origin]), np.array([attempts]),
    )
    return float(dep[0])


class TestServerBankFaults:
    def test_dispatch_to_down_server_returns_none(self):
        bank = ServerBank([1.0, 2.0])
        bank.fail(1, 5.0)
        assert math.isnan(put(bank, 1, 6.0, 1.0, origin=6.0, attempts=0))
        assert not math.isnan(put(bank, 0, 6.0, 1.0, origin=6.0, attempts=0))

    def test_fail_bounces_residents_and_clears_backlog(self):
        bank = ServerBank([1.0])
        put(bank, 0, 0.0, 4.0, origin=0.0, attempts=0)   # departs at 4
        put(bank, 0, 1.0, 4.0, origin=1.0, attempts=1)   # departs at 8
        done = bank.collect_completions(5.0)
        assert [d[1] for d in done] == [0.0]
        bounced = bank.fail(0, 5.0)
        assert bounced.tolist() == [[1.0, 4.0, 1]]
        assert bank.free_at[0] == 5.0
        assert bank.inflight_count() == 0

    def test_repair_restores_membership_empty(self):
        bank = ServerBank([1.0, 1.0])
        bank.fail(0, 3.0)
        bank.repair(0, 9.0)
        assert bank.up[0]
        dep = put(bank, 0, 9.0, 2.0, origin=9.0, attempts=0)
        assert dep == pytest.approx(11.0)

    def test_degradation_rescales_in_flight_work_exactly(self):
        bank = ServerBank([2.0])
        put(bank, 0, 0.0, 8.0, origin=0.0, attempts=0)   # svc 4, departs 4
        bank.set_speed_factor(0, 2.0, 0.5)  # speed 2 -> 1 at t=2
        # 2 s of work remained; at half speed it takes 4 s: departs at 6.
        done = bank.collect_completions(10.0)
        assert done[0][4] == pytest.approx(6.0)
        assert bank.free_at[0] == pytest.approx(6.0)
        # Recovery rescales back: nothing in flight, free_at stays.
        bank.set_speed_factor(0, 7.0, 1.0)
        assert bank.free_at[0] == pytest.approx(6.0)

    def test_completions_are_server_major_fifo(self):
        bank = ServerBank([1.0, 1.0])
        put(bank, 1, 0.0, 1.0, origin=0.0, attempts=0)
        put(bank, 0, 0.0, 2.0, origin=0.0, attempts=0)
        put(bank, 0, 0.5, 1.0, origin=0.5, attempts=0)
        done = bank.collect_completions(10.0)
        assert [(d[0], d[1]) for d in done] == [(0, 0.0), (0, 0.5), (1, 0.0)]

    def test_state_round_trip(self):
        bank = ServerBank([1.0, 2.0])
        put(bank, 0, 0.0, 5.0, origin=0.0, attempts=2)
        bank.fail(1, 1.0)
        clone = ServerBank([1.0, 2.0])
        clone.load_state(json.loads(json.dumps(bank.state_dict())))
        assert np.array_equal(clone.free_at, bank.free_at)
        assert np.array_equal(clone.up, bank.up)
        assert clone.inflight_count() == bank.inflight_count()


# ----------------------------------------------------------------------
# Survivor re-solve (FA_ORR semantics)
# ----------------------------------------------------------------------


class TestSurvivorFractions:
    def test_down_servers_get_zero_share(self):
        speeds = np.array([1.0, 2.0, 3.0])
        up = np.array([True, False, True])
        alphas = survivor_fractions(speeds, up, 0.5)
        assert alphas[1] == 0.0
        assert alphas.sum() == pytest.approx(1.0)

    def test_total_outage_returns_none(self):
        assert survivor_fractions(
            np.array([1.0, 2.0]), np.array([False, False]), 0.5
        ) is None

    def test_overload_falls_back_to_capacity_proportional(self):
        speeds = np.array([1.0, 1.0, 2.0])
        up = np.array([True, False, True])
        alphas = survivor_fractions(speeds, up, 1.7)
        assert alphas[0] == pytest.approx(1.0 / 3.0)
        assert alphas[2] == pytest.approx(2.0 / 3.0)

    def test_mask_shape_is_validated(self):
        with pytest.raises(ValueError, match="membership mask"):
            survivor_fractions(np.array([1.0, 2.0]), np.array([True]), 0.5)


# ----------------------------------------------------------------------
# Failure detector in the controller
# ----------------------------------------------------------------------


class TestFailureDetector:
    def test_membership_change_bypasses_swap_hysteresis(self):
        ctl = QuasiStaticController(
            np.array([1.0, 1.0, 2.0]), window=100.0, swap_tolerance=0.9
        )
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(500):
            t += rng.exponential(0.5)
            ctl.observe_arrival(t, 1.0)
            ctl.observe_service(0, 1.0, 0.5)
        before = ctl.resolve(t)
        assert not before.swapped  # tolerance 0.9 swallows everything
        ctl.mark_server_down(2, t)
        after = ctl.resolve(t + 100.0)
        assert after.swapped
        assert after.reason == "membership"
        assert after.alphas[2] == 0.0

    def test_detector_is_edge_triggered(self):
        ctl = QuasiStaticController(np.array([1.0, 1.0]), window=10.0)
        ctl.mark_server_down(0, 1.0)
        ctl.mark_server_down(0, 2.0)
        assert ctl.membership_events == 1
        ctl.mark_server_up(0, 3.0)
        assert ctl.membership_events == 2


# ----------------------------------------------------------------------
# End-to-end fault scenarios
# ----------------------------------------------------------------------


class TestFaultScenarios:
    def test_detector_to_reallocation_within_one_period(self):
        report = make_service(events=list(KILL_REPAIR)).run()
        kill = [w for w in report.windows if w.end >= 1050.0][0]
        assert kill.reason == "membership"
        assert kill.swapped
        assert kill.alphas[2] == 0.0
        assert kill.servers_up == 3
        assert (kill.end - 1050.0) <= 100.0
        repair = [w for w in report.windows if w.end >= 1450.0][0]
        assert repair.reason == "membership"
        assert repair.alphas[2] > 0.0
        assert repair.servers_up == 4

    def test_sequence_immutable_until_boundary_then_survivors_only(self):
        report = make_service(events=list(KILL_REPAIR)).run()
        windows = report.windows
        kill_idx = next(i for i, w in enumerate(windows) if w.end >= 1050.0)
        # Mid-window the sequence still routes to the dead server — those
        # dispatches bounce (drain-and-switch keeps the window immutable).
        assert windows[kill_idx].bounced > 0
        # After the boundary swap the survivor-only sequence never aims
        # at the dead server, so nothing bounces while it stays down.
        for w in windows[kill_idx + 1:]:
            if w.end <= 1450.0:
                assert w.bounced == 0
                assert w.alphas[2] == 0.0

    def test_job_conservation(self):
        report = make_service(events=list(KILL_REPAIR)).run()
        completed = sum(w.completed for w in report.windows)
        assert report.jobs_dispatched == (
            completed + report.jobs_lost + report.jobs_pending_retry
            + report.jobs_in_flight
        )

    def test_retry_mode_recovers_all_bounced_jobs(self):
        faults = FaultConfig(retry=RetryPolicy(base_delay=5.0))
        report = make_service(events=list(KILL_REPAIR), faults=faults).run()
        assert report.jobs_retried > 0
        assert report.jobs_lost == 0
        assert report.loss_rate == 0.0

    def test_lose_mode_counts_losses(self):
        faults = FaultConfig(on_failure="lose")
        report = make_service(events=list(KILL_REPAIR), faults=faults).run()
        assert report.jobs_retried == 0
        assert report.jobs_lost == sum(w.bounced for w in report.windows)
        assert report.loss_rate == pytest.approx(
            report.jobs_lost / report.jobs_offered
        )

    def test_steady_state_loss_zero_after_repair(self):
        report = make_service(events=list(KILL_REPAIR)).run()
        late = [w for w in report.windows if w.start >= 1650.0]
        assert late  # the run extends well past the repair
        assert sum(w.lost for w in late) == 0

    def test_markov_timeline_runs_clean(self):
        faults = FaultConfig(mtbf=600.0, mttr=100.0)
        report = make_service(faults=faults, events=None).run()
        assert report.clean_shutdown
        assert report.membership_changes > 0
        # Every window reports live membership out of 4 servers.
        assert all(0 <= w.servers_up <= 4 for w in report.windows)

    def test_response_quantiles_are_surfaced(self):
        report = make_service(events=list(KILL_REPAIR)).run()
        assert math.isfinite(report.p50)
        assert math.isfinite(report.p99)
        assert report.p99 >= report.p50
        payload = report.as_dict()
        assert "p50" in payload and "p99" in payload
        assert all("p50" in w and "p99" in w for w in payload["windows"])

    def test_fault_free_run_has_no_fault_accounting(self):
        report = make_service(events=None).run()
        assert report.jobs_lost == 0
        assert report.jobs_retried == 0
        assert report.membership_changes == 0
        assert report.loss_rate == 0.0
        assert all(w.servers_up == len(SPEEDS) for w in report.windows)
        assert math.isfinite(report.p99)


# ----------------------------------------------------------------------
# SLO-targeted shedding
# ----------------------------------------------------------------------


class TestSloShedding:
    def run_overloaded(self):
        return make_service(
            seed=3, utilization=0.92, slo_target=60.0, events=None
        ).run()

    def test_shedding_engages_only_while_slo_violated(self):
        report = self.run_overloaded()
        windows = report.windows
        assert windows[0].shed == 0  # nothing measured yet
        for prev, cur in zip(windows, windows[1:]):
            if cur.shed:
                assert math.isfinite(prev.p99) and prev.p99 > 60.0

    def test_shedding_engages_and_disengages(self):
        report = self.run_overloaded()
        windows = report.windows
        assert any(w.shed for w in windows)
        assert any(
            not cur.shed and math.isfinite(prev.p99) and prev.p99 <= 60.0
            for prev, cur in zip(windows, windows[1:])
        )

    def test_no_shedding_when_slo_met(self):
        report = make_service(
            seed=3, utilization=0.4, slo_target=1e6, events=None
        ).run()
        assert report.jobs_shed == 0


# ----------------------------------------------------------------------
# Crash-safe checkpoints and resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def run_pair(self, tmp_path, *, events, faults=None, crash_after=11):
        baseline = make_service(events=events and list(events),
                                faults=faults).run()
        ck = ServiceCheckpoint(tmp_path / "state.jsonl")
        crashing = make_service(
            events=events and list(events), faults=faults,
            checkpoint=ck, checkpoint_every=3, crash_after=crash_after,
        )
        with pytest.raises(ServiceCrash):
            crashing.run()
        resumed_service = make_service(
            events=events and list(events), faults=faults, checkpoint=ck
        )
        resumed_service.restore(ck.load_last())
        return baseline, resumed_service.run()

    def test_resume_matches_uninterrupted_run_exactly(self, tmp_path):
        baseline, resumed = self.run_pair(tmp_path, events=KILL_REPAIR)
        assert json.dumps(baseline.as_dict(), sort_keys=True) == json.dumps(
            resumed.as_dict(), sort_keys=True
        )

    def test_resume_matches_on_markov_faults(self, tmp_path):
        faults = FaultConfig(mtbf=600.0, mttr=100.0)
        baseline, resumed = self.run_pair(
            tmp_path, events=None, faults=faults, crash_after=17
        )
        assert json.dumps(baseline.as_dict(), sort_keys=True) == json.dumps(
            resumed.as_dict(), sort_keys=True
        )

    def test_resume_matches_fault_free(self, tmp_path):
        baseline, resumed = self.run_pair(tmp_path, events=None)
        assert json.dumps(baseline.as_dict(), sort_keys=True) == json.dumps(
            resumed.as_dict(), sort_keys=True
        )

    def test_torn_final_line_falls_back_to_previous_snapshot(self, tmp_path):
        path = tmp_path / "state.jsonl"
        ck = ServiceCheckpoint(path)
        crashing = make_service(events=list(KILL_REPAIR), checkpoint=ck,
                                checkpoint_every=3, crash_after=11)
        with pytest.raises(ServiceCrash):
            crashing.run()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"next_window": 12, "trunc')  # simulated torn append
        state = ck.load_last()
        assert state is not None
        assert state["next_window"] == 9

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "state.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"next_window": 3, "version": STATE_VERSION + 1}))
            fh.write("\n")
        with pytest.raises(ValueError, match="version"):
            ServiceCheckpoint(path).load_last()

    def test_restore_rejects_mismatched_geometry(self, tmp_path):
        ck = ServiceCheckpoint(tmp_path / "state.jsonl")
        svc = make_service(events=list(KILL_REPAIR), checkpoint=ck,
                           checkpoint_every=3, crash_after=5)
        with pytest.raises(ServiceCrash):
            svc.run()
        other = SchedulerService(
            ServiceConfig(speeds=(1.0, 2.0), duration=3000.0,
                          control_period=100.0),
            SyntheticJobSource(
                Workload(total_speed=3.0, utilization=0.5), 11
            ),
            fault_events=[],
        )
        with pytest.raises(ValueError, match="different run configuration"):
            other.restore(ck.load_last())

    def test_empty_checkpoint_loads_none(self, tmp_path):
        assert ServiceCheckpoint(tmp_path / "missing.jsonl").load_last() is None


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestConfigValidation:
    def test_slo_target_must_be_positive(self):
        with pytest.raises(ValueError, match="slo_target"):
            ServiceConfig(speeds=SPEEDS, duration=100.0, control_period=10.0,
                          slo_target=0.0)

    def test_checkpoint_every_must_be_positive(self):
        config = ServiceConfig(speeds=SPEEDS, duration=100.0,
                               control_period=10.0)
        workload = Workload(total_speed=sum(SPEEDS), utilization=0.5)
        with pytest.raises(ValueError, match="checkpoint_every"):
            SchedulerService(config, SyntheticJobSource(workload, 0),
                             checkpoint_every=0)


class TestFaultTimelineValidation:
    """A scripted timeline the window cannot apply is refused when the
    service is built, with an error naming the event's index and field.

    Unchecked, server -1 would index server 3 of 4, a NaN time would
    hold back every later event, an unknown kind would be skipped, and
    server 9 of 4 would raise a bare ``IndexError`` mid-run.
    """

    @pytest.mark.parametrize(
        ("event", "field"),
        [pytest.param(FaultEvent(500.0, "down", -1), "server", id="server-1"),
         pytest.param(FaultEvent(math.nan, "down", 3), "time", id="nan-time"),
         pytest.param(FaultEvent(500.0, "Down", 3), "kind", id="unknown-kind"),
         pytest.param(FaultEvent(500.0, "down", 9), "server", id="server9-of-4"),
         pytest.param(FaultEvent(500.0, "down", 1.5), "server",
                      id="fractional-server"),
         pytest.param(FaultEvent(500.0, "up", True), "server", id="bool-server"),
         pytest.param(FaultEvent(math.inf, "up", 3), "time", id="inf-time"),
         pytest.param(FaultEvent("500", "up", 3), "time", id="string-time")],
    )
    def test_bad_event_is_refused_naming_index_and_field(self, event, field):
        events = [*KILL_REPAIR, event]
        with pytest.raises(ValueError, match=rf"fault_events\[2\]\.{field}"):
            make_service(events=events)

    def test_nan_time_does_not_hold_back_later_events(self):
        """A NaN event sorted in front of a DOWN/UP pair would hold both
        back (no membership change): it is refused, and the pair alone
        runs."""
        events = [FaultEvent(math.nan, "degrade_start", 0),
                  FaultEvent(1050.0, "down", 3), FaultEvent(1450.0, "up", 3)]
        with pytest.raises(ValueError, match=r"fault_events\[0\]\.time"):
            make_service(events=events)
        report = make_service(events=events[1:]).run()
        assert report.membership_changes == 2

    def test_valid_timeline_is_accepted_unchanged(self):
        events = [FaultEvent(1450, "up", 2), FaultEvent(np.float64(1050.0),
                                                        "down", np.int64(2))]
        service = make_service(events=events)
        assert [e.time for e in service.fault_events] == [1050.0, 1450]
