"""Tests for the vectorized static-policy path and engine equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_policy, run_policy_once
from repro.dispatch import CyclicDispatcher, LeastLoadDispatcher, RandomDispatcher
from repro.distributions import Exponential
from repro.rng import substream
from repro.sim import (
    SimulationConfig,
    ckernel,
    fastpath,
    fcfs_replay,
    ps_replay,
    run_simulation,
    run_static_simulation,
)
from repro.sim.fastpath import _fcfs_replay_loop, _ps_replay_loop


def _substream_strategy():
    """(arrival_times, sizes) pairs: bursty arrivals, wide size range."""
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),  # inter-arrival gaps
            st.floats(min_value=1e-3, max_value=50.0),  # job sizes
        ),
        min_size=1,
        max_size=60,
    ).map(
        lambda pairs: (
            np.cumsum([g for g, _ in pairs]),
            np.array([s for _, s in pairs]),
        )
    )


class TestPsReplay:
    def test_single_job(self):
        out = ps_replay(np.array([1.0]), np.array([4.0]), 2.0)
        np.testing.assert_allclose(out, [3.0])

    def test_hand_computed_sharing(self):
        # Same scenario as the server test: sizes 2 and 4 at t=0, speed 1.
        out = ps_replay(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [4.0, 6.0])

    def test_late_arrival(self):
        out = ps_replay(np.array([0.0, 1.0]), np.array([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [4.0, 3.0])

    def test_empty(self):
        assert ps_replay(np.empty(0), np.empty(0), 1.0).size == 0

    def test_idle_gap_resets(self):
        out = ps_replay(np.array([0.0, 100.0]), np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 101.0])

    def test_completions_bounded_below_by_solo_time(self, rng):
        n = 500
        times = np.sort(rng.random(n) * 100.0)
        sizes = rng.random(n) + 0.05
        out = ps_replay(times, sizes, 2.0)
        assert np.all(out >= times + sizes / 2.0 - 1e-12)

    def test_matches_event_server(self, rng):
        """ps_replay equals the event-driven PS server on random input."""
        from repro.sim import Job, ProcessorSharingServer

        n = 300
        times = np.sort(rng.random(n) * 50.0)
        sizes = rng.random(n) * 2.0 + 0.01
        replay = ps_replay(times, sizes, 1.5)

        server = ProcessorSharingServer(1.5)
        completions = np.empty(n)
        idx = 0
        while idx < n or server.n_active:
            nxt = server.next_event_time()
            if idx < n and (nxt is None or times[idx] < nxt):
                server.arrive(Job(idx, float(times[idx]), float(sizes[idx])), float(times[idx]))
                idx += 1
            else:
                job = server.on_event(nxt)
                completions[job.job_id] = nxt
        np.testing.assert_allclose(replay, completions, rtol=1e-9, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            ps_replay(np.array([1.0]), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            ps_replay(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="positive"):
            ps_replay(np.array([1.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError, match="speed"):
            ps_replay(np.array([1.0]), np.array([1.0]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(sub=_substream_strategy(), speed=st.floats(min_value=0.1, max_value=10.0))
    def test_matches_reference_loop(self, sub, speed):
        """Busy-period-segmented replay == the per-event reference loop."""
        times, sizes = sub
        np.testing.assert_allclose(
            ps_replay(times, sizes, speed),
            _ps_replay_loop(times, sizes, speed),
            rtol=1e-9,
            atol=1e-9,
        )


class TestFcfsReplay:
    def test_single_job(self):
        np.testing.assert_allclose(
            fcfs_replay(np.array([1.0]), np.array([4.0]), 2.0), [3.0]
        )

    def test_queueing_chain(self):
        # Three jobs back to back: each waits for its predecessors.
        out = fcfs_replay(np.array([0.0, 0.0, 1.0]), np.array([2.0, 2.0, 2.0]), 1.0)
        np.testing.assert_allclose(out, [2.0, 4.0, 6.0])

    def test_idle_gap_resets(self):
        out = fcfs_replay(np.array([0.0, 100.0]), np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 101.0])

    def test_empty(self):
        assert fcfs_replay(np.empty(0), np.empty(0), 1.0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            fcfs_replay(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="speed"):
            fcfs_replay(np.array([1.0]), np.array([1.0]), -1.0)

    @settings(max_examples=100, deadline=None)
    @given(sub=_substream_strategy(), speed=st.floats(min_value=0.1, max_value=10.0))
    def test_lindley_matches_reference_loop(self, sub, speed):
        """The prefix-max Lindley recursion == the per-job reference loop."""
        times, sizes = sub
        np.testing.assert_allclose(
            fcfs_replay(times, sizes, speed),
            _fcfs_replay_loop(times, sizes, speed),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_departures_ordered_and_bounded(self, rng):
        n = 500
        times = np.sort(rng.random(n) * 100.0)
        sizes = rng.random(n) + 0.05
        out = fcfs_replay(times, sizes, 2.0)
        # FCFS departures are non-decreasing and no job beats its solo time.
        assert np.all(np.diff(out) >= -1e-12)
        assert np.all(out >= times + sizes / 2.0 - 1e-12)


class TestReplayEdgeCases:
    """Degenerate substreams checked against the per-event oracles."""

    def _event_ps_oracle(self, times, sizes, speed):
        """Replay through the event-driven PS server, job by job."""
        from repro.sim import Job, ProcessorSharingServer

        n = times.size
        server = ProcessorSharingServer(speed)
        completions = np.empty(n)
        idx = 0
        while idx < n or server.n_active:
            nxt = server.next_event_time()
            if idx < n and (nxt is None or times[idx] < nxt):
                server.arrive(
                    Job(idx, float(times[idx]), float(sizes[idx])),
                    float(times[idx]),
                )
                idx += 1
            else:
                job = server.on_event(nxt)
                completions[job.job_id] = nxt
        return completions

    @pytest.mark.parametrize("replay", [ps_replay, fcfs_replay])
    def test_empty_substream(self, replay):
        out = replay(np.empty(0), np.empty(0), 3.0)
        assert out.shape == (0,)

    @pytest.mark.parametrize(
        "replay,oracle",
        [(ps_replay, _ps_replay_loop), (fcfs_replay, _fcfs_replay_loop)],
    )
    def test_single_job_matches_oracle(self, replay, oracle):
        times, sizes = np.array([7.0]), np.array([2.5])
        np.testing.assert_allclose(
            replay(times, sizes, 0.5), oracle(times, sizes, 0.5)
        )
        np.testing.assert_allclose(replay(times, sizes, 0.5), [12.0])

    @pytest.mark.parametrize("replay", [ps_replay, fcfs_replay])
    def test_zero_service_time_rejected(self, replay):
        # An idle-capable server cannot receive zero work: the kernels
        # refuse it rather than silently emitting completion == arrival.
        with pytest.raises(ValueError, match="positive"):
            replay(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize(
        "replay,oracle",
        [(ps_replay, _ps_replay_loop), (fcfs_replay, _fcfs_replay_loop)],
    )
    def test_near_zero_service_times(self, replay, oracle):
        # Tiny jobs mixed with normal ones: segmentation must not merge
        # or split busy periods differently from the reference loop.
        times = np.array([0.0, 0.0, 1.0, 1.0 + 1e-12, 5.0])
        sizes = np.array([1e-12, 2.0, 1e-9, 1.0, 1e-15])
        out = replay(times, sizes, 1.0)
        np.testing.assert_allclose(
            out, oracle(times, sizes, 1.0), rtol=1e-9, atol=1e-12
        )
        assert np.all(out >= times)

    def test_ps_busy_period_ends_exactly_at_arrival(self):
        # Job 0 finishes at t=2, the precise instant job 1 arrives: the
        # depletion test `times[j] >= depletion[j-1]` must start a NEW
        # busy period (the event engine retires departures before
        # processing a simultaneous arrival).
        times, sizes = np.array([0.0, 2.0]), np.array([2.0, 1.0])
        out = ps_replay(times, sizes, 1.0)
        np.testing.assert_allclose(out, [2.0, 3.0])
        np.testing.assert_allclose(out, _ps_replay_loop(times, sizes, 1.0))
        np.testing.assert_allclose(out, self._event_ps_oracle(times, sizes, 1.0))

    def test_fcfs_boundary_arrival_does_not_wait(self):
        times, sizes = np.array([0.0, 2.0]), np.array([2.0, 1.0])
        out = fcfs_replay(times, sizes, 1.0)
        np.testing.assert_allclose(out, [2.0, 3.0])

    def test_ps_chained_exact_boundaries_match_event_engine(self):
        # Several consecutive busy periods, each ending exactly when the
        # next one starts — the worst case for >= vs > in segmentation.
        times = np.array([0.0, 1.0, 3.0, 3.0, 7.0])
        sizes = np.array([2.0, 1.0, 2.0, 2.0, 1.0])
        out = ps_replay(times, sizes, 1.0)
        np.testing.assert_allclose(
            out, self._event_ps_oracle(times, sizes, 1.0), rtol=1e-12
        )
        np.testing.assert_allclose(
            out, _ps_replay_loop(times, sizes, 1.0), rtol=1e-12
        )


class TestFastPathRestrictions:
    def test_rejects_dynamic_dispatcher(self):
        config = SimulationConfig(speeds=(1.0,), utilization=0.5, duration=1e3)
        with pytest.raises(ValueError, match="feedback"):
            run_static_simulation(config, LeastLoadDispatcher([1.0]), None, seed=0)

    def test_rejects_quantum_discipline(self):
        config = SimulationConfig(
            speeds=(1.0,), utilization=0.5, duration=1e3,
            discipline="rr_quantum", quantum=0.1,
        )
        with pytest.raises(ValueError, match="needs the event engine"):
            run_static_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=0)

    def test_accepts_fcfs_discipline(self):
        config = SimulationConfig(
            speeds=(1.0,), utilization=0.5, duration=1e3, discipline="fcfs"
        )
        result = run_static_simulation(
            config, CyclicDispatcher(), np.array([1.0]), seed=0
        )
        assert result.metrics.jobs > 0

    @pytest.mark.parametrize("backend", ["compiled", "python"])
    @pytest.mark.parametrize("discipline", ["fcfs", "ps"])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_target_is_named(
        self, monkeypatch, backend, discipline, bad
    ):
        # Both kernel paths end in the shared grouping's range check, so
        # a bad plan gets the same message whichever backend ran.
        if backend == "python":
            monkeypatch.setattr(ckernel, "_fns", False)
        targets = np.array([0, 1, 2, bad, 0, 1], dtype=np.int64)
        times = np.arange(1.0, 7.0)
        with pytest.raises(ValueError, match="^dispatch target out of range$"):
            fastpath._replay_cell_plans(
                [targets], times, np.ones(6), np.array([1.0, 2.0, 5.0]),
                discipline, warmup=0.0, duration=10.0, record_trace=False,
            )


class TestEngineEquivalence:
    """The decomposed fast path must reproduce the event engine exactly
    (same streams, same boundaries) up to float accumulation order."""

    @pytest.mark.parametrize("policy_name", ["WRAN", "ORAN", "WRR", "ORR"])
    def test_policies_agree(self, policy_name):
        config = SimulationConfig(
            speeds=(1.0, 2.0, 5.0), utilization=0.6, duration=2.0e4
        )
        policy = get_policy(policy_name)
        fast = run_policy_once(config, policy, seed=42)
        slow = run_policy_once(config, policy, seed=42, force_engine=True)
        assert fast.total_arrivals == slow.total_arrivals
        assert fast.metrics.jobs == slow.metrics.jobs
        assert fast.metrics.mean_response_time == pytest.approx(
            slow.metrics.mean_response_time, rel=1e-9
        )
        assert fast.metrics.mean_response_ratio == pytest.approx(
            slow.metrics.mean_response_ratio, rel=1e-9
        )
        assert fast.metrics.fairness == pytest.approx(
            slow.metrics.fairness, rel=1e-6
        )

    @pytest.mark.parametrize("policy_name", ["WRAN", "ORR"])
    def test_fcfs_policies_agree(self, policy_name):
        config = SimulationConfig(
            speeds=(1.0, 2.0, 5.0), utilization=0.6, duration=2.0e4,
            discipline="fcfs",
        )
        policy = get_policy(policy_name)
        fast = run_policy_once(config, policy, seed=42)
        slow = run_policy_once(config, policy, seed=42, force_engine=True)
        assert fast.total_arrivals == slow.total_arrivals
        assert fast.metrics.jobs == slow.metrics.jobs
        assert fast.metrics.mean_response_time == pytest.approx(
            slow.metrics.mean_response_time, rel=1e-9
        )
        assert fast.metrics.mean_response_ratio == pytest.approx(
            slow.metrics.mean_response_ratio, rel=1e-9
        )
        assert fast.metrics.fairness == pytest.approx(
            slow.metrics.fairness, rel=1e-6
        )

    def test_dispatch_fractions_agree(self):
        config = SimulationConfig(
            speeds=(1.0, 4.0), utilization=0.5, duration=2.0e4
        )
        policy = get_policy("ORR")
        fast = run_policy_once(config, policy, seed=7)
        slow = run_policy_once(config, policy, seed=7, force_engine=True)
        np.testing.assert_allclose(
            fast.dispatch_fractions, slow.dispatch_fractions, atol=1e-12
        )

    def test_traces_agree(self):
        config = SimulationConfig(speeds=(1.0, 3.0), utilization=0.5, duration=5e3)
        policy = get_policy("WRR")
        fast = run_policy_once(config, policy, seed=9, record_trace=True)
        slow = run_policy_once(
            config, policy, seed=9, record_trace=True, force_engine=True
        )
        np.testing.assert_allclose(fast.trace.times, slow.trace.times, rtol=1e-12)
        np.testing.assert_array_equal(fast.trace.targets, slow.trace.targets)

    def test_busy_time_agrees(self):
        config = SimulationConfig(speeds=(1.0, 3.0), utilization=0.5, duration=1e4)
        policy = get_policy("WRAN")
        fast = run_policy_once(config, policy, seed=3)
        slow = run_policy_once(config, policy, seed=3, force_engine=True)
        np.testing.assert_allclose(
            [s.busy_time for s in fast.servers],
            [s.busy_time for s in slow.servers],
            rtol=1e-9,
        )


class TestFastPathStatistics:
    def test_mm1_ps_theory(self):
        config = SimulationConfig(
            speeds=(1.0,), utilization=0.5, duration=5.0e5, warmup=5.0e4,
            size_distribution=Exponential.from_mean(1.0), arrival_cv=1.0,
        )
        result = run_static_simulation(
            config, CyclicDispatcher(), np.array([1.0]), seed=30
        )
        assert result.metrics.mean_response_ratio == pytest.approx(2.0, rel=0.05)

    def test_two_server_weighted_matches_theory(self):
        """Weighted random split of Poisson arrivals keeps each server an
        independent M/G/1-PS at the system utilization."""
        config = SimulationConfig(
            speeds=(1.0, 3.0), utilization=0.6, duration=6.0e5, warmup=1.0e5,
            arrival_cv=1.0,
        )
        d = RandomDispatcher(substream(31, "dispatch"))
        result = run_static_simulation(config, d, np.array([0.25, 0.75]), seed=31)
        # Paper eq. (3): R̄ = Σ αᵢ μ/(sᵢμ − αᵢλ) = 0.25/0.4 + 0.75/1.2 = 1.25.
        expected = config.network().mean_response_ratio([0.25, 0.75])
        assert expected == pytest.approx(1.25)
        assert result.metrics.mean_response_ratio == pytest.approx(expected, rel=0.08)
