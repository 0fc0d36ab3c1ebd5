"""Integration tests for the event engine against queueing theory."""

import dataclasses

import numpy as np
import pytest

from repro.dispatch import CyclicDispatcher, LeastLoadDispatcher, RandomDispatcher
from repro.distributions import Exponential
from repro.sim import FeedbackModel, SimulationConfig, run_simulation


def single_server_config(**overrides):
    defaults = dict(
        speeds=(1.0,),
        utilization=0.5,
        duration=5.0e5,
        warmup=5.0e4,
        size_distribution=Exponential.from_mean(1.0),
        arrival_cv=1.0,  # Poisson arrivals → exact M/M/1
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSingleServerTheory:
    def test_mm1_ps_mean_response_time(self):
        """M/M/1-PS: T̄ = 1/(μ − λ) = 2 at ρ = 0.5, μ = 1."""
        config = single_server_config()
        d = CyclicDispatcher()
        result = run_simulation(config, d, np.array([1.0]), seed=11)
        assert result.metrics.mean_response_time == pytest.approx(2.0, rel=0.05)

    def test_mm1_ps_mean_response_ratio(self):
        """E[T/S] = 1/(1−ρ) = 2 at ρ = 0.5 under PS."""
        config = single_server_config()
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=12)
        assert result.metrics.mean_response_ratio == pytest.approx(2.0, rel=0.05)

    def test_mg1_ps_insensitivity(self):
        """Bounded Pareto sizes give the same mean response ratio as
        exponential sizes under PS (only the mean matters)."""
        heavy = SimulationConfig(
            speeds=(1.0,), utilization=0.5, duration=8.0e5, warmup=2.0e5,
            arrival_cv=1.0,
        )
        result = run_simulation(heavy, CyclicDispatcher(), np.array([1.0]), seed=13)
        assert result.metrics.mean_response_ratio == pytest.approx(2.0, rel=0.08)

    def test_mg1_fcfs_pollaczek_khinchine(self):
        """FCFS with exponential sizes: W = ρ/(μ−λ), T = 1/(μ−λ)."""
        config = single_server_config(discipline="fcfs")
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=14)
        assert result.metrics.mean_response_time == pytest.approx(2.0, rel=0.05)

    def test_utilization_measured(self):
        config = single_server_config(duration=2.0e5, warmup=0.0)
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=15)
        assert result.per_server_utilization[0] == pytest.approx(0.5, rel=0.05)

    def test_quantum_rr_close_to_ps(self):
        config = single_server_config(
            duration=1.0e5, warmup=1.0e4, discipline="rr_quantum", quantum=0.01
        )
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=16)
        assert result.metrics.mean_response_ratio == pytest.approx(2.0, rel=0.1)


class TestEngineBehaviour:
    def test_drain_false_stops_at_horizon(self):
        # Heavy-tailed paper sizes: a job is essentially always in
        # flight at the horizon, so truncation is observable.
        config = SimulationConfig(
            speeds=(1.0,), utilization=0.7, duration=1.0e4, warmup=0.0,
            drain=False,
        )
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=1)
        # Without drain some late arrivals never complete.
        assert result.metrics.jobs < result.total_arrivals

    def test_drain_true_completes_everything(self):
        config = single_server_config(duration=1.0e4, warmup=0.0, drain=True)
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=1)
        assert result.metrics.jobs == result.total_arrivals

    def test_trace_recorded(self):
        config = single_server_config(duration=5.0e3, warmup=0.0)
        result = run_simulation(
            config, CyclicDispatcher(), np.array([1.0]), seed=2, record_trace=True
        )
        assert result.trace is not None
        assert result.trace.count == result.total_arrivals
        assert np.all(np.diff(result.trace.times) >= 0)

    def test_same_seed_same_result(self):
        config = single_server_config(duration=1.0e4, warmup=0.0)
        a = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=3)
        b = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=3)
        assert a.metrics.mean_response_time == b.metrics.mean_response_time

    def test_different_seeds_differ(self):
        config = single_server_config(duration=1.0e4, warmup=0.0)
        a = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=3)
        b = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=4)
        assert a.metrics.mean_response_time != b.metrics.mean_response_time

    def test_dispatch_fractions_post_warmup(self, rng):
        config = SimulationConfig(
            speeds=(1.0, 1.0), utilization=0.4, duration=4.0e4, warmup=1.0e4,
            size_distribution=Exponential.from_mean(1.0), arrival_cv=1.0,
        )
        d = RandomDispatcher(rng)
        result = run_simulation(config, d, np.array([0.2, 0.8]), seed=5)
        np.testing.assert_allclose(
            result.dispatch_fractions, [0.2, 0.8], atol=0.02
        )

    def test_server_stats_consistency(self):
        config = single_server_config(duration=1.0e4, warmup=0.0)
        result = run_simulation(config, CyclicDispatcher(), np.array([1.0]), seed=6)
        s = result.servers[0]
        assert s.jobs_received == result.total_arrivals
        assert s.jobs_completed == s.jobs_received
        assert s.dispatch_fraction == pytest.approx(1.0)


class TestLeastLoadIntegration:
    def test_beats_random_on_heterogeneous_system(self):
        config = SimulationConfig(
            speeds=(1.0, 1.0, 8.0), utilization=0.7, duration=6.0e4, warmup=1.5e4,
        )
        ll = run_simulation(config, LeastLoadDispatcher(config.speeds), None, seed=21)
        rand = run_simulation(
            config,
            RandomDispatcher(np.random.default_rng(0)),
            np.array([0.1, 0.1, 0.8]),
            seed=21,
        )
        assert (
            ll.metrics.mean_response_ratio < rand.metrics.mean_response_ratio
        )

    def test_skews_load_to_fast_machines(self):
        config = SimulationConfig(
            speeds=(1.0, 10.0), utilization=0.6, duration=6.0e4, warmup=1.5e4,
        )
        result = run_simulation(
            config, LeastLoadDispatcher(config.speeds), None, seed=22
        )
        frac = result.dispatch_fractions
        # Far more skewed than the 1/11 speed share.
        assert frac[0] < 1.0 / 11.0
        assert frac[1] > 10.0 / 11.0

    def test_oracle_feedback_at_least_as_good(self):
        base = dict(speeds=(1.0, 1.0, 4.0), utilization=0.8, duration=6.0e4,
                    warmup=1.5e4)
        stale = SimulationConfig(**base)
        oracle = SimulationConfig(
            **base, feedback=FeedbackModel(detection_window=0.0, message_delay_mean=0.0)
        )
        r_stale = run_simulation(
            stale, LeastLoadDispatcher(stale.speeds), None, seed=23
        )
        r_oracle = run_simulation(
            oracle, LeastLoadDispatcher(oracle.speeds), None, seed=23
        )
        # Identical streams: fresher information can only help (allow noise).
        assert (
            r_oracle.metrics.mean_response_ratio
            <= r_stale.metrics.mean_response_ratio * 1.05
        )


class TestConfigValidation:
    def test_bad_speeds(self):
        with pytest.raises(ValueError):
            SimulationConfig(speeds=(), utilization=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(speeds=(0.0,), utilization=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speeds", (1.0, float("nan"))),
            ("speeds", (1.0, float("inf"))),
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("warmup", float("nan")),
            ("quantum", float("nan")),
            ("quantum", float("inf")),
            ("arrival_cv", float("nan")),
            ("arrival_cv", float("inf")),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_rejects_nan_and_inf(self, field, value):
        """Each bound is written so that NaN fails it: a NaN duration
        used to run forever and a NaN speed surfaced as a traceback
        deep inside the allocator."""
        kwargs = dict(speeds=(1.0, 2.0), utilization=0.5, duration=100.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**kwargs)

    def test_bad_utilization(self):
        with pytest.raises(ValueError):
            SimulationConfig(speeds=(1.0,), utilization=0.0)

    def test_bad_warmup(self):
        with pytest.raises(ValueError):
            SimulationConfig(speeds=(1.0,), utilization=0.5, duration=10.0, warmup=10.0)

    def test_default_warmup_quarter(self):
        c = SimulationConfig(speeds=(1.0,), utilization=0.5, duration=100.0)
        assert c.warmup == pytest.approx(25.0)

    def test_bad_discipline(self):
        with pytest.raises(ValueError, match="discipline"):
            SimulationConfig(speeds=(1.0,), utilization=0.5, discipline="lifo")

    def test_network_matches(self):
        c = SimulationConfig(speeds=(1.0, 3.0), utilization=0.6)
        net = c.network()
        assert net.utilization == pytest.approx(0.6)
        assert net.total_speed == 4.0

    def test_scaled(self):
        c = SimulationConfig(speeds=(1.0,), utilization=0.5, duration=100.0)
        c2 = dataclasses.replace(c, duration=1000.0, warmup=None)
        assert c2.duration == 1000.0
        assert c2.warmup == 250.0
        assert c2.speeds == c.speeds
