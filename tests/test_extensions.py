"""Tests for the extension components: JSQ(d), modulated arrivals,
adaptive ORR."""

import numpy as np
import pytest

from repro.core import get_policy, run_policy_once
from repro.core.adaptive import AdaptiveOrrDispatcher
from repro.dispatch import PowerOfDChoicesDispatcher
from repro.distributions import Exponential
from repro.rng import StreamFactory
from repro.sim import SimulationConfig, run_simulation
from repro.sim.modulated import ModulatedArrivalStream, RateProfile, diurnal_profile


class TestPowerOfDChoices:
    def make(self, speeds=(1.0, 1.0, 4.0), d=2, seed=0, **kw):
        disp = PowerOfDChoicesDispatcher(
            speeds, d=d, rng=np.random.default_rng(seed), **kw
        )
        disp.reset(None)
        return disp

    def test_d_equals_n_is_least_load(self):
        from repro.dispatch import LeastLoadDispatcher

        speeds = (1.0, 2.0, 4.0)
        jsq = self.make(speeds, d=3)
        ll = LeastLoadDispatcher(speeds)
        ll.reset(None)
        for _ in range(50):
            assert jsq.select(1.0) == ll.select(1.0)

    def test_d_one_weighted_matches_speed_shares(self):
        d = self.make((1.0, 4.0), d=1, seed=1)
        picks = np.array([d.select(1.0) for _ in range(5000)])
        # d=1 weighted sampling ≈ weighted random dispatch.
        frac_fast = (picks == 1).mean()
        assert frac_fast == pytest.approx(0.8, abs=0.03)
        # Known queue must track picks.
        counts = np.bincount(picks, minlength=2)
        np.testing.assert_array_equal(d._queue(), counts)

    def test_uniform_sampling_option(self):
        d = self.make((1.0, 4.0), d=1, seed=1, weighted_sampling=False)
        picks = np.array([d.select(1.0) for _ in range(5000)])
        assert (picks == 1).mean() == pytest.approx(0.5, abs=0.03)
        assert "uniform" in d.name

    def test_load_update(self):
        d = self.make()
        server = d.select(1.0)
        d.on_load_update(server)
        assert d._queue()[server] == 0
        with pytest.raises(RuntimeError):
            d.on_load_update(server)
        with pytest.raises(IndexError):
            d.on_load_update(99)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="d must lie"):
            PowerOfDChoicesDispatcher((1.0, 1.0), d=3, rng=rng)
        with pytest.raises(ValueError, match="positive"):
            PowerOfDChoicesDispatcher((0.0,), d=1, rng=rng)

    def test_requires_reset(self):
        d = PowerOfDChoicesDispatcher((1.0,), d=1, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="reset"):
            d.select(1.0)

    def test_prefers_less_loaded_sample(self):
        d = self.make((1.0, 1.0), d=2, seed=0)
        first = d.select(1.0)
        second = d.select(1.0)
        assert second != first  # the other queue is shorter

    def test_integration_beats_random_on_homogeneous(self):
        config = SimulationConfig(
            speeds=(1.0,) * 4, utilization=0.8, duration=4.0e4
        )
        jsq = run_policy_once(config, get_policy("JSQ2"), seed=5)
        wran = run_policy_once(config, get_policy("WRAN"), seed=5)
        assert jsq.metrics.mean_response_ratio < wran.metrics.mean_response_ratio


class TestRateProfile:
    def test_normalization(self):
        p = RateProfile([1.0, 3.0], segment_length=10.0)
        np.testing.assert_allclose(p.multipliers, [0.5, 1.5])
        assert p.period == 20.0
        assert p.area_per_period == pytest.approx(20.0)

    def test_cumulative_piecewise(self):
        p = RateProfile([1.0, 3.0], segment_length=10.0)
        assert p.cumulative(0.0) == 0.0
        assert p.cumulative(10.0) == pytest.approx(5.0)    # 10 * 0.5
        assert p.cumulative(20.0) == pytest.approx(20.0)   # + 10 * 1.5
        assert p.cumulative(30.0) == pytest.approx(25.0)   # next period

    def test_inverse_roundtrip(self):
        p = RateProfile([0.5, 2.0, 1.5], segment_length=7.0)
        ts = np.linspace(0.0, 100.0, 57)
        back = p.inverse_cumulative(np.array([p.cumulative(t) for t in ts]))
        np.testing.assert_allclose(back, ts, atol=1e-9)

    def test_multiplier_at(self):
        p = RateProfile([1.0, 3.0], segment_length=10.0)
        assert p.multiplier_at(5.0) == pytest.approx(0.5)
        assert p.multiplier_at(15.0) == pytest.approx(1.5)
        assert p.multiplier_at(25.0) == pytest.approx(0.5)  # periodic

    def test_validation(self):
        with pytest.raises(ValueError):
            RateProfile([], 1.0)
        with pytest.raises(ValueError):
            RateProfile([1.0, -1.0], 1.0)
        with pytest.raises(ValueError):
            RateProfile([1.0], 0.0)
        with pytest.raises(ValueError):
            RateProfile([1.0], 1.0).cumulative(-1.0)

    def test_diurnal_profile(self):
        p = diurnal_profile(peak_to_trough=3.0, segments=24, period=86400.0)
        assert p.period == pytest.approx(86400.0)
        assert p.multipliers.mean() == pytest.approx(1.0)
        # segment midpoints never hit sin = ±1 exactly; ~3 is close enough
        assert p.multipliers.max() / p.multipliers.min() == pytest.approx(3.0, rel=0.05)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            diurnal_profile(peak_to_trough=0.5)
        with pytest.raises(ValueError):
            diurnal_profile(segments=1)


class TestModulatedArrivalStream:
    def make(self, seed=0):
        profile = RateProfile([0.5, 1.5], segment_length=500.0)
        dist = Exponential(1.0)  # base rate 1/s
        return ModulatedArrivalStream(dist, profile, np.random.default_rng(seed)), profile

    def test_rate_tracks_profile(self):
        stream, profile = self.make()
        times = stream.arrivals_until(100_000.0)
        # Long-run rate preserved.
        assert times.size / 100_000.0 == pytest.approx(1.0, rel=0.03)
        # Per-phase rates follow the multipliers (0.5 vs 1.5).
        phase = times % profile.period
        slow = np.count_nonzero(phase < 500.0)
        fast = times.size - slow
        assert fast / slow == pytest.approx(3.0, rel=0.1)

    def test_next_arrival_matches_batch(self):
        a, _ = self.make(seed=3)
        batch = a.arrivals_until(2000.0)
        b, _ = self.make(seed=3)
        seq = []
        while True:
            t = b.next_arrival()
            if t > 2000.0:
                break
            seq.append(t)
        np.testing.assert_allclose(batch, seq, rtol=1e-9)

    def test_monotone(self):
        stream, _ = self.make(seed=5)
        times = stream.arrivals_until(5000.0)
        assert np.all(np.diff(times) > 0)

    def test_config_integration(self):
        profile = diurnal_profile(peak_to_trough=2.0, period=1.0e4, segments=8)
        config = SimulationConfig(
            speeds=(2.0, 2.0), utilization=0.5, duration=3.0e4,
            rate_profile=profile,
        )
        result = run_policy_once_all = run_policy_once(
            config, get_policy("WRR"), seed=1
        )
        assert result.metrics.jobs > 0
        # Mean utilization preserved: busy fraction near 0.5.
        assert result.per_server_utilization.mean() == pytest.approx(0.5, abs=0.12)


class TestAdaptiveOrrDispatcher:
    def test_validation(self):
        with pytest.raises(ValueError, match="update_interval"):
            AdaptiveOrrDispatcher((1.0,), update_interval=0.0)
        with pytest.raises(ValueError, match="safety_margin"):
            AdaptiveOrrDispatcher((1.0,), safety_margin=-0.1)
        with pytest.raises(ValueError, match="ewma_weight"):
            AdaptiveOrrDispatcher((1.0,), ewma_weight=0.0)
        with pytest.raises(ValueError, match="initial_utilization"):
            AdaptiveOrrDispatcher((1.0,), initial_utilization=1.0)
        with pytest.raises(ValueError, match="positive"):
            AdaptiveOrrDispatcher((0.0,))

    def test_requires_reset(self):
        d = AdaptiveOrrDispatcher((1.0, 2.0))
        with pytest.raises(RuntimeError, match="reset"):
            d.select(1.0)

    def test_initial_fractions_from_initial_utilization(self):
        from repro.allocation import optimized_fractions
        from repro.queueing import HeterogeneousNetwork

        speeds = (1.0, 4.0)
        d = AdaptiveOrrDispatcher(speeds, initial_utilization=0.6,
                                  safety_margin=0.0)
        d.reset()
        expected = optimized_fractions(
            HeterogeneousNetwork(np.asarray(speeds), utilization=0.6)
        )
        np.testing.assert_allclose(d.alphas, expected, rtol=1e-12)

    def test_estimate_converges_to_offered_load(self):
        """Feed a steady synthetic stream: the estimate approaches the
        true utilization within a few windows."""
        speeds = (1.0, 1.0)
        d = AdaptiveOrrDispatcher(
            speeds, update_interval=100.0, ewma_weight=1.0,
            safety_margin=0.0, initial_utilization=0.2,
        )
        d.reset()
        # Jobs of size 1.4 arriving every 1 s on capacity 2 → rho = 0.7.
        t = 0.0
        for _ in range(500):
            d.observe_arrival(t)
            d.select(1.4)
            t += 1.0
        assert d._estimate == pytest.approx(0.7, rel=0.05)

    def test_no_feedback_wanted(self):
        d = AdaptiveOrrDispatcher((1.0,))
        assert d.wants_feedback is False
        assert d.is_static is False

    def test_engine_integration(self):
        config = SimulationConfig(
            speeds=(1.0, 1.0, 8.0), utilization=0.6, duration=3.0e4
        )
        dispatcher = AdaptiveOrrDispatcher(
            config.speeds, update_interval=2000.0, initial_utilization=0.3
        )
        result = run_simulation(config, dispatcher, None, seed=9)
        assert result.metrics.jobs > 0
        # Moved from the 0.3 prior toward the true 0.6 load.  The
        # heavy-tailed sizes make single windows noisy (one elephant
        # can double a window's offered work), so the band is wide.
        assert 0.45 <= dispatcher._estimate <= 0.95

    def test_policy_registry(self):
        policy = get_policy("ADAPTIVE_ORR")
        assert not policy.is_static
        config = SimulationConfig(speeds=(1.0, 4.0), utilization=0.5,
                                  duration=1.5e4)
        result = run_policy_once(config, policy, seed=2)
        assert result.metrics.jobs > 0
