"""Tests for the least-work dispatcher (load-index ablation support)."""

import numpy as np
import pytest

from repro.core import run_policy_once
from repro.core.policies import SchedulingPolicy
from repro.dispatch import LeastWorkDispatcher
from repro.sim import SimulationConfig


class TestLeastWorkDispatcher:
    def make(self, speeds=(1.0, 2.0), **kw):
        d = LeastWorkDispatcher(speeds, **kw)
        d.reset(None)
        return d

    def test_routes_by_normalized_work(self):
        d = self.make()
        # Empty: (0+size)/1 vs (0+size)/2 → faster machine.
        assert d.select(4.0) == 1
        # Now machine 1 holds 4 work: next job of size 1 → (0+1)/1 = 1
        # vs (4+1)/2 = 2.5 → machine 0.
        assert d.select(1.0) == 0
        np.testing.assert_allclose(d._state()[0], [1.0, 4.0])

    def test_mean_size_mode_ignores_actual_sizes(self):
        d = self.make(use_sizes=False, mean_size=2.0)
        d.select(1000.0)
        np.testing.assert_allclose(sorted(d._state()[0]), [0.0, 2.0])

    def test_load_update_retires_fifo_work(self):
        d = self.make(speeds=(1.0,))
        d.select(3.0)
        d.select(5.0)
        d.on_load_update(0)
        assert d._state()[0][0] == pytest.approx(5.0)
        d.on_load_update(0)
        assert d._state()[0][0] == pytest.approx(0.0)

    def test_update_without_outstanding_raises(self):
        d = self.make(speeds=(1.0,))
        with pytest.raises(RuntimeError, match="no outstanding"):
            d.on_load_update(0)

    def test_update_out_of_range(self):
        d = self.make(speeds=(1.0,))
        with pytest.raises(IndexError):
            d.on_load_update(3)

    def test_requires_reset(self):
        d = LeastWorkDispatcher((1.0,))
        with pytest.raises(RuntimeError, match="reset"):
            d.select(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LeastWorkDispatcher((0.0,))
        with pytest.raises(ValueError, match="mean_size"):
            LeastWorkDispatcher((1.0,), mean_size=0.0)
        d = LeastWorkDispatcher((1.0, 1.0))
        with pytest.raises(ValueError, match="fractions"):
            d.reset([1.0])

    def test_names(self):
        assert LeastWorkDispatcher((1.0,)).name == "least_work"
        assert LeastWorkDispatcher((1.0,), use_sizes=False).name == "least_count_work"

    def test_ties_to_fastest(self):
        d = self.make(speeds=(2.0, 1.0, 2.0))
        # Empty queues, size 2: normalized 1/1/1 → tie → fastest, lowest
        # index among the fastest.
        assert d.select(2.0) == 0

    def test_engine_integration(self):
        config = SimulationConfig(speeds=(1.0, 4.0), utilization=0.6,
                                  duration=1.5e4, warmup=0.0)
        policy = SchedulingPolicy(
            name="LW", allocator=None,
            dispatcher_factory=lambda s, rng: LeastWorkDispatcher(s),
            is_static=False,
        )
        result = run_policy_once(config, policy, seed=3)
        assert result.metrics.jobs > 0
        assert result.metrics.jobs == result.total_arrivals
