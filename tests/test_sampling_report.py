"""Tests for workload characterization."""

import numpy as np
import pytest

from repro.analysis import characterize
from repro.rng import StreamFactory
from repro.sim import JobTrace, Workload


class TestCharacterize:
    def make_trace(self, cv=3.0, horizon=2.0e5):
        w = Workload(total_speed=10.0, utilization=0.7, arrival_cv=cv)
        return JobTrace.synthesize(w, StreamFactory(3).arrivals, horizon)

    def test_paper_workload_detected(self):
        report = characterize(self.make_trace())
        assert report.heavy_tailed
        assert report.bursty
        assert report.interarrival_cv == pytest.approx(3.0, rel=0.2)
        assert report.size_cv > 2.0
        assert report.top1pct_load_share > 0.2

    def test_poisson_workload_not_bursty(self):
        report = characterize(self.make_trace(cv=1.0))
        assert not report.bursty
        assert report.dispersion_index == pytest.approx(1.0, abs=0.4)

    def test_percentiles_ordered(self):
        report = characterize(self.make_trace())
        p = report.size_percentiles
        assert p[50] <= p[90] <= p[99]
        assert p[50] >= 10.0  # Bounded Pareto lower bound

    def test_recommended_model(self):
        report = characterize(self.make_trace())
        model = report.recommended_model()
        assert model["size_mean"] == pytest.approx(report.mean_size)
        assert model["interarrival_cv"] >= 1.0

    def test_summary_text(self):
        out = characterize(self.make_trace()).summary()
        assert "heavy-tailed" in out and "bursty" in out

    def test_validation(self):
        tiny = JobTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="three jobs"):
            characterize(tiny)
        trace = self.make_trace()
        with pytest.raises(ValueError, match="windows"):
            characterize(trace, n_windows=1)
