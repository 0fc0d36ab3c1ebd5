"""Tests for metrics: streaming stats, response collectors, CIs."""

import math

import numpy as np
import pytest

from repro.metrics import (
    MetricsCollector,
    ReplicationSummary,
    RunningStats,
    summarize_replications,
)


class TestRunningStats:
    def test_matches_numpy(self, rng):
        xs = rng.lognormal(0.0, 1.5, 10_000)
        s = RunningStats()
        for x in xs:
            s.add(float(x))
        assert s.count == xs.size
        assert s.mean == pytest.approx(xs.mean(), rel=1e-10)
        assert s.variance == pytest.approx(xs.var(), rel=1e-8)
        assert s.std == pytest.approx(xs.std(), rel=1e-8)
        assert s.min == xs.min() and s.max == xs.max()
        assert s.total == pytest.approx(xs.sum(), rel=1e-10)

    def test_add_array_matches_scalar_path(self, rng):
        xs = rng.random(1000)
        a, b = RunningStats(), RunningStats()
        for x in xs:
            a.add(float(x))
        b.add_array(xs)
        assert b.mean == pytest.approx(a.mean, rel=1e-12)
        assert b.variance == pytest.approx(a.variance, rel=1e-9)

    def test_merge_matches_combined(self, rng):
        xs, ys = rng.random(500), rng.random(700) + 5.0
        a, b = RunningStats(), RunningStats()
        a.add_array(xs)
        b.add_array(ys)
        a.merge(b)
        both = np.concatenate([xs, ys])
        assert a.count == 1200
        assert a.mean == pytest.approx(both.mean(), rel=1e-12)
        assert a.variance == pytest.approx(both.var(), rel=1e-9)
        assert a.min == both.min() and a.max == both.max()

    def test_merge_into_empty(self, rng):
        xs = rng.random(10)
        a, b = RunningStats(), RunningStats()
        b.add_array(xs)
        a.merge(b)
        assert a.mean == pytest.approx(xs.mean())

    def test_merge_empty_noop(self):
        a = RunningStats()
        a.add(1.0)
        a.merge(RunningStats())
        assert a.count == 1

    def test_sample_variance(self):
        s = RunningStats()
        for x in (1.0, 2.0, 3.0):
            s.add(x)
        assert s.variance == pytest.approx(2.0 / 3.0)

    def test_empty_raises(self):
        s = RunningStats()
        for prop in ("mean", "variance", "min", "max"):
            with pytest.raises(ValueError):
                getattr(s, prop)

    def test_add_empty_array_noop(self):
        s = RunningStats()
        s.add_array(np.empty(0))
        assert s.count == 0

    def test_numerical_stability_large_offset(self):
        """Welford must survive data with mean >> std."""
        base = 1e9
        xs = base + np.array([0.0, 1.0, 2.0])
        s = RunningStats()
        for x in xs:
            s.add(float(x))
        assert s.variance == pytest.approx(2.0 / 3.0, rel=1e-6)


class TestMetricsCollector:
    def test_response_metrics(self):
        c = MetricsCollector()
        c.record(arrival=0.0, completion=2.0, size=1.0)   # ratio 2
        c.record(arrival=1.0, completion=5.0, size=2.0)   # ratio 2
        m = c.finalize()
        assert m.jobs == 2
        assert m.mean_response_time == pytest.approx(3.0)
        assert m.mean_response_ratio == pytest.approx(2.0)
        assert m.fairness == pytest.approx(0.0)
        assert m.mean_job_size == pytest.approx(1.5)

    def test_fairness_is_std_of_ratio(self):
        c = MetricsCollector()
        c.record(0.0, 1.0, 1.0)   # ratio 1
        c.record(0.0, 3.0, 1.0)   # ratio 3
        m = c.finalize()
        assert m.fairness == pytest.approx(1.0)  # population std of {1, 3}
        assert m.max_response_ratio == pytest.approx(3.0)

    def test_warmup_filtering(self):
        c = MetricsCollector(warmup_end=10.0)
        c.record(5.0, 20.0, 1.0)    # arrives during warm-up: ignored
        c.record(11.0, 12.0, 1.0)
        assert c.jobs == 1
        assert c.finalize().mean_response_time == pytest.approx(1.0)

    def test_merge(self):
        a = MetricsCollector()
        b = MetricsCollector()
        a.record(0.0, 1.0, 1.0)
        b.record(0.0, 3.0, 1.0)
        a.merge(b)
        assert a.finalize().mean_response_time == pytest.approx(2.0)

    def test_merge_warmup_mismatch(self):
        a, b = MetricsCollector(1.0), MetricsCollector(2.0)
        with pytest.raises(ValueError, match="warm-up"):
            a.merge(b)

    def test_validation(self):
        c = MetricsCollector()
        with pytest.raises(ValueError, match="precedes"):
            c.record(5.0, 4.0, 1.0)
        with pytest.raises(ValueError, match="size"):
            c.record(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            MetricsCollector(warmup_end=-1.0)

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError, match="no jobs"):
            MetricsCollector().finalize()

    def test_batch_all_warmup_noop(self):
        c = MetricsCollector(warmup_end=100.0)
        c.record(1.0, 2.0, 1.0)
        assert c.jobs == 0

    def test_as_dict(self):
        c = MetricsCollector()
        c.record(0.0, 1.0, 1.0)
        d = c.finalize().as_dict()
        assert set(d) == {
            "jobs",
            "mean_response_time",
            "mean_response_ratio",
            "fairness",
            "max_response_ratio",
            "mean_job_size",
        }


class TestReplicationSummary:
    def test_single_value(self):
        s = summarize_replications([4.2])
        assert s.mean == 4.2
        assert s.half_width == 0.0
        assert s.n == 1

    def test_t_interval(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        s = summarize_replications(values, confidence=0.95)
        from scipy import stats

        expected_half = (
            stats.t.ppf(0.975, df=4) * np.std(values, ddof=1) / math.sqrt(5)
        )
        assert s.half_width == pytest.approx(expected_half)
        assert s.lower == pytest.approx(s.mean - expected_half)
        assert s.upper == pytest.approx(s.mean + expected_half)

    def test_relative_half_width(self):
        s = ReplicationSummary(2.0, 0.0, 3, 0.1, 0.95)
        assert s.relative_half_width == pytest.approx(0.05)
        z = ReplicationSummary(0.0, 0.0, 3, 0.1, 0.95)
        assert z.relative_half_width == math.inf

    def test_validation(self):
        with pytest.raises(ValueError, match="no replication"):
            summarize_replications([])
        with pytest.raises(ValueError, match="confidence"):
            summarize_replications([1.0, 2.0], confidence=1.5)


class TestDegenerateIntervals:
    """Satellite fix: degenerate inputs must yield flagged zero-width
    intervals, never NaN half-widths that poison precision loops."""

    def test_single_replication_flagged(self):
        s = summarize_replications([4.2])
        assert s.degenerate
        assert s.half_width == 0.0
        assert s.relative_half_width == 0.0

    def test_zero_variance_flagged(self):
        s = summarize_replications([3.0, 3.0, 3.0, 3.0])
        assert s.degenerate
        assert s.half_width == 0.0
        assert s.std == 0.0
        assert s.relative_half_width == 0.0

    def test_nonfinite_inputs_never_produce_nan_half_width(self):
        for values in ([1.0, math.nan, 2.0], [1.0, math.inf, 2.0]):
            s = summarize_replications(values)
            assert s.degenerate
            assert s.half_width == 0.0
            assert not math.isnan(s.half_width)
            # Non-finite mean: relative width is inf, so `<= target`
            # comparisons stay well-defined (False, never NaN).
            assert s.relative_half_width == math.inf
            assert not (s.relative_half_width <= 0.05)

    def test_healthy_inputs_not_flagged(self):
        s = summarize_replications([1.0, 2.0, 3.0])
        assert not s.degenerate
        assert s.half_width > 0.0

    def test_paired_single_pair_flagged(self):
        from repro.metrics import summarize_paired

        s = summarize_paired([1.0], [2.0])
        assert s.degenerate
        assert s.half_width == 0.0
        assert s.mean_diff == -1.0

    def test_paired_identical_policies_under_crn_flagged(self):
        from repro.metrics import summarize_paired

        # CRN with identical policies: the difference vector is exactly
        # zero — a real scenario, not a numerical accident.
        s = summarize_paired([1.5, 2.5, 3.5], [1.5, 2.5, 3.5])
        assert s.degenerate
        assert s.mean_diff == 0.0
        assert s.half_width == 0.0
        assert s.verdict == "tie"

    def test_paired_nonfinite_differences_flagged(self):
        from repro.metrics import summarize_paired

        s = summarize_paired([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])
        assert s.degenerate
        assert not math.isnan(s.half_width)
