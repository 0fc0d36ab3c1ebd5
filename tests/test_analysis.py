"""Tests for the analysis tools (MSER warm-up, theory validation)."""

import numpy as np
import pytest

from repro.analysis import (
    ValidationReport,
    batch_means,
    mser,
    validate_against_theory,
)
from repro.core import get_policy
from repro.distributions import Exponential
from repro.sim import SimulationConfig


class TestBatchMeans:
    def test_basic(self):
        out = batch_means(np.arange(10, dtype=float), 5)
        np.testing.assert_allclose(out, [2.0, 7.0])

    def test_remainder_dropped(self):
        out = batch_means(np.arange(11, dtype=float), 5)
        assert out.size == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            batch_means(np.arange(10.0), 0)
        with pytest.raises(ValueError, match="at least"):
            batch_means(np.arange(3.0), 5)
        with pytest.raises(ValueError, match="1-D"):
            batch_means(np.zeros((2, 2)), 1)


class TestMser:
    def test_detects_transient(self, rng):
        """A decaying start-up bias is truncated, the tail kept."""
        transient = 10.0 * np.exp(-np.arange(100) / 10.0)
        stationary = rng.normal(1.0, 0.1, 900)
        series = np.concatenate([transient + 1.0, stationary])
        result = mser(series)
        # Truncation should land inside/near the 100-sample transient.
        assert 20 <= result.truncation <= 200
        assert result.truncated_mean == pytest.approx(1.0, abs=0.05)

    def test_stationary_series_keeps_everything(self, rng):
        series = rng.normal(5.0, 1.0, 1000)
        result = mser(series)
        # No transient: truncation stays tiny (noise can pick a few).
        assert result.truncation / result.n < 0.2
        assert result.truncated_mean == pytest.approx(5.0, abs=0.15)

    def test_max_fraction_cap(self, rng):
        series = np.concatenate([np.full(800, 100.0), rng.normal(0, 1, 200)])
        result = mser(series, max_fraction=0.5)
        assert result.truncation <= 500

    def test_matches_naive_implementation(self, rng):
        series = rng.random(200)

        def naive(x):
            best_d, best_stat = 0, np.inf
            for d in range(len(x) // 2):
                tail = x[d:]
                stat = ((tail - tail.mean()) ** 2).sum() / tail.size**2
                if stat < best_stat:
                    best_stat, best_d = stat, d
            return best_d, best_stat

        d, stat = naive(series)
        result = mser(series)
        assert result.truncation == d
        assert result.statistic == pytest.approx(stat, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            mser(np.array([1.0]))
        with pytest.raises(ValueError, match="max_fraction"):
            mser(np.arange(10.0), max_fraction=0.0)

    def test_mser5_counts_batches(self, rng):
        series = np.concatenate([np.full(50, 10.0), rng.normal(1, 0.1, 450)])
        result = mser(batch_means(series, 5))  # MSER-5
        assert result.n == 100  # 500 observations / 5
        assert 5 <= result.truncation <= 20


class TestValidateAgainstTheory:
    def test_poisson_matches_model(self):
        """Under Poisson arrivals the M/G/1-PS prediction is exact."""
        config = SimulationConfig(
            speeds=(1.0, 4.0), utilization=0.6, duration=4.0e5, warmup=1.0e5,
            arrival_cv=1.0,
        )
        report = validate_against_theory(
            config, get_policy("WRAN"), replications=4, base_seed=3
        )
        assert abs(report.response_ratio_error) < 0.08
        assert abs(report.response_time_error) < 0.08
        assert "WRAN" in report.summary()

    def test_bursty_arrivals_exceed_model(self):
        """CV-3 arrivals congest servers beyond the Poisson model, and
        random dispatching cannot smooth them: measured > predicted."""
        config = SimulationConfig(
            speeds=(1.0, 4.0), utilization=0.7, duration=2.0e5, warmup=5.0e4,
            arrival_cv=3.0,
        )
        report = validate_against_theory(
            config, get_policy("WRAN"), replications=3, base_seed=3
        )
        assert report.response_ratio_error > 0.05

    def test_round_robin_closer_to_model_than_random(self):
        """The dispatcher's whole point: smoothing narrows the gap."""
        config = SimulationConfig(
            speeds=(2.0, 2.0), utilization=0.8, duration=2.0e5, warmup=5.0e4,
            arrival_cv=3.0,
        )
        rr = validate_against_theory(
            config, get_policy("WRR"), replications=3, base_seed=5
        )
        rand = validate_against_theory(
            config, get_policy("WRAN"), replications=3, base_seed=5
        )
        assert rr.response_ratio_error < rand.response_ratio_error

    def test_dynamic_policy_rejected(self):
        config = SimulationConfig(speeds=(1.0,), utilization=0.5, duration=1e3)
        with pytest.raises(ValueError, match="no static fraction"):
            validate_against_theory(config, get_policy("LEAST_LOAD"))

    def test_report_properties(self):
        report = ValidationReport(
            policy_name="X", utilization=0.5, arrival_cv=1.0,
            predicted_response_time=2.0, measured_response_time=2.2,
            measured_response_time_half_width=0.1,
            predicted_response_ratio=2.0, measured_response_ratio=2.1,
            measured_response_ratio_half_width=0.15, replications=5,
        )
        assert report.response_time_error == pytest.approx(0.1)
        assert report.response_ratio_error == pytest.approx(0.05)
