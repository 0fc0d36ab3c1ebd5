"""Tests for the analysis tools (theory validation)."""

import pytest

from repro.analysis import (
    ValidationReport,
    validate_against_theory,
)
from repro.core import get_policy
from repro.sim import SimulationConfig


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
