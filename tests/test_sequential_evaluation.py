"""Tests for precision-driven sequential replication."""

import dataclasses

import numpy as np
import pytest

from repro.core import evaluate_cell_to_precision, evaluate_policy, get_policy
from repro.sim import SimulationConfig

CONFIG = SimulationConfig(speeds=(1.0, 4.0), utilization=0.5, duration=1.5e4)


def evaluate_policy_to_precision(config, name, **kwargs):
    """The one-policy cell of :func:`evaluate_cell_to_precision`."""
    return evaluate_cell_to_precision(config, [name], **kwargs)[name]


class TestEvaluateToPrecision:
    def test_stops_when_precise(self):
        ev = evaluate_policy_to_precision(
            CONFIG, "WRR",
            target_relative_half_width=5.0,  # very loose: stops at minimum
            min_replications=3, max_replications=20, base_seed=4,
        )
        assert ev.replications == 3
        assert ev.mean_response_ratio.relative_half_width <= 5.0

    def test_keeps_going_for_tight_target(self):
        loose = evaluate_policy_to_precision(
            CONFIG, "WRR",
            target_relative_half_width=0.5,
            min_replications=3, max_replications=12, base_seed=4,
        )
        tight = evaluate_policy_to_precision(
            CONFIG, "WRR",
            target_relative_half_width=0.02,
            min_replications=3, max_replications=12, base_seed=4,
        )
        assert tight.replications >= loose.replications

    def test_caps_at_max(self):
        ev = evaluate_policy_to_precision(
            CONFIG, "WRAN",
            target_relative_half_width=1e-9,  # unreachable
            min_replications=2, max_replications=4, base_seed=4,
        )
        assert ev.replications == 4

    @pytest.mark.parametrize("discipline", ["ps", "fcfs"])
    @pytest.mark.parametrize("policy", ["ORR", "LEAST_LOAD"])
    def test_prefix_matches_fixed_evaluation(self, policy, discipline):
        """Sequential runs extend the deterministic replication seeds,
        so the first k replications match evaluate_policy exactly: the
        one-policy cell (batched replay for static policies, the event
        engine for dynamic ones) against the per-replication oracle."""
        config = dataclasses.replace(CONFIG, discipline=discipline)
        seq = evaluate_policy_to_precision(
            config, policy,
            target_relative_half_width=1e-9,
            min_replications=3, max_replications=3, base_seed=9,
        )
        fixed = evaluate_policy(
            config, get_policy(policy), replications=3, base_seed=9
        )
        for f in dataclasses.fields(fixed):
            got, want = getattr(seq, f.name), getattr(fixed, f.name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want, f.name

    def test_validation(self):
        with pytest.raises(ValueError, match="half-width"):
            evaluate_policy_to_precision(
                CONFIG, "WRR", target_relative_half_width=0.0
            )
        with pytest.raises(ValueError, match="min_replications"):
            evaluate_policy_to_precision(
                CONFIG, "WRR",
                min_replications=5, max_replications=2,
            )
