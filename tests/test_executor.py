"""Tests for the grid executor: n_jobs resolution, the shared pool,
and bit-identical serial/parallel aggregation."""

import numpy as np
import pytest

from repro.core import evaluate_cell, evaluate_policy, get_policy
from repro.core.executor import (
    ReplicationTask,
    resolve_n_jobs,
    run_replication_grid,
    shared_executor,
    shutdown_shared_executor,
    summarize_outcomes,
)
from repro.rng import replication_seeds
from repro.sim import SimulationConfig

SMOKE = dict(speeds=(1.0, 1.0, 10.0), utilization=0.6, duration=1.0e4)


class TestResolveNJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_n_jobs(None) == 1

    def test_explicit_int(self):
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs("4") == 4

    def test_auto_uses_cpu_count(self):
        import os

        assert resolve_n_jobs("auto") == (os.cpu_count() or 1)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_n_jobs(None) == 5
        # Explicit argument wins over the environment.
        assert resolve_n_jobs(2) == 2

    @pytest.mark.parametrize("bad", ["bogus", "1.5", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(bad)

    @pytest.mark.parametrize("bad", [0, -1, "0"])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            resolve_n_jobs(bad)


class TestSharedExecutor:
    def test_pool_is_reused(self):
        a = shared_executor(2)
        b = shared_executor(2)
        assert a is b
        shutdown_shared_executor()

    def test_pool_recreated_on_size_change(self):
        a = shared_executor(1)
        b = shared_executor(2)
        assert a is not b
        shutdown_shared_executor()

    def test_shutdown_idempotent(self):
        shutdown_shared_executor()
        shutdown_shared_executor()


def _tasks(config, policy_name, replications=2, base_seed=2000):
    return [
        ReplicationTask(
            key=r,
            config=config,
            policy_name=policy_name,
            estimation_error=None,
            seed=seed,
        )
        for r, seed in enumerate(replication_seeds(base_seed, replications))
    ]


class TestReplicationGrid:
    def test_serial_grid_matches_evaluate_policy(self):
        config = SimulationConfig(**SMOKE)
        tasks = _tasks(config, "ORR")
        report = run_replication_grid(tasks, n_jobs=1)
        grid = summarize_outcomes(
            "ORR", config, [report.outcomes[r] for r in range(2)]
        )
        serial = evaluate_policy(
            config, get_policy("ORR"), replications=2, base_seed=2000
        )
        assert grid.mean_response_ratio.mean == serial.mean_response_ratio.mean
        assert grid.mean_response_time.mean == serial.mean_response_time.mean
        assert grid.fairness.mean == serial.fairness.mean
        np.testing.assert_array_equal(
            grid.dispatch_fractions, serial.dispatch_fractions
        )

    def test_parallel_grid_bit_identical_to_serial(self):
        config = SimulationConfig(**SMOKE)
        tasks = _tasks(config, "WRR", replications=3)
        serial = run_replication_grid(tasks, n_jobs=1)
        parallel = run_replication_grid(tasks, n_jobs=2)
        shutdown_shared_executor()
        for r in range(3):
            a, b = serial.outcomes[r], parallel.outcomes[r]
            # Outcome tuples: (time, ratio, fairness, jobs, fractions).
            assert a[:4] == b[:4]
            np.testing.assert_array_equal(a[4], b[4])

    def test_failures_are_aggregated(self):
        config = SimulationConfig(**SMOKE)
        tasks = _tasks(config, "NO_SUCH_POLICY")
        with pytest.raises(RuntimeError, match="grid tasks failed"):
            run_replication_grid(tasks, n_jobs=1)

    def test_timings_recorded(self):
        config = SimulationConfig(**SMOKE)
        report = run_replication_grid(_tasks(config, "ORR", 1), n_jobs=1)
        assert set(report.timings) >= {"cache_lookup", "simulate"}
        assert report.timings["simulate"] > 0


class TestEvaluateCellParallel:
    def test_matches_serial_evaluation(self):
        # 3 policies x 2 replications: enough members to reach the pool.
        config = SimulationConfig(**SMOKE)
        names = ["ORR", "WRR", "ORAN"]
        par = evaluate_cell(config, names, replications=2, base_seed=11,
                            n_jobs=2)
        shutdown_shared_executor()
        for name in names:
            ser = evaluate_policy(
                config, get_policy(name), replications=2, base_seed=11
            )
            assert par[name].mean_response_ratio.mean == (
                ser.mean_response_ratio.mean
            )
            assert par[name].mean_response_ratio.half_width == pytest.approx(
                ser.mean_response_ratio.half_width
            )
            np.testing.assert_array_equal(
                par[name].dispatch_fractions, ser.dispatch_fractions
            )

    def test_rejects_zero_replications(self):
        config = SimulationConfig(**SMOKE)
        with pytest.raises(ValueError, match="replication"):
            evaluate_cell(config, ["ORR"], replications=0, n_jobs=2)

    def test_unknown_policy_fails_fast(self):
        config = SimulationConfig(**SMOKE)
        with pytest.raises(KeyError):
            evaluate_cell(config, ["NOPE"], replications=1, n_jobs=2)


class TestSweepThroughGrid:
    def test_figure3_subset_parallel_identical(self):
        """Acceptance: a figure3 smoke sweep with n_jobs=2 produces
        numerically identical series to the serial run."""
        from repro.experiments.base import SCALES
        from repro.experiments.figure3 import run_figure3

        scale = SCALES["smoke"]
        kwargs = dict(fast_speeds=(1.0, 10.0), policies=("ORR", "WRR"))
        serial = run_figure3(scale, **kwargs)
        parallel = run_figure3(scale, n_jobs=2, **kwargs)
        shutdown_shared_executor()
        for policy in kwargs["policies"]:
            for metric in ("mean_response_time", "mean_response_ratio", "fairness"):
                np.testing.assert_array_equal(
                    serial.series(policy, metric),
                    parallel.series(policy, metric),
                )

    def test_sweep_records_timings(self):
        from repro.experiments.base import SCALES
        from repro.experiments.figure3 import run_figure3

        result = run_figure3(
            SCALES["smoke"], fast_speeds=(1.0,), policies=("WRR",)
        )
        assert {"plan", "simulate", "aggregate"} <= set(result.timings)
