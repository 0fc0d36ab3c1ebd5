"""Tests for parallel replicated evaluation: one cell over the shared pool."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    CellTask,
    evaluate_cell,
    evaluate_policy,
    get_policy,
    run_cell_grid,
)
from repro.rng import replication_seeds
from repro.sim import SimulationConfig

CONFIG = SimulationConfig(speeds=(1.0, 4.0), utilization=0.5, duration=8.0e3)


def assert_same_evaluation(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, f.name


class TestEvaluateCellParallel:
    def test_bit_identical_to_serial(self):
        # 2 policies x 3 replications: more members than the grid runs
        # in process, so n_jobs=2 goes through the pool.
        names = ["ORR", "WRR"]
        par = evaluate_cell(CONFIG, names, replications=3, base_seed=7,
                            n_jobs=2)
        for name in names:
            solo = evaluate_policy(CONFIG, get_policy(name), replications=3,
                                   base_seed=7)
            assert_same_evaluation(par[name], solo)

    def test_n_jobs_one_serial_path(self):
        names = ["ORR", "WRR"]
        ser = evaluate_cell(CONFIG, names, replications=3, base_seed=7,
                            n_jobs=1)
        par = evaluate_cell(CONFIG, names, replications=3, base_seed=7,
                            n_jobs=2)
        assert ser.samples == par.samples
        for name in names:
            assert_same_evaluation(ser[name], par[name])

    def test_dynamic_policy(self):
        # LEAST_LOAD leaves the batched replay for the event engine.
        cell = evaluate_cell(CONFIG, ["LEAST_LOAD", "ORR", "WRR"],
                             replications=2, base_seed=3, n_jobs=2)
        solo = evaluate_policy(CONFIG, get_policy("LEAST_LOAD"),
                               replications=2, base_seed=3)
        assert cell["LEAST_LOAD"].jobs_per_replication > 0
        assert_same_evaluation(cell["LEAST_LOAD"], solo)

    def test_unknown_policy_fails_fast(self, monkeypatch):
        import repro.core.executor as executor

        def refuse(*args, **kwargs):
            raise AssertionError("the grid started despite an unknown name")

        monkeypatch.setattr(executor, "run_cell_grid", refuse)
        with pytest.raises(KeyError, match="unknown policy"):
            evaluate_cell(CONFIG, ["ORR", "NOPE"], replications=1, n_jobs=2)

    def test_validation(self):
        with pytest.raises(ValueError, match="replication"):
            evaluate_cell(CONFIG, ["ORR"], replications=0)
        with pytest.raises(ValueError, match="n_jobs"):
            evaluate_cell(CONFIG, ["ORR"], replications=1, n_jobs=0)
        with pytest.raises(ValueError, match="at least one policy"):
            evaluate_cell(CONFIG, [], replications=1)
        with pytest.raises(ValueError, match="duplicate"):
            evaluate_cell(CONFIG, ["ORR", "orr"], replications=1)


class TestCellGridParallel:
    def test_estimation_error_variant(self):
        """Workers rebuild ORR(-10%) from its registry coordinates."""
        seeds = tuple(replication_seeds(3, 3))
        task = CellTask(x=1.0, config=CONFIG, policy_names=("ORR", "ORR-"),
                        base_names=("ORR", "ORR"),
                        estimation_errors=(None, -0.10), seeds=seeds)
        report = run_cell_grid([task], n_jobs=2)
        variant = get_policy("ORR", estimation_error=-0.10)
        solo = evaluate_policy(CONFIG, variant, replications=3, base_seed=3)
        got = [report.outcomes[task.member_key(1, r)] for r in range(3)]
        assert np.mean([o.mean_response_ratio for o in got]) == (
            solo.mean_response_ratio.mean
        )
