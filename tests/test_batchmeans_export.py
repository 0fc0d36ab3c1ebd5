"""Tests for batch-means CIs and sweep export."""

import json

import numpy as np
import pytest

from repro.analysis import batch_means_ci
from repro.experiments import (
    Scale,
    run_figure3,
    save_sweep_json,
    sweep_to_dict,
)

TINY = Scale("tiny", duration=8.0e3, replications=2)


class TestBatchMeansCi:
    def test_iid_coverage(self, rng):
        """On iid data the CI behaves like a plain t interval."""
        xs = rng.normal(10.0, 2.0, 10_000)
        result = batch_means_ci(xs, n_batches=25)
        assert result.mean == pytest.approx(10.0, abs=0.15)
        assert result.lower < 10.0 < result.upper
        assert result.batches_look_independent

    def test_correlated_data_flagged(self):
        """A strong AR(1) with tiny batches leaves correlated means."""
        rng = np.random.default_rng(0)
        n = 4000
        xs = np.empty(n)
        xs[0] = 0.0
        noise = rng.normal(0, 1, n)
        for i in range(1, n):
            xs[i] = 0.999 * xs[i - 1] + noise[i]
        result = batch_means_ci(xs, n_batches=100)
        assert not result.batches_look_independent

    def test_batch_sizing(self):
        result = batch_means_ci(np.arange(105, dtype=float), n_batches=10)
        assert result.batch_size == 10
        assert result.n_batches == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="batches"):
            batch_means_ci(np.arange(10.0), n_batches=1)
        with pytest.raises(ValueError, match="cannot fill"):
            batch_means_ci(np.arange(3.0), n_batches=10)
        with pytest.raises(ValueError, match="confidence"):
            batch_means_ci(np.arange(100.0), confidence=1.2)
        with pytest.raises(ValueError, match="1-D"):
            batch_means_ci(np.zeros((5, 5)))

    def test_str(self):
        out = str(batch_means_ci(np.random.default_rng(1).random(200)))
        assert "batches" in out


class TestSweepExport:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_figure3(TINY, fast_speeds=(1.0, 5.0), policies=("WRAN", "ORR"))

    def test_to_dict_structure(self, sweep):
        d = sweep_to_dict(sweep)
        assert d["experiment_id"] == "figure3"
        assert d["policies"] == ["WRAN", "ORR"]
        assert len(d["points"]) == 2
        cell = d["points"][0]["policies"]["ORR"]["mean_response_ratio"]
        assert set(cell) == {"mean", "half_width", "n"}
        assert cell["n"] == TINY.replications

    def test_json_roundtrip(self, sweep, tmp_path):
        path = save_sweep_json(sweep, tmp_path / "fig3.json")
        assert json.loads(path.read_text()) == sweep_to_dict(sweep)
