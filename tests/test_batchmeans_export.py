"""Tests for sweep export."""

import json

import numpy as np
import pytest

from repro.experiments import (
    Scale,
    run_figure3,
    save_sweep_json,
    sweep_to_dict,
)

TINY = Scale("tiny", duration=8.0e3, replications=2)


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
