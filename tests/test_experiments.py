"""Tests for the experiment harness (smoke scale)."""

import numpy as np
import pytest

from repro.experiments import (
    BASE_SPEEDS,
    SCALES,
    Scale,
    active_scale,
    base_config,
    experiment_ids,
    format_table,
    run_experiment,
    run_figure3,
    run_table1,
    run_table2,
    size_config,
    skewness_config,
)
from repro.experiments.figure2 import run_figure2

SMOKE = SCALES["smoke"]


class TestScale:
    def test_presets(self):
        assert set(SCALES) == {"smoke", "quick", "paper"}
        assert SCALES["paper"].duration == 4.0e6
        assert SCALES["paper"].replications == 10

    def test_warmup_quarter(self):
        assert SMOKE.warmup == pytest.approx(SMOKE.duration / 4)

    def test_active_scale_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_scale().name == "quick"
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert active_scale().name == "smoke"
        assert active_scale("paper").name == "paper"
        assert active_scale(SMOKE) is SMOKE

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            active_scale("huge")

    def test_validation(self):
        with pytest.raises(ValueError):
            Scale("bad", duration=0.0, replications=1)
        with pytest.raises(ValueError):
            Scale("bad", duration=1.0, replications=0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"),
                                          float("-inf")])
    def test_non_finite_duration_names_the_scale(self, duration):
        with pytest.raises(ValueError, match="scale 'x': duration"):
            Scale("x", duration=duration, replications=1)

    def test_with_replications(self):
        assert SMOKE.with_replications(7).replications == 7


class TestConfigs:
    def test_base_speeds_table3(self):
        assert len(BASE_SPEEDS) == 15
        assert sum(BASE_SPEEDS) == pytest.approx(44.0)

    def test_base_config(self):
        c = base_config(0.8)
        assert c.utilization == 0.8
        assert c.total_speed == pytest.approx(44.0)

    def test_skewness_config(self):
        c = skewness_config(10.0)
        assert len(c.speeds) == 18
        assert sorted(set(c.speeds)) == [1.0, 10.0]
        assert c.speeds.count(10.0) == 2

    def test_skewness_homogeneous(self):
        c = skewness_config(1.0)
        assert set(c.speeds) == {1.0}

    def test_skewness_validation(self):
        with pytest.raises(ValueError):
            skewness_config(0.5)

    def test_size_config(self):
        c = size_config(8)
        assert len(c.speeds) == 8
        assert c.speeds.count(10.0) == 4
        assert c.speeds.count(1.0) == 4

    def test_size_validation(self):
        with pytest.raises(ValueError):
            size_config(3)
        with pytest.raises(ValueError):
            size_config(0)


class TestTable1:
    def test_shape_matches_paper(self):
        result = run_table1(SMOKE)
        measured = result.measured_percent
        # Shares increase with speed.
        assert np.all(np.diff(measured) > 0)
        # Slow machines starved far below their proportional share ...
        assert measured[0] < 0.5 * result.proportional_percent[0]
        # ... fastest gets at least its proportional share.
        assert measured[-1] > result.proportional_percent[-1] * 0.95
        assert measured.sum() == pytest.approx(100.0, abs=1e-6)

    def test_format(self):
        text = run_table1(SMOKE).format()
        assert "Table 1" in text
        assert "least-load %" in text


class TestTable2:
    def test_matrix(self):
        result = run_table2()
        assert result.matrix[("round-robin", "optimized")] == "ORR"
        assert "WRAN" in result.format()


class TestFigure2:
    def test_round_robin_far_smoother(self):
        result = run_figure2(SMOKE)
        assert result.round_robin.mean < result.random.mean / 3.0
        assert result.round_robin.std < result.random.std

    def test_thirty_intervals(self):
        result = run_figure2(SMOKE)
        assert result.round_robin.n_intervals == 30
        assert result.random.n_intervals == 30

    def test_format(self):
        assert "Figure 2" in run_figure2(SMOKE).format()

    def test_seed_override(self):
        a = run_figure2(SMOKE, seed=1)
        b = run_figure2(SMOKE, seed=2)
        assert a.random.mean != b.random.mean


class TestSweeps:
    def test_figure3_smoke_shape(self):
        # Two sweep points, static policies only (fast + cheap).
        result = run_figure3(
            SMOKE, fast_speeds=(1.0, 10.0), policies=("WRAN", "ORR")
        )
        assert result.x_values == [1.0, 10.0]
        # At 10:1 skew ORR clearly beats WRAN on mean response ratio.
        improvement = result.improvement("ORR", "WRAN", "mean_response_ratio")
        assert improvement[1] > 0.15
        series = result.series("ORR", "mean_response_ratio")
        assert series.shape == (2,)

    def test_series_unknown_policy(self):
        result = run_figure3(SMOKE, fast_speeds=(2.0,), policies=("WRR",))
        with pytest.raises(KeyError):
            result.series("ORR", "fairness")

    def test_cells_structure(self):
        result = run_figure3(SMOKE, fast_speeds=(2.0,), policies=("WRR",))
        cell = result.cells[2.0]["WRR"]
        assert cell.policy_name == "WRR"
        assert cell.replications == SMOKE.replications


class TestRegistry:
    def test_ids(self):
        ids = experiment_ids()
        for expected in ("table1", "table2", "table3", "figure2", "figure3",
                         "figure4", "figure5", "figure6"):
            assert expected in ids

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("figure9")

    def test_cheap_runners(self):
        assert "Table 2" in run_experiment("table2")
        out = run_experiment("table3")
        assert "44" in out and "Table 3" in out

    def test_figure2_runner(self):
        assert "deviation" in run_experiment("figure2", SMOKE)


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.5" in out

    def test_title(self):
        assert format_table(["a"], [[1]], title="T").splitlines()[0] == "T"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_empty_headers(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestOnlineExtension:
    def test_registered(self):
        from repro.experiments import experiment_ids

        assert "online" in experiment_ids()

    def test_smoke_run_meets_acceptance(self):
        from repro.experiments.extension_online import run_online_extension

        result = run_online_extension(SMOKE)
        out = result.format()
        assert "quasi-static service" in out
        for cell in result.cells:
            assert np.isfinite(cell.service_mrt)
            # Service stays within 5% of oracle static ORR on the same
            # trace, stationary AND step (the step oracle re-solves at
            # the step, the best a quasi-static scheme could do).
            assert cell.mrt_ratio < 1.05, (
                f"{cell.workload}@{cell.control_period}: "
                f"ratio {cell.mrt_ratio:.3f}"
            )
            assert cell.tracking_error < 0.05
        for period in (50.0, 100.0):
            step = result.cell("step", period)
            assert step.recovery_periods <= 2.0
