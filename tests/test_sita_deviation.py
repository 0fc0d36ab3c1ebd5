"""Tests for the SITA extension dispatcher and the deviation metric."""

import numpy as np
import pytest

from repro.dispatch import (
    DeviationSeries,
    SitaDispatcher,
    interval_deviations,
    sita_cutoffs,
)
from repro.distributions import BoundedPareto, paper_job_sizes


class TestSitaCutoffs:
    def test_equal_shares_split_work_equally(self):
        d = paper_job_sizes()
        cutoffs = sita_cutoffs(d, [0.5, 0.5])
        assert cutoffs[0] == d.k and cutoffs[-1] == d.p
        # Work below the middle cutoff is half the work.
        assert 1.0 - d.load_share_above(cutoffs[1]) == pytest.approx(0.5, abs=1e-9)

    def test_unequal_shares(self):
        d = paper_job_sizes()
        cutoffs = sita_cutoffs(d, [0.2, 0.3, 0.5])
        w1 = 1.0 - d.load_share_above(cutoffs[1])
        w2 = 1.0 - d.load_share_above(cutoffs[2])
        assert w1 == pytest.approx(0.2, abs=1e-9)
        assert w2 == pytest.approx(0.5, abs=1e-9)

    def test_cutoffs_monotone(self):
        cutoffs = sita_cutoffs(paper_job_sizes(), [0.25, 0.25, 0.25, 0.25])
        assert np.all(np.diff(cutoffs) > 0)

    def test_zero_share_gives_zero_width_band(self):
        d = paper_job_sizes()
        cutoffs = sita_cutoffs(d, [0.5, 0.0, 0.5])
        assert cutoffs[2] == pytest.approx(cutoffs[1], rel=1e-9)

    def test_validation(self):
        d = paper_job_sizes()
        with pytest.raises(ValueError, match="sum to 1"):
            sita_cutoffs(d, [0.5, 0.6])
        with pytest.raises(ValueError, match="non-negative"):
            sita_cutoffs(d, [-0.5, 1.5])
        with pytest.raises(ValueError, match="non-empty"):
            sita_cutoffs(d, [])


class TestSitaDispatcher:
    def make(self, speeds=(1.0, 4.0)):
        d = SitaDispatcher(paper_job_sizes(), speeds)
        weights = np.asarray(speeds) / np.sum(speeds)
        d.reset(weights)
        return d

    def test_small_jobs_to_slow_machine(self):
        d = self.make()
        assert d.select(10.5) == 0  # near the lower bound
        assert d.select(21000.0) == 1  # an elephant

    def test_batch_equals_sequential(self, rng):
        d = self.make((1.0, 2.0, 5.0))
        sizes = paper_job_sizes().sample(rng, 500)
        batch = d.select_batch(sizes)
        seq = [d.select(float(s)) for s in sizes]
        assert batch.tolist() == seq

    def test_work_balanced_per_band(self, rng):
        """Each server's received *work* share ≈ its weighted share."""
        speeds = np.array([1.0, 3.0])
        d = self.make(tuple(speeds))
        sizes = paper_job_sizes().sample(rng, 500_000)
        targets = d.select_batch(sizes)
        work = np.array([sizes[targets == i].sum() for i in range(2)])
        share = work / work.sum()
        # alpha=1 tail converges slowly: generous tolerance.
        np.testing.assert_allclose(share, speeds / speeds.sum(), atol=0.1)

    def test_slowest_gets_smallest_band(self):
        d = SitaDispatcher(paper_job_sizes(), (5.0, 1.0))  # unsorted speeds
        d.reset(np.array([5 / 6, 1 / 6]))
        # Smallest jobs must go to the *slow* machine (index 1 here).
        assert d.select(10.1) == 1

    def test_size_mismatch(self):
        d = SitaDispatcher(paper_job_sizes(), (1.0, 1.0))
        with pytest.raises(ValueError, match="fractions"):
            d.reset([1.0])

    def test_invalid_speeds(self):
        with pytest.raises(ValueError):
            SitaDispatcher(paper_job_sizes(), (0.0, 1.0))

    def test_cutoffs_property(self):
        d = self.make()
        cutoffs = d.cutoffs
        assert cutoffs[0] == 10.0
        assert cutoffs[-1] == 21600.0

    def test_out_of_range_sizes_clamped(self):
        d = self.make()
        assert d.select(1.0) == 0       # below k → smallest band
        assert d.select(1e9) == 1       # above p → largest band


def one_interval_deviation(expected, counts):
    """Deviation of one interval holding ``counts[i]`` jobs for computer i."""
    targets = np.repeat(np.arange(len(counts)), counts)
    series = interval_deviations(expected, np.zeros(targets.size), targets, 1.0, 1)
    return series.deviations[0]


class TestAllocationDeviation:
    def test_perfect_match_is_zero(self):
        assert one_interval_deviation([0.5, 0.5], [10, 10]) == pytest.approx(0.0)

    def test_hand_computed(self):
        # expected (0.5, 0.5), actual (0.75, 0.25): 2 * 0.25^2 = 0.125.
        assert one_interval_deviation([0.5, 0.5], [3, 1]) == pytest.approx(0.125)

    def test_empty_interval_is_zero(self):
        assert one_interval_deviation([0.3, 0.7], [0, 0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            interval_deviations([0.5, 0.5], np.zeros(3), np.zeros(2), 1.0, 1)
        with pytest.raises(ValueError, match="out of range"):
            interval_deviations([0.5, 0.5], np.zeros(1), np.array([2]), 1.0, 1)


class TestIntervalDeviations:
    def test_windows_assigned_correctly(self):
        expected = [0.5, 0.5]
        times = np.array([0.5, 1.5, 2.5, 3.5])
        targets = np.array([0, 0, 1, 1])
        series = interval_deviations(expected, times, targets, 2.0, 2)
        # interval 0: jobs to server 0 only; interval 1: server 1 only.
        np.testing.assert_allclose(series.deviations, [0.5, 0.5])
        np.testing.assert_array_equal(series.counts, [[2, 0], [0, 2]])

    def test_empty_interval_zero(self):
        series = interval_deviations(
            [0.5, 0.5], np.array([0.1]), np.array([0]), 1.0, 3
        )
        np.testing.assert_allclose(series.deviations[1:], 0.0)

    def test_out_of_window_jobs_ignored(self):
        series = interval_deviations(
            [1.0], np.array([-1.0, 0.5, 10.0]), np.array([0, 0, 0]), 1.0, 2
        )
        assert series.counts.sum() == 1

    def test_start_time_offset(self):
        series = interval_deviations(
            [1.0], np.array([5.5]), np.array([0]), 1.0, 2, start_time=5.0
        )
        assert series.counts[0, 0] == 1

    def test_summary_stats(self):
        series = DeviationSeries(
            deviations=np.array([0.1, 0.3]),
            counts=np.zeros((2, 1)),
            interval_length=1.0,
            start_time=0.0,
        )
        assert series.mean == pytest.approx(0.2)
        assert series.max == pytest.approx(0.3)
        assert series.n_intervals == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            interval_deviations([1.0], np.array([1.0]), np.array([0, 1]), 1.0, 1)
        with pytest.raises(ValueError, match="interval_length"):
            interval_deviations([1.0], np.array([1.0]), np.array([0]), 0.0, 1)
        with pytest.raises(ValueError, match="n_intervals"):
            interval_deviations([1.0], np.array([1.0]), np.array([0]), 1.0, 0)
        with pytest.raises(ValueError, match="out of range"):
            interval_deviations([1.0], np.array([0.5]), np.array([3]), 1.0, 1)
