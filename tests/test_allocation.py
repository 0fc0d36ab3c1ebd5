"""Tests for workload allocation (repro.allocation) — Algorithm 1 et al."""

import numpy as np
import pytest

from repro.allocation import (
    AllocationResult,
    MisestimatedOptimizedAllocator,
    NumericAllocator,
    OptimizedAllocator,
    WeightedAllocator,
    clamp_estimated_utilization,
    compare_with_closed_form,
    numeric_fractions,
    optimized_fractions,
    unconstrained_fractions,
    zero_share_cutoff,
)
from repro.queueing import HeterogeneousNetwork, objective_gradient, objective_value

from .conftest import make_network


class TestWeightedAllocator:
    def test_proportional_to_speed(self):
        net = make_network([1, 3], utilization=0.5)
        a = WeightedAllocator().fractions(net)
        np.testing.assert_allclose(a, [0.25, 0.75])

    def test_equalizes_utilization(self):
        net = make_network([1, 2, 5], utilization=0.6)
        result = WeightedAllocator().compute(net)
        rho = result.per_server_utilization()
        np.testing.assert_allclose(rho, 0.6)

    def test_result_metadata(self):
        net = make_network([1, 1], utilization=0.5)
        result = WeightedAllocator().compute(net)
        assert result.allocator_name == "weighted"
        assert result.n == 2
        assert result.zero_share_indices == []


class TestUnconstrainedFractions:
    def test_theorem_1_formula(self):
        net = make_network([1, 4], utilization=0.7)
        rates = net.service_rates()
        lam = net.arrival_rate
        c = (rates.sum() - lam) / np.sqrt(rates).sum()
        expected = (rates - np.sqrt(rates) * c) / lam
        np.testing.assert_allclose(unconstrained_fractions(net), expected)

    def test_sums_to_one(self):
        net = make_network([1, 2, 7, 9], utilization=0.4)
        assert unconstrained_fractions(net).sum() == pytest.approx(1.0)

    def test_can_be_negative_for_slow_machines(self):
        # Very slow machine at low load: Theorem 1 goes negative.
        net = make_network([0.1, 10.0], utilization=0.2)
        a = unconstrained_fractions(net)
        assert a[0] < 0.0

    def test_requires_positive_load(self):
        net = HeterogeneousNetwork([1.0, 2.0], mu=1.0, arrival_rate=0.0)
        with pytest.raises(ValueError, match="positive arrival rate"):
            unconstrained_fractions(net)


class TestZeroShareCutoff:
    def test_no_drop_when_all_fast_enough(self):
        net = make_network([1, 1, 1], utilization=0.9)
        rates = np.sort(net.service_rates())
        assert zero_share_cutoff(rates, net.arrival_rate) == 0

    def test_drops_slow_machines_at_low_load(self):
        net = make_network([0.1, 0.1, 10.0], utilization=0.2)
        rates = np.sort(net.service_rates())
        m = zero_share_cutoff(rates, net.arrival_rate)
        assert m == 2

    def test_never_drops_everything(self):
        for rho in (0.01, 0.1, 0.5, 0.9, 0.99):
            net = make_network([1, 2, 4, 8], utilization=rho)
            rates = np.sort(net.service_rates())
            assert zero_share_cutoff(rates, net.arrival_rate) < 4

    def test_matches_linear_scan(self):
        """Binary search equals the obvious O(n²) predicate scan."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            speeds = rng.uniform(0.05, 10.0, n)
            rho = float(rng.uniform(0.05, 0.95))
            net = make_network(speeds, utilization=rho)
            rates = np.sort(net.service_rates())
            lam = net.arrival_rate
            sqrt = np.sqrt(rates)
            m_scan = 0
            for i in range(n):
                if sqrt[i] * sqrt[i:].sum() < rates[i:].sum() - lam:
                    m_scan = i + 1
                else:
                    break
            assert zero_share_cutoff(rates, lam) == m_scan


class TestOptimizedFractions:
    def test_valid_allocation(self, paper_network):
        a = optimized_fractions(paper_network)
        assert a.sum() == pytest.approx(1.0)
        assert np.all(a >= 0.0)
        assert np.all(a * paper_network.arrival_rate < paper_network.service_rates())

    def test_beats_weighted_on_objective(self, paper_network):
        opt = optimized_fractions(paper_network)
        weighted = paper_network.speeds / paper_network.total_speed
        assert objective_value(paper_network, opt) < objective_value(
            paper_network, weighted
        )

    def test_homogeneous_system_is_uniform(self):
        net = make_network([2, 2, 2, 2], utilization=0.7)
        np.testing.assert_allclose(optimized_fractions(net), 0.25, rtol=1e-12)

    def test_kkt_equal_gradients_on_active_set(self, base_network):
        a = optimized_fractions(base_network)
        g = objective_gradient(base_network, a)[a > 0]
        assert np.ptp(g) == pytest.approx(0.0, abs=1e-9 * g.mean())

    def test_skew_toward_fast_machines(self, paper_network):
        """Fast machines get over-proportional share, slow under (§2.3)."""
        result = OptimizedAllocator().compute(paper_network)
        skew = result.alphas / (paper_network.speeds / paper_network.total_speed)
        order = np.argsort(paper_network.speeds)
        assert skew[order[0]] < 1.0  # slowest: starved
        assert skew[order[-1]] > 1.0  # fastest: over-fed

    def test_more_skewed_at_lower_load(self):
        speeds = [1.0, 10.0]
        low = optimized_fractions(make_network(speeds, utilization=0.3))
        high = optimized_fractions(make_network(speeds, utilization=0.9))
        assert low[1] > high[1]

    def test_degenerates_to_weighted_at_full_load(self):
        net = make_network([1, 2, 5], utilization=1.0 - 1e-9)
        weighted = net.speeds / net.total_speed
        np.testing.assert_allclose(optimized_fractions(net), weighted, atol=1e-6)

    def test_zero_share_for_very_slow_machines(self):
        net = make_network([0.05, 1.0, 10.0], utilization=0.3)
        a = optimized_fractions(net)
        assert a[0] == 0.0
        assert a[1:].sum() == pytest.approx(1.0)

    def test_order_independence(self):
        """Unsorted speed input maps back to the right computers."""
        rho = 0.5
        sorted_net = make_network([1, 2, 8], utilization=rho)
        shuffled_net = make_network([8, 1, 2], utilization=rho)
        a_sorted = optimized_fractions(sorted_net)
        a_shuffled = optimized_fractions(shuffled_net)
        np.testing.assert_allclose(a_shuffled, a_sorted[[2, 0, 1]], rtol=1e-12)

    def test_single_computer(self):
        net = make_network([3.0], utilization=0.7)
        np.testing.assert_allclose(optimized_fractions(net), [1.0])

    def test_depends_only_on_rho_and_speeds(self):
        """μ and λ enter only through ρ (Algorithm 1's key property)."""
        a1 = optimized_fractions(
            HeterogeneousNetwork([1, 5], mu=1.0, utilization=0.6)
        )
        a2 = optimized_fractions(
            HeterogeneousNetwork([1, 5], mu=123.4, utilization=0.6)
        )
        np.testing.assert_allclose(a1, a2, rtol=1e-12)

    def test_saturated_system_rejected(self):
        net = HeterogeneousNetwork([1.0, 1.0], mu=1.0, arrival_rate=2.5)
        with pytest.raises(ValueError, match="saturated"):
            optimized_fractions(net)

    def test_ties_in_speed_get_equal_share(self):
        net = make_network([1, 1, 5, 5], utilization=0.6)
        a = optimized_fractions(net)
        assert a[0] == pytest.approx(a[1], rel=1e-12)
        assert a[2] == pytest.approx(a[3], rel=1e-12)


class TestOptimizedAllocator:
    def test_compute(self, paper_network):
        result = OptimizedAllocator().compute(paper_network)
        assert isinstance(result, AllocationResult)
        assert result.allocator_name == "optimized"

    def test_prediction_beats_weighted(self, base_network):
        opt = OptimizedAllocator().compute(base_network)
        wei = WeightedAllocator().compute(base_network)
        assert (
            opt.predicted_mean_response_ratio() < wei.predicted_mean_response_ratio()
        )

    def test_utilization_override(self, base_network):
        direct = OptimizedAllocator(utilization_override=0.5).compute(base_network)
        at_half = OptimizedAllocator().compute(base_network.with_utilization(0.5))
        np.testing.assert_allclose(direct.alphas, at_half.alphas, rtol=1e-12)

    def test_invalid_override(self):
        with pytest.raises(ValueError, match="utilization_override"):
            OptimizedAllocator(utilization_override=1.5)


class TestNumericAllocator:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.7, 0.9])
    def test_matches_closed_form(self, rho):
        net = make_network([1, 1.5, 2, 3, 5, 9, 10], utilization=rho)
        closed = optimized_fractions(net)
        numeric = numeric_fractions(net)
        np.testing.assert_allclose(numeric, closed, atol=5e-6)

    def test_matches_closed_form_with_zero_shares(self):
        net = make_network([0.05, 1.0, 10.0], utilization=0.3)
        closed = optimized_fractions(net)
        numeric = numeric_fractions(net)
        np.testing.assert_allclose(numeric, closed, atol=5e-6)
        assert numeric[0] == 0.0

    def test_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            net = make_network(
                rng.uniform(0.2, 10.0, n), utilization=float(rng.uniform(0.1, 0.95))
            )
            gap = objective_value(net, numeric_fractions(net)) - objective_value(
                net, optimized_fractions(net)
            )
            assert abs(gap) < 1e-6

    def test_compare_helper(self, paper_network):
        report = compare_with_closed_form(paper_network)
        assert report["max_abs_alpha_gap"] < 1e-5
        assert report["objective_numeric"] == pytest.approx(
            report["objective_closed_form"], rel=1e-9
        )

    def test_allocator_wrapper(self, paper_network):
        result = NumericAllocator().compute(paper_network)
        assert result.allocator_name == "numeric"
        assert result.alphas.sum() == pytest.approx(1.0)

    def test_unstable_rejected(self):
        net = HeterogeneousNetwork([1.0], mu=1.0, arrival_rate=2.0)
        with pytest.raises(ValueError, match="saturated"):
            numeric_fractions(net)


class TestMisestimatedAllocator:
    def test_clamp(self):
        assert clamp_estimated_utilization(0.5) == 0.5
        assert clamp_estimated_utilization(1.2) < 1.0
        with pytest.raises(ValueError):
            clamp_estimated_utilization(0.0)

    def test_zero_error_matches_exact(self, base_network):
        exact = OptimizedAllocator().compute(base_network).alphas
        zero_err = MisestimatedOptimizedAllocator(0.0).compute(base_network).alphas
        np.testing.assert_allclose(zero_err, exact, rtol=1e-12)

    def test_underestimation_more_skewed(self, base_network):
        exact = OptimizedAllocator().compute(base_network).alphas
        under = MisestimatedOptimizedAllocator(-0.15).compute(base_network).alphas
        fastest = int(np.argmax(base_network.speeds))
        assert under[fastest] > exact[fastest]

    def test_overestimation_approaches_weighted(self, base_network):
        weighted = WeightedAllocator().compute(base_network).alphas
        exact = OptimizedAllocator().compute(base_network).alphas
        over = MisestimatedOptimizedAllocator(+0.15).compute(base_network).alphas
        assert np.abs(over - weighted).max() < np.abs(exact - weighted).max()

    def test_huge_overestimation_equals_weighted(self, base_network):
        over = MisestimatedOptimizedAllocator(+5.0).compute(base_network).alphas
        weighted = WeightedAllocator().compute(base_network).alphas
        np.testing.assert_allclose(over, weighted, atol=1e-6)

    def test_name_formatting(self):
        assert MisestimatedOptimizedAllocator(-0.10).name == "optimized(-10%)"
        assert MisestimatedOptimizedAllocator(+0.05).name == "optimized(+5%)"

    def test_invalid_error(self):
        with pytest.raises(ValueError, match="-100%"):
            MisestimatedOptimizedAllocator(-1.0)

    def test_feasibility_detection(self):
        """Underestimation at very high true load saturates fast machines."""
        net = make_network([1.0, 20.0], utilization=0.98)
        assert MisestimatedOptimizedAllocator(0.0).is_feasible(net)
        assert not MisestimatedOptimizedAllocator(-0.15).is_feasible(net)
