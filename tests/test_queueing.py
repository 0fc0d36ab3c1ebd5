"""Tests for the queueing-theory substrate (repro.queueing)."""

import numpy as np
import pytest

from repro.allocation import unconstrained_fractions
from repro.distributions import BoundedPareto, Deterministic, Exponential, paper_job_sizes
from repro.queueing import (
    MG1,
    MM1,
    GG1Approximation,
    HeterogeneousNetwork,
    kingman_waiting_time,
    objective_gradient,
    objective_value,
    ps_conditional_response,
    require_stable,
    validate_allocation,
)

from .conftest import make_network


class TestMM1:
    def test_mean_response_time(self):
        q = MM1(arrival_rate=0.5, service_rate=1.0)
        assert q.mean_response_time == pytest.approx(2.0)

    def test_mean_response_ratio_equation_2(self):
        q = MM1(arrival_rate=0.7, service_rate=1.0)
        assert q.mean_response_ratio == pytest.approx(1.0 / 0.3)

    def test_littles_law(self):
        q = MM1(arrival_rate=0.6, service_rate=1.0)
        assert q.mean_number_in_system == pytest.approx(
            q.arrival_rate * q.mean_response_time
        )

    def test_fcfs_waiting(self):
        q = MM1(arrival_rate=0.5, service_rate=1.0)
        assert q.mean_waiting_time_fcfs == pytest.approx(1.0)
        assert q.mean_waiting_time_fcfs + 1.0 == pytest.approx(q.mean_response_time)

    def test_conditional_ps(self):
        q = MM1(arrival_rate=0.5, service_rate=1.0)
        assert q.conditional_response_ps(3.0) == pytest.approx(6.0)

    def test_unstable_raises(self):
        q = MM1(arrival_rate=2.0, service_rate=1.0)
        assert not q.stable
        with pytest.raises(ValueError, match="unstable"):
            _ = q.mean_response_time

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            MM1(arrival_rate=-1.0, service_rate=1.0)
        with pytest.raises(ValueError):
            MM1(arrival_rate=1.0, service_rate=0.0)

    def test_helpers(self):
        assert require_stable(0.5) == 0.5
        with pytest.raises(ValueError):
            require_stable(1.0)
        assert ps_conditional_response(2.0, 0.5) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            ps_conditional_response(-1.0, 0.5)


class TestMG1:
    def test_pk_formula_exponential_matches_mm1(self):
        lam, mu = 0.5, 1.0
        mg1 = MG1(arrival_rate=lam, service=Exponential(mu))
        mm1 = MM1(arrival_rate=lam, service_rate=mu)
        assert mg1.mean_waiting_time_fcfs == pytest.approx(mm1.mean_waiting_time_fcfs)

    def test_pk_deterministic_is_half_exponential_wait(self):
        lam = 0.5
        exp_wait = MG1(arrival_rate=lam, service=Exponential(1.0)).mean_waiting_time_fcfs
        det_wait = MG1(arrival_rate=lam, service=Deterministic(1.0)).mean_waiting_time_fcfs
        assert det_wait == pytest.approx(exp_wait / 2.0)

    def test_ps_insensitivity(self):
        """PS mean response depends on the service mean only."""
        lam = 0.005
        heavy = MG1(arrival_rate=lam, service=paper_job_sizes())
        light = MG1(arrival_rate=lam, service=Exponential.from_mean(76.8))
        assert heavy.mean_response_time_ps == pytest.approx(
            light.mean_response_time_ps, rel=1e-3
        )

    def test_ps_response_ratio(self):
        q = MG1(arrival_rate=0.005, service=paper_job_sizes())
        ratio = q.mean_response_time_ps / q.service.mean
        assert ratio == pytest.approx(1.0 / (1.0 - q.rho))

    def test_fcfs_much_worse_than_ps_for_heavy_tails(self):
        q = MG1(arrival_rate=0.008, service=paper_job_sizes())
        assert q.mean_response_time_fcfs / q.mean_response_time_ps > 5.0

    def test_conditional_ps(self):
        q = MG1(arrival_rate=0.005, service=paper_job_sizes())
        assert q.conditional_response_ps(100.0) == pytest.approx(100.0 / (1.0 - q.rho))
        with pytest.raises(ValueError):
            q.conditional_response_ps(-1.0)

    def test_unstable_raises(self):
        q = MG1(arrival_rate=1.0, service=paper_job_sizes())
        with pytest.raises(ValueError, match="unstable"):
            _ = q.mean_response_time_ps


class TestGG1:
    def test_reduces_to_mm1(self):
        lam, mu = 0.5, 1.0
        w = kingman_waiting_time(lam, mu, ca2=1.0, cs2=1.0)
        assert w == pytest.approx(MM1(lam, mu).mean_waiting_time_fcfs)

    def test_alias(self):
        """Allen–Cunneen for one server is Kingman's formula:
        W = ρ/(1 − ρ) · (c_a² + c_s²)/2 · 1/μ."""
        assert kingman_waiting_time(0.5, 2.0, 2.0, 3.0) == pytest.approx(
            (0.25 / 0.75) * 2.5 / 2.0
        )

    def test_burstiness_scales_waiting(self):
        calm = kingman_waiting_time(0.5, 1.0, 1.0, 1.0)
        bursty = kingman_waiting_time(0.5, 1.0, 9.0, 1.0)
        assert bursty == pytest.approx(5.0 * calm)

    def test_dataclass(self):
        q = GG1Approximation(0.5, 1.0, ca2=9.0, cs2=1.0)
        assert q.mean_response_time == pytest.approx(q.mean_waiting_time + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unstable"):
            kingman_waiting_time(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            kingman_waiting_time(0.5, 1.0, -1.0, 1.0)


class TestValidateAllocation:
    def test_valid(self):
        a = validate_allocation([0.25, 0.75])
        np.testing.assert_allclose(a, [0.25, 0.75])

    def test_sum_violation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_allocation([0.5, 0.6])

    def test_range_violation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            validate_allocation([-0.2, 1.2])

    def test_shape_violation(self):
        with pytest.raises(ValueError, match="1-D"):
            validate_allocation([[0.5, 0.5]])

    @pytest.mark.parametrize("alphas", [
        [np.nan, 1.0], [np.nan, 0.5, 0.5], [np.inf, 1.0], [-np.inf, 1.0],
    ])
    def test_non_finite_fractions_are_rejected(self, alphas):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            validate_allocation(alphas)

    def test_clips_rounding_dust(self):
        a = validate_allocation([1.0 + 1e-12, -1e-12])
        assert a[0] <= 1.0 and a[1] >= 0.0


class TestHeterogeneousNetwork:
    def test_utilization_arrival_rate_roundtrip(self):
        net = make_network([1, 2, 3], utilization=0.6)
        assert net.utilization == pytest.approx(0.6)
        net2 = HeterogeneousNetwork([1, 2, 3], mu=1.0, arrival_rate=net.arrival_rate)
        assert net2.utilization == pytest.approx(0.6)

    def test_requires_exactly_one_load_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            HeterogeneousNetwork([1.0], mu=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            HeterogeneousNetwork([1.0], mu=1.0, arrival_rate=0.5, utilization=0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            HeterogeneousNetwork([0.0, 1.0], utilization=0.5)
        with pytest.raises(ValueError, match="mu"):
            HeterogeneousNetwork([1.0], mu=0.0, utilization=0.5)
        with pytest.raises(ValueError, match="utilization"):
            HeterogeneousNetwork([1.0], utilization=1.5)
        with pytest.raises(ValueError, match="non-empty"):
            HeterogeneousNetwork([], utilization=0.5)

    def test_capacity(self):
        net = HeterogeneousNetwork([2, 3], mu=0.5, utilization=0.5)
        assert net.capacity == pytest.approx(2.5)
        assert net.arrival_rate == pytest.approx(1.25)

    def test_per_server_response_time_equation(self):
        """T̄ = Σ αᵢ T̄ᵢ with T̄ᵢ = 1/(sᵢμ − αᵢλ) per the paper."""
        net = make_network([1, 4], utilization=0.5)
        alphas = np.array([0.2, 0.8])
        lam = net.arrival_rate
        per_server = [1.0 / (1.0 - 0.2 * lam), 1.0 / (4.0 - 0.8 * lam)]
        assert net.mean_response_time(alphas) == pytest.approx(alphas @ per_server)

    def test_response_ratio_is_mu_times_time(self):
        net = HeterogeneousNetwork([1, 4], mu=2.0, utilization=0.5)
        a = [0.3, 0.7]
        assert net.mean_response_ratio(a) == pytest.approx(
            2.0 * net.mean_response_time(a)
        )

    def test_zero_share_servers_have_nan_response(self):
        """A computer given no jobs has no response time and adds no term."""
        net = make_network([1, 4], utilization=0.5)
        t = net.mean_response_time([0.0, 1.0])
        assert t == pytest.approx(1.0 / (4.0 - net.arrival_rate))

    def test_saturating_allocation_raises(self):
        net = make_network([1, 1], utilization=0.9)
        # all load on one unit-speed server: alpha*lambda = 1.8 > 1
        with pytest.raises(ValueError, match="saturates"):
            net.mean_response_time([1.0, 0.0])

    def test_per_server_utilization(self):
        net = make_network([1, 3], utilization=0.5)
        rho = net.per_server_utilization([0.25, 0.75])
        np.testing.assert_allclose(rho, [0.25 * 2.0, 0.75 * 2.0 / 3.0])

    def test_with_utilization(self):
        net = make_network([1, 2], utilization=0.5)
        net2 = net.with_utilization(0.8)
        assert net2.utilization == pytest.approx(0.8)
        np.testing.assert_array_equal(net2.speeds, net.speeds)

    def test_mismatched_allocation_size(self):
        net = make_network([1, 2], utilization=0.5)
        with pytest.raises(ValueError, match="entries"):
            net.mean_response_time([1.0])


class TestObjective:
    def test_value_matches_definition(self):
        net = make_network([1, 2], utilization=0.5)
        a = np.array([0.3, 0.7])
        lam = net.arrival_rate
        expected = 1.0 / (1.0 - 0.3 * lam) + 2.0 / (2.0 - 0.7 * lam)
        assert objective_value(net, a) == pytest.approx(expected)

    def test_gradient_matches_finite_differences(self):
        net = make_network([1, 2, 5], utilization=0.6)
        a = np.array([0.1, 0.3, 0.6])
        g = objective_gradient(net, a)
        eps = 1e-7
        for i in range(3):
            # Perturb along a sum-preserving direction is not needed for
            # the raw partial derivative check; renormalization is not
            # applied by objective_value given both inputs sum to 1.
            up = a.copy()
            dn = a.copy()
            up[i] += eps
            dn[i] -= eps
            up /= up.sum()
            dn /= dn.sum()
            # Compare the directional derivative along (e_i - a)/1 style
            # renormalized move with the analytic one.
            num = (objective_value(net, up) - objective_value(net, dn)) / 2
            direction = np.zeros(3)
            direction[i] = 1.0
            direction = (direction - a) * eps / (1.0 + eps)
            ana = float(g @ direction)
            assert num == pytest.approx(ana, rel=1e-3)

    def test_response_time_recovery(self):
        """T̄ = (F − n)/λ."""
        net = make_network([1, 2], utilization=0.5)
        a = [0.3, 0.7]
        f = objective_value(net, a)
        assert (f - net.n) / net.arrival_rate == pytest.approx(
            net.mean_response_time(a)
        )

    def test_theoretical_minimum_formula(self):
        """Theorem 1: F at the interior point is (Σ√(sμ))²/(Σsμ − λ)."""
        net = make_network([4, 9], utilization=0.5)
        rates = net.service_rates()
        expected = (np.sqrt(rates).sum()) ** 2 / (rates.sum() - net.arrival_rate)
        alphas = unconstrained_fractions(net)
        assert np.all(alphas > 0)
        assert objective_value(net, alphas) == pytest.approx(expected)

    def test_theoretical_minimum_unstable(self):
        net = HeterogeneousNetwork([1.0], mu=1.0, arrival_rate=2.0)
        with pytest.raises(ValueError, match="saturated"):
            unconstrained_fractions(net)

    def test_saturating_allocation_raises(self):
        net = make_network([1, 1], utilization=0.9)
        with pytest.raises(ValueError, match="saturates"):
            objective_value(net, [1.0, 0.0])
