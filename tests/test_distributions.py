"""Tests for the distribution families (repro.distributions)."""

import math

import numpy as np
import pytest

from repro.distributions import (
    BoundedPareto,
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
    distribution_from_mean_cv,
    fit_h2_balanced_means,
    paper_job_sizes,
)

N_SAMPLES = 200_000


def sample_mean_cv(dist, rng, n=N_SAMPLES):
    xs = np.asarray(dist.sample(rng, n))
    m = xs.mean()
    return m, xs.std() / m


class TestExponential:
    def test_moments(self):
        d = Exponential(0.5)
        assert d.mean == pytest.approx(2.0)
        assert d.second_moment == pytest.approx(8.0)
        assert d.variance == pytest.approx(4.0)
        assert d.cv == pytest.approx(1.0)

    def test_from_mean(self):
        assert Exponential.from_mean(4.0).rate == pytest.approx(0.25)

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match="positive"):
            Exponential(0.0)
        with pytest.raises(ValueError, match="positive"):
            Exponential.from_mean(-1.0)

    def test_cdf_ppf_roundtrip(self):
        d = Exponential(1.7)
        q = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, rtol=1e-12)

    def test_cdf_negative_is_zero(self):
        assert Exponential(1.0).cdf(-1.0) == 0.0

    def test_scalar_ppf_returns_float(self):
        assert isinstance(Exponential(1.0).ppf(0.5), float)

    def test_sampling_statistics(self, rng):
        m, cv = sample_mean_cv(Exponential(0.25), rng)
        assert m == pytest.approx(4.0, rel=0.02)
        assert cv == pytest.approx(1.0, rel=0.02)


class TestErlang:
    def test_moments(self):
        d = Erlang(4, 2.0)
        assert d.mean == pytest.approx(2.0)
        assert d.variance == pytest.approx(1.0)
        assert d.cv == pytest.approx(0.5)

    def test_from_mean_k(self):
        d = Erlang.from_mean_k(10.0, 9)
        assert d.mean == pytest.approx(10.0)
        assert d.cv == pytest.approx(1.0 / 3.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="positive integer"):
            Erlang(0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Erlang(2, -1.0)

    def test_cdf_ppf_roundtrip(self):
        d = Erlang(3, 1.0)
        q = np.linspace(0.05, 0.95, 10)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, rtol=1e-9)

    def test_sampling_statistics(self, rng):
        m, cv = sample_mean_cv(Erlang(4, 0.8), rng)
        assert m == pytest.approx(5.0, rel=0.02)
        assert cv == pytest.approx(0.5, rel=0.02)


class TestDeterministic:
    def test_moments(self):
        d = Deterministic(3.0)
        assert d.mean == 3.0
        assert d.variance == pytest.approx(0.0)
        assert d.cv == pytest.approx(0.0)

    def test_samples_are_constant(self, rng):
        xs = Deterministic(2.5).sample(rng, 100)
        np.testing.assert_array_equal(xs, np.full(100, 2.5))

    def test_cdf_step(self):
        d = Deterministic(2.0)
        assert d.cdf(1.9) == 0.0
        assert d.cdf(2.0) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Deterministic(0.0)


class TestHyperexponential:
    def test_balanced_means_fit_formulas(self):
        p1, r1, r2 = fit_h2_balanced_means(2.0, 3.0)
        # balanced means: each branch contributes half the mean
        assert p1 / r1 == pytest.approx((1 - p1) / r2)
        assert p1 / r1 + (1 - p1) / r2 == pytest.approx(2.0)

    @pytest.mark.parametrize("mean,cv", [(1.0, 1.0), (2.2, 3.0), (76.8, 2.64), (0.5, 10.0)])
    def test_fit_matches_target_moments(self, mean, cv):
        d = Hyperexponential.from_mean_cv(mean, cv)
        assert d.mean == pytest.approx(mean, rel=1e-12)
        assert d.cv == pytest.approx(cv, rel=1e-9)

    def test_cv_below_one_rejected(self):
        with pytest.raises(ValueError, match="cv < 1"):
            Hyperexponential.from_mean_cv(1.0, 0.8)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Hyperexponential(1.5, 1.0, 2.0)

    def test_invalid_rates(self):
        with pytest.raises(ValueError, match="rates"):
            Hyperexponential(0.5, -1.0, 2.0)

    def test_cdf_ppf_roundtrip(self):
        d = Hyperexponential.from_mean_cv(2.2, 3.0)
        q = np.linspace(0.0, 0.999, 40)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-12)

    def test_ppf_rejects_bad_quantiles(self):
        d = Hyperexponential.from_mean_cv(1.0, 2.0)
        with pytest.raises(ValueError):
            d.ppf(1.0)
        with pytest.raises(ValueError):
            d.ppf(-0.1)

    def test_ppf_scalar(self):
        d = Hyperexponential.from_mean_cv(1.0, 2.0)
        x = d.ppf(0.5)
        assert isinstance(x, float)
        assert d.cdf(x) == pytest.approx(0.5, abs=1e-12)

    def test_sampling_statistics(self, rng):
        d = Hyperexponential.from_mean_cv(2.2, 3.0)
        m, cv = sample_mean_cv(d, rng, n=500_000)
        assert m == pytest.approx(2.2, rel=0.03)
        assert cv == pytest.approx(3.0, rel=0.05)

    def test_paper_arrival_cv(self):
        """Section 4.1 sets the inter-arrival CV to 3.0."""
        d = Hyperexponential.from_mean_cv(1.0, 3.0)
        assert d.cv**2 == pytest.approx(9.0)


class TestBoundedPareto:
    def test_paper_mean_is_76_8_seconds(self):
        """Section 4.1: k=10, p=21600, alpha=1 gives average size 76.8 s."""
        assert paper_job_sizes().mean == pytest.approx(76.8, abs=0.05)

    def test_moment_log_case(self):
        d = BoundedPareto(10.0, 21600.0, 1.0)
        expected = (1.0 * 10.0 / (1 - 10.0 / 21600.0)) * math.log(21600.0 / 10.0)
        assert d.moment(1.0) == pytest.approx(expected, rel=1e-12)

    def test_moment_general_case_vs_quadrature(self):
        from scipy import integrate

        d = BoundedPareto(1.0, 100.0, 1.5)
        norm = 1 - (d.k / d.p) ** d.alpha

        def pdf(x):
            return d.alpha * d.k**d.alpha / norm * x ** (-d.alpha - 1)

        for j in (1.0, 2.0):
            num, _ = integrate.quad(lambda x: x**j * pdf(x), d.k, d.p)
            assert d.moment(j) == pytest.approx(num, rel=1e-8)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="0 < k < p"):
            BoundedPareto(10.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            BoundedPareto(1.0, 2.0, 0.0)

    def test_cdf_bounds(self):
        d = paper_job_sizes()
        assert d.cdf(d.k) == pytest.approx(0.0)
        assert d.cdf(d.p) == pytest.approx(1.0)
        assert d.cdf(5.0) == 0.0
        assert d.cdf(1e9) == 1.0

    def test_ppf_cdf_roundtrip(self):
        d = paper_job_sizes()
        q = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-10)

    def test_ppf_within_bounds(self, rng):
        d = paper_job_sizes()
        xs = d.sample(rng, 10_000)
        assert xs.min() >= d.k
        assert xs.max() <= d.p

    def test_ppf_rejects_bad_quantiles(self):
        with pytest.raises(ValueError):
            paper_job_sizes().ppf(1.5)

    def test_sampling_mean(self, rng):
        # alpha=1 heavy tail converges slowly; generous tolerance.
        xs = paper_job_sizes().sample(rng, 2_000_000)
        assert xs.mean() == pytest.approx(76.8, rel=0.05)

    def test_heavy_tail_load_share(self):
        """A small fraction of huge jobs carries a large load share."""
        d = paper_job_sizes()
        big = 1000.0
        prob_big = 1.0 - d.cdf(big)
        share_big = d.load_share_above(big)
        assert prob_big < 0.01
        assert share_big > 0.3

    def test_load_share_monotone_and_bounded(self):
        d = paper_job_sizes()
        xs = np.linspace(d.k, d.p, 20)
        shares = [d.load_share_above(x) for x in xs]
        assert shares[0] == pytest.approx(1.0)
        assert shares[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(shares, shares[1:]))

    def test_load_share_above_edges(self):
        d = paper_job_sizes()
        assert d.load_share_above(1.0) == 1.0
        assert d.load_share_above(1e9) == 0.0

    def test_load_share_general_alpha(self):
        d = BoundedPareto(1.0, 1000.0, 1.5)
        # Work above k is all the work.
        assert d.load_share_above(d.k) == pytest.approx(1.0)
        mid = d.load_share_above(10.0)
        assert 0.0 < mid < 1.0


class TestFitting:
    def test_cv_zero_gives_deterministic(self):
        assert isinstance(distribution_from_mean_cv(2.0, 0.0), Deterministic)

    def test_cv_one_gives_exponential(self):
        assert isinstance(distribution_from_mean_cv(2.0, 1.0), Exponential)

    def test_cv_above_one_gives_h2(self):
        d = distribution_from_mean_cv(2.0, 3.0)
        assert isinstance(d, Hyperexponential)
        assert d.mean == pytest.approx(2.0)
        assert d.cv == pytest.approx(3.0)

    def test_cv_below_one_gives_erlang(self):
        d = distribution_from_mean_cv(2.0, 0.5)
        assert isinstance(d, Erlang)
        assert d.k == 4
        assert d.mean == pytest.approx(2.0)
        assert d.cv == pytest.approx(0.5)

    def test_mean_always_exact(self):
        for cv in (0.0, 0.3, 0.5, 1.0, 2.0, 5.0):
            assert distribution_from_mean_cv(7.7, cv).mean == pytest.approx(7.7)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            distribution_from_mean_cv(0.0, 1.0)
        with pytest.raises(ValueError):
            distribution_from_mean_cv(1.0, -0.5)

    def test_check_cv_achievable(self):
        """The fit is exact at CV 0, 1, above 1 and at 1/√k (Erlang-k)."""
        for cv in (0.0, 1.0, 3.0, 0.5):  # 0.5: Erlang-4
            assert distribution_from_mean_cv(2.0, cv).cv == pytest.approx(cv, abs=1e-9)
        # 1/0.49 is not integral: the nearest Erlang misses.
        assert abs(distribution_from_mean_cv(2.0, 0.7).cv - 0.7) > 1e-3
        with pytest.raises(ValueError):
            distribution_from_mean_cv(2.0, -1.0)
