"""Tests for seeded stream management (repro.rng)."""

import numpy as np
import pytest

from repro.rng import StreamFactory, replication_seeds, substream


class TestSubstream:
    def test_same_seed_same_role_is_deterministic(self):
        a = substream(42, "arrivals").random(5)
        b = substream(42, "arrivals").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_roles_differ(self):
        a = substream(42, "arrivals").random(5)
        b = substream(42, "sizes").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(1, "arrivals").random(5)
        b = substream(2, "arrivals").random(5)
        assert not np.array_equal(a, b)

    def test_unknown_role_raises(self):
        with pytest.raises(KeyError, match="unknown stream role"):
            substream(0, "nonsense")

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        a = substream(seq, "dispatch").random(3)
        b = substream(np.random.SeedSequence(7), "dispatch").random(3)
        np.testing.assert_array_equal(a, b)

    def test_all_roles_pairwise_distinct(self):
        roles = ["arrivals", "sizes", "dispatch", "feedback", "service", "misc"]
        draws = {r: tuple(substream(0, r).random(4)) for r in roles}
        assert len(set(draws.values())) == len(roles)


class TestReplicationSeeds:
    def test_count(self):
        assert len(replication_seeds(0, 10)) == 10

    def test_zero_replications(self):
        assert replication_seeds(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            replication_seeds(0, -1)

    def test_prefix_stability(self):
        """Adding replications never changes earlier ones."""
        few = replication_seeds(5, 3)
        many = replication_seeds(5, 10)
        for a, b in zip(few, many):
            assert substream(a, "arrivals").random() == substream(b, "arrivals").random()

    def test_replications_are_independent(self):
        seeds = replication_seeds(5, 4)
        draws = [tuple(substream(s, "arrivals").random(4)) for s in seeds]
        assert len(set(draws)) == 4


class TestStreamFactory:
    def test_roles_cached(self):
        f = StreamFactory(9)
        assert f.arrivals is f.arrivals

    def test_roles_match_substream(self):
        f = StreamFactory(9)
        direct = substream(9, "sizes").random(3)
        np.testing.assert_array_equal(f.sizes.random(3), direct)

    def test_all_properties_exist(self):
        f = StreamFactory(1)
        for role in ("arrivals", "sizes", "dispatch", "feedback", "service"):
            assert isinstance(getattr(f, role), np.random.Generator)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            StreamFactory(1).get("bogus")
