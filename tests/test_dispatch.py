"""Tests for job dispatching (repro.dispatch) — Algorithm 2 et al."""

import numpy as np
import pytest

from repro.dispatch import (
    CyclicDispatcher,
    LeastLoadDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
    SequenceRoundRobin,
)


def dispatch_sequence(dispatcher, alphas, count, sizes=None):
    dispatcher.reset(alphas)
    sizes = sizes if sizes is not None else np.ones(count)
    return [dispatcher.select(float(s)) for s in sizes[:count]]


def literal_algorithm2(alphas, count, guard_init=1.0):
    """Straightforward transcription of the paper's Algorithm 2 listing,
    used as an independent oracle for the optimized implementation."""
    alphas = np.asarray(alphas, dtype=float)
    n = alphas.size
    assign = [0] * n
    nxt = [guard_init] * n
    out = []
    for _ in range(count):
        select, minnext, norassign = -1, None, None
        for i in range(n):
            if alphas[i] == 0:
                continue
            if select == -1 or nxt[i] < minnext:
                minnext = nxt[i]
                norassign = (assign[i] + 1) / alphas[i]
                select = i
            elif nxt[i] == minnext and (assign[i] + 1) / alphas[i] < norassign:
                norassign = (assign[i] + 1) / alphas[i]
                select = i
        if assign[select] == 0:
            nxt[select] = 0.0
        nxt[select] += 1.0 / alphas[select]
        assign[select] += 1
        out.append(select)
        for i in range(n):
            if assign[i] != 0:
                nxt[i] -= 1.0
    return out


class TestRoundRobinDispatcher:
    def test_paper_example_fractions(self):
        """Section 3.2's worked example: fractions (1/8, 1/8, 1/4, 1/2).

        The text's sequence c4,c3,c4,c2,... is the *ideal* spreading the
        paper says Algorithm 2 can only approximate; the listing itself
        produces a different phase but the same exact per-cycle counts
        (4, 2, 1, 1 jobs per 8 arrivals) and an 8-periodic schedule.
        """
        seq = dispatch_sequence(
            RoundRobinDispatcher(), [1 / 8, 1 / 8, 1 / 4, 1 / 2], 32
        )
        # Strictly periodic with the cycle length 8.
        assert seq[8:] == seq[:-8]
        counts = np.bincount(seq[:8], minlength=4)
        np.testing.assert_array_equal(counts, [1, 1, 2, 4])
        # Each computer's jobs are spread: c4 never waits more than 3
        # arrivals between consecutive jobs (ideal spacing is 2).
        c4_positions = [i for i, s in enumerate(seq) if s == 3]
        gaps = np.diff(c4_positions)
        assert gaps.max() <= 3

    def test_matches_literal_algorithm2(self):
        """The clock-based implementation replays the paper listing."""
        cases = [
            [0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04],
            [0.5, 0.5],
            [0.6, 0.3, 0.1],
            [1.0],
            [0.25, 0.25, 0.25, 0.25],
        ]
        for alphas in cases:
            ours = dispatch_sequence(RoundRobinDispatcher(), alphas, 500)
            oracle = literal_algorithm2(alphas, 500)
            assert ours == oracle, f"diverged for {alphas}"

    def test_equal_fractions_degenerate_to_cyclic(self):
        """Equal fractions reduce Algorithm 2 to plain round robin."""
        n = 5
        alphas = [1.0 / n] * n
        seq = dispatch_sequence(RoundRobinDispatcher(), alphas, 25)
        cyc = CyclicDispatcher()
        expected = dispatch_sequence(cyc, alphas, 25)
        # Same multiset per cycle and strictly periodic with period n.
        assert seq[n:] == seq[:-n]
        assert sorted(seq[:n]) == sorted(expected[:n])

    def test_counts_track_fractions_closely(self):
        alphas = np.array([0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04])
        d = RoundRobinDispatcher()
        d.reset(alphas)
        count = 10_000
        for _ in range(count):
            d.select(1.0)
        fractions = d.assigned_counts / count
        # Round robin tracks the target to within a couple of jobs.
        np.testing.assert_allclose(fractions, alphas, atol=3.0 / count)

    def test_short_interval_proportionality(self):
        """The defining property: even short windows stay near-target."""
        alphas = np.array([0.5, 0.25, 0.25])
        d = RoundRobinDispatcher()
        d.reset(alphas)
        window = 16
        seq = [d.select(1.0) for _ in range(window * 20)]
        for w in range(20):
            chunk = seq[w * window : (w + 1) * window]
            counts = np.bincount(chunk, minlength=3)
            np.testing.assert_allclose(counts / window, alphas, atol=2.0 / window)

    def test_zero_fraction_never_selected(self):
        seq = dispatch_sequence(RoundRobinDispatcher(), [0.0, 0.6, 0.4], 200)
        assert 0 not in seq

    def test_all_zero_rejected(self):
        d = RoundRobinDispatcher()
        with pytest.raises(ValueError):
            d.reset([0.0, 0.0])  # also fails allocation-sum validation

    def test_requires_reset(self):
        with pytest.raises(RuntimeError, match="reset"):
            RoundRobinDispatcher().select(1.0)

    def test_reset_clears_state(self):
        d = RoundRobinDispatcher()
        first = dispatch_sequence(d, [0.5, 0.5], 10)
        second = dispatch_sequence(d, [0.5, 0.5], 10)
        assert first == second

    def test_guard_init_zero_changes_startup(self):
        """The guard staggers small-fraction computers' first jobs."""
        alphas = [0.4, 0.3, 0.15, 0.15]
        guarded = dispatch_sequence(RoundRobinDispatcher(guard_init=1.0), alphas, 8)
        unguarded = dispatch_sequence(RoundRobinDispatcher(guard_init=0.0), alphas, 8)
        assert guarded != unguarded
        assert unguarded == literal_algorithm2(alphas, 8, guard_init=0.0)
        # Both equal-fraction small computers (2 and 3) start earlier and
        # closer together without the guard.
        first = {s: seq.index(s) for seq in (unguarded,) for s in (2, 3)}
        first_guarded = {s: guarded.index(s) for s in (2, 3)}
        assert first[3] < first_guarded[3]

    def test_invalid_guard(self):
        with pytest.raises(ValueError):
            RoundRobinDispatcher(guard_init=-1.0)

    @pytest.mark.parametrize("cls", [RoundRobinDispatcher, SequenceRoundRobin])
    def test_nan_fraction_is_rejected(self, cls):
        with pytest.raises(ValueError, match="fractions"):
            cls().reset([np.nan, 0.5, 0.5])

    def test_long_run_counts_stay_exact(self):
        """No drift over long runs: counts stay within one cycle of the
        target and the `next` fields stay bounded."""
        alphas = np.array([0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04])
        d = RoundRobinDispatcher()
        d.reset(alphas)
        count = 200_000
        for _ in range(count):
            d.select(1.0)
        np.testing.assert_allclose(d.assigned_counts / count, alphas, atol=2e-5)
        # `next` values stay within ~one inter-selection period.
        assert np.all(np.abs(d.next_fields) <= 1.0 / alphas.min() + 1.0)

    def test_next_fields_property(self):
        d = RoundRobinDispatcher()
        d.reset([0.5, 0.5])
        np.testing.assert_allclose(d.next_fields, [1.0, 1.0])
        d.select(1.0)
        # Winner: next = 0 + 2 - 1 = 1; loser: untouched guard 1.
        np.testing.assert_allclose(sorted(d.next_fields), [1.0, 1.0])


class TestRandomDispatcher:
    def test_frequencies_match_alphas(self, rng):
        alphas = np.array([0.1, 0.2, 0.3, 0.4])
        d = RandomDispatcher(rng)
        d.reset(alphas)
        n = 100_000
        targets = d.select_batch(np.ones(n))
        freq = np.bincount(targets, minlength=4) / n
        np.testing.assert_allclose(freq, alphas, atol=0.01)

    def test_batch_equals_sequential(self):
        alphas = [0.2, 0.5, 0.3]
        d1 = RandomDispatcher(np.random.default_rng(5))
        d1.reset(alphas)
        seq = [d1.select(1.0) for _ in range(200)]
        d2 = RandomDispatcher(np.random.default_rng(5))
        d2.reset(alphas)
        batch = d2.select_batch(np.ones(200))
        assert seq == batch.tolist()

    def test_zero_fraction_never_selected(self, rng):
        d = RandomDispatcher(rng)
        d.reset([0.0, 1.0])
        assert set(d.select_batch(np.ones(1000)).tolist()) == {1}

    def test_deterministic_given_seed(self):
        a = RandomDispatcher(np.random.default_rng(1))
        b = RandomDispatcher(np.random.default_rng(1))
        a.reset([0.5, 0.5])
        b.reset([0.5, 0.5])
        np.testing.assert_array_equal(
            a.select_batch(np.ones(100)), b.select_batch(np.ones(100))
        )

    def test_requires_reset(self):
        with pytest.raises(RuntimeError, match="reset"):
            RandomDispatcher(np.random.default_rng(0)).select(1.0)


class TestCyclicDispatcher:
    def test_cycles_in_order(self):
        seq = dispatch_sequence(CyclicDispatcher(), [0.25] * 4, 8)
        assert seq == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_zero_fractions(self):
        seq = dispatch_sequence(CyclicDispatcher(), [0.0, 0.5, 0.5], 4)
        assert seq == [1, 2, 1, 2]

    def test_batch_equals_sequential(self):
        d1 = CyclicDispatcher()
        seq = dispatch_sequence(d1, [1 / 3] * 3, 10)
        d2 = CyclicDispatcher()
        d2.reset([1 / 3] * 3)
        assert d2.select_batch(np.ones(10)).tolist() == seq

    def test_batch_position_advances(self):
        d = CyclicDispatcher()
        d.reset([0.5, 0.5])
        first = d.select_batch(np.ones(3))
        assert d.select(1.0) == (first[-1] + 1) % 2


class TestLeastLoadDispatcher:
    def test_picks_least_normalized_load(self):
        d = LeastLoadDispatcher([1.0, 2.0])
        d.reset(None)
        # Empty queues: normalized (0+1)/1=1 vs (0+1)/2=0.5 → server 1.
        assert d.select(1.0) == 1
        # Now q=[0,1]: 1/1 vs 2/2=1 → tie → fastest wins (server 1).
        assert d.select(1.0) == 1
        # q=[0,2]: 1 vs 3/2 → server 0.
        assert d.select(1.0) == 0

    def test_load_update_decrements(self):
        d = LeastLoadDispatcher([1.0, 1.0])
        d.reset(None)
        d.select(1.0)
        busy = int(np.argmax(d._queue()))
        d.on_load_update(busy)
        np.testing.assert_array_equal(d._queue(), [0, 0])

    def test_update_below_zero_raises(self):
        d = LeastLoadDispatcher([1.0])
        d.reset(None)
        with pytest.raises(RuntimeError, match="double-counted"):
            d.on_load_update(0)

    def test_update_out_of_range(self):
        d = LeastLoadDispatcher([1.0])
        d.reset(None)
        with pytest.raises(IndexError):
            d.on_load_update(5)

    def test_is_dynamic(self):
        assert LeastLoadDispatcher([1.0]).is_static is False

    def test_reset_with_alphas_validates_size(self):
        d = LeastLoadDispatcher([1.0, 1.0])
        with pytest.raises(ValueError, match="fractions"):
            d.reset([1.0])

    def test_requires_reset(self):
        with pytest.raises(RuntimeError, match="reset"):
            LeastLoadDispatcher([1.0]).select(1.0)

    def test_invalid_speeds(self):
        with pytest.raises(ValueError):
            LeastLoadDispatcher([0.0])
        with pytest.raises(ValueError):
            LeastLoadDispatcher([])

    def test_distribution_skews_to_fast_machines(self):
        """Sanity echo of Table 1: under backlog the dynamic policy
        keeps normalized queues equal, i.e. queue length ∝ speed."""
        speeds = [1.0, 4.0]
        d = LeastLoadDispatcher(speeds)
        d.reset(None)
        for _ in range(100):  # no departures: pure accumulation
            d.select(1.0)
        q = d._queue()
        assert q[1] / q[0] == pytest.approx(4.0, rel=0.1)
