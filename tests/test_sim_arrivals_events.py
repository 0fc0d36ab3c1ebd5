"""Tests for arrival streams, workload derivation, event queue, feedback."""

import numpy as np
import pytest

from repro.distributions import Deterministic, Exponential, paper_job_sizes
from repro.rng import StreamFactory
from repro.sim import (
    ArrivalStream,
    EventKind,
    EventQueue,
    FeedbackModel,
    Workload,
)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, EventKind.ARRIVAL)
        q.push(1.0, EventKind.ARRIVAL)
        assert q.pop()[0] == 1.0
        assert q.pop()[0] == 2.0

    def test_departure_before_arrival_at_same_time(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL)
        q.push(1.0, EventKind.DEPARTURE, 3, 7)
        t, kind, a, b = q.pop()
        assert kind == EventKind.DEPARTURE
        assert (a, b) == (3, 7)

    def test_fifo_among_identical(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, 1)
        q.push(1.0, EventKind.ARRIVAL, 2)
        assert q.pop()[2] == 1
        assert q.pop()[2] == 2

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(0.0, EventKind.ARRIVAL)
        assert len(q) == 1 and q

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.ARRIVAL)


class TestArrivalStream:
    def test_deterministic_spacing(self):
        s = ArrivalStream(Deterministic(2.0), np.random.default_rng(0))
        assert s.next_arrival() == pytest.approx(2.0)
        assert s.next_arrival() == pytest.approx(4.0)

    def test_monotone(self, rng):
        s = ArrivalStream(Exponential(1.0), rng)
        times = [s.next_arrival() for _ in range(1000)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_arrivals_until_matches_sequential(self):
        d = Exponential(0.5)
        a = ArrivalStream(d, np.random.default_rng(3))
        batch = a.arrivals_until(100.0)
        b = ArrivalStream(d, np.random.default_rng(3))
        seq = []
        while True:
            t = b.next_arrival()
            if t > 100.0:
                break
            seq.append(t)
        np.testing.assert_allclose(batch, seq, rtol=1e-12)

    def test_stream_continues_past_horizon(self):
        s = ArrivalStream(Deterministic(1.0), np.random.default_rng(0))
        batch = s.arrivals_until(3.5)
        np.testing.assert_allclose(batch, [1.0, 2.0, 3.0])
        assert s.next_arrival() == pytest.approx(4.0)

    def test_empty_horizon(self):
        s = ArrivalStream(Deterministic(5.0), np.random.default_rng(0))
        assert s.arrivals_until(1.0).size == 0

    def test_rate_statistics(self, rng):
        s = ArrivalStream(Exponential(2.0), rng)
        times = s.arrivals_until(10_000.0)
        assert times.size / 10_000.0 == pytest.approx(2.0, rel=0.05)


class TestWorkload:
    def test_arrival_rate_formula(self):
        """λ = ρ · Σs / E[size] (Section 2's λ = ρ μ Σs)."""
        w = Workload(total_speed=44.0, utilization=0.7)
        assert w.arrival_rate == pytest.approx(0.7 * 44.0 / 76.8, rel=1e-3)
        assert w.mu == pytest.approx(1.0 / 76.8, rel=1e-3)

    def test_interarrival_moments(self):
        w = Workload(total_speed=10.0, utilization=0.5, arrival_cv=3.0)
        assert w.interarrival.mean == pytest.approx(1.0 / w.arrival_rate)
        assert w.interarrival.cv == pytest.approx(3.0)

    def test_poisson_option(self):
        w = Workload(total_speed=10.0, utilization=0.5, arrival_cv=1.0)
        from repro.distributions import Exponential as Exp

        assert isinstance(w.interarrival, Exp)

    def test_custom_sizes(self):
        w = Workload(
            total_speed=1.0, utilization=0.5, size_distribution=Exponential(1.0)
        )
        assert w.arrival_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="total speed"):
            Workload(total_speed=0.0, utilization=0.5)
        with pytest.raises(ValueError, match="utilization"):
            Workload(total_speed=1.0, utilization=1.0)

    def test_sample_sizes(self, rng):
        w = Workload(total_speed=1.0, utilization=0.5)
        xs = w.sample_sizes(rng, 10_000)
        assert xs.min() >= 10.0
        assert xs.max() <= 21600.0


class TestFeedbackModel:
    def test_paper_defaults(self):
        m = FeedbackModel()
        assert m.detection_window == 1.0
        assert m.message_delay_mean == 0.05

    def test_sample_statistics(self, rng):
        m = FeedbackModel()
        delays = np.array([m.sample_delay(rng) for _ in range(20_000)])
        assert delays.mean() == pytest.approx(0.55, rel=0.05)
        assert delays.min() >= 0.0

    def test_oracle_mode(self, rng):
        m = FeedbackModel(detection_window=0.0, message_delay_mean=0.0)
        assert m.sample_delay(rng) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackModel(detection_window=-1.0)
        with pytest.raises(ValueError):
            FeedbackModel(message_delay_mean=-0.1)
