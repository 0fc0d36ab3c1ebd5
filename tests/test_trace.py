"""Tests for trace-driven simulation (repro.sim.trace)."""

import numpy as np
import pytest

from repro.dispatch import LeastLoadDispatcher, RoundRobinDispatcher
from repro.rng import StreamFactory
from repro.sim import JobTrace, Workload, run_static_simulation, run_trace_simulation
from repro.sim import SimulationConfig


def small_trace():
    return JobTrace(
        arrival_times=np.array([0.0, 1.0, 2.0, 3.0]),
        sizes=np.array([2.0, 1.0, 4.0, 0.5]),
    )


class TestJobTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            JobTrace(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            JobTrace(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            JobTrace(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="at least one"):
            JobTrace(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="non-negative"):
            JobTrace(np.array([-1.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        ("times", "sizes", "message"),
        [([0.5, np.nan, 1.5], [1.0, 1.0, 1.0], "times must be finite"),
         ([np.nan], [1.0], "times must be finite"),
         ([0.5, 1.0, np.inf], [1.0, 1.0, 1.0], "times must be finite"),
         ([0.5, 1.0, 1.5], [1.0, np.nan, 1.0], "sizes must be positive"),
         ([0.5, 1.0, 1.5], [1.0, np.inf, 1.0], "sizes must be positive")],
    )
    def test_non_finite_records_are_refused(self, times, sizes, message):
        with pytest.raises(ValueError, match=message):
            JobTrace(np.array(times), np.array(sizes))

    def test_moments(self):
        t = small_trace()
        assert t.n_jobs == 4
        assert t.horizon == 3.0
        assert t.mean_size == pytest.approx(1.875)
        assert t.mean_interarrival == pytest.approx(1.0)
        assert t.interarrival_cv == pytest.approx(0.0)

    def test_offered_load(self):
        t = small_trace()
        assert t.offered_load(total_speed=2.5) == pytest.approx(7.5 / (3.0 * 2.5))
        with pytest.raises(ValueError):
            t.offered_load(0.0)

    def test_csv_roundtrip(self, tmp_path):
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.to_csv(path)
        loaded = JobTrace.from_csv(path)
        np.testing.assert_array_equal(loaded.arrival_times, t.arrival_times)
        np.testing.assert_array_equal(loaded.sizes, t.sizes)

    def test_csv_skips_header_and_blank(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text("arrival_time,size\n\n0.5,2.0\nnot,a,number\n1.5,3.0\n")
        t = JobTrace.from_csv(path)
        assert t.n_jobs == 2

    def test_csv_empty_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no job records"):
            JobTrace.from_csv(path)

    def test_synthesize(self):
        w = Workload(total_speed=4.0, utilization=0.6)
        t = JobTrace.synthesize(w, StreamFactory(5).arrivals, horizon=5.0e4)
        assert t.horizon <= 5.0e4
        # Offered load vs target utilization (heavy tail ⇒ loose check).
        assert t.offered_load(4.0) == pytest.approx(0.6, rel=0.4)

    def test_cv_of_bursty_synthetic(self):
        w = Workload(total_speed=10.0, utilization=0.7, arrival_cv=3.0)
        streams = StreamFactory(6)
        t = JobTrace.synthesize(w, streams.arrivals, horizon=2.0e5)
        assert t.interarrival_cv == pytest.approx(3.0, rel=0.15)


class TestRunTraceSimulation:
    def test_matches_synthetic_fastpath(self):
        """Replaying a synthesized trace reproduces the synthetic run."""
        config = SimulationConfig(speeds=(1.0, 3.0), utilization=0.6, duration=2.0e4)
        d1 = RoundRobinDispatcher()
        alphas = np.array([0.25, 0.75])
        synthetic = run_static_simulation(config, d1, alphas, seed=77)

        workload = config.workload()
        streams = StreamFactory(77)
        trace = JobTrace(
            workload.arrival_stream(streams.arrivals).arrivals_until(config.duration),
            workload.sample_sizes(streams.sizes, synthetic.total_arrivals),
        )
        replayed = run_trace_simulation(
            trace, config.speeds, RoundRobinDispatcher(), alphas,
            warmup=config.warmup,
        )
        assert replayed.metrics == synthetic.metrics

    def test_hand_computed(self):
        """Single speed-1 server: trace = the PS hand example."""
        trace = JobTrace(np.array([0.0, 0.0]), np.array([2.0, 4.0]))
        d = RoundRobinDispatcher()
        result = run_trace_simulation(trace, [1.0], d, np.array([1.0]))
        # completions at 4 and 6 → response times 4, 6; ratios 2, 1.5.
        assert result.metrics.mean_response_time == pytest.approx(5.0)
        assert result.metrics.mean_response_ratio == pytest.approx(1.75)

    def test_warmup_respected(self):
        trace = JobTrace(np.array([0.0, 10.0]), np.array([1.0, 1.0]))
        result = run_trace_simulation(
            trace, [1.0], RoundRobinDispatcher(), np.array([1.0]), warmup=5.0
        )
        assert result.metrics.jobs == 1

    def test_rejects_dynamic_dispatcher(self):
        with pytest.raises(ValueError, match="static-only"):
            run_trace_simulation(
                small_trace(), [1.0], LeastLoadDispatcher([1.0]), None
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="speeds"):
            run_trace_simulation(
                small_trace(), [], RoundRobinDispatcher(), np.array([1.0])
            )
        with pytest.raises(ValueError, match="warmup"):
            run_trace_simulation(
                small_trace(), [1.0], RoundRobinDispatcher(), np.array([1.0]),
                warmup=-1.0,
            )

    def test_record_trace(self):
        result = run_trace_simulation(
            small_trace(), [1.0, 1.0], RoundRobinDispatcher(),
            np.array([0.5, 0.5]), record_trace=True,
        )
        assert result.trace is not None
        assert result.trace.count == 4
