"""Simulation-vs-live equivalence for the networked dispatcher service.

The acceptance bar for the client / orchestrator / server split: on a
pinned seed, the networked stack — in-process transport and real
asyncio sockets alike — must reproduce the fault-free
:class:`~repro.service.loop.SchedulerService` report **byte for byte**
(JSON-serialized with sorted keys).  Anything weaker would let the two
serving paths drift apart one rounding error at a time.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.distributions import distribution_from_mean_cv
from repro.net import run_in_process, run_sockets
from repro.service import (
    SchedulerService,
    ServiceConfig,
    SyntheticJobSource,
    TraceJobSource,
)
from repro.sim.arrivals import Workload

SPEEDS = (1.0, 2.0, 3.0)


def make_config(**kw):
    kw.setdefault("speeds", SPEEDS)
    kw.setdefault("duration", 2000.0)
    kw.setdefault("control_period", 100.0)
    return ServiceConfig(**kw)


def make_source(rho=0.6, seed=1):
    workload = Workload(
        total_speed=sum(SPEEDS),
        utilization=rho,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SyntheticJobSource(workload, seed)


def report_bytes(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def service_report(config, source):
    return SchedulerService(config, source).run()


class TestInProcessEquivalence:
    def test_reproduces_service_report_byte_for_byte(self):
        """The issue's acceptance check, pinned seed and geometry."""
        config = make_config()
        baseline = service_report(config, make_source())
        net = run_in_process(config, make_source())
        assert report_bytes(net.report) == report_bytes(baseline)

    def test_equivalence_without_codec_round_trip(self):
        # codec=True routes every message through unpack(pack(.)); both
        # modes must agree, proving the binary framing is lossless.
        config = make_config()
        direct = run_in_process(config, make_source(), codec=False)
        framed = run_in_process(config, make_source(), codec=True)
        assert report_bytes(direct.report) == report_bytes(framed.report)

    def test_equivalence_under_admission_shedding(self):
        # Overload engages the gate's shedding path; the orchestrator
        # must shed the same jobs in the same order.
        config = make_config(duration=1500.0, shed_threshold=0.6)
        source = lambda: make_source(rho=0.9, seed=5)  # noqa: E731
        baseline = service_report(config, source())
        net = run_in_process(config, source())
        assert baseline.jobs_shed > 0
        assert report_bytes(net.report) == report_bytes(baseline)

    def test_equivalence_on_trace_with_empty_windows(self):
        # All arrivals land in the first two windows; the remaining
        # windows are empty and must still resolve identically.
        times = np.sort(np.linspace(0.0, 180.0, 40))
        sizes = np.full(40, 1.5)
        config = make_config(duration=1000.0)
        baseline = service_report(config, TraceJobSource(times, sizes))
        net = run_in_process(config, TraceJobSource(times, sizes))
        assert report_bytes(net.report) == report_bytes(baseline)

    def test_metrics_are_sane(self):
        config = make_config()
        net = run_in_process(config, make_source())
        m = net.metrics
        assert m.transport == "inproc"
        assert m.windows == 20
        assert m.jobs_offered == net.report.jobs_offered
        assert m.jobs_dispatched == net.report.jobs_dispatched
        assert m.jobs_per_sec > 0
        assert np.isfinite(m.dispatch_ns_per_job)
        assert m.dispatch_ns_per_job > 0


class TestSocketEquivalence:
    def test_live_sockets_reproduce_service_report(self):
        config = make_config()
        baseline = service_report(config, make_source())
        live = asyncio.run(run_sockets(config, make_source()))
        assert report_bytes(live.report) == report_bytes(baseline)

    def test_live_sockets_under_backpressure_overload(self):
        # Deep client pipeline against a shallow orchestrator queue: the
        # credit window saturates, the bounded submit buffer holds, and
        # the report still cannot drift.
        config = make_config()
        baseline = service_report(config, make_source())
        live = asyncio.run(
            run_sockets(config, make_source(), max_inflight=8, queue_limit=2)
        )
        assert report_bytes(live.report) == report_bytes(baseline)
        assert live.metrics.peak_inflight == 8
        assert live.metrics.peak_submit_queue <= 2
        assert live.metrics.jobs_per_sec > 0


class TestSharding:
    def test_two_shards_conserve_the_offered_stream(self):
        config = make_config()
        single = run_in_process(config, make_source())
        sharded = run_in_process(config, make_source(), n_shards=2)
        assert len(sharded.reports) == 2
        assert sum(r.jobs_offered for r in sharded.reports) == (
            single.report.jobs_offered
        )
        # The capacity-aware split sizes each shard's stream to its
        # live capacity, and every offered job must still be accounted
        # for somewhere.
        for r in sharded.reports:
            assert r.jobs_dispatched + r.jobs_shed + r.jobs_lost == (
                r.jobs_offered
            )
        assert all(r.clean_shutdown for r in sharded.reports)

    def test_sharded_sockets_match_sharded_in_process(self):
        config = make_config()
        inproc = run_in_process(config, make_source(), n_shards=2)
        live = asyncio.run(run_sockets(config, make_source(), n_shards=2))
        for a, b in zip(inproc.reports, live.reports):
            assert report_bytes(b) == report_bytes(a)

    def test_capacity_split_ends_shedding_the_even_split_causes(self):
        # The rebalanced-overload drill: an imbalanced pool — shard 0
        # owns 3 units of speed, shard 1 owns 9 — at a total load the
        # full bank carries with room to spare.  The heterogeneity-blind
        # even split halves the stream and drives shard 0 to rho = 1.2,
        # shedding hard; the capacity-aware split holds both shards at
        # the offered utilization and must shed nothing at all.
        speeds = (1.0, 4.0, 2.0, 5.0)
        config = make_config(speeds=speeds, duration=3000.0)

        def source(seed=7):
            wl = Workload(
                total_speed=sum(speeds), utilization=0.6,
                size_distribution=distribution_from_mean_cv(1.0, 1.0),
            )
            return SyntheticJobSource(wl, seed)

        even = run_in_process(config, source(), n_shards=2, split="even")
        cap = run_in_process(config, source(), n_shards=2, split="capacity")
        assert even.metrics.jobs_shed > 0
        assert cap.metrics.jobs_shed == 0
        # Same offered stream either way, and the capacity split's
        # socket run must still match the in-process run byte for byte.
        assert cap.metrics.jobs_offered == even.metrics.jobs_offered
        live = asyncio.run(
            run_sockets(config, source(), n_shards=2, split="capacity")
        )
        for a, b in zip(cap.reports, live.reports):
            assert report_bytes(b) == report_bytes(a)

    def test_single_shard_report_accessor_guards_sharded_runs(self):
        config = make_config()
        sharded = run_in_process(config, make_source(), n_shards=2)
        with pytest.raises(ValueError, match="2 shards"):
            sharded.report
