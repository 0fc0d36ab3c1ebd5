"""Runtime drills for the networked dispatcher: kills and backpressure.

The chaos-facing half of the net test suite: a server stub killed
mid-run must be detected within one control period, survivors must get
exactly the failure-aware optimal fractions, and the socket transport
must report the *same bytes* as the in-process simulation even for the
kill runs — the crash script is deterministic (drop the connection at
the first dispatch after the scripted window), so fault-injected runs
are regression-gated too, not just fault-free ones.
"""

import asyncio
import dataclasses
import gc
import json
import logging
import re
import struct
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.distributions import distribution_from_mean_cv
from repro.experiments.extension_chaos import SCENARIOS
from repro.faults.aware import survivor_fractions
from repro.faults.models import FaultConfig
from repro.net import (
    Complete,
    NetMetrics,
    ProtocolError,
    Resolve,
    Submit,
    pack,
    run_in_process,
    run_sockets,
    runtime,
)
from repro.net.server import ServerStub
from repro.obs import counters
from repro.service import ServiceConfig, SyntheticJobSource
from repro.sim.arrivals import Workload

SPEEDS = (1.0, 2.0, 3.0, 2.0)
CONTROL_PERIOD = 100.0


def make_config(**kw):
    kw.setdefault("speeds", SPEEDS)
    kw.setdefault("duration", 2000.0)
    kw.setdefault("control_period", CONTROL_PERIOD)
    return ServiceConfig(**kw)


def make_source(rho=0.6, seed=21):
    workload = Workload(
        total_speed=sum(SPEEDS),
        utilization=rho,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SyntheticJobSource(workload, seed)


def report_bytes(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


# Kill server 2 at its first dispatch after window 9 — the failure
# "happens" inside window 10 (t in (1000, 1100]) on both transports.
KILL = {2: 9}
KILL_WINDOW_END = 1100.0


class TestFaultModeRefused:
    """Fault mode runs only in process; a faulted config must not run
    fault-free over the network as if its faults had been honoured."""

    FAULTS = FaultConfig(mtbf=20.0, mttr=5.0)

    def test_in_process_transport_refuses_faults(self):
        with pytest.raises(ValueError, match="faults"):
            run_in_process(make_config(faults=self.FAULTS), make_source())

    def test_socket_transport_refuses_faults(self):
        with pytest.raises(ValueError, match="faults"):
            asyncio.run(
                run_sockets(make_config(faults=self.FAULTS), make_source())
            )


class TestNetKill:
    def test_socket_kill_matches_in_process_kill_byte_for_byte(self):
        config = make_config()
        sim = run_in_process(config, make_source(), kill=KILL)
        live = asyncio.run(run_sockets(config, make_source(), kill=KILL))
        assert report_bytes(live.report) == report_bytes(sim.report)

    def test_detection_lands_within_one_control_period(self):
        config = make_config()
        net = run_in_process(config, make_source(), kill=KILL)
        report = net.report
        assert report.membership_changes == 1
        assert report.clean_shutdown
        boundary = [w for w in report.windows if w.end == KILL_WINDOW_END]
        assert len(boundary) == 1
        assert boundary[0].reason == "membership"
        assert boundary[0].alphas[2] == 0.0
        # Every later window keeps the dead server at zero share.
        for w in report.windows:
            if w.end > KILL_WINDOW_END:
                assert w.alphas[2] == 0.0

    def test_survivors_get_failure_aware_optimal_fractions(self):
        config = make_config()
        net = run_in_process(config, make_source(), kill=KILL)
        decision = next(
            d
            for shard in net.decisions
            for d in shard
            if d.reason == "membership" and d.resolved
        )
        up = np.array([True, True, False, True])
        expected = survivor_fractions(
            decision.estimate.speeds,
            up,
            min(decision.estimate.utilization, config.rho_cap),
        )
        np.testing.assert_array_equal(decision.alphas, expected)

    def test_in_flight_jobs_on_the_dead_server_are_counted_lost(self):
        config = make_config()
        before = counters.snapshot()
        net = run_in_process(config, make_source(), kill=KILL)
        delta = counters.diff_since(before)
        report = net.report
        assert report.jobs_lost > 0
        assert report.jobs_offered == (
            report.jobs_dispatched + report.jobs_shed
        )
        window_lost = sum(w.lost for w in report.windows)
        assert window_lost == report.jobs_lost
        assert int(delta.get("service.jobs_lost", 0)) == report.jobs_lost
        assert int(delta.get("net.server_down", 0)) == 1

    def test_chaos_roster_includes_the_net_kill_drill(self):
        names = {s.name for s in SCENARIOS}
        assert "net-kill" in names
        scenario = next(s for s in SCENARIOS if s.name == "net-kill")
        assert scenario.net_kill
        assert any(kind == "down" for _, kind, _ in scenario.events)


# Server 2 restarts and re-registers for window 14: membership folds it
# back in at the window-14 boundary (start 1400), the forced re-solve at
# t=1500 restores the full-bank optimum.
REJOIN = {2: 14}
REJOIN_BOUNDARY = 1400.0


class TestRejoin:
    def test_socket_rejoin_matches_in_process_byte_for_byte(self):
        config = make_config()
        sim = run_in_process(
            config, make_source(), kill=KILL, rejoin=REJOIN
        )
        live = asyncio.run(
            run_sockets(config, make_source(), kill=KILL, rejoin=REJOIN)
        )
        assert report_bytes(live.report) == report_bytes(sim.report)

    def test_rejoin_restores_the_full_bank_optimum(self):
        config = make_config()
        before = counters.snapshot()
        net = run_in_process(config, make_source(), kill=KILL, rejoin=REJOIN)
        delta = counters.diff_since(before)
        report = net.report
        assert report.membership_changes == 2  # one down, one up
        assert report.clean_shutdown
        assert int(delta.get("net.server_rejoin", 0)) == 1
        # The rejoin resolve lands at the first boundary after the
        # registration window opens, with full-bank optimal fractions.
        rejoined = [
            w for w in report.windows
            if w.end > REJOIN_BOUNDARY and w.alphas[2] > 0.0
        ]
        assert rejoined
        assert rejoined[0].end == REJOIN_BOUNDARY + CONTROL_PERIOD
        assert rejoined[0].reason == "membership"
        assert rejoined[0].servers_up == len(SPEEDS)
        decision = next(
            d
            for shard in net.decisions
            for d in shard
            if d.reason == "membership" and d.resolved and d.alphas[2] > 0.0
        )
        expected = survivor_fractions(
            decision.estimate.speeds,
            np.ones(len(SPEEDS), dtype=bool),
            min(decision.estimate.utilization, config.rho_cap),
        )
        np.testing.assert_array_equal(decision.alphas, expected)

    def test_rejoined_server_warms_up_at_nominal_speed(self):
        # The warm-up guard: the restarted server's speed EWMA is reset,
        # so the rejoin re-solve sees its *nominal* speed, not a stale
        # pre-crash estimate.
        config = make_config()
        net = run_in_process(config, make_source(), kill=KILL, rejoin=REJOIN)
        decision = next(
            d
            for shard in net.decisions
            for d in shard
            if d.reason == "membership" and d.resolved and d.alphas[2] > 0.0
        )
        assert float(decision.estimate.speeds[2]) == SPEEDS[2]

    def test_no_jobs_lost_after_the_rejoin_boundary(self):
        config = make_config()
        net = run_in_process(config, make_source(), kill=KILL, rejoin=REJOIN)
        late = [w for w in net.report.windows if w.start >= REJOIN_BOUNDARY]
        assert late
        assert sum(w.lost for w in late) == 0

    def test_rejoin_without_a_kill_never_fires(self):
        config = make_config()
        plain = run_in_process(config, make_source())
        scripted = run_in_process(config, make_source(), rejoin=REJOIN)
        assert report_bytes(scripted.report) == report_bytes(plain.report)
        assert scripted.report.membership_changes == 0

    def test_chaos_roster_includes_the_net_rejoin_drill(self):
        names = {s.name for s in SCENARIOS}
        assert "net-rejoin" in names
        scenario = next(s for s in SCENARIOS if s.name == "net-rejoin")
        assert scenario.net_rejoin
        assert any(kind == "up" for _, kind, _ in scenario.events)


class TestStaleness:
    def test_hung_stub_is_declared_dead_by_the_staleness_timeout(self):
        # A hang keeps the connection open, so EOF detection never
        # fires — only the reply-timeout fallback can catch it, and it
        # must say so via the counter and the run metrics.
        config = make_config(duration=1500.0)
        before = counters.snapshot()
        live = asyncio.run(
            run_sockets(
                config, make_source(), hang={2: 9}, reply_timeout=0.5
            )
        )
        delta = counters.diff_since(before)
        report = live.report
        assert report.clean_shutdown
        assert report.membership_changes == 1
        assert report.jobs_lost > 0
        assert live.metrics.stale_timeouts >= 1
        assert live.metrics.suspect_shards == 1
        assert int(delta.get("net.reply_timeout{shard=0}", 0)) >= 1
        # Post-detection the dead server keeps zero share, like a kill.
        boundary = [w for w in report.windows if w.end == KILL_WINDOW_END]
        assert boundary[0].alphas[2] == 0.0

    def test_fault_free_run_reports_no_staleness(self):
        config = make_config(duration=500.0)
        live = asyncio.run(run_sockets(config, make_source()))
        assert live.metrics.stale_timeouts == 0
        assert live.metrics.suspect_shards == 0

    def test_rtt_percentiles_are_populated(self):
        config = make_config(duration=500.0)
        live = asyncio.run(run_sockets(config, make_source()))
        m = live.metrics
        assert np.isfinite(m.rtt_p50_s) and m.rtt_p50_s > 0.0
        assert np.isfinite(m.rtt_p99_s) and m.rtt_p99_s >= m.rtt_p50_s
        assert {"rtt_p50_s", "rtt_p99_s", "stale_timeouts",
                "suspect_shards"} <= m.as_dict().keys()

    def test_metrics_dict_keeps_its_keys_values_and_order(self):
        m = NetMetrics(
            transport="sockets", n_shards=2, max_inflight=4,
            queue_limit=3, windows=10, wall_seconds=1.5,
            jobs_offered=100, jobs_dispatched=90, jobs_shed=10,
            jobs_lost=5, jobs_per_sec=60.0, dispatch_seconds=0.25,
            dispatch_ns_per_job=2.5, peak_inflight=4,
            peak_submit_queue=2, rtt_p50_s=0.01, rtt_p99_s=0.02,
            stale_timeouts=1, suspect_shards=1,
        )
        expected = {
            "transport": "sockets",
            "n_shards": 2,
            "max_inflight": 4,
            "queue_limit": 3,
            "windows": 10,
            "wall_seconds": 1.5,
            "jobs_offered": 100,
            "jobs_dispatched": 90,
            "jobs_shed": 10,
            "jobs_lost": 5,
            "jobs_per_sec": 60.0,
            "dispatch_seconds": 0.25,
            "dispatch_ns_per_job": 2.5,
            "peak_inflight": 4,
            "peak_submit_queue": 2,
            "rtt_p50_s": 0.01,
            "rtt_p99_s": 0.02,
            "stale_timeouts": 1,
            "suspect_shards": 1,
        }
        assert m.as_dict() == expected
        assert list(m.as_dict()) == list(expected)


class TestBackpressure:
    def test_client_pipeline_saturates_and_queue_bound_holds(self):
        config = make_config(duration=1000.0)
        live = asyncio.run(
            run_sockets(
                config, make_source(), max_inflight=6, queue_limit=2
            )
        )
        m = live.metrics
        assert m.transport == "sockets"
        assert m.max_inflight == 6
        assert m.peak_inflight == 6  # the client pipeline filled up
        assert m.queue_limit == 2
        assert m.peak_submit_queue <= 2  # the orchestrator bound held
        assert live.report.clean_shutdown

    def test_default_flow_control_is_stop_and_wait(self):
        config = make_config(duration=500.0)
        live = asyncio.run(run_sockets(config, make_source()))
        assert live.metrics.peak_inflight == 1
        assert live.report.clean_shutdown

    def test_each_window_packs_one_frame_per_message_it_needs(
        self, monkeypatch
    ):
        # Per window: one SUBMIT, one RESOLVE, and a DISPATCH plus its
        # COMPLETE for every non-empty live slice — every live server
        # replied, once, and nothing else crossed the wire.
        frames = Counter()
        slices = {"dispatch": set(), "complete": set()}
        real_pack = runtime.pack

        def counting_pack(msg):
            frames[msg.type, msg.window] += 1
            if msg.type in slices:
                n = getattr(msg, msg.arrays[0]).size
                slices[msg.type].add((msg.window, msg.server, n))
            return real_pack(msg)

        monkeypatch.setattr(runtime, "pack", counting_pack)
        config = make_config(duration=500.0)
        net = run_in_process(config, make_source())
        report = net.report
        assert {t for t, _ in frames} == {
            "submit", "resolve", "dispatch", "complete"
        }
        assert slices["complete"] == slices["dispatch"]
        for k, w in enumerate(report.windows):
            sent = [n for win, _, n in slices["dispatch"] if win == k]
            assert frames["submit", k] == frames["resolve", k] == 1
            assert frames["dispatch", k] == frames["complete", k] == len(sent)
            assert all(n > 0 for n in sent)
            assert sum(sent) == w.admitted
        assert sum(frames.values()) == sum(
            2 + 2 * frames["dispatch", k] for k in range(len(report.windows))
        )


def _answer_with(monkeypatch, server, window, frame):
    """Stub *server* answers its *window* DISPATCH with ``frame(complete)``."""
    real_write = runtime.write_message

    def write(writer, msg):
        if isinstance(msg, Complete) and (msg.server, msg.window) == (
            server, window
        ):
            writer.write(frame(msg))
        else:
            real_write(writer, msg)

    monkeypatch.setattr(runtime, "write_message", write)


def _truncated(msg):
    """A frame whose length prefix agrees with it but whose body is short."""
    short = pack(msg)[:-8]
    return struct.pack(">I", len(short) - 4) + short[4:]


def _one_job_short(msg):
    return dataclasses.replace(
        msg, departures=msg.departures[:-1],
        service_times=msg.service_times[:-1],
    )


def _zero_service_time(msg):
    svc = msg.service_times.copy()
    svc[0] = 0.0
    return dataclasses.replace(msg, service_times=svc)


def _nan_departure(msg):
    dep = msg.departures.copy()
    dep[-1] = np.nan
    return dataclasses.replace(msg, departures=dep)


#: COMPLETEs that decode cleanly but do not answer their DISPATCH slice.
MISMATCHED_COMPLETES = {
    "one-job-short": _one_job_short,
    "zero-service-time": _zero_service_time,
    "nan-departure": _nan_departure,
}

def _packed(bad):
    """A stray reply: the frame of ``bad(complete)``."""
    return lambda msg: pack(bad(msg))


STRAY_REPLIES = {
    **{
        f"complete-{name}": _packed(bad)
        for name, bad in MISMATCHED_COMPLETES.items()
    },
    "stray-submit": lambda m: pack(
        Submit(window=m.window, times=m.departures, sizes=m.service_times)
    ),
    "complete-for-another-server": lambda m: pack(
        dataclasses.replace(m, server=0)
    ),
    "complete-for-another-window": lambda m: pack(
        dataclasses.replace(m, window=m.window + 7)
    ),
    "truncated-frame": _truncated,
}


class TestStubProtocolErrors:
    @pytest.mark.parametrize("reply", sorted(STRAY_REPLIES))
    def test_bad_stub_reply_presumes_the_server_dead(
        self, monkeypatch, reply
    ):
        # A stub may send only COMPLETEs for its own server, each for a
        # slice the shard awaits.  Anything else must not kill the shard
        # (a hang: the client waits for credit forever) — it drops the
        # connection and takes the server-down path, counted.
        _answer_with(monkeypatch, 2, 3, STRAY_REPLIES[reply])
        config = make_config(duration=1000.0)
        before = counters.snapshot()
        live = asyncio.run(
            asyncio.wait_for(
                run_sockets(config, make_source(), reply_timeout=0.5), 10
            )
        )
        delta = counters.diff_since(before)
        report = live.report
        assert report.clean_shutdown
        assert report.membership_changes == 1
        assert report.jobs_lost > 0
        assert int(delta.get("net.stub_protocol_error{shard=0}", 0)) == 1
        assert int(delta.get("net.server_down", 0)) == 1
        assert live.metrics.stale_timeouts == 0


class TestTornFrames:
    def test_half_a_complete_then_close_loses_exactly_its_slice(
        self, monkeypatch
    ):
        # EOF in the middle of a frame is a protocol error of the stub,
        # counted once, and its server's death, counted once.
        sliced = {}
        real_write = runtime.write_message

        def write(transport, msg):
            if isinstance(msg, Complete) and (msg.server, msg.window) == (2, 3):
                sliced["jobs"] = msg.departures.size
                frame = pack(msg)
                transport.write(frame[:len(frame) // 2])
                transport.close()
            else:
                real_write(transport, msg)

        monkeypatch.setattr(runtime, "write_message", write)
        before = counters.snapshot()
        live = asyncio.run(
            asyncio.wait_for(
                run_sockets(make_config(duration=1000.0), make_source(),
                            reply_timeout=0.5),
                10,
            )
        )
        delta = counters.diff_since(before)
        assert live.report.clean_shutdown
        assert int(delta.get("net.stub_protocol_error{shard=0}", 0)) == 1
        assert int(delta.get("net.server_down", 0)) == 1
        assert live.metrics.stale_timeouts == 0
        window = live.report.windows[3]
        assert window.lost == sliced["jobs"] > 0
        assert window.completed + window.lost == window.admitted


def _break_client_link(monkeypatch, kind, window):
    """Send *kind*'s *window* message on the client↔shard link truncated."""
    real_write = runtime.write_message

    def write(transport, msg):
        if isinstance(msg, kind) and msg.window == window:
            transport.write(_truncated(msg))
        else:
            real_write(transport, msg)

    monkeypatch.setattr(runtime, "write_message", write)


class TestClientLinkErrors:
    @pytest.mark.parametrize("kind", [Submit, Resolve], ids=["submit", "resolve"])
    def test_malformed_frame_ends_the_run_naming_shard_and_window(
        self, monkeypatch, kind
    ):
        # A broken client↔shard link must fail the run, not leave the
        # client waiting for credit forever.
        _break_client_link(monkeypatch, kind, 3)
        before = counters.snapshot()
        with pytest.raises(ProtocolError, match="shard 0 failed at window 3"):
            asyncio.run(
                asyncio.wait_for(
                    run_sockets(make_config(duration=1000.0), make_source()),
                    10,
                )
            )
        delta = counters.diff_since(before)
        assert int(delta.get("net.client_protocol_error{shard=0}", 0)) == 1

    def test_sharded_run_names_the_broken_shard(self, monkeypatch):
        real_write = runtime.write_message
        sent = []

        def write(transport, msg):
            # The client writes each window's SUBMITs in shard order.
            if isinstance(msg, Submit) and msg.window == 2:
                sent.append(msg)
                if len(sent) == 2:
                    transport.write(_truncated(msg))
                    return
            real_write(transport, msg)

        monkeypatch.setattr(runtime, "write_message", write)
        with pytest.raises(ProtocolError, match="shard 1 failed at window 2"):
            asyncio.run(
                asyncio.wait_for(
                    run_sockets(make_config(duration=1000.0), make_source(),
                                n_shards=2),
                    10,
                )
            )


class TestCancellation:
    def test_cancelled_run_logs_nothing_and_closes_every_socket(
        self, monkeypatch, caplog
    ):
        # A hung stub with a long reply timeout stalls the run; the
        # outer timeout cancels it mid-window.
        transports = []
        real_made = runtime._Link.connection_made

        def made(link, transport):
            transports.append(transport)
            real_made(link, transport)

        monkeypatch.setattr(runtime._Link, "connection_made", made)
        caplog.set_level(logging.DEBUG, logger="asyncio")
        with pytest.raises(asyncio.TimeoutError):
            asyncio.run(
                asyncio.wait_for(
                    run_sockets(make_config(), make_source(), hang={2: 3},
                                reply_timeout=60.0),
                    1.0,
                )
            )
        assert not [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.WARNING
        ]
        assert len(transports) == 2 * (len(SPEEDS) + 1)  # both ends
        for transport in transports:
            assert transport.is_closing()
            assert transport.get_extra_info("socket").fileno() == -1


class TestMismatchedComplete:
    @pytest.mark.parametrize("reply", sorted(MISMATCHED_COMPLETES))
    def test_in_process_run_names_the_window_and_server(
        self, monkeypatch, reply
    ):
        # The socket transport presumes such a stub dead (the stray-reply
        # drill above); in process the error surfaces, named.
        real = ServerStub.handle_dispatch

        def handle(stub, msg):
            out = real(stub, msg)
            if (stub.server_id, msg.window) == (2, 3):
                return MISMATCHED_COMPLETES[reply](out)
            return out

        monkeypatch.setattr(ServerStub, "handle_dispatch", handle)
        with pytest.raises(ProtocolError, match="server 2 for window 3") as err:
            run_in_process(make_config(duration=1000.0), make_source())
        if reply == "one-job-short":
            got, _, want = re.search(
                r"carries (\d+) departures and (\d+) service times; its "
                r"DISPATCH slice had (\d+) jobs", str(err.value)
            ).groups()
            assert int(got) == int(want) - 1

    def test_short_socket_reply_loses_exactly_its_slice(self, monkeypatch):
        sliced = {}

        def short(msg):
            sliced["jobs"] = msg.departures.size
            return pack(_one_job_short(msg))

        _answer_with(monkeypatch, 2, 3, short)
        live = asyncio.run(
            asyncio.wait_for(
                run_sockets(make_config(duration=1000.0), make_source(),
                            reply_timeout=0.5),
                10,
            )
        )
        window = live.report.windows[3]
        assert window.lost == sliced["jobs"] > 0
        assert window.completed + window.lost == window.admitted


class TestRunResultRepr:
    def test_repr_does_not_grow_with_the_window_count(self):
        short = run_in_process(make_config(duration=500.0), make_source())
        long = run_in_process(make_config(duration=2000.0), make_source())
        assert len(long.report.windows) == 4 * len(short.report.windows)
        assert len(repr(long)) <= len(repr(short)) + 2
        assert repr(long) == (
            "NetRunResult(transport='inproc', shards=1, windows=20, "
            f"jobs={long.report.jobs_dispatched})"
        )


class TestTeardown:
    def test_finished_socket_run_frees_its_shards_without_gc(self):
        # The connection writers' protocols hold the shard's connection
        # handler; a run that kept them would pin every shard (its
        # controller, estimators and report) until a full collection.
        config = make_config(duration=500.0)
        gc.collect()
        gc.disable()
        try:
            result = asyncio.run(run_sockets(config, make_source()))
            shard = weakref.ref(result.shards[0])
            del result
            assert shard() is None
        finally:
            gc.enable()
