"""Transports and run harnesses for the networked dispatcher.

Two transports drive the same sans-IO components
(:class:`LoadClient` / :class:`OrchestratorShard` / :class:`ServerStub`):

* :func:`run_in_process` — the simulation mode: a deterministic serial
  loop that moves every message through the wire codec
  (``unpack(pack(msg))``) but no sockets.  Fault-free runs are
  byte-comparable to :class:`~repro.service.loop.SchedulerService`.
* :func:`run_sockets` — the live mode: asyncio TCP on loopback, one
  connection per component, length-prefixed frames (a JSON header plus
  raw float64 per-job arrays).  The math is the same bits (the arrays
  cross as their exact bytes); only arrival order of messages from
  *different* connections varies, and the orchestrator folds replies
  behind a per-window barrier in server-index order, so fault-free
  socket runs reproduce the in-process report byte for byte.

Both refuse an enabled ``config.faults`` (``ValueError``): fault mode
runs only in process.

**Callback transport.**  Every connection end is an
:class:`asyncio.Protocol`: ``data_received`` splits the bytes into
frames (:class:`~repro.net.protocol.FrameReader`) and calls the
sans-IO handler of each message directly — ``handle_submit`` /
``handle_complete`` on the shard, ``handle_dispatch`` on a stub,
``handle_resolve`` on the client, which then submits while its credit
allows.  The shard's end of a connection learns its role from the
first frame: a REGISTER makes it a stub's, a SUBMIT the client's.
Nothing else runs on the loop but one reply timer per shard, so a
window costs a handful of event-loop iterations, one per hop.

**Backpressure.**  The client submits at most ``max_inflight``
unacknowledged windows (RESOLVE returns the credit).  The orchestrator
holds at most ``queue_limit`` submitted windows that wait for the one
in flight; once that many wait it calls ``pause_reading()`` on the
client connection, so later SUBMITs stay in kernel socket buffers —
TCP backpressure doing its job — and ``resume_reading()`` once a
window closes.  The overload drill pins both: a client pushed far
ahead must saturate its credit window, never exceed the orchestrator's
buffer bound, and produce the identical report.  Writes never await a
drain, because the protocol itself bounds every write buffer: the
client's holds at most its credit window of SUBMITs, a shard's one
window's DISPATCH fan-out and RESOLVE (the next window opens only
after the barrier), and a stub's one COMPLETE per DISPATCH received.

**Failure detection.**  The end of a connection is the primary
detector (a dead stub's socket closes): ``connection_lost`` — or
``eof_received`` just before it — presumes the stub's server dead.  A
reply timer is the fallback: one timer per shard, armed when a window
opens, fires after ``reply_timeout`` seconds in which the shard heard
nothing while a window was open.  It checks that deadline lazily,
re-arming itself at the last message heard plus ``reply_timeout``
instead of being reset per message; when silence did last that long,
a ``net.reply_timeout{shard}`` counter records the event before the
stuck servers are presumed dead.  After its REGISTER a stub may send
only COMPLETEs for its own server, each for a slice the shard awaits;
anything else — a stray message, a COMPLETE naming another server or
window, an undecodable frame, EOF in the middle of a frame — is
counted as ``net.stub_protocol_error{shard}``, and the shard drops the
connection and presumes the server dead.  The client↔shard link has no
such fallback: a frame that does not decode, or EOF, on it before the
shard's final RESOLVE is counted as ``net.client_protocol_error{shard}``
and ends the run with a :class:`~repro.net.protocol.ProtocolError`
naming the shard and the window.  A scripted kill (``kill={server:
k}``) makes the stub drop its connection at the first dispatch after
window ``k`` — both transports detect it during window ``k+1``, so
kill drills are deterministic and transport-agnostic.  A scripted hang
(``hang={server: k}``, socket mode only) keeps the connection open but
swallows dispatches, exercising the reply timeout.

**Rejoin.**  ``rejoin={server: w}`` scripts the repair mirror: the
callback that observes the death starts a *fresh* stub (incarnation 1,
empty backlog), which reconnects and REGISTERs for window ``w``; the shard
parks the registration and folds the server back into membership at
window ``w``'s boundary, so rejoin drills are window-deterministic on
both transports exactly like kills.  Schedule ``w`` at least two
windows after the death lands so the REGISTER always beats the
boundary on the socket transport.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import asdict, dataclass

from ..obs import counters
from ..service.loop import ServiceConfig, ServiceReport
from ..service.sources import JobSource
from .client import LoadClient
from .orchestrator import OrchestratorShard, shard_config
from .protocol import (
    Complete,
    Dispatch,
    FrameReader,
    Message,
    ProtocolError,
    Register,
    Resolve,
    Shutdown,
    Submit,
    pack,
    unpack,
    write_message,
)
from .server import ServerStub

__all__ = ["NetMetrics", "NetRunResult", "run_in_process", "run_sockets"]


@dataclass
class NetMetrics:
    """First-class serving metrics of one networked run."""

    transport: str
    n_shards: int
    max_inflight: int
    queue_limit: int
    windows: int
    wall_seconds: float
    jobs_offered: int
    jobs_dispatched: int
    jobs_shed: int
    jobs_lost: int
    jobs_per_sec: float
    dispatch_seconds: float
    dispatch_ns_per_job: float
    peak_inflight: int
    peak_submit_queue: int
    #: Client-side RESOLVE round-trip latency (per shard ack), seconds.
    rtt_p50_s: float = float("nan")
    rtt_p99_s: float = float("nan")
    #: Reply-timeout firings, and the shards they fired on.
    stale_timeouts: int = 0
    suspect_shards: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(repr=False)
class NetRunResult:
    """Everything one networked run produced."""

    reports: list[ServiceReport]
    shards: list[OrchestratorShard]
    client: LoadClient
    metrics: NetMetrics

    @property
    def report(self) -> ServiceReport:
        """The single-shard report (raises on a sharded run)."""
        if len(self.reports) != 1:
            raise ValueError(f"run has {len(self.reports)} shards, not 1")
        return self.reports[0]

    @property
    def decisions(self):
        return [sh.decisions for sh in self.shards]

    def __repr__(self) -> str:
        # Compact on purpose: asyncio.run() formats the finished main
        # task's result while restoring SIGINT, and the generated
        # dataclass repr would render every WindowRecord of every
        # report (alphas arrays included) at the end of each run.
        m = self.metrics
        return (
            f"NetRunResult(transport={m.transport!r}, shards={m.n_shards}, "
            f"windows={m.windows}, jobs={m.jobs_dispatched})"
        )


def _build_shards(
    config: ServiceConfig, n_shards: int
) -> list[OrchestratorShard]:
    if config.faults is not None and config.faults.enabled:
        raise ValueError(f"faults={config.faults} is not supported over the "
                         "network: fault mode runs only in process")
    return [
        OrchestratorShard(shard_config(config, s, n_shards), shard_id=s)
        for s in range(n_shards)
    ]


def _build_stubs(
    config: ServiceConfig,
    n_shards: int,
    kill: dict[int, int] | None,
    hang: dict[int, int] | None = None,
) -> list[list[ServerStub]]:
    """Per-shard stub lists; *kill*/*hang* map global server → last window."""
    kill = kill or {}
    hang = hang or {}
    stubs: list[list[ServerStub]] = [[] for _ in range(n_shards)]
    for g, speed in enumerate(config.speeds):
        shard, local = g % n_shards, g // n_shards
        stubs[shard].append(
            ServerStub(
                local, speed,
                die_after_window=kill.get(g),
                hang_after_window=hang.get(g),
            )
        )
    return stubs


def _shard_weights(shards: list[OrchestratorShard]) -> list[float]:
    """Initial router weights: each shard's nominal live capacity.

    Computed by the same reduction the orchestrator publishes on every
    RESOLVE, so the initial weights and the first publication are
    float-identical and the router never sees a spurious weight edge.
    """
    return [sh.live_capacity() for sh in shards]


def _metrics(
    transport: str,
    shards: list[OrchestratorShard],
    client: LoadClient,
    wall: float,
    *,
    queue_limit: int,
    peak_submit_queue: int,
    stale_timeouts: int = 0,
    suspect_shards: int = 0,
) -> NetMetrics:
    offered = sum(sh.report.jobs_offered for sh in shards)
    dispatched = sum(sh.report.jobs_dispatched for sh in shards)
    dispatch_seconds = sum(
        sh.decision_latency.total_seconds for sh in shards
    )
    decided = sum(sh.decision_latency.jobs for sh in shards)
    return NetMetrics(
        transport=transport,
        n_shards=len(shards),
        max_inflight=client.max_inflight,
        queue_limit=queue_limit,
        windows=client.n_windows,
        wall_seconds=wall,
        jobs_offered=offered,
        jobs_dispatched=dispatched,
        jobs_shed=sum(sh.report.jobs_shed for sh in shards),
        jobs_lost=sum(sh.report.jobs_lost for sh in shards),
        jobs_per_sec=(dispatched / wall if wall > 0 else float("inf")),
        dispatch_seconds=dispatch_seconds,
        dispatch_ns_per_job=(
            dispatch_seconds * 1e9 / decided if decided else 0.0
        ),
        peak_inflight=client.peak_inflight,
        peak_submit_queue=peak_submit_queue,
        rtt_p50_s=client.rtt.p50.value,
        rtt_p99_s=client.rtt.p99.value,
        stale_timeouts=stale_timeouts,
        suspect_shards=suspect_shards,
    )


# ----------------------------------------------------------------------
# Simulation mode: deterministic in-process transport
# ----------------------------------------------------------------------


def run_in_process(
    config: ServiceConfig,
    source: JobSource,
    *,
    n_shards: int = 1,
    kill: dict[int, int] | None = None,
    rejoin: dict[int, int] | None = None,
    codec: bool = True,
    split: str = "capacity",
) -> NetRunResult:
    """Run the three components through a serial in-process transport.

    Every message still round-trips ``unpack(pack(msg))`` (disable with
    ``codec=False`` to time the pure decision plane), so the only thing
    this mode removes relative to :func:`run_sockets` is the wire — the
    exact property the sim-vs-live equivalence tests pin.

    ``rejoin={server: w}`` scripts the repair path: once the server's
    death has been observed, a fresh stub (incarnation 1) re-registers
    for window ``w`` — the same window boundary the socket transport
    folds it in at.
    """
    rt = (lambda m: unpack(pack(m))) if codec else (lambda m: m)
    rejoin = rejoin or {}
    shards = _build_shards(config, n_shards)
    stubs = _build_stubs(config, n_shards, kill)
    client = LoadClient(
        source, config.duration, config.control_period,
        n_shards=n_shards, shard_weights=_shard_weights(shards), split=split,
    )
    reborn: set[int] = set()
    t0 = time.perf_counter()
    while not client.done:
        submits = client.next_submits()
        assert submits is not None  # max_inflight=1: strict alternation
        for s, sub in enumerate(submits):
            shard = shards[s]
            dispatches, resolve = shard.handle_submit(rt(sub))
            for d in dispatches:
                dmsg = rt(d)
                stub = stubs[s][dmsg.server]
                if stub.dead_at(dmsg.window):
                    done = shard.handle_server_down(dmsg.server)
                    resolve = done if done is not None else resolve
                    continue
                done = shard.handle_complete(rt(stub.handle_dispatch(dmsg)))
                resolve = done if done is not None else resolve
            assert resolve is not None  # barrier closes within the turn
            client.handle_resolve(rt(resolve), s)
        # Scripted rejoins: a restarted stub re-registers as soon as the
        # orchestrator has observed its death — mirroring the socket
        # rejoin task, which reconnects on the same trigger.  The shard
        # parks the registration until window `w`'s SUBMIT.
        for g in sorted(rejoin):
            s, local = g % n_shards, g // n_shards
            if g in reborn or shards[s].up[local]:
                continue
            stub = ServerStub(local, config.speeds[g], incarnation=1)
            stubs[s][local] = stub
            shards[s].handle_register(rt(stub.register(window=rejoin[g])))
            reborn.add(g)
    wall = time.perf_counter() - t0
    return NetRunResult(
        reports=[sh.report for sh in shards],
        shards=shards,
        client=client,
        metrics=_metrics(
            "inproc", shards, client, wall,
            queue_limit=1, peak_submit_queue=1,
        ),
    )


# ----------------------------------------------------------------------
# Live mode: asyncio TCP on loopback
# ----------------------------------------------------------------------


class _Run:
    """What one socket run's connections share: the client's side, the
    open links, and how the run ends.

    ``ready`` resolves once every shard's initial stubs have registered,
    ``done`` once the client has banked its final RESOLVEs; :meth:`abort`
    resolves both with the error the run then raises.  ``over`` turns
    true when the run ends: from then on, links only close.
    """

    def __init__(self, loop, host: str, client: LoadClient, n_shards: int):
        self.loop, self.host, self.client = loop, host, client
        self.unready = n_shards  # shards whose initial stubs are not all in
        self.client_links: list[_ClientLink] = []
        self.links: set[_Link] = set()
        self.connecting: set[asyncio.Task] = set()
        self.ready = loop.create_future()
        self.done = loop.create_future()
        self.over = False
        self.error: BaseException | None = None
        self.finished_at = 0.0
        self.all_closed: asyncio.Future | None = None

    def abort(self, exc: BaseException) -> None:
        """End the run with *exc*; the first error wins."""
        if not self.over:
            self.over, self.error = True, exc
            for fut in (self.ready, self.done):
                if not fut.done():
                    fut.set_result(None)

    def client_failed(self, shard: int, window: int, reason) -> None:
        """The client↔shard link broke before the shard's final RESOLVE."""
        if not self.over:
            counters.inc("net.client_protocol_error", shard=str(shard))
            self.abort(ProtocolError(
                f"client link to shard {shard} failed at window {window}, "
                f"before its final RESOLVE: {reason}"
            ))

    def pump(self) -> None:
        """Submit every window the credit admits; after the last RESOLVE,
        say goodbye to every shard and end the run."""
        client = self.client
        while client.can_submit():
            for link, sub in zip(self.client_links, client.next_submits()):
                write_message(link.transport, sub)
        if client.done and not self.over:
            self.finished_at = time.perf_counter()
            for link in self.client_links:
                write_message(link.transport, Shutdown(reason="stream complete"))
                link.close()
            self.over = True
            self.done.set_result(None)

    def connect(self, factory, port: int) -> None:
        """Open a connection from a callback (a restarted stub's)."""
        task = self.loop.create_task(
            self.loop.create_connection(factory, self.host, port)
        )
        self.connecting.add(task)
        task.add_done_callback(self._connected)

    def _connected(self, task: asyncio.Task) -> None:
        self.connecting.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.abort(task.exception())

    async def close(self, abort: bool) -> None:
        """Close every connection, and wait until each is gone.

        A finished run closes gracefully, so queued SHUTDOWNs still go
        out; a failed or cancelled one aborts, dropping what is queued.
        """
        self.over = True
        pending = list(self.connecting)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        for link in list(self.links):
            link.close(abort)
        if self.links:
            self.all_closed = self.loop.create_future()
            await self.all_closed
        self.client_links = []


class _Link(asyncio.Protocol):
    """One end of one connection: frames in, sans-IO handler calls out.

    ``data_received`` feeds a :class:`FrameReader` and hands each
    complete message to ``on_message`` while the link is reading; while
    it is paused, later frames wait in the reader as bytes.  A
    :class:`ProtocolError` — EOF in the middle of a frame included —
    goes to ``refuse``, any other end of the stream to :meth:`on_end`,
    once, unless the link closed itself; any other exception of a
    handler ends the run with it rather than leaving it waiting.
    """

    def __init__(self, run: _Run):
        self.run = run
        self.transport: asyncio.Transport | None = None
        self.frames = FrameReader()
        self.reading = self.paused = self.ended = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.run.over:
            self.ended = True
            transport.abort()
        else:
            self.reading = True
            self.run.links.add(self)

    def data_received(self, data: bytes) -> None:
        self.frames.feed(data)
        self.read_frames()

    def eof_received(self) -> None:
        self._end(None)  # returning None closes the transport

    def connection_lost(self, exc) -> None:
        self._end(exc)
        self.transport = None
        run = self.run
        run.links.discard(self)
        if not run.links and run.all_closed and not run.all_closed.done():
            run.all_closed.set_result(None)

    def read_frames(self) -> None:
        frames, run = self.frames, self.run
        try:
            while self.reading and not run.over:
                msg = frames.next()
                if msg is None:
                    return
                self.on_message(msg)
        except ProtocolError as exc:
            self.refuse(exc)
        except Exception as exc:
            run.abort(exc)

    def _end(self, exc) -> None:
        if self.ended:
            return
        self.ended, self.reading = True, False
        if exc is None:
            try:
                self.frames.eof()
            except ProtocolError as torn:
                exc = torn
        if self.run.over:
            return
        try:
            if isinstance(exc, ProtocolError):
                self.refuse(exc)
            else:
                self.on_end(exc)
        except Exception as err:
            self.run.abort(err)

    def close(self, abort: bool = False) -> None:
        """Close this end; its stream's end is no news to :meth:`on_end`."""
        self.ended, self.reading = True, False
        if self.transport is not None:
            if abort:
                self.transport.abort()
            else:
                self.transport.close()

    def pause(self) -> None:
        self.paused, self.reading = True, False
        self.transport.pause_reading()

    def resume(self) -> None:
        self.paused = False
        if not self.ended:
            self.reading = True
            self.transport.resume_reading()
            self.read_frames()

    def on_end(self, exc) -> None:
        """The peer closed the connection (*exc*: the reset, if any)."""


class _ShardNet:
    """One shard's socket side: its links, submit buffer and reply timer.

    Windows open strictly in order, one at a time.  A SUBMIT that
    arrives while a window is in flight waits in ``deferred``; once
    ``queue_limit`` wait, the client link stops reading, and later
    SUBMITs stay in socket buffers.  The reply timer is armed when a
    window opens and none is pending; when it fires it re-arms at
    ``reply_timeout`` after the last message heard, or, after that much
    silence with a window open, presumes the awaited servers dead.
    """

    def __init__(self, run: _Run, shard: OrchestratorShard, queue_limit: int,
                 reply_timeout: float, rejoin: dict[int, tuple[float, int]]):
        self.run, self.shard = run, shard
        self.queue_limit, self.reply_timeout = queue_limit, reply_timeout
        #: Scripted restarts not yet started: local server → (speed, window).
        self.rejoin = rejoin
        self.stubs: dict[int, _ShardLink] = {}
        self.client: _ShardLink | None = None
        self.deferred: deque[Submit] = deque()
        self.submits = 0  # SUBMITs received: the window the next one is for
        self.peak_submit_queue = 0
        #: Reply-timeout firings: servers presumed dead without an EOF.
        self.stale_timeouts = 0
        self.clock = run.loop.time
        self.heard = 0.0
        self.timer: asyncio.TimerHandle | None = None
        self.port: int | None = None

    def release(self) -> None:
        """Drop the links and the timer once the run is over.

        Each link holds this object, and so does the pending timer's
        callback; kept, they would close reference cycles that pin the
        shard — its controller, estimators and report — until a full
        garbage collection.
        """
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.stubs.clear()
        self.client = None
        self.deferred.clear()

    def register(self, link: _ShardLink, msg: Register) -> None:
        self.shard.handle_register(msg)
        link.server = msg.server
        self.stubs[msg.server] = link
        run = self.run
        if not run.ready.done() and len(self.stubs) == self.shard.n:
            run.unready -= 1
            if not run.unready:
                run.ready.set_result(None)

    def submit(self, msg: Submit) -> None:
        self.submits += 1
        self.peak_submit_queue = max(self.peak_submit_queue, len(self.deferred) + 1)
        if self.shard.busy:
            self.deferred.append(msg)
            if len(self.deferred) >= self.queue_limit:
                self.client.pause()
        else:
            self.advance(self.open(msg))

    def stub_down(self, link: _ShardLink) -> None:
        """A stub's connection is gone: its server is, unless replaced."""
        if not self.shard.finished and self.stubs.get(link.server) is link:
            del self.stubs[link.server]
            self.advance(self.down(link.server))

    def open(self, msg: Submit) -> Resolve | None:
        """Open a window: fan its slices out, arm the reply timer."""
        dispatches, resolve = self.shard.handle_submit(msg)
        for d in dispatches:
            link = self.stubs.get(d.server)
            if link is None:
                resolve = self.down(d.server) or resolve
            else:
                write_message(link.transport, d)
        if resolve is None:
            self.heard = self.clock()
            if self.timer is None:
                self.timer = self.run.loop.call_at(
                    self.heard + self.reply_timeout, self.deadline
                )
        return resolve

    def advance(self, resolve: Resolve | None) -> None:
        """Send *resolve*, if any, and open waiting windows while idle;
        after the final window, tell every live stub goodbye."""
        while resolve is not None:
            write_message(self.client.transport, resolve)
            if self.shard.finished:
                stubs = list(self.stubs.values())
                self.release()
                for link in stubs:
                    write_message(link.transport, Shutdown(reason="run complete"))
                    link.close()
                return
            resolve = self.open(self.deferred.popleft()) if self.deferred else None
        client = self.client
        if client is not None and client.paused:
            if len(self.deferred) < self.queue_limit:
                client.resume()

    def down(self, server: int) -> Resolve | None:
        """Presume *server* dead; start its scripted restart, if any."""
        done = self.shard.handle_server_down(server)
        script = self.rejoin.pop(server, None)
        if script is not None:
            stub = ServerStub(server, script[0], incarnation=1)
            run = self.run
            run.connect(lambda: _StubLink(run, stub, script[1]), self.port)
        return done

    def deadline(self) -> None:
        """The reply timer: re-arm, or declare the silent servers dead."""
        self.timer = None
        shard = self.shard
        if not shard.busy or self.run.over:
            return
        due = self.heard + self.reply_timeout
        if self.clock() < due:
            self.timer = self.run.loop.call_at(due, self.deadline)
            return
        self.stale_timeouts += 1
        counters.inc("net.reply_timeout", shard=str(shard.shard_id))
        try:
            resolve = None
            for server in sorted(shard.awaiting):
                resolve = self.down(server) or resolve
            self.advance(resolve)
        except Exception as exc:  # a timer has no caller to raise to
            self.run.abort(exc)


class _ShardLink(_Link):
    """The shard's end of a connection, classified by its first frame:
    a REGISTER makes it a stub's, a SUBMIT the client's."""

    def __init__(self, run: _Run, net: _ShardNet):
        super().__init__(run)
        self.net = net
        self.server: int | None = None
        self.is_client = False

    def on_message(self, msg: Message) -> None:
        net = self.net
        net.heard = net.clock()
        kind = type(msg)
        if self.server is not None:
            if kind is Complete and msg.server == self.server:
                net.advance(net.shard.handle_complete(msg))
            elif kind is Shutdown:
                self.close()
                net.stub_down(self)
            else:
                raise ProtocolError(
                    f"stub {self.server} may send only its own COMPLETEs"
                )
        elif self.is_client:
            if kind is Submit:
                net.submit(msg)
            elif kind is Shutdown and net.shard.finished:
                self.close()
            else:
                raise ProtocolError(f"the client may not send {msg.type!r} here")
        elif kind is Register:
            net.register(self, msg)
        elif kind is Submit:
            self.is_client = True
            net.client = self
            net.submit(msg)
        else:
            self.close()  # a bare SHUTDOWN: nothing to serve

    def refuse(self, exc: ProtocolError) -> None:
        self.close()
        net = self.net
        if self.server is not None:
            counters.inc("net.stub_protocol_error", shard=str(net.shard.shard_id))
            net.stub_down(self)
        elif self.is_client:
            self.run.client_failed(net.shard.shard_id, net.submits, exc)

    def on_end(self, exc) -> None:
        net = self.net
        if self.server is not None:
            net.stub_down(self)
        elif self.is_client and not net.shard.finished:
            self.run.client_failed(
                net.shard.shard_id, net.submits, exc or "connection closed"
            )


class _StubLink(_Link):
    """A server stub's connection: REGISTER on connect, then replay."""

    def __init__(self, run: _Run, stub: ServerStub, window: int = 0):
        super().__init__(run)
        self.stub, self.window = stub, window

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        if self.reading:
            write_message(transport, self.stub.register(window=self.window))

    def on_message(self, msg: Message) -> None:
        stub = self.stub
        if type(msg) is Dispatch:
            if stub.dead_at(msg.window):
                # The scripted crash: drop the connection without
                # replying — the orchestrator sees EOF.
                self.close()
            elif not stub.hangs_at(msg.window):
                # (The scripted hang swallows the dispatch and keeps the
                # connection: only the reply timeout catches it.)
                write_message(self.transport, stub.handle_dispatch(msg))
        elif type(msg) is Shutdown:
            self.close()
        else:
            raise ProtocolError(
                f"stub {stub.server_id} got an unexpected {msg.type!r} message"
            )

    def refuse(self, exc: ProtocolError) -> None:
        self.close()
        self.run.abort(exc)


class _ClientLink(_Link):
    """The load client's end of its connection to one shard."""

    def __init__(self, run: _Run, shard: int):
        super().__init__(run)
        self.shard = shard
        self.resolved = 0  # RESOLVEs banked: the window the next one closes
        self.final = False

    def on_message(self, msg: Message) -> None:
        if type(msg) is not Resolve:
            raise ProtocolError(f"expected a RESOLVE, got {msg.type!r}")
        self.run.client.handle_resolve(msg, self.shard)
        self.resolved += 1
        self.final = msg.final
        self.run.pump()

    def refuse(self, exc: ProtocolError) -> None:
        self.close()
        self.run.client_failed(self.shard, self.resolved, exc)

    def on_end(self, exc) -> None:
        if not self.final:
            self.run.client_failed(
                self.shard, self.resolved, exc or "connection closed"
            )


async def run_sockets(
    config: ServiceConfig,
    source: JobSource,
    *,
    n_shards: int = 1,
    max_inflight: int = 1,
    queue_limit: int | None = None,
    kill: dict[int, int] | None = None,
    rejoin: dict[int, int] | None = None,
    hang: dict[int, int] | None = None,
    reply_timeout: float = 30.0,
    host: str = "127.0.0.1",
    split: str = "capacity",
) -> NetRunResult:
    """Run client, orchestrator shards, and server stubs over TCP.

    Everything runs on loopback in one event loop — the point is the
    real message boundary and the real transport semantics (framing,
    EOF, socket buffering), not multi-host deployment.  A broken
    client↔shard link raises :class:`ProtocolError` naming the shard
    and the window; a cancelled run closes every connection before the
    cancellation propagates.
    """
    shards = _build_shards(config, n_shards)
    stubs = _build_stubs(config, n_shards, kill, hang)
    rejoin = rejoin or {}
    client = LoadClient(
        source,
        config.duration,
        config.control_period,
        n_shards=n_shards,
        max_inflight=max_inflight,
        shard_weights=_shard_weights(shards),
        split=split,
    )
    if queue_limit is None:
        queue_limit = max_inflight
    if queue_limit < 1:
        raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")

    loop = asyncio.get_running_loop()
    run = _Run(loop, host, client, n_shards)
    nets = [
        _ShardNet(
            run, shard, queue_limit, reply_timeout,
            {
                g // n_shards: (config.speeds[g], window)
                for g, window in rejoin.items() if g % n_shards == s
            },
        )
        for s, shard in enumerate(shards)
    ]
    servers = []
    try:
        for net in nets:
            srv = await loop.create_server(
                lambda net=net: _ShardLink(run, net), host, 0
            )
            net.port = srv.sockets[0].getsockname()[1]
            servers.append(srv)
        await asyncio.gather(*(
            loop.create_connection(
                lambda stub=stub: _StubLink(run, stub), host, nets[s].port
            )
            for s in range(n_shards)
            for stub in stubs[s]
        ))
        await run.ready
        t0 = time.perf_counter()
        for s, net in enumerate(nets):
            if run.over:
                break
            _, link = await loop.create_connection(
                lambda s=s: _ClientLink(run, s), host, net.port
            )
            run.client_links.append(link)
        if not run.over:
            run.pump()
        await run.done
        if run.error is not None:
            raise run.error
        wall = run.finished_at - t0
    finally:
        await run.close(abort=run.error is not None or not run.done.done())
        for srv in servers:
            srv.close()
            await srv.wait_closed()
        for net in nets:
            net.release()
    return NetRunResult(
        reports=[sh.report for sh in shards],
        shards=shards,
        client=client,
        metrics=_metrics(
            "sockets", shards, client, wall,
            queue_limit=queue_limit,
            peak_submit_queue=max(n.peak_submit_queue for n in nets),
            stale_timeouts=sum(n.stale_timeouts for n in nets),
            suspect_shards=sum(1 for n in nets if n.stale_timeouts),
        ),
    )
