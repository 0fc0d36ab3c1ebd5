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

**Backpressure.**  The client submits at most ``max_inflight``
unacknowledged windows (RESOLVE returns the credit); the orchestrator
buffers at most ``queue_limit`` submitted windows (a semaphore over the
inbound queue) — anything beyond that stays in kernel socket buffers,
which is TCP backpressure doing its job.  The overload drill pins both:
a client pushed far ahead must saturate its credit window, never exceed
the orchestrator's buffer bound, and produce the identical report.

**Failure detection.**  Connection EOF is the primary detector (a dead
stub's socket closes); a ``reply_timeout`` on the window barrier is the
fallback — when it fires, a ``net.reply_timeout{shard}`` counter
records the event before the stuck servers are presumed dead.  After
its REGISTER a stub may send only COMPLETEs for its own server, each
for a slice the shard awaits; anything else — a stray message, a
COMPLETE naming another server or window, an undecodable frame — is
counted as ``net.stub_protocol_error{shard}``, and the shard drops the
connection and presumes the server dead.  A scripted kill
(``kill={server: k}``) makes the stub drop its connection at the first
dispatch after window ``k`` — both transports detect it during window
``k+1``, so kill drills are deterministic and transport-agnostic.  A
scripted hang (``hang={server: k}``, socket mode only) keeps the
connection open but swallows dispatches, exercising the reply timeout.

**Rejoin.**  ``rejoin={server: w}`` scripts the repair mirror: once the
orchestrator has observed the death, a *fresh* stub (incarnation 1,
empty backlog) reconnects and REGISTERs for window ``w``; the shard
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
    Message,
    ProtocolError,
    Register,
    Resolve,
    Shutdown,
    Submit,
    pack,
    read_message,
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


class _ShardNet:
    """Per-shard socket-side state shared by the connection handlers."""

    def __init__(self, shard: OrchestratorShard, queue_limit: int):
        self.shard = shard
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.submit_slots = asyncio.Semaphore(queue_limit)
        self.stub_writers: dict[int, asyncio.StreamWriter] = {}
        self.client_writer: asyncio.StreamWriter | None = None
        self.registered = asyncio.Event()
        self.buffered_submits = 0
        self.peak_submit_queue = 0
        self.port: int | None = None
        #: Notified after every shard-loop step; rejoin tasks wait on it
        #: to observe the orchestrator's membership state.
        self.progress = asyncio.Condition()
        #: Reply-timeout firings: servers presumed dead without an EOF.
        self.stale_timeouts = 0

    def release(self) -> None:
        """Drop the connection writers once the run is over.

        Each writer's protocol holds :meth:`handle_connection`, bound to
        this object, so a kept writer closes a reference cycle that pins
        the shard — its controller, estimators and report — until a
        full garbage collection.
        """
        self.stub_writers.clear()
        self.client_writer = None

    async def handle_connection(self, reader, writer):
        """Classify the peer by its first message, then pump the inbox."""
        try:
            first = await read_message(reader)
        except ProtocolError:
            writer.close()
            return
        try:
            if isinstance(first, Register):
                await self._pump_server(first, reader, writer)
            elif isinstance(first, Submit):
                await self._pump_client(first, reader, writer)
            # A bare Shutdown or EOF: nothing to do.
        finally:
            if not writer.is_closing():
                writer.close()

    def refuse_stub(self, writer) -> None:
        """A stub broke the protocol: count it and drop its connection."""
        counters.inc(
            "net.stub_protocol_error", shard=str(self.shard.shard_id)
        )
        writer.close()

    async def _pump_server(self, hello: Register, reader, writer):
        server = hello.server
        self.stub_writers[server] = writer
        await self.inbox.put(("register", hello))
        if len(self.stub_writers) == self.shard.n:
            self.registered.set()
        try:
            while True:
                msg = await read_message(reader)
                if msg is None or isinstance(msg, Shutdown):
                    break
                if not isinstance(msg, Complete) or msg.server != server:
                    raise ProtocolError(
                        f"stub {server} may send only its own COMPLETEs"
                    )
                await self.inbox.put(("complete", msg))
        except ProtocolError:
            self.refuse_stub(writer)
        # Only this connection's death matters — if a restarted stub
        # already re-registered (new writer), the old EOF is stale and
        # must not kill the rejoined server.
        if self.stub_writers.get(server) is writer:
            await self.inbox.put(("down", server))

    async def _pump_client(self, first: Submit, reader, writer):
        self.client_writer = writer
        msg: Message | None = first
        while msg is not None:
            if isinstance(msg, Shutdown):
                await self.inbox.put(("client_shutdown", None))
                break
            if isinstance(msg, Submit):
                # The bounded queue: hold a slot per buffered window.
                await self.submit_slots.acquire()
                self.buffered_submits += 1
                self.peak_submit_queue = max(
                    self.peak_submit_queue, self.buffered_submits
                )
                await self.inbox.put(("submit", msg))
            try:
                msg = await read_message(reader)
            except ProtocolError:
                break


async def _shard_main(net: _ShardNet, reply_timeout: float) -> None:
    """Serialize one shard: windows strictly in order, one at a time."""
    shard = net.shard
    deferred: deque[Submit] = deque()

    async def send_resolve(resolve: Resolve) -> None:
        assert net.client_writer is not None
        write_message(net.client_writer, resolve)
        await net.client_writer.drain()

    async def process_submit(msg: Submit) -> None:
        net.buffered_submits -= 1
        net.submit_slots.release()
        dispatches, resolve = shard.handle_submit(msg)
        touched = []
        for d in dispatches:
            w = net.stub_writers.get(d.server)
            if w is None or w.is_closing():
                done = shard.handle_server_down(d.server)
                resolve = done if done is not None else resolve
                continue
            write_message(w, d)
            touched.append(w)
        for w in touched:
            await w.drain()
        if resolve is not None:
            await send_resolve(resolve)

    async def notify_progress() -> None:
        async with net.progress:
            net.progress.notify_all()

    while not shard.finished:
        if deferred and not shard.busy:
            await process_submit(deferred.popleft())
            await notify_progress()
            continue
        if shard.busy:
            try:
                kind, msg = await asyncio.wait_for(
                    net.inbox.get(), reply_timeout
                )
            except asyncio.TimeoutError:
                # The reply timeout (counted and surfaced in the run
                # metrics): everyone still awaited in the stuck window
                # is presumed dead.
                net.stale_timeouts += 1
                counters.inc("net.reply_timeout", shard=str(shard.shard_id))
                for server in sorted(shard.awaiting):
                    done = shard.handle_server_down(server)
                    if done is not None:
                        await send_resolve(done)
                await notify_progress()
                continue
        else:
            kind, msg = await net.inbox.get()
        if kind == "submit":
            if shard.busy:
                deferred.append(msg)
            else:
                await process_submit(msg)
        elif kind == "complete":
            try:
                done = shard.handle_complete(msg)
            except ProtocolError:
                # A COMPLETE the window does not await: out of step.
                net.refuse_stub(net.stub_writers[msg.server])
                done = shard.handle_server_down(msg.server)
            if done is not None:
                await send_resolve(done)
        elif kind == "register":
            shard.handle_register(msg)
        elif kind == "down":
            done = shard.handle_server_down(msg)
            if done is not None:
                await send_resolve(done)
        # "client_shutdown" while unfinished is a client bug; the final
        # window's RESOLVE flips `finished`, so it never races this loop.
        await notify_progress()

    await notify_progress()  # wake rejoin waiters blocked on a live server
    for w in net.stub_writers.values():
        if not w.is_closing():
            write_message(w, Shutdown(reason="run complete"))
            try:
                await w.drain()
            except ConnectionError:
                pass
            w.close()


async def _stub_task(
    stub: ServerStub, host: str, port: int, *, register_window: int = 0
) -> None:
    """One server-stub process: connect, register, replay until told."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        write_message(writer, stub.register(window=register_window))
        await writer.drain()
        while True:
            msg = await read_message(reader)
            if msg is None or isinstance(msg, Shutdown):
                break
            if isinstance(msg, Dispatch):
                if stub.dead_at(msg.window):
                    # The scripted crash: drop the connection without
                    # replying — the orchestrator sees EOF.
                    break
                if stub.hangs_at(msg.window):
                    # The scripted hang: swallow the dispatch, keep the
                    # connection — only the reply timeout catches it.
                    continue
                write_message(writer, stub.handle_dispatch(msg))
                await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _rejoin_stub_task(
    net: _ShardNet,
    local: int,
    speed: float,
    window: int,
    host: str,
    port: int,
) -> None:
    """A restarted stub: wait for the death to be observed, reconnect.

    The fresh stub (incarnation 1, empty backlog) REGISTERs for its
    scripted rejoin *window*; the orchestrator parks the registration
    and applies it at that window's boundary, so the connect timing
    itself need not be deterministic — only "after the kill was seen,
    before the rejoin window's SUBMIT", which waiting on the shard's
    progress condition guarantees with windows to spare.
    """
    shard = net.shard
    async with net.progress:
        await net.progress.wait_for(
            lambda: not shard.up[local] or shard.finished
        )
    if shard.finished:
        return
    stub = ServerStub(local, speed, incarnation=1)
    await _stub_task(stub, host, port, register_window=window)


async def _client_task(
    client: LoadClient, host: str, ports: list[int]
) -> None:
    """The load generator: submit under credit, bank RESOLVEs."""
    conns = [await asyncio.open_connection(host, p) for p in ports]
    credit = asyncio.Event()

    async def read_resolves(s: int) -> None:
        reader = conns[s][0]
        while True:
            msg = await read_message(reader)
            if msg is None or isinstance(msg, Shutdown):
                break
            if isinstance(msg, Resolve):
                client.handle_resolve(msg, s)
                credit.set()

    readers = [asyncio.create_task(read_resolves(s)) for s in range(len(conns))]
    try:
        while not client.done:
            if client.can_submit():
                submits = client.next_submits()
                assert submits is not None
                for s, sub in enumerate(submits):
                    write_message(conns[s][1], sub)
                for _, w in conns:
                    await w.drain()
                continue
            credit.clear()
            if client.done or client.can_submit():
                continue
            await credit.wait()
        for _, w in conns:
            write_message(w, Shutdown(reason="stream complete"))
            await w.drain()
        await asyncio.gather(*readers)
    finally:
        for task in readers:
            task.cancel()
        for _, w in conns:
            w.close()


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
    EOF, socket buffering), not multi-host deployment.
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

    nets = [_ShardNet(shard, queue_limit) for shard in shards]
    servers = []
    for net in nets:
        srv = await asyncio.start_server(net.handle_connection, host, 0)
        net.port = srv.sockets[0].getsockname()[1]
        servers.append(srv)

    stub_tasks = [
        asyncio.create_task(_stub_task(stub, host, nets[s].port))
        for s in range(n_shards)
        for stub in stubs[s]
    ]
    stub_tasks += [
        asyncio.create_task(
            _rejoin_stub_task(
                nets[g % n_shards],
                g // n_shards,
                config.speeds[g],
                window,
                host,
                nets[g % n_shards].port,
            )
        )
        for g, window in sorted(rejoin.items())
    ]
    shard_tasks = [
        asyncio.create_task(_shard_main(net, reply_timeout)) for net in nets
    ]
    try:
        await asyncio.gather(*(net.registered.wait() for net in nets))
        t0 = time.perf_counter()
        await _client_task(client, host, [net.port for net in nets])
        wall = time.perf_counter() - t0
        await asyncio.gather(*shard_tasks)
        await asyncio.gather(*stub_tasks)
    finally:
        for task in (*stub_tasks, *shard_tasks):
            task.cancel()
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
