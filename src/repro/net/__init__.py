"""Networked dispatcher service: client / orchestrator / server split.

The storalloc-style three-component architecture over the quasi-static
serving stack (DESIGN.md §11): a load-generator client
(:mod:`~repro.net.client`), Algorithm 2 orchestrator shards
(:mod:`~repro.net.orchestrator`), and FCFS server stubs
(:mod:`~repro.net.server`) exchange versioned messages
(:mod:`~repro.net.protocol`) over one transport interface with two
implementations (:mod:`~repro.net.runtime`): a deterministic in-process
loop bit-comparable to :class:`~repro.service.loop.SchedulerService`,
and asyncio TCP sockets.
"""

from .client import CapacityRouter, LoadClient
from .orchestrator import OrchestratorShard, shard_config
from .protocol import (
    PROTOCOL_VERSION,
    Complete,
    Dispatch,
    Message,
    ProtocolError,
    Register,
    Resolve,
    Shutdown,
    Submit,
    VersionMismatch,
    decode,
    encode,
    pack,
    unpack,
)
from .runtime import NetMetrics, NetRunResult, run_in_process, run_sockets
from .server import ServerDead, ServerStub

__all__ = [
    "PROTOCOL_VERSION",
    "Submit",
    "Dispatch",
    "Complete",
    "Register",
    "Resolve",
    "Shutdown",
    "Message",
    "ProtocolError",
    "VersionMismatch",
    "encode",
    "decode",
    "pack",
    "unpack",
    "CapacityRouter",
    "LoadClient",
    "OrchestratorShard",
    "shard_config",
    "ServerStub",
    "ServerDead",
    "NetMetrics",
    "NetRunResult",
    "run_in_process",
    "run_sockets",
]
