"""Versioned wire protocol of the networked dispatcher service.

Seven message types flow between the three components (see DESIGN.md
§11): a server stub announces itself with a REGISTER (on first connect
and again when a restarted stub rejoins), the load client SUBMITs one
control window of arrivals to an orchestrator shard, the shard
DISPATCHes per-server slices to its server stubs, each stub answers
with a COMPLETE (departure and service times) plus a HEARTBEAT, and the
shard closes the window with a RESOLVE back to the client — which
doubles as the client's flow-control credit and publishes the shard's
live capacity for the client's weighted router.  SHUTDOWN tears a
connection down cleanly in either direction.

The encoding is JSON (floats round-trip exactly through ``repr``, so
the live-socket mode stays bit-comparable to the in-process mode) in
length-prefixed frames: a 4-byte big-endian payload length followed by
the UTF-8 JSON object.  Every object carries ``{"v": .., "type": ..}``;
decoding tolerates unknown fields (forward compatibility: a newer peer
may add fields) but rejects a different major version loudly — silent
cross-version traffic is how heterogeneous fleets corrupt estimator
state.

The codec is sans-IO: :func:`encode` / :func:`decode` map messages to
and from plain dicts, :func:`pack` / :func:`unpack` add the frame
bytes, and only :func:`read_message` / :func:`write_message` touch
asyncio streams.  The in-process transport round-trips every message
through ``unpack(pack(msg))`` so simulation mode exercises the exact
codec the sockets use.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "VersionMismatch",
    "Register",
    "Submit",
    "Dispatch",
    "Complete",
    "Heartbeat",
    "Resolve",
    "Shutdown",
    "Message",
    "encode",
    "decode",
    "pack",
    "unpack",
    "read_message",
    "write_message",
]

#: Bump on any incompatible schema change; peers reject a mismatch.
#: v2 added the REGISTER message (server rejoin) and the RESOLVE
#: ``capacity`` field (capacity-aware shard routing).
PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload — a length prefix beyond this is
#: treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(ValueError):
    """Malformed frame or message (bad type, missing field, bad JSON)."""


class VersionMismatch(ProtocolError):
    """Peer speaks a different protocol version — refuse, don't guess."""


@dataclass(frozen=True)
class Register:
    """Server stub → orchestrator: hello / re-registration.

    Sent as the first message on every stub connection.  ``window`` is
    the first window the stub is live for — 0 on the initial connect; a
    restarted stub announces the window it rejoins at, and the
    orchestrator folds it back into membership at that window boundary
    (deterministic on both transports regardless of socket timing).
    ``incarnation`` counts restarts so a rejoin is distinguishable from
    a duplicate hello; ``speed`` is the stub's nominal speed, which the
    orchestrator validates against its config — a drifted speed vector
    between components would silently corrupt the solver.
    """

    type: ClassVar[str] = "register"
    server: int
    speed: float
    window: int = 0
    incarnation: int = 0


@dataclass(frozen=True)
class Submit:
    """Client → orchestrator: one control window of offered arrivals.

    ``times``/``sizes`` are the window's arrival stream in arrival
    order; ``final`` marks the last window of the run so the shard can
    finalize its report after resolving it.
    """

    type: ClassVar[str] = "submit"
    window: int
    times: tuple[float, ...]
    sizes: tuple[float, ...]
    final: bool = False


@dataclass(frozen=True)
class Dispatch:
    """Orchestrator → server stub: this window's slice for one server."""

    type: ClassVar[str] = "dispatch"
    window: int
    server: int
    times: tuple[float, ...]
    sizes: tuple[float, ...]


@dataclass(frozen=True)
class Complete:
    """Server stub → orchestrator: replayed departures for one slice.

    Arrays align with the Dispatch slice (per-server FCFS order).
    """

    type: ClassVar[str] = "complete"
    window: int
    server: int
    departures: tuple[float, ...]
    service_times: tuple[float, ...]


@dataclass(frozen=True)
class Heartbeat:
    """Server stub → orchestrator: liveness beacon.

    ``window`` is the last window the stub finished replaying; the
    registration beacon sent on connect uses ``window = -1``.
    ``free_at`` reports the server's backlog horizon — telemetry only,
    never fed to the estimators.
    """

    type: ClassVar[str] = "heartbeat"
    server: int
    window: int = -1
    free_at: float = 0.0


@dataclass(frozen=True)
class Resolve:
    """Orchestrator → client: window closed, control decision applied.

    Acknowledges the window (returning one flow-control credit to the
    client) and reports the boundary decision for observability.
    ``capacity`` publishes the shard's live capacity — the sum of
    nominal speeds of its currently-up servers — which the client's
    capacity-aware router folds into its shard weights; it moves only
    on membership edges.
    """

    type: ClassVar[str] = "resolve"
    window: int
    alphas: tuple[float, ...]
    swapped: bool
    reason: str
    offered: int
    admitted: int
    shed: int
    lost: int = 0
    final: bool = False
    capacity: float = 0.0


@dataclass(frozen=True)
class Shutdown:
    """Either direction: close this connection after processing."""

    type: ClassVar[str] = "shutdown"
    reason: str = ""


Message = (
    Register | Submit | Dispatch | Complete | Heartbeat | Resolve | Shutdown
)

_TYPES: dict[str, type] = {
    cls.type: cls
    for cls in (
        Register, Submit, Dispatch, Complete, Heartbeat, Resolve, Shutdown
    )
}

#: Fields that carry float sequences — normalized to tuples on decode
#: so dataclass equality (and hypothesis round-trip tests) are exact.
_SEQ_FIELDS = frozenset(
    {"times", "sizes", "departures", "service_times", "alphas"}
)

#: Per-job sequence pairs that must have one entry per job each; a
#: mismatch would otherwise broadcast through the Lindley replay.
_ALIGNED_FIELDS = {
    "submit": ("times", "sizes"),
    "dispatch": ("times", "sizes"),
    "complete": ("departures", "service_times"),
}


def encode(msg: Message) -> dict:
    """Message → versioned plain dict (JSON-ready)."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "type": msg.type}
    for f in dataclasses.fields(msg):
        value = getattr(msg, f.name)
        payload[f.name] = list(value) if f.name in _SEQ_FIELDS else value
    return payload


def decode(obj: Any) -> Message:
    """Versioned dict → message; tolerant of unknown fields.

    Raises :class:`VersionMismatch` on a foreign protocol version and
    :class:`ProtocolError` on anything else malformed, naming what was
    missing or unknown, or the two per-job sequences whose lengths
    differ.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(obj).__name__}")
    version = obj.get("v")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer speaks protocol version {version!r}; this build speaks "
            f"{PROTOCOL_VERSION} — upgrade one side, mixed versions are refused"
        )
    kind = obj.get("type")
    cls = _TYPES.get(kind)
    if cls is None:
        raise ProtocolError(
            f"unknown message type {kind!r}; known types: "
            f"{', '.join(sorted(_TYPES))}"
        )
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name in obj:
            value = obj[f.name]
            kwargs[f.name] = (
                tuple(float(x) for x in value)
                if f.name in _SEQ_FIELDS
                else value
            )
        elif f.default is dataclasses.MISSING:
            raise ProtocolError(
                f"{kind} message missing required field {f.name!r}"
            )
    if kind in _ALIGNED_FIELDS:
        a, b = _ALIGNED_FIELDS[kind]
        if len(kwargs[a]) != len(kwargs[b]):
            raise ProtocolError(
                f"malformed {kind} message: {a!r} has {len(kwargs[a])} "
                f"entries but {b!r} has {len(kwargs[b])}"
            )
    try:
        return cls(**kwargs)
    except TypeError as exc:  # e.g. a non-sequence where a list belongs
        raise ProtocolError(f"malformed {kind} message: {exc}") from exc


def pack(msg: Message) -> bytes:
    """Message → one length-prefixed wire frame."""
    body = json.dumps(encode(msg), separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to pack {msg.type!r} message: frame of "
            f"{len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LEN.pack(len(body)) + body


def unpack(frame: bytes) -> Message:
    """One complete wire frame → message (inverse of :func:`pack`)."""
    if len(frame) < _LEN.size:
        raise ProtocolError(f"truncated frame: {len(frame)} bytes")
    (length,) = _LEN.unpack_from(frame)
    body = frame[_LEN.size:]
    if len(body) != length:
        raise ProtocolError(
            f"frame length prefix says {length} bytes, got {len(body)}"
        )
    return _decode_body(bytes(body))


def _decode_body(body: bytes) -> Message:
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    return decode(obj)


async def read_message(reader) -> Message | None:
    """Read one framed message from an asyncio stream reader.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`ProtocolError` on EOF mid-frame or a corrupt length prefix.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} header bytes)"
        ) from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        # The type is undecodable before the payload is read, so the
        # refusal names everything the header gives us: the offending
        # length and the cap it breached.
        raise ProtocolError(
            f"refusing frame: length prefix {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap (stream corrupt or hostile peer)"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return _decode_body(body)


def write_message(writer, msg: Message) -> None:
    """Queue one framed message on an asyncio stream writer.

    The caller decides when to ``await writer.drain()`` — batching the
    drain per window keeps the dispatch fan-out at one syscall burst.
    """
    writer.write(pack(msg))
