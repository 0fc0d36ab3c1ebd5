"""Versioned wire protocol of the networked dispatcher service.

Six message types flow between the three components (see DESIGN.md
§11): a server stub announces itself with a REGISTER (on first connect
and again when a restarted stub rejoins), the load client SUBMITs one
control window of arrivals to an orchestrator shard, the shard
DISPATCHes per-server slices to its server stubs, each stub answers
with one COMPLETE (departure and service times), its only reply, and
the shard closes the window with a RESOLVE back to the client — which
doubles as the client's flow-control credit and publishes the shard's
live capacity for the client's weighted router.  SHUTDOWN tears a
connection down cleanly in either direction.

Frames are length-prefixed: a 4-byte big-endian payload length, then
the payload.  The payload is a 4-byte big-endian header length, a UTF-8
JSON header, and — for SUBMIT, DISPATCH and COMPLETE — one raw
little-endian float64 body of ``n·8`` bytes per per-job array, in field
order.  The header is :func:`encode` of the message without its
per-job arrays, plus ``"n"``, the one length both arrays share, so the
pair is aligned by construction.  Raw float64 is exact, so the
live-socket mode stays bit-comparable to the in-process mode with no
argument about float formatting.  Every header carries
``{"v": .., "type": ..}``; decoding tolerates unknown fields (forward
compatibility: a newer peer may add fields) but rejects a different
major version loudly — silent cross-version traffic is how
heterogeneous fleets corrupt estimator state.

SUBMIT, DISPATCH and COMPLETE hold their per-job arrays as 1-D float64
``ndarray``s, and compare by the bytes of those arrays plus their
scalar fields.  A decoded message's arrays are read-only
``np.frombuffer`` views of the frame; consumers read them, never write.

The codec is sans-IO: :func:`encode` / :func:`decode` map messages to
and from plain dicts (arrays as lists; for debugging and tests),
:func:`pack` / :func:`unpack` map them to and from frame bytes, and
only :func:`read_message` / :func:`write_message` touch asyncio
streams.  The in-process transport round-trips every message through
``unpack(pack(msg))`` so simulation mode exercises the exact codec the
sockets use.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "VersionMismatch",
    "Register",
    "Submit",
    "Dispatch",
    "Complete",
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
#: ``capacity`` field (capacity-aware shard routing); v3 moved the
#: per-job arrays out of the JSON into raw float64 bodies; v4 dropped
#: the stub's liveness beacon, so a COMPLETE is its only reply.
PROTOCOL_VERSION = 4

#: Upper bound on one frame's payload — a length prefix beyond this is
#: treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
#: Wire dtype of the per-job array bodies.
_F8 = np.dtype("<f8")


class ProtocolError(ValueError):
    """Malformed frame or message (bad type, missing field, bad JSON),
    or a message the receiver does not await."""


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


class _JobArrays:
    """Coercion and equality of the messages that carry per-job arrays.

    ``arrays`` names the two per-job fields; they hold 1-D float64
    arrays (anything array-like is converted on construction, an
    ``ndarray`` of that dtype is kept as it is, never copied).  Two
    messages are equal when their arrays are equal byte for byte — NaN
    payloads and the sign of zero included — and their scalar fields
    are equal.
    """

    arrays: ClassVar[tuple[str, str]]

    def __post_init__(self):
        for name in self.arrays:
            value = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name in self.arrays:
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    return False
            elif a != b:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Submit(_JobArrays):
    """Client → orchestrator: one control window of offered arrivals.

    ``times``/``sizes`` are the window's arrival stream in arrival
    order; ``final`` marks the last window of the run so the shard can
    finalize its report after resolving it.
    """

    type: ClassVar[str] = "submit"
    arrays: ClassVar[tuple[str, str]] = ("times", "sizes")
    window: int
    times: np.ndarray
    sizes: np.ndarray
    final: bool = False


@dataclass(frozen=True, eq=False)
class Dispatch(_JobArrays):
    """Orchestrator → server stub: this window's slice for one server."""

    type: ClassVar[str] = "dispatch"
    arrays: ClassVar[tuple[str, str]] = ("times", "sizes")
    window: int
    server: int
    times: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True, eq=False)
class Complete(_JobArrays):
    """Server stub → orchestrator: replayed departures for one slice.

    Arrays align with the Dispatch slice (per-server FCFS order).
    """

    type: ClassVar[str] = "complete"
    arrays: ClassVar[tuple[str, str]] = ("departures", "service_times")
    window: int
    server: int
    departures: np.ndarray
    service_times: np.ndarray


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


Message = Register | Submit | Dispatch | Complete | Resolve | Shutdown

_TYPES: dict[str, type] = {
    cls.type: cls
    for cls in (Register, Submit, Dispatch, Complete, Resolve, Shutdown)
}

#: Message type → its two per-job array fields, in body order.
_ARRAYS: dict[str, tuple[str, str]] = {
    cls.type: cls.arrays for cls in (Submit, Dispatch, Complete)
}


def _header(msg: Message) -> dict[str, Any]:
    """:func:`encode` of *msg* without its per-job arrays."""
    arrays = _ARRAYS.get(msg.type, ())
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "type": msg.type}
    for f in dataclasses.fields(msg):
        if f.name in arrays:
            continue
        value = getattr(msg, f.name)
        payload[f.name] = list(value) if f.name == "alphas" else value
    return payload


def encode(msg: Message) -> dict:
    """Message → versioned plain dict (JSON-ready; arrays as lists)."""
    payload = _header(msg)
    for name in _ARRAYS.get(msg.type, ()):
        payload[name] = getattr(msg, name).tolist()
    return payload


def _message_class(obj: Any) -> type:
    """The message class a versioned dict names.

    Raises :class:`VersionMismatch` on a foreign protocol version and
    :class:`ProtocolError` on a non-object or an unknown type.
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
    return cls


def _job_count(kind: str, names: tuple[str, str], arrays) -> int:
    """The one length a message's per-job arrays share.

    Refuses arrays that are not 1-D, and a pair whose lengths differ —
    a short ``sizes`` would otherwise broadcast through the Lindley
    replay — naming both fields.
    """
    for name, arr in zip(names, arrays):
        if arr.ndim != 1:
            raise ProtocolError(
                f"malformed {kind} message: {name!r} must be 1-D, "
                f"got shape {arr.shape}"
            )
    (a, b), (x, y) = names, arrays
    if x.size != y.size:
        raise ProtocolError(
            f"malformed {kind} message: {a!r} has {x.size} entries but "
            f"{b!r} has {y.size}"
        )
    return int(x.size)


def decode(obj: Any) -> Message:
    """Versioned dict → message; tolerant of unknown fields.

    Raises :class:`VersionMismatch` on a foreign protocol version and
    :class:`ProtocolError` on anything else malformed, naming what was
    missing or unknown, or the two per-job arrays whose lengths differ.
    """
    cls = _message_class(obj)
    kind = cls.type
    arrays = _ARRAYS.get(kind, ())
    kwargs: dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name in obj:
            value = obj[f.name]
            if f.name in arrays:
                try:
                    value = np.asarray(value, dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise ProtocolError(
                        f"malformed {kind} message: {f.name!r} is not a "
                        f"float array: {exc}"
                    ) from exc
            elif f.name == "alphas":
                value = tuple(float(x) for x in value)
            kwargs[f.name] = value
        elif f.default is dataclasses.MISSING:
            raise ProtocolError(
                f"{kind} message missing required field {f.name!r}"
            )
    if arrays:
        _job_count(kind, arrays, [kwargs[name] for name in arrays])
    try:
        return cls(**kwargs)
    except TypeError as exc:  # e.g. a non-sequence where a list belongs
        raise ProtocolError(f"malformed {kind} message: {exc}") from exc


def pack(msg: Message) -> bytes:
    """Message → one length-prefixed wire frame."""
    names = _ARRAYS.get(msg.type, ())
    header = _header(msg)
    arrays = [getattr(msg, name) for name in names]
    n = 0
    if names:
        n = header["n"] = _job_count(msg.type, names, arrays)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    length = _LEN.size + len(head) + len(arrays) * n * _F8.itemsize
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to pack {msg.type!r} message: frame of "
            f"{length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return b"".join([
        _LEN.pack(length), _LEN.pack(len(head)), head,
        *(np.asarray(a, dtype=_F8).tobytes() for a in arrays),
    ])


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


def _parse_json(data: bytes) -> Any:
    try:
        return json.loads(data)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from exc


def _decode_body(body: bytes) -> Message:
    """One frame payload → message; the arrays view *body*, read-only."""
    if body[:1] == b"{":
        # A pre-v3 peer: the whole payload is one JSON object.  Decode
        # its header only to refuse it by the version it names.
        _message_class(_parse_json(body))
        raise ProtocolError(
            "frame payload is bare JSON; since v3 a payload starts with "
            "a header length"
        )
    if len(body) < _LEN.size:
        raise ProtocolError(
            f"truncated payload: {len(body)} bytes, no header length"
        )
    (head_len,) = _LEN.unpack_from(body)
    start = _LEN.size + head_len
    if start > len(body):
        raise ProtocolError(
            f"header length {head_len} runs past the {len(body)}-byte payload"
        )
    obj = _parse_json(body[_LEN.size:start])
    cls = _message_class(obj)
    names = _ARRAYS.get(cls.type, ())
    n = 0
    if names:
        n = obj.get("n")
        if type(n) is not int or n < 0:
            raise ProtocolError(
                f"{cls.type} header needs a non-negative integer 'n', "
                f"got {n!r}"
            )
    width = n * _F8.itemsize
    if len(body) - start != len(names) * width:
        raise ProtocolError(
            f"{cls.type} frame carries {len(body) - start} array bytes; "
            f"n={n} needs {len(names) * width}"
        )
    for i, name in enumerate(names):
        obj[name] = np.frombuffer(body, dtype=_F8, count=n,
                                  offset=start + i * width)
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
