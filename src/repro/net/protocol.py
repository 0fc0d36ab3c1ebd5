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
:class:`FrameReader` splits a byte stream, fed in chunks of any size,
into messages.  Only :func:`write_message` (anything with ``.write``:
a stream writer or a transport) touches an I/O object.  The in-process
transport round-trips every message through ``unpack(pack(msg))`` so
simulation mode exercises the exact codec the sockets use.
"""

from __future__ import annotations

import dataclasses
import json
import math
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
    "FrameReader",
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
#: Whether a body's arrays already are the float64 a message holds.
_F8_NATIVE = _F8 == np.dtype(np.float64)


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
        for name, _, _ in _SPECS[self.type].fields:
            a, b = getattr(self, name), getattr(other, name)
            if name in self.arrays:
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

_REQUIRED = object()


@dataclass(frozen=True)
class _Spec:
    """One message class's field table, built once at import.

    ``fields`` gives every field's name, default (``_REQUIRED`` when it
    has none) and kind (``_PLAIN``, ``_ARRAY`` for a per-job array,
    ``_FLOATS`` for a tuple of floats), in declaration order — the order
    of the JSON header and of the missing-field check.  ``header`` names
    the fields the JSON header carries (all but the per-job ``arrays``,
    which travel as the body, in order); ``prefix`` and ``keys`` are
    that header's fixed JSON text.
    """

    cls: type
    fields: tuple[tuple[str, Any, int], ...]
    header: tuple[str, ...]
    arrays: tuple[str, ...]
    prefix: str
    keys: tuple[str, ...]


_PLAIN, _ARRAY, _FLOATS = 0, 1, 2

#: ``json.dumps(obj, separators=(",", ":"))``: how a header is encoded.
_json_dumps = json.JSONEncoder(separators=(",", ":")).encode
_json_str = json.encoder.encode_basestring_ascii


def _spec(cls: type) -> _Spec:
    arrays = getattr(cls, "arrays", ())
    fields = tuple(
        (
            f.name,
            _REQUIRED if f.default is dataclasses.MISSING else f.default,
            _ARRAY if f.name in arrays
            else _FLOATS if f.name == "alphas" else _PLAIN,
        )
        for f in dataclasses.fields(cls)
    )
    header = tuple(name for name, _, kind in fields if kind != _ARRAY)
    return _Spec(
        cls=cls,
        fields=fields,
        header=header,
        arrays=arrays,
        prefix=_json_dumps({"v": PROTOCOL_VERSION, "type": cls.type})[:-1],
        keys=tuple(f",{_json_dumps(name)}:" for name in header),
    )


#: Message type → its field table.
_SPECS: dict[str, _Spec] = {
    cls.type: _spec(cls)
    for cls in (Register, Submit, Dispatch, Complete, Resolve, Shutdown)
}


def _json_float(x: float) -> str:
    """A float as :mod:`json` writes it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _header_json(msg: Message, spec: _Spec, n: int | None) -> str:
    """``json.dumps`` of :func:`_header` (plus ``"n"`` unless None),
    compact separators.

    Header fields hold ints, bools, strings, floats and the tuple of
    floats ``alphas``; those are written here the way the JSON encoder
    writes them, and a message holding anything else goes through the
    encoder itself — the text is the encoder's either way.
    """
    parts = [spec.prefix]
    for name, key in zip(spec.header, spec.keys):
        v = getattr(msg, name)
        t = type(v)
        if t is int:
            text = int.__repr__(v)
        elif t is bool:
            text = "true" if v else "false"
        elif t is str:
            text = _json_str(v)
        elif t is float:
            text = _json_float(v)
        elif t is tuple and all(type(x) is float for x in v):
            text = "[" + ",".join(map(_json_float, v)) + "]"
        else:
            header = _header(msg, spec)
            if n is not None:
                header["n"] = n
            return _json_dumps(header)
        parts += (key, text)
    if n is not None:
        parts += (',"n":', int.__repr__(n))
    parts.append("}")
    return "".join(parts)


def _header(msg: Message, spec: _Spec) -> dict[str, Any]:
    """:func:`encode` of *msg* without its per-job arrays."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "type": msg.type}
    for name in spec.header:
        payload[name] = getattr(msg, name)
    if "alphas" in payload:
        payload["alphas"] = list(payload["alphas"])
    return payload


def encode(msg: Message) -> dict:
    """Message → versioned plain dict (JSON-ready; arrays as lists)."""
    spec = _SPECS[msg.type]
    payload = _header(msg, spec)
    for name in spec.arrays:
        payload[name] = getattr(msg, name).tolist()
    return payload


def _message_spec(obj: Any) -> _Spec:
    """The field table of the message class a versioned dict names.

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
    spec = _SPECS.get(kind)
    if spec is None:
        raise ProtocolError(
            f"unknown message type {kind!r}; known types: "
            f"{', '.join(sorted(_SPECS))}"
        )
    return spec


def _job_count(kind: str, names: tuple[str, str], arrays) -> int:
    """The one length a message's per-job arrays share.

    Refuses arrays that are not 1-D, and a pair whose lengths differ —
    a short ``sizes`` would otherwise broadcast through the Lindley
    replay — naming both fields.
    """
    x, y = arrays
    if x.ndim == 1 and y.ndim == 1 and x.size == y.size:
        return x.size
    for name, arr in zip(names, arrays):
        if arr.ndim != 1:
            raise ProtocolError(
                f"malformed {kind} message: {name!r} must be 1-D, "
                f"got shape {arr.shape}"
            )
    (a, b) = names
    raise ProtocolError(
        f"malformed {kind} message: {a!r} has {x.size} entries but "
        f"{b!r} has {y.size}"
    )


def decode(obj: Any) -> Message:
    """Versioned dict → message; tolerant of unknown fields.

    Raises :class:`VersionMismatch` on a foreign protocol version and
    :class:`ProtocolError` on anything else malformed, naming what was
    missing or unknown, or the two per-job arrays whose lengths differ.
    """
    return _build(_message_spec(obj), obj)


def _build(spec: _Spec, obj: dict, framed: bool = False) -> Message:
    """The message *obj* describes, written straight into a new instance.

    Every field is read, converted and defaulted here, so the class's
    own ``__init__`` (and its array coercion) has nothing left to do.
    ``framed``: the per-job arrays are a frame body's native float64
    views, of one length by construction, so need no conversion.
    """
    cls = spec.cls
    values: dict[str, Any] = {}
    for name, default, kind in spec.fields:
        value = obj.get(name, default)
        if value is _REQUIRED:
            raise ProtocolError(
                f"{cls.type} message missing required field {name!r}"
            )
        if kind == _FLOATS:
            value = tuple(map(float, value))
        elif kind == _ARRAY and not framed:
            try:
                value = np.asarray(value, np.float64)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed {cls.type} message: {name!r} is not a "
                    f"float array: {exc}"
                ) from exc
        values[name] = value
    if spec.arrays and not framed:
        _job_count(cls.type, spec.arrays, [values[name] for name in spec.arrays])
    msg = cls.__new__(cls)
    msg.__dict__.update(values)
    return msg


def pack(msg: Message) -> bytes:
    """Message → one length-prefixed wire frame."""
    spec = _SPECS[msg.type]
    names = spec.arrays
    arrays = [np.ascontiguousarray(getattr(msg, name), _F8) for name in names]
    n = _job_count(msg.type, names, arrays) if names else None
    head = _header_json(msg, spec, n).encode("utf-8")
    n = n or 0
    length = _LEN.size + len(head) + len(arrays) * n * _F8.itemsize
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to pack {msg.type!r} message: frame of "
            f"{length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return b"".join([_LEN.pack(length), _LEN.pack(len(head)), head, *arrays])


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


_raw_decode_json = json.JSONDecoder().raw_decode


def _parse_json(data) -> Any:
    data = bytes(data)  # a header slice of a memoryview payload
    try:
        if data[:2] == b'{"':
            # json.loads' own steps for an object header with nothing
            # around it: UTF-8, one raw decode from offset 0.
            text = data.decode("utf-8", "surrogatepass")
            obj, end = _raw_decode_json(text)
            if end == len(text):
                return obj
        return json.loads(data)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from exc


def _decode_body(body) -> Message:
    """One frame payload → message; the arrays view *body*, read-only.

    *body* is ``bytes`` or a memoryview of ``bytes``.
    """
    if body[:1] == b"{":
        # A pre-v3 peer: the whole payload is one JSON object.  Decode
        # its header only to refuse it by the version it names.
        _message_spec(_parse_json(body))
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
    spec = _message_spec(obj)
    names = spec.arrays
    n = 0
    if names:
        n = obj.get("n")
        if type(n) is not int or n < 0:
            raise ProtocolError(
                f"{spec.cls.type} header needs a non-negative integer 'n', "
                f"got {n!r}"
            )
    width = n * _F8.itemsize
    if len(body) - start != len(names) * width:
        raise ProtocolError(
            f"{spec.cls.type} frame carries {len(body) - start} array bytes; "
            f"n={n} needs {len(names) * width}"
        )
    for i, name in enumerate(names):
        # Positional arguments: keyword parsing would double the call.
        obj[name] = np.frombuffer(body, _F8, n, start + i * width)
    return _build(spec, obj, framed=_F8_NATIVE)


def _frame_length(prefix, offset: int = 0) -> int:
    """The payload length a frame's 4-byte prefix at *offset* announces.

    The stream reader's length-prefix check: a length beyond
    :data:`MAX_FRAME_BYTES` is refused before its payload is read.  The
    type is undecodable then, so the refusal names everything the
    prefix gives: the offending length and the cap it breached.
    """
    (length,) = _LEN.unpack_from(prefix, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing frame: length prefix {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap (stream corrupt or hostile peer)"
        )
    return length


def _torn(got: int, length: int | None) -> ProtocolError:
    """The error for a stream that ended *got* bytes into a frame.

    *length* is the payload length, or None when the prefix itself was
    cut short (*got* header bytes).
    """
    if length is None:
        return ProtocolError(f"connection closed mid-frame ({got} header bytes)")
    return ProtocolError(f"connection closed mid-frame ({got}/{length} bytes)")


class FrameReader:
    """Incremental frame splitter: byte chunks in, messages out.

    :meth:`feed` appends whatever a socket delivered — any fragment of
    one frame, or several frames at once — and :meth:`next` returns the
    next complete message, or None until its last byte is in.  Bytes
    past a frame wait, undecoded, until asked for, so a reader that
    stops calling :meth:`next` buffers bytes, not messages.  A frame
    that ends its chunk — on a request/reply link, nearly every frame —
    is decoded in place, and the reader lets go of the chunk; one that
    shares its chunk with the next is copied out first.  Either way its
    arrays are read-only views of the frame.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self):
        self._buf = b""
        self._pos = 0

    def feed(self, data: bytes) -> None:
        buf, pos = self._buf, self._pos
        if pos == len(buf):
            self._buf, self._pos = bytes(data), 0
            return
        # A frame arriving in pieces grows in place: linear, not
        # quadratic, in the number of pieces.
        if pos or type(buf) is bytes:
            buf = bytearray(memoryview(buf)[pos:])
        buf += data
        self._buf, self._pos = buf, 0

    def next(self) -> Message | None:
        """The next complete message, or None if its bytes are not in.

        Raises :class:`ProtocolError` on a length prefix over the cap or
        a payload that does not decode; the stream is unusable then.
        """
        buf, pos = self._buf, self._pos
        if len(buf) - pos < _LEN.size:
            return None
        start = pos + _LEN.size
        end = start + _frame_length(buf, pos)
        if end > len(buf):
            return None
        if type(buf) is bytearray:  # the pieces are in: freeze them
            buf = self._buf = bytes(buf)
        if end == len(buf):
            self._buf, self._pos = b"", 0
            return _decode_body(memoryview(buf)[start:])
        self._pos = end
        return _decode_body(buf[start:end])

    def eof(self) -> None:
        """The stream ended: raise :class:`ProtocolError` if mid-frame."""
        got = len(self._buf) - self._pos
        if not got:
            return
        if got < _LEN.size:
            raise _torn(got, None)
        raise _torn(got - _LEN.size, _frame_length(self._buf, self._pos))


def write_message(writer, msg: Message) -> None:
    """Queue one framed message on *writer*: anything with ``.write``.

    An asyncio transport and a stream writer both qualify; waiting for
    the write buffer to drain, if at all, is the caller's business.
    """
    writer.write(pack(msg))
