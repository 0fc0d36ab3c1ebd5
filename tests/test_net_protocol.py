"""Protocol conformance tests for the networked dispatcher wire format.

Property-based (hypothesis) round-trips over every message type, plus
the forward/backward-compatibility contract: unknown fields are
tolerated, a foreign protocol version is rejected loudly, and corrupt
frames name what went wrong.  The per-job arrays cross as raw float64,
so every bit pattern must survive a frame round trip.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    PROTOCOL_VERSION,
    Complete,
    Dispatch,
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
from repro.net import protocol
from repro.net.protocol import MAX_FRAME_BYTES, write_message

# ---------------------------------------------------------------------------
# Strategies: one per message type.  JSON scalars are finite floats (JSON
# has no NaN); per-job arrays take any 64-bit pattern — NaN payloads,
# infinities, signed zeros and subnormals included.
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
float_seq = st.lists(finite, max_size=8).map(tuple)


def _as_f8(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _split_pairs(pairs):
    return _as_f8([a for a, _ in pairs]), _as_f8([b for _, b in pairs])


bits64 = st.integers(min_value=0, max_value=2**64 - 1)
#: Two equal-length float64 arrays: the per-job pairs a message carries.
aligned_seqs = st.lists(st.tuples(bits64, bits64), max_size=8).map(_split_pairs)
window = st.integers(min_value=0, max_value=10_000)
server = st.integers(min_value=0, max_value=63)

submits = st.builds(
    lambda window, seqs, final: Submit(window, *seqs, final=final),
    window=window, seqs=aligned_seqs, final=st.booleans(),
)
dispatches = st.builds(
    lambda window, server, seqs: Dispatch(window, server, *seqs),
    window=window, server=server, seqs=aligned_seqs,
)
completes = st.builds(
    lambda window, server, seqs: Complete(window, server, *seqs),
    window=window, server=server, seqs=aligned_seqs,
)
resolves = st.builds(
    Resolve, window=window, alphas=float_seq, swapped=st.booleans(),
    reason=st.sampled_from(["periodic", "membership", "slo"]),
    offered=st.integers(min_value=0, max_value=10**6),
    admitted=st.integers(min_value=0, max_value=10**6),
    shed=st.integers(min_value=0, max_value=10**6),
    lost=st.integers(min_value=0, max_value=10**6),
    final=st.booleans(),
    capacity=st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False, width=64
    ),
)
registers = st.builds(
    Register, server=server,
    speed=st.floats(
        min_value=0.001, allow_nan=False, allow_infinity=False, width=64
    ),
    window=window,
    incarnation=st.integers(min_value=0, max_value=100),
)
shutdowns = st.builds(Shutdown, reason=st.text(max_size=40))

messages = st.one_of(
    submits, dispatches, completes, registers, resolves, shutdowns,
)


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(msg=messages)
    @settings(max_examples=200)
    def test_codec_round_trip_is_exact(self, msg):
        assert decode(encode(msg)) == msg

    @given(msg=messages)
    @settings(max_examples=100)
    def test_frame_round_trip_is_exact(self, msg):
        assert unpack(pack(msg)) == msg

    @given(msg=messages)
    @settings(max_examples=100)
    def test_wire_layout_is_json_header_then_raw_float64(self, msg):
        # Payload length, header length, the JSON header — encode()
        # without the per-job arrays, plus their shared length "n" — then
        # one little-endian float64 body per array, in field order.
        frame = pack(msg)
        (length,) = struct.unpack_from(">I", frame)
        assert length == len(frame) - 4
        (head_len,) = struct.unpack_from(">I", frame, 4)
        header = json.loads(frame[8:8 + head_len])
        expected = encode(msg)
        names = {"submit": ("times", "sizes"), "dispatch": ("times", "sizes"),
                 "complete": ("departures", "service_times")}.get(msg.type, ())
        bodies = b"".join(
            np.asarray(getattr(msg, name), dtype="<f8").tobytes()
            for name in names
        )
        for name in names:
            del expected[name]
        if names:
            expected["n"] = len(getattr(msg, names[0]))
        assert header == expected
        assert frame[8 + head_len:] == bodies

    def test_nonfinite_and_signed_zero_survive_bitwise(self):
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0,
                           5e-324, np.finfo(float).max])
        payload = _as_f8([0x7FF0000000000001, 0xFFF8DEADBEEF0001])
        for msg in (
            Submit(window=0, times=values, sizes=values[::-1]),
            Dispatch(window=1, server=2, times=payload, sizes=payload),
            Complete(window=3, server=4, departures=values,
                     service_times=-values),
        ):
            got = unpack(pack(msg))
            assert got == msg
            for name in type(msg).arrays:
                assert getattr(got, name).tobytes() == getattr(msg, name).tobytes()
        assert np.signbit(unpack(pack(Submit(0, [-0.0], [0.0]))).times[0])

    def test_equality_is_bytewise(self):
        # NaN equals itself bitwise; -0.0 and 0.0 differ in their bits.
        nan = Submit(window=0, times=[np.nan], sizes=[1.0])
        assert nan == Submit(window=0, times=[np.nan], sizes=[1.0])
        assert Submit(0, [0.0], [1.0]) != Submit(0, [-0.0], [1.0])
        assert Submit(0, [0.0], [1.0]) != Submit(1, [0.0], [1.0])
        assert Submit(0, [0.0], [1.0]) != Submit(0, [0.0, 0.0], [1.0, 1.0])

    def test_decoded_arrays_are_read_only_views(self):
        msg = unpack(pack(Complete(
            window=0, server=1, departures=[1.0, 2.0], service_times=[0.5, 0.5]
        )))
        for arr in (msg.departures, msg.service_times):
            assert arr.dtype == np.float64 and arr.ndim == 1
            assert not arr.flags.writeable
            assert isinstance(arr.base, bytes)  # a view of the frame
            assert np.asarray(arr) is arr  # consumers never copy
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_every_type_has_a_distinct_tag(self):
        tags = {
            cls.type
            for cls in (
                Submit, Dispatch, Complete, Register, Resolve, Shutdown,
            )
        }
        assert len(tags) == 6


# ---------------------------------------------------------------------------
# Compatibility contract
# ---------------------------------------------------------------------------


class TestCompatibility:
    def test_unknown_fields_are_tolerated(self):
        msg = Register(server=3, speed=1.5, window=7, incarnation=2)
        obj = encode(msg)
        obj["ext_debug_tag"] = "from-a-newer-peer"
        obj["ext_numbers"] = [1, 2, 3]
        assert decode(obj) == msg

    @given(version=st.integers().filter(lambda v: v != PROTOCOL_VERSION))
    @settings(max_examples=50)
    def test_foreign_version_is_rejected(self, version):
        obj = encode(Shutdown(reason="x"))
        obj["v"] = version
        with pytest.raises(VersionMismatch) as excinfo:
            decode(obj)
        message = str(excinfo.value)
        assert str(version) in message
        assert str(PROTOCOL_VERSION) in message

    def test_missing_version_is_a_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            decode({"type": "shutdown"})

    def test_missing_required_field_names_it(self):
        obj = encode(Dispatch(window=1, server=2, times=(0.5,), sizes=(1.0,)))
        del obj["sizes"]
        with pytest.raises(ProtocolError, match="sizes"):
            decode(obj)

    def test_optional_fields_take_defaults(self):
        obj = encode(Submit(window=0, times=(), sizes=()))
        del obj["final"]
        assert decode(obj) == Submit(window=0, times=(), sizes=())

    def test_unknown_type_lists_known_ones(self):
        # "heartbeat" was a v3 type; this version no longer knows it.
        for kind in ("teleport", "heartbeat"):
            with pytest.raises(ProtocolError, match="unknown message type"):
                decode({"v": PROTOCOL_VERSION, "type": kind})

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode([1, 2, 3])

    @pytest.mark.parametrize(
        "obj, fields",
        [
            ({"type": "submit", "window": 0, "times": [0.0, 1.0],
              "sizes": [1.0]}, ("'times' has 2", "'sizes' has 1")),
            ({"type": "dispatch", "window": 0, "server": 0,
              "times": [0.0, 1.0, 2.0], "sizes": [4.0]},
             ("'times' has 3", "'sizes' has 1")),
            ({"type": "complete", "window": 0, "server": 1,
              "departures": [2.0], "service_times": [2.0, 1.0]},
             ("'departures' has 1", "'service_times' has 2")),
        ],
    )
    def test_misaligned_job_sequences_are_rejected(self, obj, fields):
        # A short 'sizes' would broadcast through the stub's replay and
        # answer with departures no real job stream produces.
        with pytest.raises(ProtocolError) as excinfo:
            decode({"v": PROTOCOL_VERSION, **obj})
        for field in fields:
            assert field in str(excinfo.value)

    def test_array_fields_decode_to_float64_arrays(self):
        obj = encode(Complete(
            window=1, server=0, departures=(1.0, 2.0), service_times=(0.5, 0.5)
        ))
        msg = decode(json.loads(json.dumps(obj)))  # lists after JSON
        for arr, want in ((msg.departures, [1.0, 2.0]),
                          (msg.service_times, [0.5, 0.5])):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.ndim == 1
            assert arr.tobytes() == np.array(want).tobytes()
        resolve = decode(json.loads(json.dumps(encode(Resolve(
            window=0, alphas=(0.25, 0.75), swapped=False, reason="periodic",
            offered=0, admitted=0, shed=0,
        )))))
        assert resolve.alphas == (0.25, 0.75)  # not a per-job array

    def test_non_numeric_array_is_rejected(self):
        obj = encode(Submit(window=0, times=(1.0,), sizes=(1.0,)))
        obj["sizes"] = ["heavy"]
        with pytest.raises(ProtocolError, match="sizes"):
            decode(obj)


# ---------------------------------------------------------------------------
# Frame hygiene
# ---------------------------------------------------------------------------


class TestFrames:
    def test_truncated_frame_is_rejected(self):
        frame = pack(Shutdown())
        with pytest.raises(ProtocolError, match="length prefix"):
            unpack(frame[:-1])

    def test_short_header_is_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            unpack(b"\x00\x00")

    def test_garbage_payload_is_rejected(self):
        head = b"not json at all"
        payload = struct.pack(">I", len(head)) + head
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="not valid JSON"):
            unpack(frame)

    def test_oversize_frame_refused_on_pack(self):
        msg = Shutdown(reason="x" * (MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="cap"):
            pack(msg)

    def test_pack_cap_violation_names_type_and_length(self):
        # The contract: a refused frame must say *which* message type
        # overflowed and *how large* the frame was, so an operator can
        # find the producer without a packet capture.
        msg = Shutdown(reason="x" * (MAX_FRAME_BYTES + 1))
        # Payload: the header length, then the JSON header (no arrays).
        payload_len = 4 + len(
            json.dumps(encode(msg), separators=(",", ":")).encode()
        )
        with pytest.raises(ProtocolError) as excinfo:
            pack(msg)
        text = str(excinfo.value)
        assert "'shutdown'" in text
        assert str(payload_len) in text
        assert str(MAX_FRAME_BYTES) in text

    def test_pack_refuses_misaligned_arrays_naming_both_fields(self):
        msg = Complete(window=0, server=1, departures=[1.0, 2.0],
                       service_times=[0.5])
        with pytest.raises(ProtocolError) as excinfo:
            pack(msg)
        text = str(excinfo.value)
        assert "'departures' has 2" in text
        assert "'service_times' has 1" in text

    def test_pack_refuses_non_vector_arrays(self):
        msg = Submit(window=0, times=[[1.0]], sizes=[[1.0]])
        with pytest.raises(ProtocolError, match="1-D"):
            pack(msg)

    @staticmethod
    def frame(header: dict, body: bytes = b"") -> bytes:
        head = json.dumps(header).encode()
        payload = struct.pack(">I", len(head)) + head + body
        return struct.pack(">I", len(payload)) + payload

    @pytest.mark.parametrize("cut", [1, 8, 9])
    def test_truncated_array_body_is_rejected(self, cut):
        frame = pack(Submit(window=0, times=[1.0, 2.0], sizes=[3.0, 4.0]))
        short = frame[:-cut]
        short = struct.pack(">I", len(short) - 4) + short[4:]
        with pytest.raises(ProtocolError, match="array bytes"):
            unpack(short)

    def test_trailing_bytes_after_an_arrayless_header_are_rejected(self):
        frame = self.frame(encode(Register(server=1, speed=2.0)), b"\0" * 8)
        with pytest.raises(ProtocolError, match="array bytes"):
            unpack(frame)

    def test_header_length_past_payload_is_rejected(self):
        head = json.dumps(encode(Shutdown())).encode()
        payload = struct.pack(">I", len(head) + 1) + head
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="runs past"):
            unpack(frame)

    def test_payload_too_short_for_a_header_length_is_rejected(self):
        with pytest.raises(ProtocolError, match="no header length"):
            unpack(struct.pack(">I", 2) + b"\0\0")

    @pytest.mark.parametrize("n", ["missing", -1, 1.0, "1", True, None])
    def test_bad_job_count_is_rejected(self, n):
        header = {"v": PROTOCOL_VERSION, "type": "dispatch", "window": 0,
                  "server": 0}
        if n != "missing":
            header["n"] = n
        frame = self.frame(header, np.ones(2).tobytes())
        with pytest.raises(ProtocolError, match="'n'"):
            unpack(frame)

    def test_v2_frame_is_a_version_mismatch(self):
        # v2 sent the whole message, arrays included, as one JSON object.
        body = json.dumps({"v": 2, "type": "submit", "window": 0,
                           "times": [0.5], "sizes": [1.0]}).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(VersionMismatch, match="version 2"):
            unpack(frame)
        with pytest.raises(VersionMismatch):
            _read_all(frame)

    def test_v3_frame_is_a_version_mismatch(self):
        # A v3 frame has this version's layout; only its header's "v"
        # tells it apart, and that is enough to refuse it.
        header = {"v": 3, "type": "complete", "window": 0, "server": 1,
                  "n": 1}
        frame = self.frame(header, np.ones(2).tobytes())
        with pytest.raises(VersionMismatch, match="version 3"):
            unpack(frame)

    def test_bare_json_payload_is_refused_even_at_this_version(self):
        body = json.dumps(encode(Shutdown())).encode()
        with pytest.raises(ProtocolError, match="bare JSON"):
            unpack(struct.pack(">I", len(body)) + body)

    def test_read_cap_violation_names_length(self):
        bad = MAX_FRAME_BYTES + 17
        with pytest.raises(ProtocolError) as excinfo:
            _read_all(struct.pack(">I", bad))
        text = str(excinfo.value)
        assert str(bad) in text
        assert str(MAX_FRAME_BYTES) in text


def _read_all(data: bytes) -> list:
    """Every message a :class:`FrameReader` fed *data* splits off, then
    its end-of-stream check."""
    reader = protocol.FrameReader()
    reader.feed(data)
    got = []
    while (msg := reader.next()) is not None:
        got.append(msg)
    reader.eof()
    return got


#: One fixed message of each type and the SHA-256 of its v4 frame: the
#: codec may be rewritten, the bytes on the wire may not move.
PINNED_FRAMES = [
    (Register(server=2, speed=3.5, window=7, incarnation=1),
     "13784428e340d885e68de1eaa95c4f5f5c99d732b2213fbb729eeb1bc18758c0"),
    (Submit(window=3, times=[0.1, 1.25, 2.0], sizes=[1.0, 1e-300, 3.5],
            final=True),
     "14be34e0cb8be5dfa4b7d3c3c5bcba154cb6417ad5d743423cdd509d20451e48"),
    (Dispatch(window=3, server=1, times=[0.1, 2.0], sizes=[1.0, 3.5]),
     "88d77a53b00e71a2e5e67abd2805b91f84635e8839be2e2f0c509f27ff61d4e6"),
    (Complete(window=3, server=1, departures=[-0.0, 5.5],
              service_times=[1.0, 3.5]),
     "f34763ce13f0fe5562ea652d320ae94e15f1355d772999f18a2b9cf4d5e6894c"),
    (Resolve(window=3, alphas=(0.1, 0.2, 0.3, 0.4), swapped=True,
             reason="membership", offered=3, admitted=2, shed=1, lost=1,
             final=False, capacity=10.0),
     "07caa0009e3e152fa7d4db9124f43b0a2b4dabd00bff3e5f3a31dcf02219bdc9"),
    (Shutdown(reason="run complete"),
     "67d6e5fc8b1b0de78c3be82bc5a92e053428741878a49f5a97c8108d081f6aa7"),
]


class TestPinnedFrames:
    @pytest.mark.parametrize(
        "msg, digest", PINNED_FRAMES, ids=[m.type for m, _ in PINNED_FRAMES]
    )
    def test_v4_frame_bytes_are_pinned(self, msg, digest):
        frame = pack(msg)
        assert hashlib.sha256(frame).hexdigest() == digest
        assert unpack(frame) == msg
        assert pack(unpack(frame)) == frame


_text = st.text(max_size=12)
_float = st.floats(allow_nan=True, allow_infinity=True)


@given(
    msg=st.one_of(
        st.builds(Register, server=st.integers(), speed=_float,
                  window=st.integers(), incarnation=st.integers()),
        st.builds(Resolve, window=st.integers(),
                  alphas=st.lists(_float, max_size=5).map(tuple),
                  swapped=st.booleans(), reason=_text,
                  offered=st.integers(), admitted=st.integers(),
                  shed=st.integers(), lost=st.integers(),
                  final=st.booleans(), capacity=_float),
        st.builds(Shutdown, reason=_text),
        st.builds(Register, server=st.just(np.int64(3)),
                  speed=st.just(np.float64(0.1))),
    ),
    n=st.one_of(st.none(), st.integers(min_value=0)),
)
@settings(max_examples=300, deadline=None)
def test_header_text_is_the_json_encoders(msg, n):
    """The codec writes plain header values itself; the bytes must be
    ``json.dumps``'s, and anything else must go through json."""
    spec = protocol._SPECS[msg.type]
    header = protocol._header(msg, spec)
    if n is not None:
        header["n"] = n
    try:
        want = json.dumps(header, separators=(",", ":"))
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            protocol._header_json(msg, spec, n)
        return
    assert protocol._header_json(msg, spec, n) == want


class _SinkWriter:
    """Minimal stand-in capturing write_message output."""

    def __init__(self):
        self.buffer = b""

    def write(self, data):
        self.buffer += data


class TestStreamIO:
    """``write_message`` out, a :class:`FrameReader` back in: the stream
    a socket's ``data_received`` feeds, no sockets needed."""

    def test_read_back_what_was_written(self):
        sink = _SinkWriter()
        sent = [
            Register(server=1, speed=2.0),
            Dispatch(window=0, server=1, times=(0.25,), sizes=(2.0,)),
            Shutdown(reason="done"),
        ]
        for msg in sent:
            write_message(sink, msg)
        assert _read_all(sink.buffer) == sent

    def test_clean_eof_returns_none(self):
        assert _read_all(b"") == []
        reader = protocol.FrameReader()
        reader.feed(pack(Shutdown()))
        assert reader.next() == Shutdown()
        assert reader.next() is None
        reader.eof()  # at a frame boundary: no error

    def test_eof_mid_frame_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_all(pack(Shutdown())[:-2])

    def test_eof_mid_header_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_all(b"\x00\x00")

    def test_absurd_length_prefix_refused_before_allocating(self):
        reader = protocol.FrameReader()
        reader.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="cap"):
            reader.next()


# ---------------------------------------------------------------------------
# Incremental frame splitting (what a socket's data_received feeds)
# ---------------------------------------------------------------------------


def _chunked(stream: bytes, cuts):
    """*stream* split at the (sorted, deduplicated) offsets *cuts*."""
    edges = [0, *sorted({c % (len(stream) + 1) for c in cuts}), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


class TestFrameReader:
    @given(
        msgs=st.lists(messages, min_size=1, max_size=6),
        cuts=st.lists(st.integers(min_value=0), max_size=12),
    )
    @settings(max_examples=200)
    def test_any_chunking_decodes_to_the_frames_messages(self, msgs, cuts):
        frames = [pack(m) for m in msgs]
        reader = protocol.FrameReader()
        got = []
        for chunk in _chunked(b"".join(frames), cuts):
            reader.feed(chunk)
            while (msg := reader.next()) is not None:
                got.append(msg)
        reader.eof()  # nothing left over
        assert got == [unpack(f) for f in frames]
        for msg in got:
            for name in getattr(msg, "arrays", ()):
                assert not getattr(msg, name).flags.writeable

    @given(msg=messages, cut=st.integers(min_value=1))
    @settings(max_examples=100)
    def test_eof_mid_frame_names_the_bytes_read(self, msg, cut):
        frame = pack(msg)
        partial = frame[:cut % len(frame)] or frame[:1]
        reader = protocol.FrameReader()
        reader.feed(partial)
        assert reader.next() is None
        with pytest.raises(ProtocolError) as torn:
            reader.eof()
        if len(partial) < 4:
            want = f"({len(partial)} header bytes)"
        else:
            want = f"({len(partial) - 4}/{len(frame) - 4} bytes)"
        assert str(torn.value) == f"connection closed mid-frame {want}"
