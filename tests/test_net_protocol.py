"""Protocol conformance tests for the networked dispatcher wire format.

Property-based (hypothesis) round-trips over every message type, plus
the forward/backward-compatibility contract: unknown fields are
tolerated, a foreign protocol version is rejected loudly, and corrupt
frames name what went wrong.
"""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    PROTOCOL_VERSION,
    Complete,
    Dispatch,
    Heartbeat,
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
from repro.net.protocol import MAX_FRAME_BYTES, read_message, write_message

# ---------------------------------------------------------------------------
# Strategies: one per message type, finite floats only (JSON has no NaN)
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
float_seq = st.lists(finite, max_size=8).map(tuple)
#: Two equal-length float tuples: the per-job pairs decode requires.
aligned_seqs = st.lists(st.tuples(finite, finite), max_size=8).map(
    lambda pairs: (tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
)
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
heartbeats = st.builds(
    Heartbeat, server=server,
    window=st.integers(min_value=-1, max_value=10_000), free_at=finite,
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
    submits, dispatches, completes, heartbeats, registers, resolves,
    shutdowns,
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
    def test_wire_json_floats_round_trip_bitwise(self, msg):
        # The equivalence harness leans on repr-exact JSON floats; a
        # codec that quantized them would still pass dataclass equality
        # on small ints, so check the raw payload too.
        body = pack(msg)[4:]
        assert json.loads(body) == encode(msg)

    def test_every_type_has_a_distinct_tag(self):
        tags = {
            cls.type
            for cls in (
                Submit, Dispatch, Complete, Heartbeat, Register, Resolve,
                Shutdown,
            )
        }
        assert len(tags) == 7


# ---------------------------------------------------------------------------
# Compatibility contract
# ---------------------------------------------------------------------------


class TestCompatibility:
    def test_unknown_fields_are_tolerated(self):
        obj = encode(Heartbeat(server=3, window=7, free_at=1.5))
        obj["ext_debug_tag"] = "from-a-newer-peer"
        obj["ext_numbers"] = [1, 2, 3]
        assert decode(obj) == Heartbeat(server=3, window=7, free_at=1.5)

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
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode({"v": PROTOCOL_VERSION, "type": "teleport"})

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

    def test_sequence_fields_normalize_to_tuples(self):
        obj = encode(Complete(
            window=1, server=0, departures=(1.0, 2.0), service_times=(0.5, 0.5)
        ))
        msg = decode(json.loads(json.dumps(obj)))  # lists after JSON
        assert isinstance(msg.departures, tuple)
        assert isinstance(msg.service_times, tuple)


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
        body = b"not json at all"
        frame = struct.pack(">I", len(body)) + body
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
        body_len = len(
            json.dumps(encode(msg), separators=(",", ":")).encode()
        )
        with pytest.raises(ProtocolError) as excinfo:
            pack(msg)
        text = str(excinfo.value)
        assert "'shutdown'" in text
        assert str(body_len) in text
        assert str(MAX_FRAME_BYTES) in text

    def test_read_cap_violation_names_length(self):
        bad = MAX_FRAME_BYTES + 17

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", bad))
            with pytest.raises(ProtocolError) as excinfo:
                await read_message(reader)
            text = str(excinfo.value)
            assert str(bad) in text
            assert str(MAX_FRAME_BYTES) in text

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Async stream I/O (StreamReader fed by hand — no sockets needed)
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


class _SinkWriter:
    """Minimal stand-in capturing write_message output."""

    def __init__(self):
        self.buffer = b""

    def write(self, data):
        self.buffer += data


class TestStreamIO:
    def test_read_back_what_was_written(self):
        async def scenario():
            sink = _SinkWriter()
            sent = [
                Heartbeat(server=1),
                Dispatch(window=0, server=1, times=(0.25,), sizes=(2.0,)),
                Shutdown(reason="done"),
            ]
            for msg in sent:
                write_message(sink, msg)
            reader = asyncio.StreamReader()
            reader.feed_data(sink.buffer)
            reader.feed_eof()
            got = []
            while (msg := await read_message(reader)) is not None:
                got.append(msg)
            assert got == sent

        _run(scenario())

    def test_clean_eof_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await read_message(reader) is None

        _run(scenario())

    def test_eof_mid_frame_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(pack(Shutdown())[:-2])
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-frame"):
                await read_message(reader)

        _run(scenario())

    def test_eof_mid_header_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="mid-frame"):
                await read_message(reader)

        _run(scenario())

    def test_absurd_length_prefix_refused_before_allocating(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                await read_message(reader)

        _run(scenario())
