"""Canonical codec: round trips, golden fixtures, typed decode failures."""

import os
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.decisions import AccessDecision
from flowgate.errors import TransportError
from flowgate.policy import Action
from flowgate.pattern_text import parse_pattern
from flowgate.wire.auth import AuthScheme, NoopAuthenticator, seal
from flowgate.wire.codec import (
    DecodeError,
    EncodeError,
    LengthOverrunError,
    TruncatedBufferError,
    UnknownMessageTypeError,
    UnknownVersionError,
    Writer,
    decode_policy,
    encode_policy,
)
from flowgate.wire.messages import (
    MAX_BODY_LEN,
    AttributeRequest,
    MessageType,
    PayloadExchangeRequest,
    ProtocolEnvelope,
    decode_body,
    decode_envelope,
    encode_body,
    encode_envelope,
)
from flowgate.wire.transport import recv_frame
from wire_fixtures import GOLDEN_DIR, golden_envelopes

NOOP = NoopAuthenticator()


def sealed(body, sender="tester", seq=1, ts=1_700_000_000_000):
    return seal(ProtocolEnvelope(sender, seq, ts, body), NOOP, "peer")


class TestEnvelopeRoundTrip:
    def test_decode_inverts_encode(self):
        env = sealed(AttributeRequest(("mode",)))
        assert decode_envelope(encode_envelope(env)) == env

    def test_equal_envelopes_encode_identically(self):
        a = sealed(PayloadExchangeRequest(b"\x01\x02"))
        b = sealed(PayloadExchangeRequest(b"\x01\x02"))
        assert encode_envelope(a) == encode_envelope(b)

    def test_body_size_cap(self):
        oversized = ProtocolEnvelope(
            "tester", 1, 0, PayloadExchangeRequest(b"\x00" * (MAX_BODY_LEN + 1)),
            AuthScheme.NOOP, b"",
        )
        with pytest.raises(EncodeError):
            encode_envelope(oversized)

    def test_random_envelopes_round_trip(self, rng):
        from conftest import random_flow, random_request
        from flowgate.wire.messages import (
            AccessRequest,
            AccessVerificationRequest,
            SessionInitialization,
        )

        count = 0
        for i in range(1100):
            choice = rng.randint(0, 3)
            if choice == 0:
                body = AccessRequest(random_request(rng))
            elif choice == 1:
                body = AccessVerificationRequest(random_flow(rng))
            elif choice == 2:
                body = PayloadExchangeRequest(rng.randbytes(rng.randint(0, 200)))
            else:
                body = SessionInitialization((AccessDecision(
                    (random_flow(rng),), Action.DENY, frozenset(),
                    rng.randint(0, 10**12), rng.randint(10**12, 10**13),
                    frozenset({f"p{rng.randint(0, 9)}"}),
                ),))
            env = sealed(body, seq=i)
            raw = encode_envelope(env)
            back = decode_envelope(raw)
            assert back == env
            assert encode_envelope(back) == raw  # encode∘decode∘encode = encode
            count += 1
        assert count >= 1000


class TestGoldenFixtures:
    def test_all_twelve_variants_covered(self):
        envelopes = golden_envelopes()
        assert {e.msg_type for e in envelopes.values()} == set(MessageType)

    @pytest.mark.parametrize("name", sorted(golden_envelopes()))
    def test_byte_exact(self, name):
        envelope = golden_envelopes()[name]
        with open(os.path.join(GOLDEN_DIR, f"{name}.hex")) as fp:
            frozen = bytes.fromhex(fp.read().strip())
        assert encode_envelope(envelope) == frozen
        assert decode_envelope(frozen) == envelope


class TestDecodeErrors:
    def test_empty_input_is_truncation(self):
        with pytest.raises(TruncatedBufferError):
            decode_envelope(b"")

    def test_unknown_version(self):
        raw = bytearray(encode_envelope(sealed(AttributeRequest(("k",)))))
        raw[0] = 255
        with pytest.raises(UnknownVersionError):
            decode_envelope(bytes(raw))

    def test_unknown_message_type(self):
        raw = bytearray(encode_envelope(sealed(AttributeRequest(("k",)))))
        raw[1] = 200
        with pytest.raises(UnknownMessageTypeError):
            decode_envelope(bytes(raw))

    def test_length_overrun(self):
        w = Writer()
        w.u8(1).u8(MessageType.PAYLOAD_EXCHANGE_REQUEST.value).text("s")
        w.u64(0).u64(0)
        w.u32(5000)  # declared body far beyond the buffer
        with pytest.raises(LengthOverrunError):
            decode_envelope(w.getvalue() + b"\x00" * 8)

    def test_trailing_bytes_rejected(self):
        raw = encode_envelope(sealed(AttributeRequest(("k",))))
        with pytest.raises(DecodeError):
            decode_envelope(raw + b"\x00")

    def test_truncations_of_a_valid_envelope(self):
        raw = encode_envelope(sealed(AttributeRequest(("mode", "load"))))
        for cut in range(len(raw)):
            with pytest.raises(DecodeError):
                decode_envelope(raw[:cut])

    @pytest.mark.parametrize("name", sorted(golden_envelopes()))
    def test_golden_prefixes_and_extensions(self, name):
        with open(os.path.join(GOLDEN_DIR, f"{name}.hex")) as fp:
            frozen = bytes.fromhex(fp.read().strip())
        for cut in range(len(frozen)):
            with pytest.raises(DecodeError):
                decode_envelope(frozen[:cut])
        for extra in (b"\x00", b"\x01", b"\xff"):
            with pytest.raises(DecodeError):
                decode_envelope(frozen + extra)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400))
    def test_total_on_arbitrary_bytes(self, blob):
        try:
            decode_envelope(blob)
        except DecodeError:
            pass  # only the typed failure is allowed

    def test_mutations_never_crash(self, rng):
        raw = bytearray(encode_envelope(sealed(AttributeRequest(("mode",)))))
        for _ in range(3000):
            mutated = bytearray(raw)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode_envelope(bytes(mutated))
            except DecodeError:
                pass


class TestPayloadBody:
    """The data path's body: a `u32` frame length, then the frame."""

    FRAME = bytes(range(60))
    PAYLOAD = MessageType.PAYLOAD_EXCHANGE_REQUEST

    @staticmethod
    def envelope(body: bytes) -> bytes:
        w = Writer()
        w.u8(1).u8(MessageType.PAYLOAD_EXCHANGE_REQUEST.value).text("s").u64(1).u64(2)
        w.bytes_u32(body).u8(AuthScheme.NOOP.value).bytes_u16(b"")
        return w.getvalue()

    @pytest.mark.parametrize("frame", [b"", FRAME, FRAME * 25])
    def test_same_bytes_as_a_writer(self, frame):
        body = Writer().bytes_u32(frame).getvalue()
        assert encode_body(PayloadExchangeRequest(frame)) == body
        assert decode_body(self.PAYLOAD, body) == PayloadExchangeRequest(frame)
        assert decode_envelope(self.envelope(body)).body == PayloadExchangeRequest(frame)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["one-short", "one-long"])
    def test_frame_length_off_by_one(self, delta):
        body = struct.pack(">I", len(self.FRAME) + delta) + self.FRAME
        with pytest.raises(LengthOverrunError):
            decode_body(self.PAYLOAD, body)
        with pytest.raises(LengthOverrunError):
            decode_envelope(self.envelope(body))

    @pytest.mark.parametrize("size", range(4))
    def test_body_shorter_than_its_length(self, size):
        with pytest.raises(TruncatedBufferError):
            decode_body(self.PAYLOAD, b"\x00" * size)
        with pytest.raises(TruncatedBufferError):
            decode_envelope(self.envelope(b"\x00" * size))


class TestPolicyCodec:
    def test_policy_round_trip(self):
        from wire_fixtures import _policy

        policy = _policy()
        assert decode_policy(encode_policy(policy)) == policy

    def test_canonical_under_set_order(self):
        from flowgate.policy import Comparison, CompareOp, Policy, predicate

        a1 = predicate("a1", Comparison("x", CompareOp.EQ, 1))
        a2 = predicate("a2", Comparison("y", CompareOp.EQ, 2))
        p1 = Policy("p", Action.GRANT, parse_pattern("eth { }"), frozenset([a1, a2]),
                    nexthop_ids=frozenset(["b", "a"]))
        p2 = Policy("p", Action.GRANT, parse_pattern("eth { }"), frozenset([a2, a1]),
                    nexthop_ids=frozenset(["a", "b"]))
        assert encode_policy(p1) == encode_policy(p2)

    def test_reader_rejects_trailing(self):
        data = encode_policy(__import__("wire_fixtures")._policy()) + b"\xff"
        with pytest.raises(DecodeError):
            decode_policy(data)


class TestStreamFraming:
    @pytest.mark.parametrize("sent", [0, 1, 2, 3])
    def test_eof_inside_the_length_prefix(self, sent):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"\x00" * sent)
            a.close()
            if sent == 0:
                assert recv_frame(b) is None  # orderly close at a frame boundary
            else:
                with pytest.raises(TransportError, match="mid-frame"):
                    recv_frame(b)
