"""Authenticators: published test vectors, tamper rejection, replay gates."""

import random
from dataclasses import replace

import pytest

from flowgate.services.base import EnvelopeFactory
from flowgate.wire.auth import (
    AuthFailure,
    Ed25519Authenticator,
    HmacSha512Authenticator,
    InboundGate,
    NoopAuthenticator,
    ReplayFailure,
    SequenceCounter,
    StaleTimestampFailure,
    seal,
)
from flowgate.wire.codec import Writer
from flowgate.wire.messages import (
    AttributeRequest,
    MessageType,
    PayloadExchangeRequest,
    ProtocolEnvelope,
    decode_envelope,
    encode_envelope,
    signing_bytes,
)

# RFC 4231, test case 1 (HMAC-SHA-512)
RFC4231_KEY = b"\x0b" * 20
RFC4231_DATA = b"Hi There"
RFC4231_TAG = bytes.fromhex(
    "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
    "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
)

# RFC 8032, Ed25519 test vector 1 (empty message)
RFC8032_SK = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC8032_PK = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC8032_SIG = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bac"
    "c61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


class TestPublishedVectors:
    def test_hmac_sha512_rfc4231(self):
        auth = HmacSha512Authenticator({"peer": RFC4231_KEY})
        assert auth.sign(RFC4231_DATA, "peer") == RFC4231_TAG
        assert auth.verify(RFC4231_DATA, RFC4231_TAG, "peer")

    def test_ed25519_rfc8032(self):
        auth = Ed25519Authenticator(RFC8032_SK, {"self": RFC8032_PK})
        assert auth.sign(b"", "anyone") == RFC8032_SIG
        assert auth.verify(b"", RFC8032_SIG, "self")
        assert Ed25519Authenticator.public_bytes_of(RFC8032_SK) == RFC8032_PK


def make_env(body=None, sender="dep-a", seq=0, ts=1_700_000_000_000):
    return ProtocolEnvelope(sender, seq, ts, body or AttributeRequest(("mode",)))


def schemes():
    hmac_secret = bytes(range(32))
    return [
        ("noop", NoopAuthenticator(), NoopAuthenticator()),
        (
            "hmac",
            HmacSha512Authenticator({"dep-b": hmac_secret, "dep-a": hmac_secret}),
            HmacSha512Authenticator({"dep-b": hmac_secret, "dep-a": hmac_secret}),
        ),
        (
            "ed25519",
            Ed25519Authenticator(RFC8032_SK, {}),
            Ed25519Authenticator(None, {"dep-a": RFC8032_PK}),
        ),
    ]


class TestSealOpen:
    @pytest.mark.parametrize("name,signer,verifier", schemes())
    def test_seal_then_open(self, name, signer, verifier):
        gate = InboundGate(verifier)
        for seq in range(50):
            env = seal(make_env(seq=seq), signer, "dep-b")
            gate.open(env, now_ms=1_700_000_000_000)

    def test_noop_tag_is_empty(self):
        env = seal(make_env(), NoopAuthenticator(), "dep-b")
        assert env.auth_tag == b""

    @pytest.mark.parametrize("name,signer,verifier", [s for s in schemes() if s[0] != "noop"])
    def test_single_bit_flips_all_rejected(self, name, signer, verifier):
        rng = random.Random(5)
        env = seal(make_env(PayloadExchangeRequest(b"frame-bytes" * 3)), signer, "dep-b")
        raw = encode_envelope(env)
        rejected = 0
        flips = rng.sample(range(len(raw) * 8), 100)
        for bit in flips:
            mutated = bytearray(raw)
            mutated[bit // 8] ^= 1 << (bit % 8)
            gate = InboundGate(verifier)
            try:
                tampered = decode_envelope(bytes(mutated))
                gate.open(tampered, now_ms=1_700_000_000_000)
            except Exception:
                rejected += 1
        assert rejected == 100

    def test_scheme_downgrade_rejected(self):
        hmac_pair = schemes()[1]
        env = seal(make_env(), NoopAuthenticator(), "dep-b")
        gate = InboundGate(hmac_pair[2])
        with pytest.raises(AuthFailure):
            gate.open(env, now_ms=1_700_000_000_000)


class TestReplayAndFreshness:
    def test_replay_rejected_deterministically(self):
        gate = InboundGate(NoopAuthenticator())
        env = seal(make_env(seq=9), NoopAuthenticator(), "dep-b")
        gate.open(env, 1_700_000_000_000)
        for _ in range(5):
            with pytest.raises(ReplayFailure):
                gate.open(env, 1_700_000_000_000)

    def test_old_sequence_rejected(self):
        gate = InboundGate(NoopAuthenticator())
        gate.open(seal(make_env(seq=5), NoopAuthenticator(), "x"), 1_700_000_000_000)
        with pytest.raises(ReplayFailure):
            gate.open(seal(make_env(seq=4), NoopAuthenticator(), "x"), 1_700_000_000_000)

    def test_sequences_tracked_per_sender(self):
        gate = InboundGate(NoopAuthenticator())
        gate.open(seal(make_env(sender="dep-a", seq=5), NoopAuthenticator(), "x"), 1_700_000_000_000)
        gate.open(seal(make_env(sender="dep-b", seq=5), NoopAuthenticator(), "x"), 1_700_000_000_000)

    def test_stale_timestamp_rejected(self):
        gate = InboundGate(NoopAuthenticator(), freshness_window_ms=2000)
        base = 1_700_000_000_000
        gate.open(seal(make_env(seq=0, ts=base), NoopAuthenticator(), "x"), base + 2000)
        with pytest.raises(StaleTimestampFailure):
            gate.open(seal(make_env(seq=1, ts=base), NoopAuthenticator(), "x"), base + 2001)
        with pytest.raises(StaleTimestampFailure):
            gate.open(seal(make_env(seq=2, ts=base + 5000), NoopAuthenticator(), "x"), base)

    def test_sequence_counter_is_strictly_increasing(self):
        counter = SequenceCounter()
        values = [counter.next() for _ in range(100)]
        assert values == sorted(set(values))


class TestSigningBytesCoverage:
    def test_tag_covers_body(self):
        a = make_env(PayloadExchangeRequest(b"aa"))
        b = make_env(PayloadExchangeRequest(b"ab"))
        assert signing_bytes(a) != signing_bytes(b)

    def test_tag_covers_header_fields(self):
        base = make_env(seq=1)
        assert signing_bytes(base) != signing_bytes(make_env(seq=2))
        assert signing_bytes(base) != signing_bytes(make_env(sender="other", seq=1))
        assert signing_bytes(base) != signing_bytes(make_env(seq=1, ts=1))


def keyed_schemes():
    # "dep-c" holds dep-a's key, so a copy with a changed sender can fail
    # only on its bytes, never for want of a key.
    secret = bytes(range(32))
    peers = {"dep-a": secret, "dep-b": secret, "dep-c": secret}
    return [
        ("hmac", HmacSha512Authenticator(peers), HmacSha512Authenticator(peers)),
        (
            "ed25519",
            Ed25519Authenticator(RFC8032_SK, {}),
            Ed25519Authenticator(None, {"dep-a": RFC8032_PK, "dep-c": RFC8032_PK}),
        ),
    ]


class TestKeptBytes:
    """Sealed and decoded envelopes keep the bytes their tag covers; a copy
    with a changed field must be encoded afresh and fail verification."""

    CHANGES = [
        ("sequence", 6),
        ("timestamp", 1_700_000_000_001),
        ("sender_id", "dep-c"),
        ("body", AttributeRequest(("load",))),
    ]

    @pytest.mark.parametrize("origin", ["sealed", "decoded"])
    @pytest.mark.parametrize("field,value", CHANGES, ids=[c[0] for c in CHANGES])
    @pytest.mark.parametrize("name,signer,verifier", keyed_schemes())
    def test_changed_copy_fails_its_tag(self, name, signer, verifier, field, value, origin):
        env = seal(make_env(seq=5), signer, "dep-b")
        if origin == "decoded":
            env = decode_envelope(encode_envelope(env))
        changed = replace(env, **{field: value})
        assert decode_envelope(encode_envelope(changed)) == changed
        with pytest.raises(AuthFailure):
            InboundGate(verifier).open(changed, now_ms=1_700_000_000_000)
        InboundGate(verifier).open(env, now_ms=1_700_000_000_000)

    def test_decoded_envelope_keeps_the_bytes_received(self):
        _, signer, verifier = keyed_schemes()[0]
        raw = encode_envelope(seal(make_env(seq=5), signer, "dep-b"))
        env = decode_envelope(raw)
        assert encode_envelope(env) == raw
        assert env.signed == raw[: len(env.signed)]
        assert len(raw) - len(env.signed) == 3 + len(env.auth_tag)


class TestSealInPlace:
    """`seal` completes a fresh envelope in place: one envelope per message."""

    @pytest.mark.parametrize("name,signer,verifier", schemes())
    def test_factory_envelope_is_the_field_by_field_bytes(self, name, signer, verifier):
        frame, ts = bytes(range(60)), 1_700_000_000_000
        factory = EnvelopeFactory("dep-a", signer, clock=lambda: ts)
        factory.sealed(PayloadExchangeRequest(b"x"), "dep-b")  # sequence 0
        raw = encode_envelope(factory.sealed(PayloadExchangeRequest(frame), "dep-b"))
        w = Writer().u8(1).u8(MessageType.PAYLOAD_EXCHANGE_REQUEST.value).text("dep-a")
        signed = w.u64(1).u64(ts).bytes_u32(Writer().bytes_u32(frame).getvalue()).getvalue()
        assert raw == signed + Writer().u8(signer.scheme.value).bytes_u16(
            signer.sign(signed, "dep-b")).getvalue()
        env = decode_envelope(raw)
        assert (env.sequence, env.body) == (1, PayloadExchangeRequest(frame))
        InboundGate(verifier).open(env, now_ms=ts)

    def test_seal_returns_the_envelope_it_was_given(self):
        env = make_env(seq=3)
        assert seal(env, NoopAuthenticator(), "dep-b") is env
        assert env.auth_scheme is NoopAuthenticator.scheme
        assert env.signed == signing_bytes(make_env(seq=3))

    @pytest.mark.parametrize("origin", ["sealed", "decoded"])
    def test_envelope_with_signed_bytes_is_refused(self, origin):
        _, signer, verifier = keyed_schemes()[0]
        env = seal(make_env(seq=5), signer, "dep-b")
        if origin == "decoded":
            env = decode_envelope(encode_envelope(env))
        raw = encode_envelope(env)
        with pytest.raises(ValueError):
            seal(env, signer, "dep-c")
        assert encode_envelope(env) == raw
        InboundGate(verifier).open(env, now_ms=1_700_000_000_000)
