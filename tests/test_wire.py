"""Canonical codec: round trips, golden fixtures, typed decode failures."""

import os
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.decisions import AccessDecision
from flowgate.errors import PatternError, TransportError
from flowgate.frames import dissect, udp_frame
from flowgate.patterns import (
    AccessRequestPattern,
    FlowPattern,
    MatchOp,
    PredicateKind,
    PredicateNode,
    RequestNode,
    derived_constraints,
    exact_flow,
    hierarchy,
    operand_text,
    where,
)
from flowgate.policy import Action
from flowgate.pattern_text import parse_pattern
from flowgate.wire import codec
from flowgate.wire.auth import AuthScheme, NoopAuthenticator, seal
from flowgate.wire.codec import (
    DecodeError,
    EncodeError,
    LengthOverrunError,
    MalformedFieldError,
    TruncatedBufferError,
    UnknownMessageTypeError,
    UnknownVersionError,
    Writer,
    decode_policy,
    decode_whole,
    encode_flow_pattern,
    encode_policy,
    flow_at,
)
from flowgate.wire.messages import (
    MAX_BODY_LEN,
    AccessRequest,
    AttributeRequest,
    MessageType,
    PayloadExchangeRequest,
    PolicyExchangeComplete,
    ProtocolEnvelope,
    SessionInitialization,
    decode_body,
    decode_envelope,
    encode_body,
    encode_envelope,
)
from flowgate.wire.transport import recv_frame
from wire_fixtures import GOLDEN_DIR, _policy, golden_envelopes

NOOP = NoopAuthenticator()


def sealed(body, sender="tester", seq=1, ts=1_700_000_000_000):
    return seal(ProtocolEnvelope(sender, seq, ts, body), NOOP, "peer")


def _burst_init() -> SessionInitialization:
    """A burst's session initialization: 10 grants, one per new flow."""
    now = 1_700_000_000_000
    return SessionInitialization(tuple(
        AccessDecision((parse_pattern(f"eth {{ ipv4 {{ udp {{ dstport == {port} }} }} }}"),),
                       Action.GRANT, frozenset({"dep-b"}), now, now + 60_000,
                       frozenset({f"grant-{port}"}))
        for port in range(41000, 41010)
    ))


#: Control bodies whose decoders the corruption tests run, beside each test's own.
CONTROL_BODIES = {
    "session-init-x10": _burst_init(),
    "access-request": AccessRequest(dissect(udp_frame(
        "02:00:00:00:00:01", "02:00:00:00:00:02", "10.0.0.1", "10.0.0.2", 40000, 41000, b"x"))),
    "policy-exchange-complete": PolicyExchangeComplete((_policy(), _policy("sv-meter")), 7),
}


def corrupted_bodies(own):
    """Parameters: a test's own body first, then each of `CONTROL_BODIES`."""
    return pytest.mark.parametrize("body", [own, *CONTROL_BODIES.values()],
                                   ids=["attribute-request", *CONTROL_BODIES])


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

    @corrupted_bodies(AttributeRequest(("mode", "load")))
    def test_truncations_of_a_valid_envelope(self, body):
        raw = encode_envelope(sealed(body))
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

    @corrupted_bodies(AttributeRequest(("mode",)))
    def test_mutations_never_crash(self, rng, body):
        raw = bytearray(encode_envelope(sealed(body)))
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


class TestCanonicalFlowDecode:
    """`flow_at` builds a pattern that arrives in normalized form as read, and
    `exact_flow` builds its pattern in normalized form: both skip the
    normalizing constructor.  Checked against that constructor, on seeded
    patterns in and out of normalized form, their truncations and mutations,
    and the flows of the golden fixtures."""

    LAYERS = ("eth", "vlan", "ipv4", "udp", "tcp", "goose", "sv", "opaque")
    FIELDS = ("dst", "src", "ethertype", "protocol", "dstport", "appid", "length")
    VALUES = (0, 2, 10, 6, 17, 0x0800, 0x8100, 0x88B8, -1, 2**62, True, False,
              "", "10.0.0.1", "x", "é", 1.5, -0.0, 17.0, 2048.0)

    @staticmethod
    def nodes_at(data, pos, depth=0):
        """The tree at `pos` as the validating constructors build it, read
        without normalization."""
        if depth > 32:
            raise MalformedFieldError("pattern nesting too deep")
        kind = codec._KIND_FROM.get(data[pos])
        if kind is None:
            raise MalformedFieldError("unknown predicate kind")
        ident, pos = codec.text_at(data, pos + 1)
        op = operand = None
        if kind is not PredicateKind.HIERARCHY:
            op, operand, pos = codec._operand_at(data, pos)
        children, pos = codec.items_at(
            lambda data, pos: TestCanonicalFlowDecode.nodes_at(data, pos, depth + 1), data, pos)
        try:
            return PredicateNode(kind, ident, op, operand, tuple(children)), pos
        except PatternError as exc:
            raise MalformedFieldError(str(exc)) from None

    def normalized_at(self, data, pos):
        """The pattern the normalizing constructor builds from the nodes read, and their root."""
        root, pos = self.nodes_at(data, pos)
        try:
            return (FlowPattern(root), root), pos
        except PatternError as exc:
            raise MalformedFieldError(str(exc)) from None

    def expect(self, data):
        """The pattern `flow_at` must decode from `data`, and whether it must
        keep `data` as its encoding: when normalization leaves the tree as
        read, and it encodes as read; or the DecodeError class it raises."""
        try:
            flow, root = decode_whole(self.normalized_at, data)
        except DecodeError as exc:
            return type(exc), None
        return flow, flow.root is root and encode_flow_pattern(flow) == data

    def check(self, data):
        want, kept = self.expect(data)
        if isinstance(want, type):
            with pytest.raises(want):
                decode_whole(flow_at, data)
            return False
        flow = decode_whole(flow_at, data)
        assert flow == want or "nan" in repr(want) and flow.canonical_bytes() == want.canonical_bytes()
        assert (flow.encoded is not None) == kept
        if kept:
            assert flow.encoded == data == encode_flow_pattern(flow)
        return kept

    def leaf(self, rng, kind=PredicateKind.PARAMETRIC, field=None, op=None):
        op = op or rng.choice(list(MatchOp))
        if op is MatchOp.EQ:
            operand = rng.choice(self.VALUES)
        elif op is MatchOp.IN_SET:
            operand = frozenset(rng.sample(self.VALUES, rng.randint(1, 4)))
        elif op is MatchOp.PREFIX:
            operand = rng.choice(("", "10.", "x"))
        else:
            lo = rng.randint(-5, 50)
            operand = (lo, lo + rng.randint(0, 10))
        return PredicateNode(kind, field or rng.choice(self.FIELDS), op, operand)

    def pins(self, rng, layer, child):
        """The derived pins of `layer` over `child`: mostly right, sometimes
        of the wrong type or value, parametric, or missing."""
        out = []
        for fid, value in derived_constraints(layer, child):
            kind, roll = PredicateKind.HIERARCHY_CONSTRAINED, rng.random()
            if roll < 0.1:
                value = float(value)
            elif roll < 0.15:
                value += 1
            elif roll < 0.2:
                kind = PredicateKind.PARAMETRIC
            if roll < 0.9:
                out.append(PredicateNode(kind, fid, MatchOp.EQ, value))
        return out

    def tree(self, rng, depth=0):
        """A hierarchy node whose children are usually in normalized order
        (a repeated field, ordered by its operands' text or not, included),
        and otherwise shuffled, with a stray pin, or non-linear."""
        layer = rng.choice(self.LAYERS)
        leaves = [self.leaf(rng) for _ in range(rng.randint(0, 3))]
        if leaves and rng.random() < 0.4:  # the same field and operator again
            leaves.append(self.leaf(rng, field=leaves[0].ident, op=leaves[0].op))
        child = self.tree(rng, depth + 1) if depth < 3 and rng.random() < 0.7 else None
        if rng.random() < 0.7:
            leaves.sort(key=lambda c: (c.ident, c.op.value, operand_text(c.op, c.operand)))
            if rng.random() < 0.1 and len(leaves) > 1:
                leaves.reverse()
        else:
            rng.shuffle(leaves)
        children = (self.pins(rng, layer, child.ident) if child else []) + leaves
        children += [child] if child else []
        roll = rng.random()
        if roll < 0.05:  # a pin without a hierarchy child to imply it
            children.insert(0, self.leaf(rng, PredicateKind.HIERARCHY_CONSTRAINED))
        elif roll < 0.1:
            children.append(hierarchy(rng.choice(self.LAYERS)))
        return hierarchy(layer, *children)

    def variants(self, rng, data):
        yield data
        for cut in rng.sample(range(len(data)), min(len(data), 8)):
            yield data[:cut]
        for _ in range(8):
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            yield bytes(mutated)

    def test_generated_patterns(self, rng):
        kept = dropped = 0
        for _ in range(400):
            root = self.tree(rng) if rng.random() < 0.95 else self.leaf(rng)
            w = Writer()
            codec._write_flow_node(w, root)
            for data in self.variants(rng, w.getvalue()):
                if self.check(data):
                    kept += 1
                else:
                    dropped += 1
        assert kept > 400 and dropped > 400  # both paths ran, often

    def test_flows_of_the_goldens(self, rng):
        flows = []
        for envelope in golden_envelopes().values():
            body = envelope.body
            for decision in getattr(body, "decisions", ()):
                flows.extend(decision.flows)
            for policy in getattr(body, "policies", ()) or [getattr(body, "policy", None)]:
                if policy is not None:
                    flows.append(policy.flow)
            if hasattr(body, "flow"):
                flows.append(body.flow)
        assert flows
        for flow in flows:
            data = flow.canonical_bytes()
            assert self.check(data)
            for variant in self.variants(rng, data):
                self.check(variant)

    def test_an_unsorted_in_set_is_decoded_but_not_kept(self):
        w = Writer()
        w.u8(0).text("eth").u16(1)
        w.u8(2).text("ethertype").u8(1).u16(2).u8(1).u64(2).u8(1).u64(1)  # in-set {2, 1}
        w.u16(0)
        data = w.getvalue()
        assert self.check(data) is False
        assert decode_whole(flow_at, data) == FlowPattern(
            hierarchy("eth", where("ethertype", MatchOp.IN_SET, {1, 2})))

    @staticmethod
    def normalizing_exact_flow(request):
        chain = None
        for node in reversed(request.anchors()):
            leaves = [PredicateNode(PredicateKind.PARAMETRIC, fid, MatchOp.EQ, val)
                      for fid, val in node.facts]
            chain = hierarchy(node.layer, *leaves, *([chain] if chain else []))
        return FlowPattern(chain)

    def test_exact_flow_of_dissected_frames(self, rng):
        from test_frames import TestAgainstReference

        for _ in range(20):
            for frame in TestAgainstReference.frames(rng).values():
                for cut in range(14, len(frame) + 1):
                    request = dissect(frame[:cut], TestAgainstReference.OPTIONS)
                    flow = exact_flow(request)
                    assert flow == self.normalizing_exact_flow(request)
                    assert FlowPattern(flow.root).root is flow.root  # built in normalized form
                    assert flow.canonical_bytes() == encode_flow_pattern(flow)

    @pytest.mark.parametrize("facts", [
        (("a", 2), ("a", 10)),
        (("a", 10), ("a", 2)),
        (("b", 1), ("a", 1)),
        (("a", 1), ("a", "x"), ("a", True)),
        (("ethertype", 0x0800), ("ethertype", 0x0800)),
    ], ids=["repeat-in-value-order", "repeat-in-text-order", "unsorted", "mixed-types", "twice"])
    def test_exact_flow_of_a_request_that_repeats_a_field(self, facts):
        request = AccessRequestPattern(RequestNode("eth", facts, RequestNode("ipv4", facts)))
        flow = exact_flow(request)
        assert flow == self.normalizing_exact_flow(request)
        assert FlowPattern(flow.root).root is flow.root
