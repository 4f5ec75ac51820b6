"""The protocol envelope and its twelve message variants.

Envelope layout (all integers big-endian)::

    version   u8        (currently 1)
    msg-type  u8        (MessageType)
    sender-id u16-len utf-8
    sequence  u64       (strictly increasing per sender)
    timestamp u64       (wall clock, ms)
    body      u32-len   (variant payload, at most 2^24-1 bytes)
    scheme    u8        (AuthScheme)
    auth-tag  u16-len

The authentication tag covers the canonical encoding of everything up to
and including the body; sealed and decoded envelopes keep those bytes.
Control-plane variants travel over a stream transport; payload exchange
requests travel as single datagrams.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from ..decisions import AccessDecision
from ..patterns import AccessRequestPattern, FlowPattern
from ..policy import AttributeBinding, Policy
from .codec import (
    MAX_BODY_LEN,
    EncodeError,
    LengthOverrunError,
    MalformedFieldError,
    Reader,
    TruncatedBufferError,
    UnknownMessageTypeError,
    UnknownVersionError,
    Writer,
    read_binding,
    read_decision,
    read_flow_pattern,
    read_policy,
    read_request_pattern,
    write_binding,
    write_decision,
    write_flow_pattern,
    write_policy,
    write_request_pattern,
)

PROTOCOL_VERSION = 1

_HEAD = struct.Struct(">BBH")  # version, msg-type, sender-id length: 4 bytes
_STAMP = struct.Struct(">QQI")  # sequence, timestamp, body length: 20 bytes
_TAIL = struct.Struct(">BH")  # scheme, auth-tag length: 3 bytes


class AuthScheme(Enum):
    NOOP = 0
    HMAC_SHA512 = 1
    ED25519 = 2


class MessageType(Enum):
    POLICY_CRUD_REQUEST = 1
    POLICY_CRUD_RESPONSE = 2
    POLICY_EXCHANGE_INCREMENTAL = 3
    POLICY_EXCHANGE_REQUEST = 4
    POLICY_EXCHANGE_COMPLETE = 5
    ATTRIBUTE_REQUEST = 6
    ATTRIBUTE_RESOLUTION = 7
    ACCESS_REQUEST = 8
    SESSION_INITIALIZATION = 9
    ACCESS_VERIFICATION_REQUEST = 10
    ACCESS_VERIFICATION_RESPONSE = 11
    PAYLOAD_EXCHANGE_REQUEST = 12


class CrudOp(Enum):
    CREATE = "C"
    READ = "R"
    UPDATE = "U"
    DELETE = "D"


class CrudStatus(Enum):
    OK = 0
    NOT_FOUND = 1
    DUPLICATE_ID = 2
    VALIDATION_FAILED = 3
    UNAUTHORIZED = 4
    ERROR = 5


@dataclass(frozen=True)
class PolicyCrudRequest:
    op: CrudOp
    policy_id: str
    policy: Optional[Policy] = None


@dataclass(frozen=True)
class PolicyCrudResponse:
    status: CrudStatus
    policy: Optional[Policy] = None
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class PolicyExchangeIncremental:
    changes: tuple[tuple[CrudOp, str, Optional[Policy]], ...]
    revision: int


@dataclass(frozen=True)
class PolicyExchangeRequest:
    pass


@dataclass(frozen=True)
class PolicyExchangeComplete:
    policies: tuple[Policy, ...]
    revision: int


@dataclass(frozen=True)
class AttributeRequest:
    keys: tuple[str, ...]


@dataclass(frozen=True)
class AttributeResolution:
    bindings: tuple[AttributeBinding, ...]
    unknown_keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class AccessRequest:
    request: AccessRequestPattern


@dataclass(frozen=True)
class SessionInitialization:
    decisions: tuple[AccessDecision, ...]


@dataclass(frozen=True)
class AccessVerificationRequest:
    flow: FlowPattern


@dataclass(frozen=True)
class AccessVerificationResponse:
    decisions: tuple[AccessDecision, ...]


@dataclass(frozen=True)
class PayloadExchangeRequest:
    frame: bytes


MessageBody = Union[
    PolicyCrudRequest,
    PolicyCrudResponse,
    PolicyExchangeIncremental,
    PolicyExchangeRequest,
    PolicyExchangeComplete,
    AttributeRequest,
    AttributeResolution,
    AccessRequest,
    SessionInitialization,
    AccessVerificationRequest,
    AccessVerificationResponse,
    PayloadExchangeRequest,
]

_TYPE_OF_BODY = {
    PolicyCrudRequest: MessageType.POLICY_CRUD_REQUEST,
    PolicyCrudResponse: MessageType.POLICY_CRUD_RESPONSE,
    PolicyExchangeIncremental: MessageType.POLICY_EXCHANGE_INCREMENTAL,
    PolicyExchangeRequest: MessageType.POLICY_EXCHANGE_REQUEST,
    PolicyExchangeComplete: MessageType.POLICY_EXCHANGE_COMPLETE,
    AttributeRequest: MessageType.ATTRIBUTE_REQUEST,
    AttributeResolution: MessageType.ATTRIBUTE_RESOLUTION,
    AccessRequest: MessageType.ACCESS_REQUEST,
    SessionInitialization: MessageType.SESSION_INITIALIZATION,
    AccessVerificationRequest: MessageType.ACCESS_VERIFICATION_REQUEST,
    AccessVerificationResponse: MessageType.ACCESS_VERIFICATION_RESPONSE,
    PayloadExchangeRequest: MessageType.PAYLOAD_EXCHANGE_REQUEST,
}


@dataclass(frozen=True)
class ProtocolEnvelope:
    sender_id: str
    sequence: int
    timestamp: int
    body: MessageBody
    auth_scheme: Optional[AuthScheme] = None
    auth_tag: bytes = b""
    version: int = PROTOCOL_VERSION
    #: The bytes the tag covers, as sealed or as received.  Only `seal` and
    #: `decode_envelope` set them, so a copy made with `dataclasses.replace`
    #: has none: it is encoded afresh, and its tag no longer verifies.
    signed: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    @property
    def msg_type(self) -> MessageType:
        return _TYPE_OF_BODY[type(self.body)]


def keep_signed(env: ProtocolEnvelope, signed: bytes) -> ProtocolEnvelope:
    """`env`, just built with its tag, holding `signed`: the bytes it covers."""
    object.__setattr__(env, "signed", signed)
    return env


# --- body codecs -------------------------------------------------------------


def _write_optional_policy(w: Writer, policy: Optional[Policy]) -> None:
    if policy is None:
        w.u8(0)
    else:
        w.u8(1)
        write_policy(w, policy)


def _read_optional_policy(r: Reader) -> Optional[Policy]:
    flag = r.u8()
    if flag == 0:
        return None
    if flag != 1:
        raise MalformedFieldError(f"bad presence flag {flag}")
    return read_policy(r)


def _write_decisions(w: Writer, decisions: tuple[AccessDecision, ...]) -> None:
    w.u16(len(decisions))
    for d in decisions:
        write_decision(w, d)


def _read_decisions(r: Reader) -> tuple[AccessDecision, ...]:
    return tuple(read_decision(r) for _ in range(r.u16()))


_CRUD_CODE = {CrudOp.CREATE: 0, CrudOp.READ: 1, CrudOp.UPDATE: 2, CrudOp.DELETE: 3}
_CRUD_FROM = {v: k for k, v in _CRUD_CODE.items()}


def _read_crud_op(r: Reader) -> CrudOp:
    op = _CRUD_FROM.get(r.u8())
    if op is None:
        raise MalformedFieldError("unknown CRUD op")
    return op


def encode_body(body: MessageBody) -> bytes:
    w = Writer()
    if isinstance(body, PayloadExchangeRequest):  # the data path's variant
        w.bytes_u32(body.frame)
    elif isinstance(body, PolicyCrudRequest):
        w.u8(_CRUD_CODE[body.op]).text(body.policy_id)
        _write_optional_policy(w, body.policy)
    elif isinstance(body, PolicyCrudResponse):
        w.u8(body.status.value)
        _write_optional_policy(w, body.policy)
        w.u16(len(body.violations))
        for v in body.violations:
            w.text(v)
    elif isinstance(body, PolicyExchangeIncremental):
        w.u16(len(body.changes))
        for op, pid, policy in body.changes:
            w.u8(_CRUD_CODE[op]).text(pid)
            _write_optional_policy(w, policy)
        w.u64(body.revision)
    elif isinstance(body, PolicyExchangeRequest):
        pass
    elif isinstance(body, PolicyExchangeComplete):
        w.u16(len(body.policies))
        for p in body.policies:
            write_policy(w, p)
        w.u64(body.revision)
    elif isinstance(body, AttributeRequest):
        w.u16(len(body.keys))
        for k in body.keys:
            w.text(k)
    elif isinstance(body, AttributeResolution):
        w.u16(len(body.bindings))
        for b in body.bindings:
            write_binding(w, b)
        w.u16(len(body.unknown_keys))
        for k in body.unknown_keys:
            w.text(k)
    elif isinstance(body, AccessRequest):
        write_request_pattern(w, body.request)
    elif isinstance(body, SessionInitialization):
        _write_decisions(w, body.decisions)
    elif isinstance(body, AccessVerificationRequest):
        write_flow_pattern(w, body.flow)
    elif isinstance(body, AccessVerificationResponse):
        _write_decisions(w, body.decisions)
    else:
        raise EncodeError(f"unknown body type {type(body).__name__}")
    return w.getvalue()


def decode_body(msg_type: MessageType, data: bytes) -> MessageBody:
    r = Reader(data)
    body: MessageBody
    if msg_type is MessageType.PAYLOAD_EXCHANGE_REQUEST:  # the data path's variant
        body = PayloadExchangeRequest(r.bytes_u32())
    elif msg_type is MessageType.POLICY_CRUD_REQUEST:
        body = PolicyCrudRequest(_read_crud_op(r), r.text(), _read_optional_policy(r))
    elif msg_type is MessageType.POLICY_CRUD_RESPONSE:
        code = r.u8()
        try:
            status = CrudStatus(code)
        except ValueError:
            raise MalformedFieldError(f"unknown CRUD status {code}") from None
        policy = _read_optional_policy(r)
        violations = tuple(r.text() for _ in range(r.u16()))
        body = PolicyCrudResponse(status, policy, violations)
    elif msg_type is MessageType.POLICY_EXCHANGE_INCREMENTAL:
        changes = tuple(
            (_read_crud_op(r), r.text(), _read_optional_policy(r)) for _ in range(r.u16())
        )
        body = PolicyExchangeIncremental(changes, r.u64())
    elif msg_type is MessageType.POLICY_EXCHANGE_REQUEST:
        body = PolicyExchangeRequest()
    elif msg_type is MessageType.POLICY_EXCHANGE_COMPLETE:
        policies = tuple(read_policy(r) for _ in range(r.u16()))
        body = PolicyExchangeComplete(policies, r.u64())
    elif msg_type is MessageType.ATTRIBUTE_REQUEST:
        body = AttributeRequest(tuple(r.text() for _ in range(r.u16())))
    elif msg_type is MessageType.ATTRIBUTE_RESOLUTION:
        bindings = tuple(read_binding(r) for _ in range(r.u16()))
        unknown = tuple(r.text() for _ in range(r.u16()))
        body = AttributeResolution(bindings, unknown)
    elif msg_type is MessageType.ACCESS_REQUEST:
        body = AccessRequest(read_request_pattern(r))
    elif msg_type is MessageType.SESSION_INITIALIZATION:
        body = SessionInitialization(_read_decisions(r))
    elif msg_type is MessageType.ACCESS_VERIFICATION_REQUEST:
        body = AccessVerificationRequest(read_flow_pattern(r))
    elif msg_type is MessageType.ACCESS_VERIFICATION_RESPONSE:
        body = AccessVerificationResponse(_read_decisions(r))
    else:  # pragma: no cover - enum is closed
        raise UnknownMessageTypeError(str(msg_type))
    r.expect_end()
    return body


# --- envelope codec -----------------------------------------------------------

_MESSAGE_TYPES = {t.value: t for t in MessageType}
_SCHEMES = {s.value: s for s in AuthScheme}


def signing_bytes(env: ProtocolEnvelope) -> bytes:
    """Canonical prefix covered by the authentication tag."""
    body = encode_body(env.body)
    if len(body) > MAX_BODY_LEN:
        raise EncodeError(f"body of {len(body)} bytes exceeds {MAX_BODY_LEN}")
    sender = env.sender_id.encode("utf-8")
    try:
        head = _HEAD.pack(env.version, env.msg_type.value, len(sender))
        stamp = _STAMP.pack(env.sequence, env.timestamp, len(body))
    except struct.error as exc:
        raise EncodeError(f"envelope header field out of range: {exc}") from None
    return b"".join((head, sender, stamp, body))


def encode_envelope(env: ProtocolEnvelope) -> bytes:
    if not isinstance(env.auth_scheme, AuthScheme):
        raise EncodeError("envelope has no authentication scheme; seal it first")
    w = Writer()
    w.raw(env.signed if env.signed is not None else signing_bytes(env))
    w.u8(env.auth_scheme.value)
    w.bytes_u16(env.auth_tag)
    return w.getvalue()


def decode_envelope(data: bytes) -> ProtocolEnvelope:
    size = len(data)
    if size < 27:  # the fixed fields alone, around an empty sender-id, body and tag
        raise TruncatedBufferError(f"envelope of {size} bytes is shorter than its fixed fields")
    version, type_code, sender_len = _HEAD.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise UnknownVersionError(f"unsupported protocol version {version}")
    msg_type = _MESSAGE_TYPES.get(type_code)
    if msg_type is None:
        raise UnknownMessageTypeError(f"unknown message type {type_code}")
    body_start = 24 + sender_len
    if body_start + 3 > size:
        raise LengthOverrunError(f"declared sender-id length {sender_len} exceeds the envelope")
    try:
        sender = data[4 : 4 + sender_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFieldError(f"invalid utf-8: {exc}") from None
    sequence, timestamp, body_len = _STAMP.unpack_from(data, 4 + sender_len)
    if body_len > MAX_BODY_LEN:
        raise LengthOverrunError(f"declared body length {body_len} exceeds the {MAX_BODY_LEN} cap")
    body_end = body_start + body_len
    if body_end + 3 > size:
        raise LengthOverrunError(f"declared body length {body_len} exceeds the envelope")
    body = decode_body(msg_type, data[body_start:body_end])
    scheme_code, tag_len = _TAIL.unpack_from(data, body_end)
    scheme = _SCHEMES.get(scheme_code)
    if scheme is None:
        raise MalformedFieldError(f"unknown auth scheme {scheme_code}")
    if body_end + 3 + tag_len != size:
        raise LengthOverrunError(f"declared tag length {tag_len} does not end the envelope")
    env = ProtocolEnvelope(sender, sequence, timestamp, body, scheme, data[body_end + 3 :], version)
    return keep_signed(env, data[:body_end])
