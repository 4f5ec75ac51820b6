"""Canonical binary encoding of the domain types.

All integers are big-endian; variable-length parts are length-prefixed;
every set-valued field is sorted before encoding.  Equal values therefore
encode to identical bytes, which the rest of the system relies on for store
keys, authentication tags, and golden fixtures.  Decoding is total: any
input either yields a value or raises a typed DecodeError, never an
uncontrolled exception.
"""

from __future__ import annotations

import struct

from ..errors import FlowgateError
from ..patterns import (
    AccessRequestPattern,
    FlowPattern,
    MatchOp,
    PredicateKind,
    PredicateNode,
    RequestNode,
)
from ..policy import (
    Action,
    AttributeBinding,
    AuxiliaryPredicate,
    Comparison,
    CompareOp,
    Policy,
    Term,
)


class EncodeError(FlowgateError):
    """Value outside the wire format's representable range."""


class DecodeError(FlowgateError):
    """Base class of all decoding failures."""


class TruncatedBufferError(DecodeError):
    """Input ended before a fixed-size field was complete."""


class LengthOverrunError(DecodeError):
    """A declared length exceeds the remaining input, or input is left over."""


class UnknownVersionError(DecodeError):
    pass


class UnknownMessageTypeError(DecodeError):
    pass


class MalformedFieldError(DecodeError):
    """Structurally intact but semantically invalid field content."""


MAX_BODY_LEN = 2**24 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class Writer:
    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, v: int) -> "Writer":
        self._parts.append(v.to_bytes(1, "big"))
        return self

    def u16(self, v: int) -> "Writer":
        if not 0 <= v < 2**16:
            raise EncodeError(f"u16 out of range: {v}")
        self._parts.append(v.to_bytes(2, "big"))
        return self

    def u32(self, v: int) -> "Writer":
        if not 0 <= v < 2**32:
            raise EncodeError(f"u32 out of range: {v}")
        self._parts.append(v.to_bytes(4, "big"))
        return self

    def u64(self, v: int) -> "Writer":
        if not 0 <= v < 2**64:
            raise EncodeError(f"u64 out of range: {v}")
        self._parts.append(v.to_bytes(8, "big"))
        return self

    def i64(self, v: int) -> "Writer":
        if not _I64_MIN <= v <= _I64_MAX:
            raise EncodeError(f"i64 out of range: {v}")
        self._parts.append(v.to_bytes(8, "big", signed=True))
        return self

    def f64(self, v: float) -> "Writer":
        self._parts.append(struct.pack(">d", v))
        return self

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def bytes_u16(self, data: bytes) -> "Writer":
        self.u16(len(data))
        self._parts.append(data)
        return self

    def bytes_u32(self, data: bytes) -> "Writer":
        self.u32(len(data))
        self._parts.append(data)
        return self

    def text(self, s: str) -> "Writer":
        return self.bytes_u16(s.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise TruncatedBufferError(
                f"need {n} bytes at offset {self._pos}, have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def i64(self) -> int:
        return int.from_bytes(self._take(8), "big", signed=True)

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def _counted(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise LengthOverrunError(
                f"declared length {n} exceeds remaining {len(self._data) - self._pos} bytes"
            )
        return self._take(n)

    def bytes_u16(self) -> bytes:
        return self._counted(self.u16())

    def bytes_u32(self) -> bytes:
        return self._counted(self.u32())

    def text(self) -> str:
        raw = self.bytes_u16()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFieldError(f"invalid utf-8: {exc}") from None

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining():
            raise LengthOverrunError(f"{self.remaining()} unconsumed trailing bytes")


# --- scalar values ----------------------------------------------------------

_VT_BOOL, _VT_INT, _VT_FLOAT, _VT_STR = 0, 1, 2, 3


def write_value(w: Writer, v) -> None:
    if type(v) is bool:
        w.u8(_VT_BOOL).u8(1 if v else 0)
    elif type(v) is int:
        w.u8(_VT_INT).i64(v)
    elif type(v) is float:
        w.u8(_VT_FLOAT).f64(v)
    elif type(v) is str:
        w.u8(_VT_STR).text(v)
    else:
        raise EncodeError(f"unencodable value type {type(v).__name__}")


def read_value(r: Reader):
    tag = r.u8()
    if tag == _VT_BOOL:
        b = r.u8()
        if b not in (0, 1):
            raise MalformedFieldError(f"bool byte {b}")
        return b == 1
    if tag == _VT_INT:
        return r.i64()
    if tag == _VT_FLOAT:
        return r.f64()
    if tag == _VT_STR:
        return r.text()
    raise MalformedFieldError(f"unknown value tag {tag}")


def value_sort_key(v) -> bytes:
    w = Writer()
    write_value(w, v)
    return w.getvalue()


# --- flow patterns ----------------------------------------------------------

_KIND_CODE = {
    PredicateKind.HIERARCHY: 0,
    PredicateKind.HIERARCHY_CONSTRAINED: 1,
    PredicateKind.PARAMETRIC: 2,
}
_KIND_FROM = {v: k for k, v in _KIND_CODE.items()}

_OP_CODE = {MatchOp.EQ: 0, MatchOp.IN_SET: 1, MatchOp.PREFIX: 2, MatchOp.RANGE: 3}
_OP_FROM = {v: k for k, v in _OP_CODE.items()}


def _write_operand(w: Writer, op: MatchOp, operand) -> None:
    w.u8(_OP_CODE[op])
    if op is MatchOp.EQ:
        write_value(w, operand)
    elif op is MatchOp.IN_SET:
        members = sorted(operand, key=value_sort_key)
        w.u16(len(members))
        for v in members:
            write_value(w, v)
    elif op is MatchOp.PREFIX:
        w.text(operand)
    else:
        lo, hi = operand
        w.i64(lo).i64(hi)


def _read_operand(r: Reader) -> tuple[MatchOp, object]:
    code = r.u8()
    op = _OP_FROM.get(code)
    if op is None:
        raise MalformedFieldError(f"unknown match operator {code}")
    if op is MatchOp.EQ:
        return op, read_value(r)
    if op is MatchOp.IN_SET:
        n = r.u16()
        if n == 0:
            raise MalformedFieldError("empty in-set operand")
        return op, frozenset(read_value(r) for _ in range(n))
    if op is MatchOp.PREFIX:
        return op, r.text()
    lo, hi = r.i64(), r.i64()
    if lo > hi:
        raise MalformedFieldError("range operand with lo > hi")
    return op, (lo, hi)


def _write_flow_node(w: Writer, node: PredicateNode) -> None:
    w.u8(_KIND_CODE[node.kind]).text(node.ident)
    if node.kind is not PredicateKind.HIERARCHY:
        _write_operand(w, node.op, node.operand)
    w.u16(len(node.children))
    for child in node.children:
        _write_flow_node(w, child)


def _read_flow_node(r: Reader, depth: int = 0) -> PredicateNode:
    if depth > 32:
        raise MalformedFieldError("pattern nesting too deep")
    kind = _KIND_FROM.get(r.u8())
    if kind is None:
        raise MalformedFieldError("unknown predicate kind")
    ident = r.text()
    op = operand = None
    if kind is not PredicateKind.HIERARCHY:
        op, operand = _read_operand(r)
    n = r.u16()
    children = tuple(_read_flow_node(r, depth + 1) for _ in range(n))
    try:
        return PredicateNode(kind, ident, op, operand, children)
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def encode_flow_pattern(flow: FlowPattern) -> bytes:
    w = Writer()
    write_flow_pattern(w, flow)
    return w.getvalue()


def write_flow_pattern(w: Writer, flow: FlowPattern) -> None:
    _write_flow_node(w, flow.root)


def read_flow_pattern(r: Reader) -> FlowPattern:
    root = _read_flow_node(r)
    try:
        return FlowPattern(root)
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


# --- request patterns -------------------------------------------------------


def _write_request_node(w: Writer, node: RequestNode) -> None:
    w.text(node.layer)
    w.u16(len(node.facts))
    for fid, val in sorted(node.facts):
        w.text(fid)
        write_value(w, val)
    if node.child is None:
        w.u8(0)
    else:
        w.u8(1)
        _write_request_node(w, node.child)


def _read_request_node(r: Reader, depth: int = 0) -> RequestNode:
    if depth > 32:
        raise MalformedFieldError("request nesting too deep")
    layer = r.text()
    n = r.u16()
    facts = []
    for _ in range(n):
        facts.append((r.text(), read_value(r)))
    child = None
    flag = r.u8()
    if flag == 1:
        child = _read_request_node(r, depth + 1)
    elif flag != 0:
        raise MalformedFieldError(f"bad child flag {flag}")
    return RequestNode(layer, tuple(sorted(facts)), child)


def write_request_pattern(w: Writer, req: AccessRequestPattern) -> None:
    _write_request_node(w, req.root)


def read_request_pattern(r: Reader) -> AccessRequestPattern:
    return AccessRequestPattern(_read_request_node(r))


# --- policies and preconditions ---------------------------------------------

_CMP_CODE = {
    CompareOp.EQ: 0,
    CompareOp.NE: 1,
    CompareOp.LT: 2,
    CompareOp.LE: 3,
    CompareOp.GT: 4,
    CompareOp.GE: 5,
}
_CMP_FROM = {v: k for k, v in _CMP_CODE.items()}

_ACTION_CODE = {Action.GRANT: 0, Action.DENY: 1}
_ACTION_FROM = {v: k for k, v in _ACTION_CODE.items()}


def write_predicate(w: Writer, pred: AuxiliaryPredicate) -> None:
    w.text(pred.id)
    w.u16(len(pred.terms))
    for term in pred.terms:
        w.text(term.source_id).u8(1 if term.negated else 0)
        w.u16(len(term.comparisons))
        for c in term.comparisons:
            w.text(c.key).u8(_CMP_CODE[c.op])
            write_value(w, c.value)


def read_predicate(r: Reader) -> AuxiliaryPredicate:
    pid = r.text()
    nterms = r.u16()
    terms = []
    for _ in range(nterms):
        source = r.text()
        negated = r.u8()
        if negated not in (0, 1):
            raise MalformedFieldError(f"bad negation flag {negated}")
        ncmp = r.u16()
        comparisons = []
        for _ in range(ncmp):
            key = r.text()
            op = _CMP_FROM.get(r.u8())
            if op is None:
                raise MalformedFieldError("unknown comparison operator")
            comparisons.append(Comparison(key, op, read_value(r)))
        try:
            terms.append(Term(source, negated == 1, tuple(comparisons)))
        except FlowgateError as exc:
            raise MalformedFieldError(str(exc)) from None
    try:
        return AuxiliaryPredicate(pid, tuple(terms))
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def write_policy(w: Writer, policy: Policy) -> None:
    w.text(policy.id).u8(_ACTION_CODE[policy.action])
    write_flow_pattern(w, policy.flow)
    preds = sorted(policy.auxiliary, key=lambda p: p.id)
    w.u16(len(preds))
    for pred in preds:
        write_predicate(w, pred)
    w.u64(policy.static_max_validity)
    hops = sorted(policy.nexthop_ids)
    w.u16(len(hops))
    for dep in hops:
        w.text(dep)


def read_policy(r: Reader) -> Policy:
    pid = r.text()
    action = _ACTION_FROM.get(r.u8())
    if action is None:
        raise MalformedFieldError("unknown action code")
    flow = read_flow_pattern(r)
    preds = frozenset(read_predicate(r) for _ in range(r.u16()))
    static_max_validity = r.u64()
    hops = frozenset(r.text() for _ in range(r.u16()))
    return Policy(pid, action, flow, preds, static_max_validity, hops)


def encode_policy(policy: Policy) -> bytes:
    w = Writer()
    write_policy(w, policy)
    return w.getvalue()


def decode_policy(data: bytes) -> Policy:
    r = Reader(data)
    policy = read_policy(r)
    r.expect_end()
    return policy


# --- bindings and decisions --------------------------------------------------


def write_binding(w: Writer, b: AttributeBinding) -> None:
    w.text(b.key)
    write_value(w, b.value)
    w.u64(b.valid_from).u64(b.valid_until)


def read_binding(r: Reader) -> AttributeBinding:
    key = r.text()
    value = read_value(r)
    valid_from, valid_until = r.u64(), r.u64()
    try:
        return AttributeBinding(key, value, valid_from, valid_until)
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def write_decision(w: Writer, d) -> None:
    flows = sorted(d.flows, key=encode_flow_pattern)
    w.u16(len(flows))
    for f in flows:
        write_flow_pattern(w, f)
    w.u8(_ACTION_CODE[d.action])
    hops = sorted(d.nexthop)
    w.u16(len(hops))
    for dep in hops:
        w.text(dep)
    w.u64(d.valid_from).u64(d.valid_until)
    origins = sorted(d.origin_policy_ids)
    w.u16(len(origins))
    for pid in origins:
        w.text(pid)


def read_decision(r: Reader):
    from ..decisions import AccessDecision

    nflows = r.u16()
    if nflows == 0:
        raise MalformedFieldError("decision without flows")
    flows = tuple(read_flow_pattern(r) for _ in range(nflows))
    action = _ACTION_FROM.get(r.u8())
    if action is None:
        raise MalformedFieldError("unknown action code")
    nexthop = frozenset(r.text() for _ in range(r.u16()))
    valid_from, valid_until = r.u64(), r.u64()
    origins = frozenset(r.text() for _ in range(r.u16()))
    try:
        return AccessDecision(flows, action, nexthop, valid_from, valid_until, origins)
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None
