"""Canonical binary encoding of the domain types.

All integers are big-endian; variable-length parts are length-prefixed;
every set-valued field is sorted before encoding.  Equal values therefore
encode to identical bytes, which the rest of the system relies on for store
keys, authentication tags, and golden fixtures.  Decoding is total: any
input either yields a value or raises a typed DecodeError, never an
uncontrolled exception.

Each decoder `*_at(data, pos)` reads one value at offset `pos` of `data` and
returns it with the offset just past it.  A fixed-size field cut short raises
`struct.error` or `IndexError` there, which `decode_whole`, the entry point,
turns into TruncatedBufferError.
"""

from __future__ import annotations

import struct

from ..decisions import AccessDecision
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


class Writer:
    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, v: int) -> "Writer":
        self._parts.append(v.to_bytes(1, "big"))
        return self

    def _int(self, v: int, size: int, signed: bool = False) -> "Writer":
        try:
            self._parts.append(v.to_bytes(size, "big", signed=signed))
        except OverflowError:
            raise EncodeError(f"{'i' if signed else 'u'}{8 * size} out of range: {v}") from None
        return self

    def u16(self, v: int) -> "Writer":
        return self._int(v, 2)

    def u32(self, v: int) -> "Writer":
        return self._int(v, 4)

    def u64(self, v: int) -> "Writer":
        return self._int(v, 8)

    def i64(self, v: int) -> "Writer":
        return self._int(v, 8, signed=True)

    def f64(self, v: float) -> "Writer":
        self._parts.append(_F64.pack(v))
        return self

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def bytes_u16(self, data: bytes) -> "Writer":
        return self.u16(len(data)).raw(data)

    def bytes_u32(self, data: bytes) -> "Writer":
        return self.u32(len(data)).raw(data)

    def text(self, s: str) -> "Writer":
        return self.bytes_u16(s.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


_U16 = struct.Struct(">H")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_I64_PAIR = struct.Struct(">qq")
_U64_PAIR = struct.Struct(">QQ")
_F64 = struct.Struct(">d")


def decode_whole(read, data: bytes):
    """The value `read(data, 0)` decodes; it must end exactly where `data` does."""
    try:
        value, pos = read(data, 0)
    except (struct.error, IndexError):
        raise TruncatedBufferError(f"input of {len(data)} bytes ends inside a field") from None
    if pos != len(data):
        raise LengthOverrunError(f"{len(data) - pos} unconsumed trailing bytes")
    return value


def text_at(data: bytes, pos: int) -> tuple[str, int]:
    (n,) = _U16.unpack_from(data, pos)
    pos += 2
    end = pos + n
    if end > len(data):
        raise LengthOverrunError(f"declared length {n} exceeds remaining {len(data) - pos} bytes")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise MalformedFieldError(f"invalid utf-8: {exc}") from None


def items_at(read, data: bytes, pos: int) -> tuple[list, int]:
    """A u16 count, then that many values `read` decodes."""
    (n,) = _U16.unpack_from(data, pos)
    pos += 2
    out = []
    for _ in range(n):
        item, pos = read(data, pos)
        out.append(item)
    return out, pos


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


def value_at(data: bytes, pos: int):
    tag = data[pos]
    if tag == _VT_INT:
        return _I64.unpack_from(data, pos + 1)[0], pos + 9
    if tag == _VT_STR:
        return text_at(data, pos + 1)
    if tag == _VT_BOOL:
        b = data[pos + 1]
        if b > 1:
            raise MalformedFieldError(f"bool byte {b}")
        return b == 1, pos + 2
    if tag == _VT_FLOAT:
        return _F64.unpack_from(data, pos + 1)[0], pos + 9
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


def _operand_at(data: bytes, pos: int) -> tuple[MatchOp, object, int]:
    code = data[pos]
    op = _OP_FROM.get(code)
    if op is None:
        raise MalformedFieldError(f"unknown match operator {code}")
    if op is MatchOp.EQ:
        return (op, *value_at(data, pos + 1))
    if op is MatchOp.IN_SET:
        members, end = items_at(value_at, data, pos + 1)
        if not members:
            raise MalformedFieldError("empty in-set operand")
        return op, frozenset(members), end
    if op is MatchOp.PREFIX:
        return (op, *text_at(data, pos + 1))
    lo, hi = _I64_PAIR.unpack_from(data, pos + 1)
    if lo > hi:
        raise MalformedFieldError("range operand with lo > hi")
    return op, (lo, hi), pos + 17


def _write_flow_node(w: Writer, node: PredicateNode) -> None:
    w.u8(_KIND_CODE[node.kind]).text(node.ident)
    if node.kind is not PredicateKind.HIERARCHY:
        _write_operand(w, node.op, node.operand)
    w.u16(len(node.children))
    for child in node.children:
        _write_flow_node(w, child)


def _flow_node_at(data: bytes, pos: int, depth: int, recoded: list) -> tuple[PredicateNode, int]:
    """One node and its subtree; an in-set operand that would encode otherwise
    than it was read (out of order, or with repeats) goes to `recoded`."""
    if depth > 32:
        raise MalformedFieldError("pattern nesting too deep")
    kind = _KIND_FROM.get(data[pos])
    if kind is None:
        raise MalformedFieldError("unknown predicate kind")
    ident, pos = text_at(data, pos + 1)
    op = operand = None
    if kind is not PredicateKind.HIERARCHY:
        start = pos
        op, operand, pos = _operand_at(data, pos)
        if op is MatchOp.IN_SET and _operand_bytes(op, operand) != data[start:pos]:
            recoded.append(operand)
    children, pos = items_at(lambda data, pos: _flow_node_at(data, pos, depth + 1, recoded),
                             data, pos)
    try:
        return PredicateNode(kind, ident, op, operand, tuple(children)), pos
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def _operand_bytes(op: MatchOp, operand) -> bytes:
    w = Writer()
    _write_operand(w, op, operand)
    return w.getvalue()


def encode_flow_pattern(flow: FlowPattern) -> bytes:
    """Encodes the tree; `FlowPattern.canonical_bytes` keeps the result."""
    w = Writer()
    _write_flow_node(w, flow.root)
    return w.getvalue()


def flow_at(data: bytes, pos: int) -> tuple[FlowPattern, int]:
    """A flow pattern, which keeps the bytes it was read from when they are
    its canonical encoding: normalization left its tree as read."""
    start, recoded = pos, []
    root, pos = _flow_node_at(data, pos, 0, recoded)
    try:
        flow = FlowPattern(root)
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None
    if flow.root is root and not recoded:
        object.__setattr__(flow, "encoded", data[start:pos])
    return flow, pos


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


def _request_node_at(data: bytes, pos: int, depth: int = 0) -> tuple[RequestNode, int]:
    if depth > 32:
        raise MalformedFieldError("request nesting too deep")
    layer, pos = text_at(data, pos)
    (n,) = _U16.unpack_from(data, pos)
    pos += 2
    facts = []
    for _ in range(n):
        fid, pos = text_at(data, pos)
        value, pos = value_at(data, pos)
        facts.append((fid, value))
    flag = data[pos]
    pos += 1
    child = None
    if flag == 1:
        child, pos = _request_node_at(data, pos, depth + 1)
    elif flag != 0:
        raise MalformedFieldError(f"bad child flag {flag}")
    try:
        facts.sort()
    except TypeError:  # one field twice, with values that do not order
        raise MalformedFieldError(f"repeated field in layer {layer!r}") from None
    return RequestNode(layer, tuple(facts), child), pos


def write_request_pattern(w: Writer, req: AccessRequestPattern) -> None:
    _write_request_node(w, req.root)


def request_at(data: bytes, pos: int) -> tuple[AccessRequestPattern, int]:
    root, pos = _request_node_at(data, pos)
    return AccessRequestPattern(root), pos


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


def _predicate_at(data: bytes, pos: int) -> tuple[AuxiliaryPredicate, int]:
    pid, pos = text_at(data, pos)
    terms, pos = items_at(_term_at, data, pos)
    try:
        return AuxiliaryPredicate(pid, tuple(terms)), pos
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def _term_at(data: bytes, pos: int) -> tuple[Term, int]:
    source, pos = text_at(data, pos)
    negated = data[pos]
    if negated > 1:
        raise MalformedFieldError(f"bad negation flag {negated}")
    comparisons, pos = items_at(_comparison_at, data, pos + 1)
    try:
        return Term(source, negated == 1, tuple(comparisons)), pos
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def _comparison_at(data: bytes, pos: int) -> tuple[Comparison, int]:
    key, pos = text_at(data, pos)
    op = _CMP_FROM.get(data[pos])
    if op is None:
        raise MalformedFieldError("unknown comparison operator")
    value, pos = value_at(data, pos + 1)
    return Comparison(key, op, value), pos


def write_policy(w: Writer, policy: Policy) -> None:
    w.text(policy.id).u8(_ACTION_CODE[policy.action])
    w.raw(policy.flow.canonical_bytes())
    preds = sorted(policy.auxiliary, key=lambda p: p.id)
    w.u16(len(preds))
    for pred in preds:
        write_predicate(w, pred)
    w.u64(policy.static_max_validity)
    hops = sorted(policy.nexthop_ids)
    w.u16(len(hops))
    for dep in hops:
        w.text(dep)


def policy_at(data: bytes, pos: int) -> tuple[Policy, int]:
    pid, pos = text_at(data, pos)
    action = _ACTION_FROM.get(data[pos])
    if action is None:
        raise MalformedFieldError("unknown action code")
    flow, pos = flow_at(data, pos + 1)
    preds, pos = items_at(_predicate_at, data, pos)
    (static_max_validity,) = _U64.unpack_from(data, pos)
    hops, pos = items_at(text_at, data, pos + 8)
    return Policy(pid, action, flow, frozenset(preds), static_max_validity, frozenset(hops)), pos


def encode_policy(policy: Policy) -> bytes:
    w = Writer()
    write_policy(w, policy)
    return w.getvalue()


def decode_policy(data: bytes) -> Policy:
    return decode_whole(policy_at, data)


# --- bindings and decisions --------------------------------------------------


def write_binding(w: Writer, b: AttributeBinding) -> None:
    w.text(b.key)
    write_value(w, b.value)
    w.u64(b.valid_from).u64(b.valid_until)


def binding_at(data: bytes, pos: int) -> tuple[AttributeBinding, int]:
    key, pos = text_at(data, pos)
    value, pos = value_at(data, pos)
    valid_from, valid_until = _U64_PAIR.unpack_from(data, pos)
    try:
        return AttributeBinding(key, value, valid_from, valid_until), pos + 16
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


def write_decision(w: Writer, d) -> None:
    flows = sorted(f.canonical_bytes() for f in d.flows)
    w.u16(len(flows))
    for f in flows:
        w.raw(f)
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


def decision_at(data: bytes, pos: int) -> tuple[AccessDecision, int]:
    (nflows,) = _U16.unpack_from(data, pos)
    if nflows == 0:
        raise MalformedFieldError("decision without flows")
    flows, pos = items_at(flow_at, data, pos)
    action = _ACTION_FROM.get(data[pos])
    if action is None:
        raise MalformedFieldError("unknown action code")
    nexthop, pos = items_at(text_at, data, pos + 1)
    valid_from, valid_until = _U64_PAIR.unpack_from(data, pos)
    origins, pos = items_at(text_at, data, pos + 16)
    try:
        return AccessDecision(tuple(flows), action, frozenset(nexthop), valid_from, valid_until,
                              frozenset(origins)), pos
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None
