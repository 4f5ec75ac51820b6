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

import functools
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
    derived_constraints,
    is_pin,
    operand_text,
    trusted_flow,
    trusted_node,
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
_new = object.__new__


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

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def bytes_u16(self, data: bytes) -> "Writer":
        return self.u16(len(data)).raw(data)

    def bytes_u32(self, data: bytes) -> "Writer":
        return self.u32(len(data)).raw(data)

    def text(self, s: str) -> "Writer":
        self._parts.append(text_bytes(s))
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


_U16 = struct.Struct(">H")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
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
    end = pos + 2 + (data[pos] << 8 | data[pos + 1])
    if end > len(data):
        raise LengthOverrunError(f"declared length {end - pos - 2} exceeds the remaining bytes")
    try:
        return data[pos + 2:end].decode(), end
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
_FALSE, _TRUE, _STR_TAG = bytes((_VT_BOOL, 0)), bytes((_VT_BOOL, 1)), bytes((_VT_STR,))


def value_bytes(v) -> bytes:
    """A value's encoding, its type tag and then the value; also its sort key."""
    try:
        if type(v) is int:
            return _TAG_I64.pack(_VT_INT, v)
        if type(v) is str:
            return _STR_TAG + text_bytes(v)
        if type(v) is bool:
            return _TRUE if v else _FALSE
        if type(v) is float:
            return _TAG_F64.pack(_VT_FLOAT, v)
    except struct.error:
        raise EncodeError(f"{type(v).__name__} value out of range") from None
    raise EncodeError(f"unencodable value type {type(v).__name__}")


def text_bytes(s: str) -> bytes:
    """A string's encoding: its UTF-8 length as a u16, then the UTF-8."""
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise EncodeError(f"u16 out of range: {len(raw)}")
    return _U16.pack(len(raw)) + raw


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


# --- flow patterns ----------------------------------------------------------

_KIND_CODE = {
    PredicateKind.HIERARCHY: 0,
    PredicateKind.HIERARCHY_CONSTRAINED: 1,
    PredicateKind.PARAMETRIC: 2,
}
_KIND_FROM = {v: k for k, v in _KIND_CODE.items()}

_HIERARCHY, _PARAMETRIC = PredicateKind.HIERARCHY, PredicateKind.PARAMETRIC
_OP_CODE = {MatchOp.EQ: 0, MatchOp.IN_SET: 1, MatchOp.PREFIX: 2, MatchOp.RANGE: 3}
_OP_FROM = {v: k for k, v in _OP_CODE.items()}


def _write_operand(w: Writer, op: MatchOp, operand) -> None:
    w.u8(_OP_CODE[op])
    if op is MatchOp.EQ:
        w.raw(value_bytes(operand))
    elif op is MatchOp.IN_SET:
        members = sorted(operand, key=value_bytes)
        w.u16(len(members))
        for v in members:
            w.raw(value_bytes(v))
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


def _flow_node_at(data: bytes, pos: int, depth: int) -> tuple[PredicateNode, int, bool]:
    """One node and its subtree, checked as the constructors check them, and whether
    they are in normalized form and encode as read (no in-set out of order or repeated)."""
    if depth > 32:
        raise MalformedFieldError("pattern nesting too deep")
    kind = _KIND_FROM.get(data[pos])
    if kind is None:
        raise MalformedFieldError("unknown predicate kind")
    ident, pos = text_at(data, pos + 1)
    if kind is not _HIERARCHY:
        op, operand, end = _operand_at(data, pos)
        if data[end] or data[end + 1]:  # read the children first: they may be malformed too
            items_at(lambda data, pos: _flow_node_at(data, pos, depth + 1)[:2], data, end)
            raise MalformedFieldError(f"leaf predicate {ident!r} has children")
        return trusted_node(kind, ident, op, operand), end + 2, \
            op is not MatchOp.IN_SET or _operand_bytes(op, operand) == data[pos:end]
    (n,) = _U16.unpack_from(data, pos)
    pos += 2
    children = []
    normal = True
    for _ in range(n):
        child, pos, child_normal = _flow_node_at(data, pos, depth + 1)
        children.append(child)
        normal = normal and child_normal
    return trusted_node(kind, ident, None, None, tuple(children)), pos, \
        normal and _in_normal_form(ident, children)


def _in_normal_form(ident: str, children: list) -> bool:
    """Whether normalization leaves a hierarchy node with these children, each
    normal itself, as it is: the derived pins, then the parametric leaves in
    (field, operator, operand text) order, then at most one hierarchy child."""
    hier = children[-1] if children and children[-1].kind is _HIERARCHY else None
    pins = derived_constraints(ident, hier.ident) if hier is not None else ()
    for (fid, value), leaf in zip(pins, children):
        if not is_pin(leaf, fid, value):
            return False
    last = None
    for leaf in children[len(pins):len(children) - (hier is not None)]:
        if leaf.kind is not _PARAMETRIC or last is not None and last.ident >= leaf.ident and (
                last.ident > leaf.ident or (last.op.value, operand_text(last.op, last.operand))
                > (leaf.op.value, operand_text(leaf.op, leaf.operand))):
            return False
        last = leaf
    return True


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
    """A flow pattern.  One read in normalized form is built as read and keeps the
    bytes it was read from, its canonical encoding; any other is normalized."""
    start = pos
    root, pos, normal = _flow_node_at(data, pos, 0)
    if normal and root.kind is _HIERARCHY:
        return trusted_flow(root, data[start:pos]), pos
    try:
        return FlowPattern(root), pos
    except FlowgateError as exc:
        raise MalformedFieldError(str(exc)) from None


# --- request patterns -------------------------------------------------------


_name_bytes = functools.lru_cache(maxsize=256)(text_bytes)  # layer and field names: a few dozen


def write_request_pattern(w: Writer, req: AccessRequestPattern) -> None:
    """Each anchor: its layer, its facts in field order, then whether a child follows."""
    parts, node = w._parts, req.root
    while node is not None:
        facts = sorted(node.facts)
        if len(facts) > 0xFFFF:
            raise EncodeError(f"{len(facts)} facts in layer {node.layer!r}")
        parts += (_name_bytes(node.layer), _U16.pack(len(facts)))
        for fid, val in facts:
            parts += (_name_bytes(fid), value_bytes(val))
        node = node.child
        parts.append(b"\x00" if node is None else b"\x01")


def request_at(data: bytes, pos: int) -> tuple[AccessRequestPattern, int]:
    anchors = []
    while True:
        if len(anchors) > 32:
            raise MalformedFieldError("request nesting too deep")
        layer, pos = text_at(data, pos)
        (n,) = _U16.unpack_from(data, pos)
        pos += 2
        facts = []
        for _ in range(n):
            fid, pos = text_at(data, pos)
            value, pos = value_at(data, pos)
            facts.append((fid, value))
        anchors.append((layer, facts))
        flag = data[pos]
        pos += 1
        if flag == 0:
            break
        if flag != 1:
            raise MalformedFieldError(f"bad child flag {flag}")
    node = None
    for layer, facts in reversed(anchors):
        try:
            facts.sort()
        except TypeError:  # one field twice, with values that do not order
            raise MalformedFieldError(f"repeated field in layer {layer!r}") from None
        outer = _new(RequestNode)  # no checks to skip: as `frames` links a dissection
        outer.__dict__.update(layer=layer, facts=tuple(facts), child=node)
        node = outer
    return AccessRequestPattern(node), pos


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
            w.raw(value_bytes(c.value))


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
    w.raw(value_bytes(b.value))
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
    flows, pos = items_at(flow_at, data, pos)
    if not flows:
        raise MalformedFieldError("decision without flows")
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
