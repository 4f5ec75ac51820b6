"""Flow patterns, access request patterns, and the matching engine.

A *flow pattern* is a rooted tree of predicates describing a set of frames:
hierarchy nodes name protocol layers and give the tree its shape, derived
(hierarchy-constrained) nodes pin fields that follow from the layering, and
parametric nodes carry user-configured field comparisons.  An *access request
pattern* is the fact-tree of one concrete frame: a linear chain of layer
anchors, each holding the field values extracted from that layer.

Matching aligns the pattern root with an anchor of the request and evaluates
every predicate against the facts found there.  Nested matching retries the
alignment at each anchor, outermost first, so a pattern written for an inner
protocol still matches tunnelled traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterator, Optional, Union

from .errors import PatternError

# Concrete field/fact values.  bool must be checked before int everywhere:
# isinstance(True, int) is true in Python.
Value = Union[bool, int, float, str]

#: Layers whose payload is never parsed further.
TERMINAL_LAYERS = frozenset({"goose", "sv", "opaque"})


class PredicateKind(Enum):
    HIERARCHY = "hierarchy"
    HIERARCHY_CONSTRAINED = "hierarchy-constrained"
    PARAMETRIC = "parametric"


class MatchOp(Enum):
    EQ = "eq"
    IN_SET = "in-set"
    PREFIX = "prefix"
    RANGE = "range"


class Specificity(Enum):
    MORE_SPECIFIC = "more-specific"
    LESS_SPECIFIC = "less-specific"
    EQUAL = "equal"
    CONFLICTING = "conflicting"


# Constraints implied by a (parent layer, child layer) pair.  These become
# hierarchy-constrained nodes during normalization and are never written by
# users.  Each entry pins a demultiplexing field of the parent layer.
_ETHERTYPE_OF = {"goose": 0x88B8, "sv": 0x88BA, "ipv4": 0x0800, "vlan": 0x8100}
_IP_PROTO_OF = {"udp": 17, "tcp": 6}


def derived_constraints(parent: str, child: str) -> list[tuple[str, Value]]:
    """Field constraints on `parent` implied by carrying `child` above it."""
    out: list[tuple[str, Value]] = []
    if parent in ("eth", "vlan") and child in _ETHERTYPE_OF:
        out.append(("ethertype", _ETHERTYPE_OF[child]))
    elif parent == "ipv4" and child in _IP_PROTO_OF:
        out.append(("protocol", _IP_PROTO_OF[child]))
    return out


def _value_typecode(v: Value) -> str:
    if type(v) is bool:
        return "b"
    if type(v) is int:
        return "i"
    if type(v) is float:
        return "f"
    return "s"


def value_text(v: Value) -> str:
    """Canonical, type-tagged text form of a value (sorting / set keys)."""
    if type(v) is bool:
        return "b:" + ("true" if v else "false")
    return f"{_value_typecode(v)}:{v!r}"


def _same_type(a: Value, b: Value) -> bool:
    return type(a) is type(b)


def operand_text(op: MatchOp, operand) -> str:
    """Canonical text of an operator/operand pair, stable under set order."""
    if op is MatchOp.EQ:
        return value_text(operand)
    if op is MatchOp.IN_SET:
        return "{" + ",".join(sorted(value_text(v) for v in operand)) + "}"
    if op is MatchOp.PREFIX:
        return value_text(operand)
    lo, hi = operand
    return f"{lo!r}..{hi!r}"


@dataclass(frozen=True)
class PredicateNode:
    """One node of a flow pattern tree.

    `ident` is a layer id for hierarchy nodes and a field id otherwise.
    `operand` holds a Value for EQ, a frozenset for IN_SET, a str for
    PREFIX, and an (int, int) pair for RANGE.
    """

    kind: PredicateKind
    ident: str
    op: Optional[MatchOp] = None
    operand: object = None
    children: tuple["PredicateNode", ...] = ()

    def __post_init__(self):
        if self.kind is PredicateKind.HIERARCHY:
            if self.op is not None or self.operand is not None:
                raise PatternError(f"hierarchy node {self.ident!r} carries an operand")
        else:
            if self.children:
                raise PatternError(f"leaf predicate {self.ident!r} has children")
            if self.op is None:
                raise PatternError(f"predicate {self.ident!r} has no operator")
            _check_operand(self.ident, self.op, self.operand)

    def hierarchy_child(self) -> Optional["PredicateNode"]:
        for c in self.children:
            if c.kind is PredicateKind.HIERARCHY:
                return c
        return None

    def leaf_children(self) -> Iterator["PredicateNode"]:
        for c in self.children:
            if c.kind is not PredicateKind.HIERARCHY:
                yield c


def _check_operand(ident: str, op: MatchOp, operand) -> None:
    if op is MatchOp.EQ:
        if not isinstance(operand, (bool, int, float, str)):
            raise PatternError(f"{ident}: eq operand must be a scalar")
    elif op is MatchOp.IN_SET:
        if not isinstance(operand, frozenset) or not operand:
            raise PatternError(f"{ident}: in-set operand must be a non-empty frozenset")
        for v in operand:
            if not isinstance(v, (bool, int, float, str)):
                raise PatternError(f"{ident}: in-set member must be a scalar")
    elif op is MatchOp.PREFIX:
        if not isinstance(operand, str):
            raise PatternError(f"{ident}: prefix operand must be a string")
    elif op is MatchOp.RANGE:
        ok = (
            isinstance(operand, tuple)
            and len(operand) == 2
            and all(type(x) is int for x in operand)
            and operand[0] <= operand[1]
        )
        if not ok:
            raise PatternError(f"{ident}: range operand must be (lo, hi) ints with lo <= hi")


@dataclass(frozen=True)
class FlowPattern:
    """Immutable, validated, canonically ordered predicate tree.

    The root is normalized once, on construction (derived layer constraints
    inserted, siblings ordered canonically), so structurally equal patterns
    compare and encode identically.
    """

    root: PredicateNode

    def __post_init__(self):
        violations = flow_pattern_violations(self.root)
        if violations:
            raise PatternError("; ".join(violations))
        object.__setattr__(self, "root", _normalize_node(self.root))

    def normalized(self) -> "FlowPattern":
        """The pattern itself: every pattern is normalized on construction."""
        return self

    def layers(self) -> list[str]:
        out = []
        node: Optional[PredicateNode] = self.root
        while node is not None:
            out.append(node.ident)
            node = node.hierarchy_child()
        return out

    def canonical_bytes(self) -> bytes:
        """Deterministic byte encoding; equal normalized patterns ⇒ equal bytes."""
        from .wire.codec import encode_flow_pattern

        return encode_flow_pattern(self)


def flow_pattern_violations(root: PredicateNode) -> list[str]:
    """Structural rule violations of a candidate pattern tree, empty if valid."""
    out: list[str] = []
    if root.kind is not PredicateKind.HIERARCHY:
        out.append("root must be a hierarchy node")
        return out
    stack = [root]
    while stack:
        node = stack.pop()
        if node.kind is not PredicateKind.HIERARCHY:
            continue
        hier = [c for c in node.children if c.kind is PredicateKind.HIERARCHY]
        if len(hier) > 1:
            out.append(f"nonlinear hierarchy at {node.ident!r}")
        stack.extend(hier)
    return out


def _normalize_node(node: PredicateNode) -> PredicateNode:
    if node.kind is not PredicateKind.HIERARCHY:
        return node
    hier = node.hierarchy_child()
    leaves = [c for c in node.leaf_children() if c.kind is not PredicateKind.HIERARCHY_CONSTRAINED]
    if hier is not None:
        for fid, val in derived_constraints(node.ident, hier.ident):
            leaves.append(
                PredicateNode(PredicateKind.HIERARCHY_CONSTRAINED, fid, MatchOp.EQ, val)
            )
    leaves.sort(key=lambda c: (c.kind.value, c.ident, c.op.value, operand_text(c.op, c.operand)))
    children = tuple(leaves) + ((_normalize_node(hier),) if hier is not None else ())
    return PredicateNode(node.kind, node.ident, children=children)


# ---------------------------------------------------------------------------
# Access request patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestNode:
    """One anchor of a request pattern: a layer with its extracted facts."""

    layer: str
    facts: tuple[tuple[str, Value], ...]
    child: Optional["RequestNode"] = None

    def fact(self, ident: str) -> Optional[Value]:
        for fid, val in self.facts:
            if fid == ident:
                return val
        return None


def request_node(layer: str, facts: dict[str, Value], child: Optional[RequestNode] = None) -> RequestNode:
    return RequestNode(layer, tuple(sorted(facts.items())), child)


@dataclass(frozen=True)
class AccessRequestPattern:
    """Fact tree of one concrete frame: a linear chain of layer anchors."""

    root: RequestNode

    def anchors(self) -> list[RequestNode]:
        out = []
        node: Optional[RequestNode] = self.root
        while node is not None:
            out.append(node)
            node = node.child
        return out

    def key(self) -> tuple:
        """Hashable, type-exact identity of the facts.

        Each anchor's layer and fact tuple, then the types of all fact values
        in order, because `True == 1 == 1.0` would otherwise let a request
        stand in for a different one.
        """
        parts, types, node = [], [], self.root
        while node is not None:
            parts.append((node.layer, node.facts))
            for _fid, val in node.facts:
                types.append(type(val))
            node = node.child
        return (*parts, tuple(types))


def anchor_points(pattern: AccessRequestPattern) -> list[tuple[str, ...]]:
    """Anchor paths of a request, outermost to innermost; one per layer."""
    paths: list[tuple[str, ...]] = []
    prefix: list[str] = []
    for node in pattern.anchors():
        prefix.append(node.layer)
        paths.append(tuple(prefix))
    return paths


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _eval_leaf(pred: PredicateNode, fact: Optional[Value]) -> bool:
    # A missing fact never satisfies a predicate; neither does a fact of the
    # wrong type.  Both fall through to False rather than raising.
    if fact is None:
        return False
    op = pred.op
    if op is MatchOp.EQ:
        return _same_type(fact, pred.operand) and fact == pred.operand
    if op is MatchOp.IN_SET:
        return any(_same_type(fact, v) and fact == v for v in pred.operand)
    if op is MatchOp.PREFIX:
        return isinstance(fact, str) and fact.startswith(pred.operand)
    lo, hi = pred.operand
    return type(fact) is int and lo <= fact <= hi


def _match_node(pred: PredicateNode, node: RequestNode) -> bool:
    if pred.ident != node.layer:
        return False
    for child in pred.children:
        if child.kind is PredicateKind.HIERARCHY:
            if node.child is None or not _match_node(child, node.child):
                return False
        elif not _eval_leaf(child, node.fact(child.ident)):
            return False
    return True


def match_at_root(flow: FlowPattern, request: AccessRequestPattern) -> bool:
    """True iff every predicate holds with the pattern root aligned to the
    request root."""
    return _match_node(flow.root, request.root)


def match_nested(flow: FlowPattern, request: AccessRequestPattern) -> Optional[tuple[str, ...]]:
    """Try the match at every anchor, outermost first.

    Returns the path from the request root to the first matching anchor, or
    None when the pattern matches nowhere.
    """
    root = flow.root
    path: list[str] = []
    node: Optional[RequestNode] = request.root
    while node is not None:
        path.append(node.layer)
        if _match_node(root, node):
            return tuple(path)
        node = node.child
    return None


# ---------------------------------------------------------------------------
# Flow index
# ---------------------------------------------------------------------------

# A flow's shape: its layer chain from the pattern root, and the
# (depth, field) pairs it pins with `==`, derived constraints included.
_Shape = tuple[tuple[str, ...], tuple[tuple[int, str], ...]]


def _shape_and_key(flow: FlowPattern) -> tuple[_Shape, tuple]:
    """The flow's shape and its pinned values, each tagged with its type."""
    layers: list[str] = []
    pins: list[tuple[tuple[int, str], tuple[type, Value]]] = []
    node: Optional[PredicateNode] = flow.root
    while node is not None:
        for leaf in node.leaf_children():
            if leaf.op is MatchOp.EQ:
                pins.append(((len(layers), leaf.ident), (type(leaf.operand), leaf.operand)))
        layers.append(node.ident)
        node = node.hierarchy_child()
    pins.sort(key=lambda pin: pin[0])
    return (tuple(layers), tuple(p for p, _ in pins)), tuple(v for _, v in pins)


class FlowIndex:
    """Tuple-space index of flow patterns (Srinivasan, Suri & Varghese,
    "Packet Classification using Tuple Space Search", SIGCOMM 1999).

    Flows are grouped by shape, and each group files its items under the
    flows' pinned values.  Values are keyed with their type, so `== 1` and
    `== true` never share a bucket.  A flow that pins nothing with `==` is
    filed under the empty key of its group.  `candidates` probes one dict
    per group at every request anchor whose layer is the group's root: it
    returns every item whose flow matches, and possibly others, so callers
    confirm each candidate with `match_nested`.
    """

    def __init__(self):
        # root layer -> shape -> pinned values -> item -> times filed
        self._groups: dict[str, dict[_Shape, dict[tuple, dict[Hashable, int]]]] = {}

    def add(self, flow: FlowPattern, item: Hashable) -> None:
        shape, key = _shape_and_key(flow)
        buckets = self._groups.setdefault(shape[0][0], {}).setdefault(shape, {})
        bucket = buckets.setdefault(key, {})
        bucket[item] = bucket.get(item, 0) + 1

    def remove(self, flow: FlowPattern, item: Hashable) -> None:
        """Undo one `add(flow, item)`; KeyError if there is none."""
        shape, key = _shape_and_key(flow)
        shapes = self._groups[shape[0][0]]
        buckets = shapes[shape]
        bucket = buckets[key]
        if bucket[item] > 1:
            bucket[item] -= 1
            return
        del bucket[item]
        if not bucket:
            del buckets[key]
            if not buckets:
                del shapes[shape]
                if not shapes:
                    del self._groups[shape[0][0]]

    def candidates(self, request: AccessRequestPattern) -> list[Hashable]:
        """Items filed under a flow that may match the request, each once."""
        anchors = request.anchors()
        layers = tuple(node.layer for node in anchors)
        found: dict[Hashable, None] = {}
        for at, anchor in enumerate(anchors):
            for (chain, pins), buckets in self._groups.get(anchor.layer, {}).items():
                if layers[at:at + len(chain)] != chain:
                    continue
                key = []
                for depth, field in pins:
                    fact = anchors[at + depth].fact(field)
                    if fact is None:
                        break
                    key.append((type(fact), fact))
                else:
                    found.update(dict.fromkeys(buckets.get(tuple(key), ())))
        return list(found)


# ---------------------------------------------------------------------------
# Specificity
# ---------------------------------------------------------------------------

# One entry per hierarchy or parametric predicate, qualified by the layer
# path from the pattern root to the anchor owning it.  Derived constraints
# are excluded: they are a pure function of the hierarchy entries and would
# never separate two patterns.
QualifiedPredicate = tuple[tuple[str, ...], tuple[str, ...]]


def qualified_set(flow: FlowPattern) -> frozenset[QualifiedPredicate]:
    """Anchor-qualified predicate set, identical for reordered siblings."""
    entries: set[QualifiedPredicate] = set()

    def walk(node: PredicateNode, path: tuple[str, ...]) -> None:
        path = path + (node.ident,)
        entries.add((path, ("hierarchy", node.ident)))
        for child in node.children:
            if child.kind is PredicateKind.HIERARCHY:
                walk(child, path)
            elif child.kind is PredicateKind.PARAMETRIC:
                entries.add(
                    (path, ("parametric", child.ident, child.op.value, operand_text(child.op, child.operand)))
                )

    walk(flow.root, ())
    return frozenset(entries)


def is_more_specific(a: FlowPattern, b: FlowPattern) -> Specificity:
    """Strict-superset ordering of the qualified predicate sets.

    Callers guarantee both patterns match the request under comparison; the
    relation itself is purely structural.
    """
    qa, qb = qualified_set(a), qualified_set(b)
    if qa == qb:
        return Specificity.EQUAL
    if qa > qb:
        return Specificity.MORE_SPECIFIC
    if qa < qb:
        return Specificity.LESS_SPECIFIC
    return Specificity.CONFLICTING


def exact_flow(request: AccessRequestPattern) -> FlowPattern:
    """Pattern matching exactly this request: every fact becomes an eq
    predicate on the mirrored anchor chain."""
    chain: Optional[PredicateNode] = None
    for node in reversed(request.anchors()):
        leaves = tuple(
            PredicateNode(PredicateKind.PARAMETRIC, fid, MatchOp.EQ, val)
            for fid, val in node.facts
        )
        children = leaves + ((chain,) if chain is not None else ())
        chain = PredicateNode(PredicateKind.HIERARCHY, node.layer, children=children)
    if chain is None:
        raise PatternError("request pattern has no anchors")
    return FlowPattern(chain)


# Convenience constructors used across tests and fixtures.


def hierarchy(layer: str, *children: PredicateNode) -> PredicateNode:
    return PredicateNode(PredicateKind.HIERARCHY, layer, children=tuple(children))


def where(ident: str, op: MatchOp, operand) -> PredicateNode:
    if op is MatchOp.IN_SET and not isinstance(operand, frozenset):
        operand = frozenset(operand)
    return PredicateNode(PredicateKind.PARAMETRIC, ident, op, operand)


def eq(ident: str, operand: Value) -> PredicateNode:
    return where(ident, MatchOp.EQ, operand)
