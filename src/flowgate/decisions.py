"""Deriving, selecting, composing, and enforcing access decisions.

A decision freezes the outcome of evaluating one policy against the system
state: which flows it covers, whether they are granted, which enforcement
points a granted frame must reach, and how long the answer may be trusted.
Derivation (`dynamic_authorization`) asks an attribute source for the values
a policy's precondition needs and converts the result into a decision whose
validity is bounded by the earliest-expiring attribute.  Enforcement
(`enforce`) gives a frame's verdict, which the store memoizes per frame shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol

from .errors import AttributeResolutionError, ClassificationError, DecisionError, EvaluationError
from .patterns import (
    AccessRequestPattern,
    FlowIndex,
    FlowPattern,
    Specificity,
    exact_flow,
    is_more_specific,
    match_nested,
)
from .policy import (
    Action,
    AttributeBinding,
    Catalog,
    Policy,
    PolicyClass,
    classify,
    evaluate_auxiliary,
)

DEFAULT_ERROR_RETRY_MS = 1_000
DEFAULT_DENY_TTL_MS = 5_000
#: Requests a store memoizes before it starts over, so that a sender
#: spraying distinct frame shapes cannot grow the memo without limit.
MEMO_LIMIT = 4_096
#: A frame's verdict: the action and, for a grant, the nexthop set.
Verdict = tuple[Action, frozenset[str]]


@dataclass(frozen=True)
class AccessDecision:
    """Unit of enforcement: flows, action, nexthop set, validity interval."""

    flows: tuple[FlowPattern, ...]
    action: Action
    nexthop: frozenset[str]
    valid_from: int
    valid_until: int
    origin_policy_ids: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.flows:
            raise DecisionError("decision without flows")
        if self.valid_from > self.valid_until:
            raise DecisionError("decision validity interval is empty")
        if self.action is Action.DENY and self.nexthop:
            raise DecisionError("denying decision with a nexthop set")
        if self.action is Action.GRANT and not self.nexthop:
            raise DecisionError("granting decision without a nexthop")

    def valid_at(self, now: int) -> bool:
        return self.valid_from <= now <= self.valid_until

    def matching_flows(self, request: AccessRequestPattern) -> list[FlowPattern]:
        return [f for f in self.flows if match_nested(f, request) is not None]


def deny_decision(
    flows: Iterable[FlowPattern],
    valid_from: int,
    valid_until: int,
    origin: frozenset[str] = frozenset(),
) -> AccessDecision:
    return AccessDecision(tuple(flows), Action.DENY, frozenset(), valid_from, valid_until, origin)


class AttributeSource(Protocol):
    """Resolver for attribute values, typically a client of a remote store.

    Returns bindings for the keys it could resolve; missing keys are simply
    absent.  Transport-level failures raise AttributeResolutionError.
    """

    def resolve(self, keys: frozenset[str]) -> dict[str, AttributeBinding]: ...


#: Maps a policy to the enforcement points granted frames must reach.
NexthopResolver = Callable[[Policy], frozenset[str]]


def explicit_nexthops(policy: Policy) -> frozenset[str]:
    return policy.nexthop_ids


def dynamic_authorization(
    policies: Iterable[Policy],
    source: AttributeSource,
    now: int,
    catalog: Catalog,
    nexthop_resolver: NexthopResolver = explicit_nexthops,
    error_retry_ms: int = DEFAULT_ERROR_RETRY_MS,
) -> list[AccessDecision]:
    """Derive exactly one decision per policy for the current system state.

    Per policy: fetch the attributes each precondition predicate requires,
    evaluate the conjunction, and emit either (flow, action, nexthop) or the
    denying fallback.  Decision validity is `static_max_validity` for static
    policies and the minimum binding expiry for dynamic ones.  Any fetch or
    evaluation problem yields a short-lived denying decision instead of an
    exception: authorization errors must fail closed, not fail loud.
    """
    decisions = []
    for policy in policies:
        decisions.append(
            _derive_one(policy, source, now, catalog, nexthop_resolver, error_retry_ms)
        )
    return decisions


def _derive_one(
    policy: Policy,
    source: AttributeSource,
    now: int,
    catalog: Catalog,
    nexthop_resolver: NexthopResolver,
    error_retry_ms: int,
) -> AccessDecision:
    flows = (policy.flow,)
    origin = frozenset({policy.id})

    def error_denial() -> AccessDecision:
        return deny_decision(flows, now, now + error_retry_ms, origin)

    try:
        policy_class = classify(policy, catalog)
    except ClassificationError:
        return error_denial()

    bindings: dict[str, AttributeBinding] = {}
    try:
        for pred in sorted(policy.auxiliary, key=lambda p: p.id):
            if pred.required_keys:
                bindings.update(source.resolve(pred.required_keys))
        missing = policy.required_keys - bindings.keys()
        if missing:
            raise AttributeResolutionError(f"unresolved attributes: {sorted(missing)}")
        satisfied = evaluate_auxiliary(policy.auxiliary, bindings.values(), now)
    except (AttributeResolutionError, EvaluationError):
        return error_denial()

    if policy_class is PolicyClass.STATIC:
        valid_until = now + policy.static_max_validity
    else:
        valid_until = min(b.valid_until for b in bindings.values())

    if satisfied and policy.action is Action.GRANT:
        nexthop = nexthop_resolver(policy)
        if nexthop:
            return AccessDecision(flows, Action.GRANT, nexthop, now, valid_until, origin)
        # A grant nobody can receive enforces as a denial; make that explicit.
        return deny_decision(flows, now, valid_until, origin)
    return deny_decision(flows, now, valid_until, origin)


def enforce(decision: AccessDecision, request: AccessRequestPattern, now: int) -> Verdict:
    """Verdict of one decision for one frame; every failure is (DENY, ∅)."""
    if not decision.valid_at(now):
        return (Action.DENY, frozenset())
    for flow in decision.flows:
        if match_nested(flow, request) is not None:
            return (decision.action, decision.nexthop)
    return (Action.DENY, frozenset())


def compose(decisions: list[AccessDecision]) -> AccessDecision:
    """Resolve conflicting decisions: unanimity grants, anything else denies.

    The composite covers the union of flows and nexthops and is valid until
    the earliest input expires.  A singleton composes to itself, unchanged.
    """
    if not decisions:
        raise DecisionError("cannot compose zero decisions")
    if len(decisions) == 1:
        return decisions[0]
    flows: list[FlowPattern] = []
    seen = set()
    for d in decisions:
        for f in d.flows:
            key = f.canonical_bytes()
            if key not in seen:
                seen.add(key)
                flows.append(f)
    flows.sort(key=lambda f: f.canonical_bytes())
    valid_until = min(d.valid_until for d in decisions)
    # max() keeps the interval sound; clamp guards disjoint inputs.
    valid_from = min(max(d.valid_from for d in decisions), valid_until)
    origin = frozenset().union(*(d.origin_policy_ids for d in decisions))
    if all(d.action is Action.GRANT for d in decisions):
        nexthop = frozenset().union(*(d.nexthop for d in decisions))
        return AccessDecision(tuple(flows), Action.GRANT, nexthop, valid_from, valid_until, origin)
    return deny_decision(tuple(flows), valid_from, valid_until, origin)


def select_decision(
    candidates: list[AccessDecision], request: AccessRequestPattern
) -> AccessDecision:
    """Pick the decision with the most specifically matching flow pattern.

    Every candidate must match the request.  When one candidate's matched
    flow strictly refines all others it wins outright; otherwise the maximal
    incomparable candidates are folded into a composite decision.
    """
    if not candidates:
        raise DecisionError("no candidate decisions to select from")
    if len(candidates) == 1:
        return candidates[0]

    reps: list[FlowPattern] = []
    for d in candidates:
        matched = d.matching_flows(request)
        if not matched:
            raise DecisionError("candidate decision does not match the request")
        reps.append(_most_specific_flow(matched))

    dominated = [False] * len(candidates)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if i != j and is_more_specific(b, a) is Specificity.MORE_SPECIFIC:
                dominated[i] = True
                break
    frontier = [d for d, dom in zip(candidates, dominated) if not dom]
    if len(frontier) == 1:
        return frontier[0]
    return compose(frontier)


def _most_specific_flow(flows: list[FlowPattern]) -> FlowPattern:
    best = flows[0]
    for f in flows[1:]:
        if is_more_specific(f, best) is Specificity.MORE_SPECIFIC:
            best = f
    return best


def judge(valid: list[AccessDecision], request: AccessRequestPattern, now: int) -> Verdict:
    """Verdict of the selected decision: a store's judge unless given another."""
    return enforce(select_decision(valid, request), request, now)


def default_decision(
    request: AccessRequestPattern, now: int, ttl_ms: int = DEFAULT_DENY_TTL_MS
) -> AccessDecision:
    """The denying decision issued when no policy speaks for a request.

    Its flow matches the originating request exactly — every fact pinned by
    an equality predicate — so it suppresses repeat authorization requests
    for the same frame shape without shadowing anything broader.
    """
    return deny_decision((exact_flow(request),), now, now + ttl_ms)


# ---------------------------------------------------------------------------
# Decision store
# ---------------------------------------------------------------------------


class DecisionStore:
    """Expiring decisions, one per issuer.

    A decision's issuer is its set of origin policies or, for a decision
    without one (a default or fallback denial), its flows.  Installing
    replaces the issuer's previous decision and keeps every other issuer's,
    so two policies' decisions on one flow compose instead of overwriting
    each other.  Lookups never return expired entries.  A flow index narrows
    a lookup to the issuers whose flows may match, and a bounded request-key
    memo keeps each verdict while the decisions behind it cannot change.

    A store is not thread-safe: its owner (a DEP's loop) installs, looks up
    and drains on one thread.  Other threads may only read `len()`.
    """

    def __init__(self, judge: Callable[..., Verdict] = judge):
        self._judge = judge
        self._by_issuer: dict[object, AccessDecision] = {}
        self._index = FlowIndex()  # every stored flow, filed under its issuer
        self._next_expiry = float("inf")  # earliest valid_until stored
        # request key -> (verdict or None, live_from, live_until), both ends closed
        self._memo: dict[tuple, tuple[Optional[Verdict], float, float]] = {}

    def install(self, decision: AccessDecision) -> None:
        issuer = decision.origin_policy_ids or tuple(f.canonical_bytes() for f in decision.flows)
        replaced = self._by_issuer.get(issuer)
        if replaced is not None:
            self._unfile(issuer, replaced)
        self._by_issuer[issuer] = decision
        for flow in decision.flows:
            self._index.add(flow, issuer)
        self._next_expiry = min(self._next_expiry, decision.valid_until)
        self._memo.clear()

    def _unfile(self, issuer: object, decision: AccessDecision) -> None:
        for flow in decision.flows:
            self._index.remove(flow, issuer)

    def _purge(self, now: int) -> None:
        if now <= self._next_expiry:
            return
        dead = [k for k, d in self._by_issuer.items() if now > d.valid_until]
        for k in dead:
            self._unfile(k, self._by_issuer.pop(k))
        self._next_expiry = min((d.valid_until for d in self._by_issuer.values()), default=float("inf"))
        if dead:
            self._memo.clear()

    def verdict(self, request: AccessRequestPattern, now: int) -> Optional[Verdict]:
        """Verdict of the decisions valid at `now` that match the request, or None."""
        request_key = request.key()
        entry = self._memo.get(request_key)
        if entry is not None and entry[1] <= now <= entry[2]:
            return entry[0]
        return self._lookup(request, request_key, now)[0]

    def matching(self, request: AccessRequestPattern, now: int) -> list[AccessDecision]:
        """Decisions valid at `now` with at least one flow matching the request."""
        return self._lookup(request, request.key(), now)[1]

    def _lookup(self, request: AccessRequestPattern, request_key: tuple, now: int) -> tuple:
        self._purge(now)  # so no stored decision has expired at `now`
        stored = (self._by_issuer[i] for i in self._index.candidates(request))
        matched = [d for d in stored if d.matching_flows(request)]
        valid = [d for d in matched if d.valid_from <= now]
        # The valid set holds until one of them expires or another one starts.
        live_from = max((d.valid_from for d in valid), default=float("-inf"))
        live_until = min([d.valid_until for d in valid]
                         + [d.valid_from - 1 for d in matched if d.valid_from > now], default=float("inf"))
        verdict = self._judge(valid, request, now) if valid else None
        if len(self._memo) >= MEMO_LIMIT:
            self._memo.clear()
        self._memo[request_key] = (verdict, live_from, live_until)
        return verdict, valid

    def snapshot(self) -> list[AccessDecision]:
        return list(self._by_issuer.values())

    def __len__(self) -> int:
        return len(self._by_issuer)
