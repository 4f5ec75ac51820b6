"""Decision derivation, enforcement, selection, composition, and the store."""

import random

import pytest

from flowgate.decisions import (
    MEMO_LIMIT,
    AccessDecision,
    DecisionStore,
    compose,
    default_decision,
    deny_decision,
    dynamic_authorization,
    enforce,
    select_decision,
)
from flowgate.errors import AttributeResolutionError, DecisionError
from flowgate.frames import dissect, goose_frame, udp_frame
from flowgate.pattern_text import parse_pattern
from flowgate.patterns import AccessRequestPattern, RequestNode, match_at_root, request_node
from flowgate.policy import (
    Action,
    AttributeBinding,
    AttributeKey,
    Comparison,
    CompareOp,
    Policy,
    predicate,
)

CATALOG = {
    "mode": AttributeKey("mode", "string", time_variable=True),
    "load": AttributeKey("load", "int", time_variable=True),
    "site-id": AttributeKey("site-id", "string"),
}

GOOSE_REQ = dissect(goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5, b"abc", pad_to=60))


class StubSource:
    """Scripted attribute store that counts its resolve calls."""

    def __init__(self, bindings=(), fail=False):
        self.bindings = {b.key: b for b in bindings}
        self.fail = fail
        self.calls = 0

    def resolve(self, keys):
        self.calls += 1
        if self.fail:
            raise AttributeResolutionError("scripted failure")
        return {k: self.bindings[k] for k in keys if k in self.bindings}


def grant_policy(pid="p1", flow="eth { goose { appid == 5 } }", aux=frozenset(),
                 validity=60_000, nexthops=frozenset({"dep-b"})):
    return Policy(pid, Action.GRANT, parse_pattern(flow), aux, validity, nexthops)


class TestDynamicAuthorization:
    def test_static_grant_empty_auxiliary(self):
        source = StubSource()
        (decision,) = dynamic_authorization([grant_policy()], source, 1000, CATALOG)
        assert decision.action is Action.GRANT
        assert decision.nexthop == {"dep-b"}
        assert (decision.valid_from, decision.valid_until) == (1000, 61_000)
        assert source.calls == 0  # nothing to fetch for an empty precondition

    def test_unsatisfied_dynamic_predicate_denies(self):
        aux = frozenset({predicate("a1", Comparison("mode", CompareOp.EQ, "maintenance"))})
        source = StubSource([AttributeBinding("mode", "normal", 0, 31_000)])
        (decision,) = dynamic_authorization([grant_policy(aux=aux)], source, 1000, CATALOG)
        assert decision.action is Action.DENY
        assert decision.nexthop == frozenset()
        assert decision.valid_until == 31_000  # bounded by the binding

    def test_validity_is_minimum_binding_expiry(self):
        aux = frozenset({
            predicate("a1", Comparison("mode", CompareOp.EQ, "normal")),
            predicate("a2", Comparison("load", CompareOp.LT, 100)),
        })
        source = StubSource([
            AttributeBinding("mode", "normal", 0, 11_000),   # expires first
            AttributeBinding("load", 40, 0, 31_000),
        ])
        (decision,) = dynamic_authorization([grant_policy(aux=aux)], source, 1000, CATALOG)
        assert decision.action is Action.GRANT
        assert decision.valid_until == 11_000

    def test_fetch_failure_yields_short_denial(self):
        aux = frozenset({predicate("a1", Comparison("mode", CompareOp.EQ, "normal"))})
        (decision,) = dynamic_authorization(
            [grant_policy(aux=aux)], StubSource(fail=True), 1000, CATALOG, error_retry_ms=750
        )
        assert decision.action is Action.DENY
        assert decision.valid_until == 1750

    def test_missing_key_yields_denial(self):
        aux = frozenset({predicate("a1", Comparison("mode", CompareOp.EQ, "normal"))})
        (decision,) = dynamic_authorization([grant_policy(aux=aux)], StubSource(), 1000, CATALOG)
        assert decision.action is Action.DENY

    def test_unknown_catalog_key_yields_denial(self):
        aux = frozenset({predicate("a1", Comparison("ghost", CompareOp.EQ, 1))})
        (decision,) = dynamic_authorization([grant_policy(aux=aux)], StubSource(), 1000, CATALOG)
        assert decision.action is Action.DENY

    def test_grant_without_reachable_nexthop_denies(self):
        policy = grant_policy(nexthops=frozenset())
        (decision,) = dynamic_authorization([policy], StubSource(), 1000, CATALOG)
        assert decision.action is Action.DENY

    def test_one_decision_per_policy(self):
        policies = [grant_policy(f"p{i}") for i in range(4)]
        decisions = dynamic_authorization(policies, StubSource(), 0, CATALOG)
        assert [next(iter(d.origin_policy_ids)) for d in decisions] == [p.id for p in policies]


class TestEnforce:
    def decision(self, action=Action.GRANT, until=10_000):
        hops = frozenset({"dep-b"}) if action is Action.GRANT else frozenset()
        return AccessDecision(
            (parse_pattern("eth { goose { appid == 5 } }"),), action, hops, 0, until
        )

    def test_matching_valid_grant(self):
        assert enforce(self.decision(), GOOSE_REQ, 500) == (Action.GRANT, {"dep-b"})

    def test_expired_decision_denies(self):
        assert enforce(self.decision(until=400), GOOSE_REQ, 401) == (Action.DENY, frozenset())

    def test_non_matching_request_denies(self):
        other = dissect(udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                                  "10.0.0.1", "10.0.0.2", 1, 2, b"x"))
        assert enforce(self.decision(), other, 500) == (Action.DENY, frozenset())

    def test_nested_match_enforces(self):
        from flowgate.frames import _fixed_pdu

        tunneled = dissect(udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                                     "10.0.0.1", "10.0.0.2", 4000, 102, _fixed_pdu(5, b"")))
        decision = AccessDecision(
            (parse_pattern("goose { appid == 5 }"),), Action.GRANT, frozenset({"dep-b"}), 0, 10_000
        )
        assert enforce(decision, tunneled, 500)[0] is Action.GRANT


class TestCompose:
    def grant(self, flow, hops, until, frm=0):
        return AccessDecision((parse_pattern(flow),), Action.GRANT, frozenset(hops), frm, until)

    def test_two_grants_union(self):
        a = self.grant("eth { goose { appid == 5 } }", {"A"}, 10_000)
        b = self.grant('eth { src == "02:00:00:00:00:01" goose { } }', {"B"}, 30_000)
        composite = compose([a, b])
        assert composite.action is Action.GRANT
        assert composite.nexthop == {"A", "B"}
        assert composite.valid_until == 10_000
        assert len(composite.flows) == 2

    def test_any_deny_wins(self):
        a = self.grant("eth { goose { } }", {"A"}, 10_000)
        b = deny_decision((parse_pattern("eth { }"),), 0, 30_000)
        composite = compose([a, b])
        assert composite.action is Action.DENY
        assert composite.nexthop == frozenset()
        assert composite.valid_until == 10_000

    def test_singleton_identity(self):
        a = self.grant("eth { }", {"A"}, 5_000)
        assert compose([a]) is a

    def test_commutative(self):
        a = self.grant("eth { goose { } }", {"A"}, 10_000, frm=100)
        b = self.grant("eth { sv { } }", {"B"}, 20_000, frm=300)
        c = deny_decision((parse_pattern("eth { }"),), 200, 15_000)
        import itertools

        results = {tuple(compose(list(perm)).flows) + (compose(list(perm)).valid_until,)
                   for perm in itertools.permutations([a, b, c])}
        assert len(results) == 1

    def test_empty_list_rejected(self):
        with pytest.raises(DecisionError):
            compose([])


class TestSelect:
    def test_strict_superset_wins_unchanged(self):
        specific = AccessDecision(
            (parse_pattern("eth { goose { appid == 5 } }"),), Action.GRANT,
            frozenset({"A"}), 0, 10_000,
        )
        broad = AccessDecision(
            (parse_pattern("eth { goose { } }"),), Action.DENY, frozenset(), 0, 10_000
        )
        assert select_decision([specific, broad], GOOSE_REQ) is specific

    def test_single_candidate(self):
        only = AccessDecision((parse_pattern("eth { }"),), Action.GRANT, frozenset({"A"}), 0, 1)
        assert select_decision([only], GOOSE_REQ) is only

    def test_conflicting_grants_compose(self):
        a = AccessDecision(
            (parse_pattern("eth { goose { appid == 5 } }"),), Action.GRANT,
            frozenset({"A"}), 0, 10_000,
        )
        b = AccessDecision(
            (parse_pattern('eth { src == "02:00:00:00:00:01" goose { } }'),), Action.GRANT,
            frozenset({"B"}), 0, 20_000,
        )
        composite = select_decision([a, b], GOOSE_REQ)
        assert composite.action is Action.GRANT
        assert composite.nexthop == {"A", "B"}
        assert composite.valid_until == 10_000

    def test_empty_candidates_rejected(self):
        with pytest.raises(DecisionError):
            select_decision([], GOOSE_REQ)


class TestDefaultDecision:
    def test_denies_with_empty_nexthop(self):
        decision = default_decision(GOOSE_REQ, 1000)
        assert decision.action is Action.DENY
        assert decision.nexthop == frozenset()
        assert decision.valid_until == 6000

    def test_matches_originating_request(self):
        decision = default_decision(GOOSE_REQ, 1000)
        assert enforce(decision, GOOSE_REQ, 1000)[0] is Action.DENY
        (flow,) = decision.flows
        assert match_at_root(flow, GOOSE_REQ)

    def test_single_fact_difference_breaks_match(self):
        (flow,) = default_decision(GOOSE_REQ, 1000).flows
        mutated = AccessRequestPattern(
            RequestNode(
                "eth",
                tuple((k, v if k != "ethertype" else 0x9999) for k, v in GOOSE_REQ.root.facts),
                GOOSE_REQ.root.child,
            )
        )
        assert not match_at_root(flow, mutated)


class TestInvariants:
    def test_grant_requires_nexthop(self):
        with pytest.raises(DecisionError):
            AccessDecision((parse_pattern("eth { }"),), Action.GRANT, frozenset(), 0, 1)

    def test_deny_forbids_nexthop(self):
        with pytest.raises(DecisionError):
            AccessDecision((parse_pattern("eth { }"),), Action.DENY, frozenset({"A"}), 0, 1)

    def test_empty_interval_rejected(self):
        with pytest.raises(DecisionError):
            AccessDecision((parse_pattern("eth { }"),), Action.DENY, frozenset(), 5, 4)


class TestDecisionStore:
    def grant(self, flow_text, until, origin="p1"):
        return AccessDecision(
            (parse_pattern(flow_text),), Action.GRANT, frozenset({"dep-b"}),
            0, until, frozenset({origin}),
        )

    def test_expired_entries_never_served(self):
        store = DecisionStore()
        store.install(self.grant("eth { goose { } }", until=1_000))
        assert store.matching(GOOSE_REQ, now=900)
        assert store.matching(GOOSE_REQ, now=1_001) == []
        assert len(store) == 0  # evicted, not merely filtered

    def test_last_writer_wins_per_policy(self):
        store = DecisionStore()
        store.install(self.grant("eth { goose { } }", 10_000, origin="p1"))
        store.install(self.grant("eth { goose { appid == 5 } }", 10_000, origin="p1"))
        snapshot = store.snapshot()
        assert len(snapshot) == 1
        assert snapshot[0].flows[0] == parse_pattern("eth { goose { appid == 5 } }")

    def test_composite_indexed_under_each_flow(self):
        a = self.grant("eth { goose { appid == 5 } }", 10_000, "p1")
        b = self.grant('eth { src == "02:00:00:00:00:01" goose { } }', 10_000, "p2")
        composite = compose([a, b])
        store = DecisionStore()
        store.install(composite)
        for src, appid, flow in (("02:00:00:00:00:02", 5, a.flows[0]), ("02:00:00:00:00:01", 6, b.flows[0])):
            request = dissect(goose_frame(src, "01:0c:cd:01:00:01", appid, b"abc", pad_to=60))
            assert composite.matching_flows(request) == [flow]
            assert store.matching(request, 0) == [composite]

    def test_memo_does_not_leak_stale_results(self):
        store = DecisionStore()
        store.install(self.grant("eth { goose { } }", 10_000))
        assert store.matching(GOOSE_REQ, 100)
        store.install(self.grant("eth { goose { appid == 5 } }", 10_000, origin="p2"))
        assert len(store.matching(GOOSE_REQ, 100)) == 2

    def test_replaced_flow_leaves_the_index(self):
        store = DecisionStore()
        store.install(self.grant("eth { goose { appid == 5 } }", 10_000, origin="p1"))
        assert store._index.candidates(GOOSE_REQ)
        store.install(self.grant("eth { goose { appid == 6 } }", 10_000, origin="p1"))
        assert store._index.candidates(GOOSE_REQ) == []
        assert store.matching(GOOSE_REQ, 100) == []

    def test_expired_flow_leaves_the_index(self):
        store = DecisionStore()
        store.install(self.grant("eth { goose { appid == 5 } }", until=1_000, origin="p1"))
        store.install(self.grant("eth { goose { appid == 6 } }", until=10_000, origin="p2"))
        assert store.matching(GOOSE_REQ, now=1_001) == []
        assert store._index.candidates(GOOSE_REQ) == []
        assert len(store) == 1

    def test_memo_bounded_under_a_flood_of_frame_shapes(self):
        store = DecisionStore()
        store.install(self.grant("eth { }", until=10**12, origin="any-eth"))
        store.install(AccessDecision((parse_pattern("eth { ethertype == 0x1234 }"),), Action.DENY,
                                     frozenset(), 0, 10**12, frozenset({"deny-1234"})))
        requests = [
            AccessRequestPattern(request_node("eth", {
                "src": f"02:00:00:{i >> 16 & 0xFF:02x}:{i >> 8 & 0xFF:02x}:{i & 0xFF:02x}",
                "ethertype": 0x1234 if i % 7 == 0 else 0x0800,
            }))
            for i in range(10_000)
        ]
        expected = [Action.DENY if i % 7 == 0 else Action.GRANT for i in range(10_000)]
        peak = 0

        def verdict(request):
            nonlocal peak
            candidates = store.matching(request, 100)
            peak = max(peak, len(store._memo))
            return enforce(select_decision(candidates, request), request, 100)[0]

        assert [verdict(r) for r in requests] == expected
        assert [verdict(r) for r in reversed(requests)] == expected[::-1]
        assert 0 < peak <= MEMO_LIMIT


class TestStoreIssuers:
    FLOW = "eth { goose { appid == 5 } }"

    def decision(self, action, origin, flow=FLOW):
        hops = frozenset({"dep-b"}) if action is Action.GRANT else frozenset()
        return AccessDecision((parse_pattern(flow),), action, hops, 0, 10_000, frozenset({origin}))

    @pytest.mark.parametrize("first", [Action.GRANT, Action.DENY], ids=["grant-first", "deny-first"])
    def test_grant_and_deny_on_one_flow_compose_to_deny(self, first):
        grant = self.decision(Action.GRANT, "p-grant")
        deny = self.decision(Action.DENY, "p-deny")
        store = DecisionStore()
        for d in (grant, deny) if first is Action.GRANT else (deny, grant):
            store.install(d)
        candidates = store.matching(GOOSE_REQ, 100)
        assert {d.action for d in candidates} == {Action.GRANT, Action.DENY}
        selected = select_decision(candidates, GOOSE_REQ)
        assert enforce(selected, GOOSE_REQ, 100) == (Action.DENY, frozenset())

    @pytest.mark.parametrize("order", [(1, True), (True, 1)], ids=["int-first", "bool-first"])
    def test_memo_key_is_type_exact(self, order):
        store = DecisionStore()
        store.install(self.decision(Action.GRANT, "p1", "opaque { length == 1 }"))
        found = {}
        for length in order:
            request = AccessRequestPattern(request_node("opaque", {"length": length}))
            found[type(length)] = store.matching(request, 100)
        assert len(found[int]) == 1
        assert found[bool] == []

    def test_originless_denials_keyed_type_exactly(self):
        store = DecisionStore()
        for flow in ("opaque { length == 1 }", "opaque { length == true }"):
            store.install(deny_decision((parse_pattern(flow),), 0, 10_000))
        assert len(store) == 2


class TestVerdictMemo:
    """A memoized verdict always equals the one judged afresh from `matching`."""

    REQUESTS = [
        GOOSE_REQ,
        # eth carrying eth carrying goose: a tunnel
        AccessRequestPattern(request_node(
            "eth", {"ethertype": 0x88B8, "src": "02:00:00:00:00:01"},
            request_node("eth", {"ethertype": 0x88B8, "src": "02:00:00:00:00:02"},
                         request_node("goose", {"appid": 5, "length": 20})))),
        AccessRequestPattern(request_node("opaque", {"length": 1})),
        AccessRequestPattern(request_node("opaque", {"length": True})),
    ]
    FLOWS = [
        "eth { }",
        "eth { goose { } }",
        "eth { goose { appid == 5 } }",
        'eth { src == "02:00:00:00:00:01" }',
        'eth { src == "02:00:00:00:00:02" goose { } }',
        "eth { eth { goose { appid == 5 } } }",
    ]
    ORIGINLESS = ["opaque { length == 1 }", "opaque { length == true }"]

    def random_decision(self, rng):
        valid_from = rng.randint(0, 900)
        valid_until = valid_from + rng.randint(0, 600)
        if rng.random() < 0.2:  # a default or fallback denial: its flow is its issuer
            return deny_decision((parse_pattern(rng.choice(self.ORIGINLESS)),), valid_from, valid_until)
        flows = tuple(parse_pattern(f) for f in rng.sample(self.FLOWS, rng.randint(1, 2)))
        origin = frozenset({f"p{rng.randrange(5)}"})  # a repeated issuer replaces its decision
        if rng.random() < 0.5:
            return deny_decision(flows, valid_from, valid_until, origin)
        hops = frozenset(rng.sample(["dep-a", "dep-b"], rng.randint(1, 2)))
        return AccessDecision(flows, Action.GRANT, hops, valid_from, valid_until, origin)

    def test_cached_verdict_equals_a_fresh_judgement(self):
        rng = random.Random(606)
        hits = mixed = 0
        for _ in range(150):
            store, installed = DecisionStore(), []
            for _ in range(40):
                if rng.random() < 0.3:
                    installed.append(self.random_decision(rng))
                    store.install(installed[-1])
                    continue
                request = rng.choice(self.REQUESTS)
                edges = [t for d in installed for t in (d.valid_from, d.valid_until, d.valid_until + 1)]
                now = rng.choice(edges) if edges and rng.random() < 0.5 else rng.randint(0, 1_600)
                entry = store._memo.get(request.key())
                hits += entry is not None and entry[1] <= now <= entry[2]
                cached = store.verdict(request, now)
                valid = store.matching(request, now)
                expected = enforce(select_decision(valid, request), request, now) if valid else None
                assert cached == expected
                mixed += len({d.action for d in valid}) == 2
        assert hits > 500 and mixed > 10  # the generator must exercise the memo and composition


class TestRandomizedLaws:
    def test_decision_laws_hold(self):
        rng = random.Random(777)
        flows = [
            "eth { }",
            "eth { goose { } }",
            "eth { goose { appid == 5 } }",
            'eth { src == "02:00:00:00:00:01" }',
            'eth { src == "02:00:00:00:00:01" goose { } }',
        ]
        for _ in range(600):
            k = rng.randint(1, 4)
            decisions = []
            for _ in range(k):
                action = rng.choice([Action.GRANT, Action.DENY])
                hops = frozenset(rng.sample(["A", "B", "C"], rng.randint(1, 3))) if action is Action.GRANT else frozenset()
                frm = rng.randint(0, 5_000)
                until = frm + rng.randint(0, 50_000)
                decisions.append(AccessDecision(
                    (parse_pattern(rng.choice(flows)),), action, hops, frm, until
                ))
            composite = compose(decisions)
            assert composite.valid_until == min(d.valid_until for d in decisions)
            if composite.action is Action.GRANT:
                assert composite.nexthop
            now = rng.randint(0, 60_000)
            action, hops = enforce(composite, GOOSE_REQ, now)
            if now > composite.valid_until:
                assert (action, hops) == (Action.DENY, frozenset())
            if action is Action.GRANT:
                assert hops


class TestReferentialTransparency:
    def test_static_derivation_is_pure_given_now(self):
        policy = grant_policy()
        a = dynamic_authorization([policy], StubSource(), 1234, CATALOG)
        b = dynamic_authorization([policy], StubSource(), 1234, CATALOG)
        assert a == b
