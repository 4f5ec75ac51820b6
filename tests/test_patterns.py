"""Flow/request pattern matching, specificity, and the text grammar."""

import random

import pytest

from conftest import brute_match_at_root, brute_match_nested, random_flow, random_request
from flowgate.errors import PatternError
from flowgate.frames import dissect, goose_frame, udp_frame, _fixed_pdu, tcp_segment, ipv4_packet, ethernet_frame
from flowgate.pattern_text import format_pattern, parse_pattern
from flowgate.patterns import (
    AccessRequestPattern,
    FlowIndex,
    FlowPattern,
    MatchOp,
    PredicateKind,
    PredicateNode,
    RequestNode,
    Specificity,
    anchor_points,
    exact_flow,
    hierarchy,
    eq,
    is_more_specific,
    match_at_root,
    match_nested,
    qualified_set,
    request_node,
    where,
)

GOOSE_REQ = dissect(goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5, b"abc", pad_to=60))
TCP_REQ = dissect(
    ethernet_frame(
        "02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800,
        ipv4_packet("10.0.0.1", "10.0.0.2", 6, tcp_segment(4000, 102, 0x18)),
    )
)


class TestMatchAtRoot:
    def test_goose_appid_matches(self):
        flow = parse_pattern("eth { goose { appid == 5 } }")
        assert match_at_root(flow, GOOSE_REQ)

    def test_empty_conjunction_is_true(self):
        flow = parse_pattern("eth { }")
        assert match_at_root(flow, GOOSE_REQ)
        assert match_at_root(flow, TCP_REQ)

    def test_goose_pattern_rejects_tcp_request(self):
        flow = parse_pattern("eth { goose { appid == 5 } }")
        assert not match_at_root(flow, TCP_REQ)

    def test_wrong_appid_rejected(self):
        flow = parse_pattern("eth { goose { appid == 6 } }")
        assert not match_at_root(flow, GOOSE_REQ)

    def test_missing_fact_is_false(self):
        flow = FlowPattern(hierarchy("eth", eq("nonexistent-field", 1)))
        assert not match_at_root(flow, GOOSE_REQ)

    def test_type_mismatch_is_false_not_error(self):
        flow = FlowPattern(hierarchy("eth", eq("ethertype", "0x88B8")))
        assert not match_at_root(flow, GOOSE_REQ)

    def test_in_set_prefix_range(self):
        assert match_at_root(parse_pattern('eth { goose { appid in { 4, 5 } } }'), GOOSE_REQ)
        assert not match_at_root(parse_pattern('eth { goose { appid in { 4, 6 } } }'), GOOSE_REQ)
        assert match_at_root(parse_pattern('eth { src prefix "02:00" goose { } }'), GOOSE_REQ)
        assert match_at_root(parse_pattern("eth { goose { appid range 1..9 } }"), GOOSE_REQ)
        assert not match_at_root(parse_pattern("eth { goose { appid range 6..9 } }"), GOOSE_REQ)


class TestMatchNested:
    def test_inner_protocol_found_in_tunnel(self):
        flow = parse_pattern("goose { appid == 5 }")
        request = dissect(
            udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                      "10.0.0.1", "10.0.0.2", 4000, 102, _fixed_pdu(5, b"xyz"))
        )
        assert match_nested(flow, request) == ("eth", "ipv4", "udp", "goose")

    def test_root_anchor_tried_first(self):
        flow = parse_pattern("eth { }")
        assert match_nested(flow, GOOSE_REQ) == ("eth",)

    def test_no_anchor_matches(self):
        flow = parse_pattern("tcp { dstport == 102 }")
        request = dissect(
            udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                      "10.0.0.1", "10.0.0.2", 4000, 9999, b"data")
        )
        assert match_nested(flow, request) is None

    def test_agrees_with_anchor_quantification(self, rng):
        # nested match holds iff the root match holds at some anchor
        for _ in range(200):
            flow, request = random_flow(rng), random_request(rng)
            got = match_nested(flow, request)
            anchors = request.anchors()
            expect_any = any(
                match_at_root(flow, AccessRequestPattern(a)) for a in anchors
            )
            assert (got is not None) == expect_any


class TestQualifiedSet:
    def test_single_node(self):
        qs = qualified_set(parse_pattern("eth { }"))
        assert qs == frozenset({(("eth",), ("hierarchy", "eth"))})

    def test_goose_appid_has_three_entries(self):
        qs = qualified_set(parse_pattern("eth { goose { appid == 5 } }"))
        assert len(qs) == 3
        kinds = sorted(descr[0] for _, descr in qs)
        assert kinds == ["hierarchy", "hierarchy", "parametric"]

    def test_sibling_order_irrelevant(self):
        a = FlowPattern(hierarchy("eth", eq("src", "02:00:00:00:00:01"), eq("ethertype", 0x1234)))
        b = FlowPattern(hierarchy("eth", eq("ethertype", 0x1234), eq("src", "02:00:00:00:00:01")))
        assert qualified_set(a) == qualified_set(b)
        assert a.normalized().canonical_bytes() == b.normalized().canonical_bytes()


class TestSpecificity:
    def test_strict_superset(self):
        a = parse_pattern("eth { goose { appid == 5 } }")
        b = parse_pattern("eth { goose { } }")
        assert is_more_specific(a, b) is Specificity.MORE_SPECIFIC
        assert is_more_specific(b, a) is Specificity.LESS_SPECIFIC

    def test_equal(self):
        a = parse_pattern("eth { goose { appid == 5 } }")
        assert is_more_specific(a, a) is Specificity.EQUAL

    def test_conflicting(self):
        a = parse_pattern("eth { goose { appid == 5 } }")
        b = parse_pattern('eth { src == "02:00:00:00:00:01" goose { } }')
        assert is_more_specific(a, b) is Specificity.CONFLICTING

    def test_antisymmetry_random(self, rng):
        flips = {
            Specificity.MORE_SPECIFIC: Specificity.LESS_SPECIFIC,
            Specificity.LESS_SPECIFIC: Specificity.MORE_SPECIFIC,
            Specificity.EQUAL: Specificity.EQUAL,
            Specificity.CONFLICTING: Specificity.CONFLICTING,
        }
        for _ in range(200):
            a, b = random_flow(rng), random_flow(rng)
            assert is_more_specific(b, a) is flips[is_more_specific(a, b)]
            assert is_more_specific(a, a) is Specificity.EQUAL


class TestStructureRules:
    def test_two_hierarchy_children_rejected(self):
        with pytest.raises(PatternError):
            FlowPattern(hierarchy("eth", hierarchy("goose"), hierarchy("ipv4")))

    def test_parametric_root_rejected(self):
        with pytest.raises(PatternError):
            FlowPattern(eq("appid", 5))

    def test_adding_predicate_never_creates_match(self, rng):
        # monotonicity: extra predicates can only narrow a pattern
        for _ in range(300):
            flow, request = random_flow(rng), random_request(rng)
            if match_at_root(flow, request):
                continue
            root = flow.root
            extra = where("length", MatchOp.EQ, 8)
            widened = FlowPattern(
                PredicateNode(root.kind, root.ident, children=root.children + (extra,))
            )
            assert not match_at_root(widened, request)


class TestExactFlow:
    def test_matches_its_own_request(self):
        flow = exact_flow(GOOSE_REQ)
        assert match_at_root(flow, GOOSE_REQ)

    def test_single_fact_perturbation_breaks_match(self):
        flow = exact_flow(GOOSE_REQ)
        perturbed = AccessRequestPattern(
            RequestNode(
                GOOSE_REQ.root.layer,
                tuple(
                    (k, v if k != "src" else "02:00:00:00:00:99")
                    for k, v in GOOSE_REQ.root.facts
                ),
                GOOSE_REQ.root.child,
            )
        )
        assert not match_at_root(flow, perturbed)


class TestOracleAgreement:
    def test_match_at_root_against_brute_force(self):
        rng = random.Random(2024)
        matches = 0
        for _ in range(1200):
            flow, request = random_flow(rng), random_request(rng)
            got = match_at_root(flow, request)
            assert got == brute_match_at_root(flow, request)
            matches += got
        assert matches > 10  # the generator must actually produce matches

    def test_match_nested_against_brute_force(self):
        rng = random.Random(2025)
        for _ in range(1200):
            flow, request = random_flow(rng), random_request(rng)
            assert match_nested(flow, request) == brute_match_nested(flow, request)

    # Flows the random generator never builds: type-distinct pins on one
    # field, a tunnelled goose flow, and flows that pin nothing with `==`.
    SPECIAL_FLOWS = [
        FlowPattern(hierarchy("opaque", eq("length", 1))),
        FlowPattern(hierarchy("opaque", eq("length", True))),
        FlowPattern(hierarchy("opaque", eq("length", 1.0))),
        FlowPattern(hierarchy("eth", hierarchy("goose", eq("appid", 5)))),
        FlowPattern(hierarchy("eth")),
        FlowPattern(hierarchy("vlan", where("pcp", MatchOp.IN_SET, {0, 4}))),
        FlowPattern(hierarchy("opaque", where("length", MatchOp.RANGE, (0, 8)))),
    ]
    SPECIAL_REQUESTS = [
        AccessRequestPattern(request_node("opaque", {"length": 1})),
        AccessRequestPattern(request_node("opaque", {"length": True})),
        AccessRequestPattern(request_node("opaque", {"length": 1.0})),
        # eth carrying eth carrying goose: the root layer repeats
        AccessRequestPattern(request_node(
            "eth", {"ethertype": 0x88B8, "src": "02:00:00:00:00:01"},
            request_node("eth", {"ethertype": 0x88B8, "src": "02:00:00:00:00:02"},
                         request_node("goose", {"appid": 5, "length": 20})))),
        AccessRequestPattern(request_node("vlan", {"pcp": 4}, request_node("vlan", {"pcp": 0}))),
    ]

    def test_flow_index_against_linear_scan(self):
        rng = random.Random(2026)
        index = FlowIndex()
        filed: list[tuple[FlowPattern, int]] = []
        matches = 0
        for step in range(1500):
            if filed and rng.random() < 0.4:
                flow, item = filed.pop(rng.randrange(len(filed)))
                index.remove(flow, item)
            else:
                flow = rng.choice(self.SPECIAL_FLOWS) if rng.random() < 0.3 else random_flow(rng)
                # a few items carry several flows, or one flow twice
                item = rng.randrange(40)
                index.add(flow, item)
                filed.append((flow, item))
            requests = [random_request(rng) for _ in range(3)] + [rng.choice(self.SPECIAL_REQUESTS)]
            for request in requests:
                want = {i for f, i in filed if match_nested(f, request) is not None}
                found = index.candidates(request)
                assert len(found) == len(set(found))
                got = {i for i in found
                       if any(match_nested(f, request) is not None for f, j in filed if j == i)}
                assert got == want
                matches += len(want)
        assert matches > 500  # the generators must actually produce matches
        for flow, item in filed:
            index.remove(flow, item)
        assert all(index.candidates(r) == [] for r in self.SPECIAL_REQUESTS)

    def test_flow_index_is_type_exact(self):
        index = FlowIndex()
        for item, flow in enumerate(self.SPECIAL_FLOWS[:3]):
            index.add(flow, item)
        one, true, one_float = self.SPECIAL_REQUESTS[:3]
        assert index.candidates(one) == [0]
        assert index.candidates(true) == [1]
        assert index.candidates(one_float) == [2]

    def test_flow_index_probes_every_anchor_of_a_tunnel(self):
        index = FlowIndex()
        index.add(self.SPECIAL_FLOWS[3], "goose")
        index.add(self.SPECIAL_FLOWS[4], "any-eth")
        tunnel = self.SPECIAL_REQUESTS[3]
        assert sorted(index.candidates(tunnel)) == ["any-eth", "goose"]
        assert match_nested(self.SPECIAL_FLOWS[3], tunnel) == ("eth", "eth")


class TestTextGrammar:
    def test_round_trip(self, rng):
        for _ in range(150):
            flow = random_flow(rng)
            assert parse_pattern(format_pattern(flow)) == flow

    def test_parse_rejects_garbage(self):
        for bad in ("", "eth {", "eth { appid ?? 5 }", "eth { } trailing", "{ }", 'eth { src == "unterminated }'):
            with pytest.raises(PatternError):
                parse_pattern(bad)

    def test_hex_and_comments(self):
        flow = parse_pattern("eth { ethertype == 0x88B8 } # trip traffic")
        leaf = [c for c in flow.root.children if c.kind is PredicateKind.PARAMETRIC][0]
        assert leaf.operand == 0x88B8


class TestAnchorPoints:
    def test_two_layers(self):
        assert anchor_points(GOOSE_REQ) == [("eth",), ("eth", "goose")]

    def test_four_layers(self):
        request = dissect(
            udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                      "10.0.0.1", "10.0.0.2", 4000, 102, _fixed_pdu(5, b""))
        )
        assert len(anchor_points(request)) == 4

    def test_single_anchor(self):
        pattern = AccessRequestPattern(request_node("eth", {"ethertype": 1}))
        assert anchor_points(pattern) == [("eth",)]
