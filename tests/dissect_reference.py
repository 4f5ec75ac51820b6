"""Reference dissector: the dict-and-slice implementation `frames.dissect`
replaced, kept as the oracle for the one-pass version.

It slices the payload at every layer, collects each anchor's facts in a dict
and sorts them, so it shares no parsing code with the production dissector.
"""

from __future__ import annotations

from flowgate.errors import DissectionError
from flowgate.frames import DEFAULT_OPTIONS, DissectionOptions
from flowgate.patterns import AccessRequestPattern, RequestNode, request_node


def _mac(raw: bytes) -> str:
    return ":".join(f"{b:02x}" for b in raw)


def _ipv4(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


def _opaque(payload: bytes) -> RequestNode:
    return request_node("opaque", {"length": len(payload)})


def _fixed_pdu_header(layer: str, payload: bytes) -> RequestNode:
    if len(payload) < 8:
        return _opaque(payload)
    appid = int.from_bytes(payload[0:2], "big")
    length = int.from_bytes(payload[2:4], "big")
    return request_node(layer, {"appid": appid, "length": length})


def _parse_udp(payload: bytes, options: DissectionOptions) -> RequestNode:
    if len(payload) < 8:
        return _opaque(payload)
    srcport = int.from_bytes(payload[0:2], "big")
    dstport = int.from_bytes(payload[2:4], "big")
    inner = payload[8:]
    if srcport in options.goose_udp_ports or dstport in options.goose_udp_ports:
        child = _fixed_pdu_header("goose", inner)
    elif srcport in options.sv_udp_ports or dstport in options.sv_udp_ports:
        child = _fixed_pdu_header("sv", inner)
    else:
        child = _opaque(inner)
    return request_node("udp", {"srcport": srcport, "dstport": dstport}, child)


def _parse_tcp(payload: bytes) -> RequestNode:
    if len(payload) < 20:
        return _opaque(payload)
    offset = (payload[12] >> 4) * 4
    if offset < 20 or offset > len(payload):
        return _opaque(payload)
    facts = {
        "srcport": int.from_bytes(payload[0:2], "big"),
        "dstport": int.from_bytes(payload[2:4], "big"),
        "flags": payload[13],
    }
    return request_node("tcp", facts, _opaque(payload[offset:]))


def _parse_ipv4(payload: bytes, options: DissectionOptions) -> RequestNode:
    if len(payload) < 20 or payload[0] >> 4 != 4:
        return _opaque(payload)
    ihl = (payload[0] & 0x0F) * 4
    if ihl < 20 or ihl > len(payload):
        return _opaque(payload)
    protocol = payload[9]
    inner = payload[ihl:]
    if protocol == 17:
        child = _parse_udp(inner, options)
    elif protocol == 6:
        child = _parse_tcp(inner)
    else:
        child = _opaque(inner)
    facts = {"src": _ipv4(payload[12:16]), "dst": _ipv4(payload[16:20]), "protocol": protocol}
    return request_node("ipv4", facts, child)


def _parse_by_ethertype(ethertype: int, payload: bytes, options: DissectionOptions) -> RequestNode:
    if ethertype == 0x8100:
        return _parse_vlan(payload, options)
    if ethertype == 0x0800:
        return _parse_ipv4(payload, options)
    if ethertype == 0x88B8:
        return _fixed_pdu_header("goose", payload)
    if ethertype == 0x88BA:
        return _fixed_pdu_header("sv", payload)
    return _opaque(payload)


def _parse_vlan(payload: bytes, options: DissectionOptions) -> RequestNode:
    if len(payload) < 4:
        return _opaque(payload)
    tci = int.from_bytes(payload[0:2], "big")
    inner_type = int.from_bytes(payload[2:4], "big")
    child = _parse_by_ethertype(inner_type, payload[4:], options)
    return request_node("vlan", {"vid": tci & 0x0FFF, "pcp": tci >> 13}, child)


def reference_dissect(
    frame: bytes, options: DissectionOptions = DEFAULT_OPTIONS
) -> AccessRequestPattern:
    if len(frame) < 14:
        raise DissectionError(f"frame of {len(frame)} bytes is shorter than an Ethernet header")
    ethertype = int.from_bytes(frame[12:14], "big")
    facts = {"dst": _mac(frame[0:6]), "src": _mac(frame[6:12]), "ethertype": ethertype}
    child = _parse_by_ethertype(ethertype, frame[14:], options)
    return AccessRequestPattern(request_node("eth", facts, child))
