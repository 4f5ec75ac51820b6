"""Raw frame dissection into access request patterns, and frame synthesis.

Dissection walks the protocol stack from the Ethernet header inward, turning
each recognized layer into a request anchor with its extractable fields as
facts.  Parsing is deliberately forgiving: the first unrecognized or
truncated layer becomes an ``opaque`` anchor carrying only a length fact, so
enforcement can still deny-by-default on partial information.  Only a frame
too short for an Ethernet header is rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DissectionError
from .patterns import (
    AccessRequestPattern,
    RequestNode,
    Value,
    anchor_points,  # re-exported: anchors belong to the dissection surface
    request_node,
)

__all__ = [
    "FIELD_REGISTRY",
    "DissectionOptions",
    "anchor_points",
    "dissect",
    "mac_text",
    "ipv4_text",
    "ethernet_frame",
    "vlan_tag",
    "goose_frame",
    "sv_frame",
    "ipv4_packet",
    "udp_datagram",
    "tcp_segment",
]

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_GOOSE = 0x88B8
ETHERTYPE_SV = 0x88BA

#: field id -> value type, per layer.  The matcher treats a type mismatch as
#: a non-match, and policy validation rejects operands typed differently.
FIELD_REGISTRY: dict[str, dict[str, type]] = {
    "eth": {"src": str, "dst": str, "ethertype": int},
    "vlan": {"vid": int, "pcp": int},
    "goose": {"appid": int, "length": int},
    "sv": {"appid": int, "length": int},
    "ipv4": {"src": str, "dst": str, "protocol": int},
    "udp": {"srcport": int, "dstport": int},
    "tcp": {"srcport": int, "dstport": int, "flags": int},
    "opaque": {"length": int},
}


@dataclass(frozen=True)
class DissectionOptions:
    """Demultiplexing knobs that have no on-wire discriminator."""

    goose_udp_ports: frozenset[int] = frozenset({102})
    sv_udp_ports: frozenset[int] = frozenset()


DEFAULT_OPTIONS = DissectionOptions()


def mac_text(raw: bytes) -> str:
    return raw.hex(":")


def ipv4_text(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


def _mac_bytes(text: str) -> bytes:
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(f"bad MAC {text!r}")
    return bytes(int(p, 16) for p in parts)


def _ipv4_bytes(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    return bytes(int(p) for p in parts)


def _opaque(payload: bytes) -> RequestNode:
    return request_node("opaque", {"length": len(payload)})


def _fixed_pdu_header(layer: str, payload: bytes) -> RequestNode:
    # GOOSE and SV share the fixed header: APPID, declared length, reserved.
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
    facts: dict[str, Value] = {
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
    facts: dict[str, Value] = {
        "src": ipv4_text(payload[12:16]),
        "dst": ipv4_text(payload[16:20]),
        "protocol": protocol,
    }
    return request_node("ipv4", facts, child)


def _parse_by_ethertype(ethertype: int, payload: bytes, options: DissectionOptions) -> RequestNode:
    if ethertype == ETHERTYPE_VLAN:
        return _parse_vlan(payload, options)
    if ethertype == ETHERTYPE_IPV4:
        return _parse_ipv4(payload, options)
    if ethertype == ETHERTYPE_GOOSE:
        return _fixed_pdu_header("goose", payload)
    if ethertype == ETHERTYPE_SV:
        return _fixed_pdu_header("sv", payload)
    return _opaque(payload)


def _parse_vlan(payload: bytes, options: DissectionOptions) -> RequestNode:
    if len(payload) < 4:
        return _opaque(payload)
    tci = int.from_bytes(payload[0:2], "big")
    inner_type = int.from_bytes(payload[2:4], "big")
    child = _parse_by_ethertype(inner_type, payload[4:], options)
    return request_node("vlan", {"vid": tci & 0x0FFF, "pcp": tci >> 13}, child)


def dissect(frame: bytes, options: DissectionOptions = DEFAULT_OPTIONS) -> AccessRequestPattern:
    """Parse a raw layer-2 frame into its access request pattern.

    Raises DissectionError only for frames shorter than an Ethernet header;
    anything else degrades to an opaque anchor instead of failing.
    """
    if len(frame) < 14:
        raise DissectionError(f"frame of {len(frame)} bytes is shorter than an Ethernet header")
    ethertype = int.from_bytes(frame[12:14], "big")
    facts: dict[str, Value] = {
        "dst": mac_text(frame[0:6]),
        "src": mac_text(frame[6:12]),
        "ethertype": ethertype,
    }
    child = _parse_by_ethertype(ethertype, frame[14:], options)
    return AccessRequestPattern(request_node("eth", facts, child))


# ---------------------------------------------------------------------------
# Frame synthesis (fixtures, benchmark traffic, `frame build`)
# ---------------------------------------------------------------------------


def ethernet_frame(src: str, dst: str, ethertype: int, payload: bytes = b"") -> bytes:
    return _mac_bytes(dst) + _mac_bytes(src) + ethertype.to_bytes(2, "big") + payload


def vlan_tag(vid: int, pcp: int, inner_ethertype: int, payload: bytes) -> bytes:
    """802.1Q tag body: prepend to a payload and wrap with ethertype 0x8100."""
    tci = ((pcp & 0x7) << 13) | (vid & 0x0FFF)
    return tci.to_bytes(2, "big") + inner_ethertype.to_bytes(2, "big") + payload


def _fixed_pdu(appid: int, apdu: bytes) -> bytes:
    length = 8 + len(apdu)
    return appid.to_bytes(2, "big") + length.to_bytes(2, "big") + b"\x00\x00\x00\x00" + apdu


def goose_frame(src: str, dst: str, appid: int, apdu: bytes = b"", pad_to: int = 0) -> bytes:
    frame = ethernet_frame(src, dst, ETHERTYPE_GOOSE, _fixed_pdu(appid, apdu))
    if pad_to > len(frame):
        frame += b"\x00" * (pad_to - len(frame))
    return frame


def sv_frame(src: str, dst: str, appid: int, apdu: bytes = b"") -> bytes:
    return ethernet_frame(src, dst, ETHERTYPE_SV, _fixed_pdu(appid, apdu))


def _ipv4_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += int.from_bytes(header[i : i + 2], "big")
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4_packet(src: str, dst: str, protocol: int, payload: bytes, ttl: int = 64) -> bytes:
    total_len = 20 + len(payload)
    header = bytearray(20)
    header[0] = 0x45
    header[2:4] = total_len.to_bytes(2, "big")
    header[8] = ttl
    header[9] = protocol
    header[12:16] = _ipv4_bytes(src)
    header[16:20] = _ipv4_bytes(dst)
    header[10:12] = _ipv4_checksum(bytes(header)).to_bytes(2, "big")
    return bytes(header) + payload


def udp_datagram(srcport: int, dstport: int, payload: bytes) -> bytes:
    # Checksum 0 is legal over IPv4 and keeps synthesis header-local.
    length = 8 + len(payload)
    return (
        srcport.to_bytes(2, "big")
        + dstport.to_bytes(2, "big")
        + length.to_bytes(2, "big")
        + b"\x00\x00"
        + payload
    )


def tcp_segment(srcport: int, dstport: int, flags: int, payload: bytes = b"") -> bytes:
    header = bytearray(20)
    header[0:2] = srcport.to_bytes(2, "big")
    header[2:4] = dstport.to_bytes(2, "big")
    header[12] = 5 << 4
    header[13] = flags & 0xFF
    header[14:16] = (8192).to_bytes(2, "big")
    return bytes(header) + payload


def udp_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    srcport: int,
    dstport: int,
    payload: bytes,
) -> bytes:
    """Ethernet/IPv4/UDP frame around `payload`, the benchmark's frame shape."""
    datagram = udp_datagram(srcport, dstport, payload)
    packet = ipv4_packet(src_ip, dst_ip, 17, datagram)
    return ethernet_frame(src_mac, dst_mac, ETHERTYPE_IPV4, packet)
