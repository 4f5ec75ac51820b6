"""Raw frame dissection into access request patterns, and frame synthesis.

Dissection walks the protocol stack from the Ethernet header inward, turning
each recognized layer into a request anchor with its extractable fields as
facts.  Parsing is deliberately forgiving: the first unrecognized or
truncated layer becomes an ``opaque`` anchor carrying only a length fact, so
enforcement can still deny-by-default on partial information.  Only a frame
too short for an Ethernet header is rejected outright.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import DissectionError
from .patterns import (
    AccessRequestPattern,
    RequestNode,
    anchor_points,  # re-exported: anchors belong to the dissection surface
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
    return "%d.%d.%d.%d" % tuple(raw)


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


_TWO_U16 = struct.Struct(">HH")  # VLAN TCI, inner type; UDP ports; GOOSE/SV APPID, length
_IPV4 = struct.Struct(">B8xB2x4s4s")  # version+IHL, protocol, source, destination
_TCP = struct.Struct(">HH8xBB")  # ports, data offset, flags
_BY_ETHERTYPE = {ETHERTYPE_VLAN: "vlan", ETHERTYPE_IPV4: "ipv4", ETHERTYPE_GOOSE: "goose", ETHERTYPE_SV: "sv"}
_new = object.__new__


def dissect(frame: bytes, options: DissectionOptions = DEFAULT_OPTIONS) -> AccessRequestPattern:
    """Parse a raw layer-2 frame into its access request pattern.

    Raises DissectionError only for frames shorter than an Ethernet header;
    anything else degrades to an opaque anchor instead of failing.
    """
    end = len(frame)
    if end < 14:
        raise DissectionError(f"frame of {end} bytes is shorter than an Ethernet header")
    ethertype = frame[12] << 8 | frame[13]
    dst, src = mac_text(frame[0:6]), mac_text(frame[6:12])
    anchors = [("eth", (("dst", dst), ("ethertype", ethertype), ("src", src)))]
    pos = 14
    layer = _BY_ETHERTYPE.get(ethertype)
    # One pass by offset, copying no payload.  Each recognized layer appends
    # its facts, sorted by field id, and names the next layer; a layer too
    # short or malformed to read leaves the loop, and the rest of the frame
    # becomes the opaque anchor.
    while layer is not None:
        rest = end - pos
        if layer == "vlan":
            if rest < 4:
                break
            tci, inner_type = _TWO_U16.unpack_from(frame, pos)
            anchors.append(("vlan", (("pcp", tci >> 13), ("vid", tci & 0x0FFF))))
            pos += 4
            layer = _BY_ETHERTYPE.get(inner_type)
        elif layer == "ipv4":
            if rest < 20:
                break
            version_ihl, protocol, src_ip, dst_ip = _IPV4.unpack_from(frame, pos)
            ihl = (version_ihl & 0x0F) * 4
            if version_ihl >> 4 != 4 or ihl < 20 or ihl > rest:
                break
            dst, src = ipv4_text(dst_ip), ipv4_text(src_ip)
            anchors.append(("ipv4", (("dst", dst), ("protocol", protocol), ("src", src))))
            pos += ihl
            layer = "udp" if protocol == 17 else "tcp" if protocol == 6 else None
        elif layer == "udp":
            if rest < 8:
                break
            srcport, dstport = _TWO_U16.unpack_from(frame, pos)
            anchors.append(("udp", (("dstport", dstport), ("srcport", srcport))))
            pos += 8
            if srcport in options.goose_udp_ports or dstport in options.goose_udp_ports:
                layer = "goose"
            elif srcport in options.sv_udp_ports or dstport in options.sv_udp_ports:
                layer = "sv"
            else:
                layer = None
        elif layer == "tcp":
            if rest < 20:
                break
            srcport, dstport, offset, flags = _TCP.unpack_from(frame, pos)
            offset = (offset >> 4) * 4
            if offset < 20 or offset > rest:
                break
            anchors.append(("tcp", (("dstport", dstport), ("flags", flags), ("srcport", srcport))))
            pos += offset
            layer = None
        else:
            # GOOSE and SV share the fixed header: APPID, declared length,
            # reserved.  Their payload is never parsed, so no anchor follows.
            if rest < 8:
                break
            appid, length = _TWO_U16.unpack_from(frame, pos)
            anchors.append((layer, (("appid", appid), ("length", length))))
            return _chain(anchors)
    anchors.append(("opaque", (("length", end - pos),)))
    return _chain(anchors)


def _chain(anchors: list[tuple[str, tuple]]) -> AccessRequestPattern:
    """Link (layer, facts) pairs, outermost first, into a request.

    Filling `__dict__` builds the same frozen objects as their constructors
    (neither class has a `__post_init__`) at half the cost, which was most
    of a dissection; `tests/test_frames.py` compares the two.
    """
    node = None
    for layer, facts in reversed(anchors):
        outer = _new(RequestNode)
        fields = outer.__dict__
        fields["layer"] = layer
        fields["facts"] = facts
        fields["child"] = node
        node = outer
    request = _new(AccessRequestPattern)
    request.__dict__["root"] = node
    return request


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
