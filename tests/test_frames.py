"""Frame dissection: layer recognition, degradation rules, round trips."""

import io
import random

import pytest

from flowgate.errors import DissectionError
from flowgate.frames import (
    DissectionOptions,
    _fixed_pdu,
    dissect,
    ethernet_frame,
    goose_frame,
    ipv4_packet,
    sv_frame,
    tcp_segment,
    udp_datagram,
    udp_frame,
    vlan_tag,
)
from flowgate.pcapio import PcapFormatError, read_pcap, write_pcap
from dissect_reference import reference_dissect

SRC, DST = "02:00:00:00:00:01", "01:0c:cd:01:00:01"


def layers_of(pattern):
    return [a.layer for a in pattern.anchors()]


class TestGooseAndSv:
    def test_goose_header_fields(self):
        # 60-byte frame: 14 eth + 8 fixed header + 3 apdu + padding
        frame = goose_frame(SRC, DST, 0x0005, b"abc", pad_to=60)
        assert len(frame) == 60
        pattern = dissect(frame)
        assert layers_of(pattern) == ["eth", "goose"]
        eth, goose = pattern.anchors()
        assert eth.fact("src") == SRC
        assert eth.fact("dst") == DST
        assert eth.fact("ethertype") == 0x88B8
        assert goose.fact("appid") == 5
        assert goose.fact("length") == 11  # declared: 8-byte header + 3 apdu

    def test_sv_recognized(self):
        pattern = dissect(sv_frame(SRC, DST, 0x4001, b"\x00" * 10))
        assert layers_of(pattern) == ["eth", "sv"]
        assert pattern.anchors()[1].fact("appid") == 0x4001

    def test_truncated_goose_header_degrades_to_opaque(self):
        frame = ethernet_frame(SRC, DST, 0x88B8, b"\x00\x05\x00")  # 3 of 8 bytes
        pattern = dissect(frame)
        assert layers_of(pattern) == ["eth", "opaque"]
        assert pattern.anchors()[1].fact("length") == 3


class TestEncapsulation:
    def test_udp_encapsulated_goose(self):
        frame = udp_frame(SRC, DST, "10.0.0.1", "10.0.0.2", 4000, 102, _fixed_pdu(5, b"x"))
        pattern = dissect(frame)
        assert layers_of(pattern) == ["eth", "ipv4", "udp", "goose"]
        assert pattern.anchors()[3].fact("appid") == 5

    def test_goose_port_set_is_configurable(self):
        frame = udp_frame(SRC, DST, "10.0.0.1", "10.0.0.2", 4000, 17102, _fixed_pdu(5, b"x"))
        assert layers_of(dissect(frame)) == ["eth", "ipv4", "udp", "opaque"]
        options = DissectionOptions(goose_udp_ports=frozenset({17102}))
        assert layers_of(dissect(frame, options)) == ["eth", "ipv4", "udp", "goose"]

    def test_vlan_tagged_goose(self):
        inner = vlan_tag(100, 4, 0x88B8, _fixed_pdu(7, b""))
        pattern = dissect(ethernet_frame(SRC, DST, 0x8100, inner))
        assert layers_of(pattern) == ["eth", "vlan", "goose"]
        vlan = pattern.anchors()[1]
        assert vlan.fact("vid") == 100
        assert vlan.fact("pcp") == 4

    def test_tcp_segment(self):
        packet = ipv4_packet("10.0.0.1", "10.0.0.2", 6, tcp_segment(4000, 102, 0x18, b"mm"))
        pattern = dissect(ethernet_frame(SRC, DST, 0x0800, packet))
        assert layers_of(pattern) == ["eth", "ipv4", "tcp", "opaque"]
        tcp = pattern.anchors()[2]
        assert tcp.fact("dstport") == 102
        assert tcp.fact("flags") == 0x18


class TestDegradation:
    def test_unknown_ethertype_empty_payload(self):
        pattern = dissect(ethernet_frame(SRC, DST, 0x1234))
        assert layers_of(pattern) == ["eth", "opaque"]
        assert pattern.anchors()[1].fact("length") == 0

    def test_short_frame_is_an_error(self):
        with pytest.raises(DissectionError):
            dissect(b"\x00" * 13)
        dissect(b"\x00" * 14)  # exactly one header parses

    def test_truncated_ipv4_degrades(self):
        pattern = dissect(ethernet_frame(SRC, DST, 0x0800, b"\x45\x00\x00"))
        assert layers_of(pattern) == ["eth", "opaque"]

    def test_bad_ip_version_degrades(self):
        packet = bytearray(ipv4_packet("10.0.0.1", "10.0.0.2", 17, b""))
        packet[0] = 0x65  # version 6
        pattern = dissect(ethernet_frame(SRC, DST, 0x0800, bytes(packet)))
        assert layers_of(pattern) == ["eth", "opaque"]

    def test_total_on_random_bytes(self):
        rng = random.Random(7)
        for _ in range(100_000):
            size = rng.randint(14, 80)
            frame = rng.randbytes(size)
            pattern = dissect(frame)  # must never raise above 14 bytes
            assert pattern.anchors()[0].layer == "eth"


class TestBuilderRoundTrip:
    def test_udp_frame_fields_reproduced(self):
        frame = udp_frame(SRC, DST, "10.0.0.9", "10.0.0.7", 1234, 5678, b"payload!")
        eth, ipv4, udp, opaque = dissect(frame).anchors()
        assert (eth.fact("src"), eth.fact("dst")) == (SRC, DST)
        assert (ipv4.fact("src"), ipv4.fact("dst")) == ("10.0.0.9", "10.0.0.7")
        assert ipv4.fact("protocol") == 17
        assert (udp.fact("srcport"), udp.fact("dstport")) == (1234, 5678)
        assert opaque.fact("length") == 8

    def test_every_anchor_is_a_valid_alignment_point(self):
        from flowgate.patterns import AccessRequestPattern, FlowPattern, hierarchy, match_at_root

        frame = udp_frame(SRC, DST, "10.0.0.1", "10.0.0.2", 4000, 102, _fixed_pdu(5, b""))
        request = dissect(frame)
        for anchor in request.anchors():
            probe = FlowPattern(hierarchy(anchor.layer))
            assert match_at_root(probe, AccessRequestPattern(anchor))


class TestPcap:
    def test_round_trip(self):
        frames = [
            goose_frame(SRC, DST, 1, b"a", pad_to=60),
            udp_frame(SRC, DST, "10.0.0.1", "10.0.0.2", 1, 2, b"pp"),
        ]
        buf = io.BytesIO()
        write_pcap(buf, frames)
        buf.seek(0)
        assert list(read_pcap(buf)) == frames

    def test_bad_magic_rejected(self):
        with pytest.raises(PcapFormatError):
            list(read_pcap(io.BytesIO(b"\x00" * 40)))

    def test_dissects_from_pcap(self):
        buf = io.BytesIO()
        write_pcap(buf, [goose_frame(SRC, DST, 5, b"", pad_to=64)])
        buf.seek(0)
        (frame,) = list(read_pcap(buf))
        assert layers_of(dissect(frame)) == ["eth", "goose"]


class TestAgainstReference:
    """`dissect` against the dict-based reference dissector, on every
    truncation of each frame shape, value for value and type for type."""

    OPTIONS = DissectionOptions(goose_udp_ports=frozenset({102}), sv_udp_ports=frozenset({103}))

    @staticmethod
    def frames(rng):
        def mac():
            return rng.randbytes(6).hex(":")

        def ip():
            return ".".join(str(b) for b in rng.randbytes(4))

        def port():
            return rng.randrange(1024, 65536)

        def body():
            return rng.randbytes(rng.randint(0, 12))

        pdu = _fixed_pdu(rng.randrange(65536), body())
        udp = udp_datagram(port(), port(), body())
        with_options = bytearray(ipv4_packet(ip(), ip(), 17, udp))
        with_options[0] = 0x47  # IHL 7: two words of options
        with_options[20:20] = rng.randbytes(8)
        bad_offset = bytearray(tcp_segment(port(), port(), rng.randrange(256), body()))
        bad_offset[12] = rng.choice([0x10, 0x40, 0xF0])  # below 20 bytes, or past the segment
        tcp_options = bytearray(tcp_segment(port(), port(), rng.randrange(256), body()))
        tcp_options[12] = 0x60  # data offset 24: one word of options
        tcp_options[20:20] = rng.randbytes(4)
        vlan = (rng.randrange(4096), rng.randrange(8))
        return {
            "eth": ethernet_frame(mac(), mac(), rng.randrange(65536), body()),
            "vlan": ethernet_frame(mac(), mac(), 0x8100, vlan_tag(*vlan, 0x0800, ipv4_packet(
                ip(), ip(), 17, udp))),
            "vlan-in-vlan": ethernet_frame(mac(), mac(), 0x8100, vlan_tag(
                *vlan, 0x8100, vlan_tag(rng.randrange(4096), rng.randrange(8), 0x88B8, pdu))),
            "ipv4-options": ethernet_frame(mac(), mac(), 0x0800, bytes(with_options)),
            "ipv4-other": ethernet_frame(mac(), mac(), 0x0800, ipv4_packet(ip(), ip(), 99, body())),
            "udp": udp_frame(mac(), mac(), ip(), ip(), port(), port(), body()),
            "udp-goose": udp_frame(mac(), mac(), ip(), ip(), port(), 102, pdu),
            "udp-sv": udp_frame(mac(), mac(), ip(), ip(), 103, port(), pdu),
            "tcp": ethernet_frame(mac(), mac(), 0x0800, ipv4_packet(
                ip(), ip(), 6, tcp_segment(port(), port(), rng.randrange(256), body()))),
            "tcp-options": ethernet_frame(mac(), mac(), 0x0800, ipv4_packet(
                ip(), ip(), 6, bytes(tcp_options))),
            "tcp-bad-offset": ethernet_frame(mac(), mac(), 0x0800, ipv4_packet(
                ip(), ip(), 6, bytes(bad_offset))),
            "goose": goose_frame(mac(), mac(), rng.randrange(65536), body()),
            "sv": sv_frame(mac(), mac(), rng.randrange(65536), body()),
            "unknown-ethertype": ethernet_frame(mac(), mac(), 0x1234, body()),
        }

    @staticmethod
    def typed(pattern):
        return [(a.layer, [(f, type(v), v) for f, v in a.facts]) for a in pattern.anchors()]

    @pytest.mark.parametrize("seed", range(5))
    def test_every_truncation_agrees(self, seed):
        rng = random.Random(seed)
        for shape, frame in self.frames(rng).items():
            for cut in range(len(frame) + 1):
                part = frame[:cut]
                if cut < 14:
                    with pytest.raises(DissectionError):
                        dissect(part, self.OPTIONS)
                    continue
                got, want = dissect(part, self.OPTIONS), reference_dissect(part, self.OPTIONS)
                assert got == want and hash(got) == hash(want), (shape, cut)
                assert self.typed(got) == self.typed(want), (shape, cut)
                assert got.key() == want.key(), (shape, cut)

    def test_random_bytes_agree(self):
        rng = random.Random(11)
        for _ in range(20_000):
            ethertype = rng.choice([0x8100, 0x0800, 0x88B8, 0x88BA, 0x1234]).to_bytes(2, "big")
            frame = rng.randbytes(12) + ethertype + rng.randbytes(rng.randint(0, 70))
            got, want = dissect(frame, self.OPTIONS), reference_dissect(frame, self.OPTIONS)
            assert self.typed(got) == self.typed(want)
            assert got.key() == want.key()
