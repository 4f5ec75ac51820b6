"""Local five-service topology: two enforcement points in the echo path plus
a combined administration/attribute/decision node.

Everything binds to loopback with kernel-assigned ports, so topologies can
run in parallel.  All sockets are bound, and the control sockets listen,
before any service starts: the enforcement registry carries final
addresses, and whatever is sent before its receiver's loop runs waits in
the socket's queue, so no start-up delay is needed.  The returned handle
exposes the live service objects (tests reach in to flip attribute values
or inspect stores), the plug-in points for the benchmark endpoints, and a
shutdown that collects every metrics dump.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Optional

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from ..decisions import DEFAULT_DENY_TTL_MS
from ..errors import ServiceStartupError
from ..policy import AttributeKey, AttributeValue, Policy
from ..services.aasp import AaspService
from ..services.config import DEFAULT_REQUEST_TIMEOUT_MS, BypassRule, DepRegistryEntry, ServiceConfig
from ..services.dep import DepService
from ..services.pasp import PaspService
from ..services.pdp import PdpService
from ..wire.auth import AuthScheme
from .echo import DEFAULT_ACTIVE, DEFAULT_PASSIVE, EndpointProfile

Address = tuple[str, int]

_IDENTITIES = ("pasp", "aasp", "pdp-1", "dep-a", "dep-b", "operator")
_SHARED_SECRET = bytes.fromhex(
    "8e2b54be8f7f0ad0dba204450a102c1a2c6ba17c26998211e6e269a541cf4997"
)


@dataclass
class TopologyConfig:
    scheme: AuthScheme = AuthScheme.NOOP
    policies: list[Policy] = field(default_factory=list)
    catalog: dict[str, AttributeKey] = field(default_factory=dict)
    values: dict[str, tuple[AttributeValue, Optional[int]]] = field(default_factory=dict)
    bypass_rules: list[BypassRule] = field(default_factory=list)
    active: EndpointProfile = DEFAULT_ACTIVE
    passive: EndpointProfile = DEFAULT_PASSIVE
    default_deny_ttl_ms: int = DEFAULT_DENY_TTL_MS
    request_timeout_ms: int = DEFAULT_REQUEST_TIMEOUT_MS
    verify_sessions: bool = False


@dataclass
class Topology:
    services: dict
    config: TopologyConfig
    active_capture: Address      # where the active endpoint injects frames
    passive_capture: Address     # where the passive endpoint injects frames
    active_device_sock: socket.socket    # bound socket the active endpoint reads
    passive_device_sock: socket.socket   # bound socket the passive endpoint reads
    pasp_address: Address
    metrics: dict = field(default_factory=dict)

    def health(self) -> dict[str, bool]:
        out = {}
        for name, service in self.services.items():
            try:
                with socket.create_connection(service.control_address, timeout=2):
                    out[name] = True
            except OSError:
                out[name] = False
        return out

    def shutdown(self) -> dict:
        for name in ("dep-a", "dep-b", "pdp-1", "aasp", "pasp"):
            service = self.services.get(name)
            if service is not None:
                service.stop()
                self.metrics[name] = service.metrics.dump()
        for sock in (self.active_device_sock, self.passive_device_sock):
            try:
                sock.close()
            except OSError:
                pass
        return self.metrics


def _bind_udp() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def _bind_tcp() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    return sock


def _addr(sock: socket.socket) -> Address:
    return sock.getsockname()[:2]


def _key_material(scheme: AuthScheme) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """(per-identity private keys, per-identity public keys) for the scheme."""
    if scheme is not AuthScheme.ED25519:
        return {}, {}
    privates: dict[str, bytes] = {}
    publics: dict[str, bytes] = {}
    for ident in _IDENTITIES:
        key = Ed25519PrivateKey.generate()
        privates[ident] = key.private_bytes(
            serialization.Encoding.Raw, serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )
        publics[ident] = key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
    return privates, publics


def _base_config(ident: str, cfg: TopologyConfig, privates, publics) -> ServiceConfig:
    sc = ServiceConfig(id=ident, scheme=cfg.scheme)
    if cfg.scheme is AuthScheme.HMAC_SHA512:
        sc.peer_secrets = {peer: _SHARED_SECRET for peer in _IDENTITIES}
    elif cfg.scheme is AuthScheme.ED25519:
        sc.private_key = privates[ident]
        sc.peer_pubkeys = dict(publics)
    sc.catalog = dict(cfg.catalog)
    sc.default_deny_ttl_ms = cfg.default_deny_ttl_ms
    sc.request_timeout_ms = cfg.request_timeout_ms
    return sc


def run_topology(config: TopologyConfig) -> Topology:
    """Bind, configure, and start all five services; undo on any failure."""
    privates, publics = _key_material(config.scheme)

    pasp_sock, aasp_sock, pdp_sock = _bind_tcp(), _bind_tcp(), _bind_tcp()
    dep_a_ctrl, dep_b_ctrl = _bind_tcp(), _bind_tcp()
    dep_a_data, dep_b_data = _bind_udp(), _bind_udp()
    dep_a_capture, dep_b_capture = _bind_udp(), _bind_udp()
    active_device, passive_device = _bind_udp(), _bind_udp()

    registry = {
        "dep-a": DepRegistryEntry(
            "dep-a", _addr(dep_a_ctrl), _addr(dep_a_data),
            frozenset({config.active.mac}), frozenset({config.active.ip}),
            frozenset({config.active.port}),
        ),
        "dep-b": DepRegistryEntry(
            "dep-b", _addr(dep_b_ctrl), _addr(dep_b_data),
            frozenset({config.passive.mac}), frozenset({config.passive.ip}),
            frozenset({config.passive.port}),
        ),
    }

    pasp_cfg = _base_config("pasp", config, privates, publics)
    pasp_cfg.admins = frozenset({"operator"})
    pasp_cfg.pdp_peers = {"pdp-1": _addr(pdp_sock)}

    aasp_cfg = _base_config("aasp", config, privates, publics)
    aasp_cfg.values = dict(config.values)

    pdp_cfg = _base_config("pdp-1", config, privates, publics)
    pdp_cfg.pasp = ("pasp", _addr(pasp_sock))
    pdp_cfg.aasp = ("aasp", _addr(aasp_sock))
    pdp_cfg.registry = dict(registry)

    def dep_cfg(ident: str, deliver: Address) -> ServiceConfig:
        sc = _base_config(ident, config, privates, publics)
        sc.pdp = ("pdp-1", _addr(pdp_sock))
        sc.registry = dict(registry)
        sc.device_deliver = deliver
        sc.bypass_rules = list(config.bypass_rules)
        if config.verify_sessions:
            sc.verifier_pdp = ("pdp-1", _addr(pdp_sock))
        return sc

    services: dict = {}
    try:
        services["pasp"] = PaspService(
            pasp_cfg, control_sock=pasp_sock, initial_policies=config.policies
        )
        services["aasp"] = AaspService(aasp_cfg, control_sock=aasp_sock)
        services["pdp-1"] = PdpService(pdp_cfg, control_sock=pdp_sock)
        services["dep-a"] = DepService(
            dep_cfg("dep-a", _addr(active_device)),
            control_sock=dep_a_ctrl, data_sock=dep_a_data, capture_sock=dep_a_capture,
        )
        services["dep-b"] = DepService(
            dep_cfg("dep-b", _addr(passive_device)),
            control_sock=dep_b_ctrl, data_sock=dep_b_data, capture_sock=dep_b_capture,
        )
        for name in ("pasp", "aasp", "pdp-1", "dep-a", "dep-b"):
            services[name].start()
    except ServiceStartupError:
        for service in services.values():
            try:
                service.stop()
            except Exception:
                pass
        raise

    return Topology(
        services=services,
        config=config,
        active_capture=_addr(dep_a_capture),
        passive_capture=_addr(dep_b_capture),
        active_device_sock=active_device,
        passive_device_sock=passive_device,
        pasp_address=_addr(pasp_sock),
    )
