"""Service configuration: one key/value text format for all four roles.

Lines are ``key value...``; ``#`` starts a comment; unknown keys are
rejected.  Keys that repeat (``admin``, ``bypass``, ``dep``, ``value``,
``pdp-peer``, ``policy-file``, ``peer-secret``, ``peer-pubkey``,
``attribute``) accumulate.  Example DEP configuration::

    id dep-a
    scheme hmac-sha512
    listen-control 127.0.0.1:7101
    listen-data 127.0.0.1:7111
    device-capture 127.0.0.1:7121
    device-deliver 127.0.0.1:17110
    pdp pdp-1 127.0.0.1:7001
    peer-secret pdp-1 00112233aabbccdd
    peer-secret dep-b 00112233aabbccdd
    dep dep-a control=127.0.0.1:7101 data=127.0.0.1:7111 mac=02:00:00:00:00:01 ip=10.0.0.1 port=40000
    dep dep-b control=127.0.0.1:7201 data=127.0.0.1:7211 mac=02:00:00:00:00:02 ip=10.0.0.2 port=40001
    bypass both eth { ethertype == 0x0806 }
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from typing import Optional

from ..errors import ConfigError
from ..frames import DissectionOptions
from ..pattern_text import _parse_literal, _tokenize, parse_pattern
from ..patterns import FlowPattern
from ..policy import AttributeKey, AttributeValue
from ..policy_text import parse_catalog, parse_policy
from ..wire.auth import SCHEME_NAMES, AuthScheme

Address = tuple[str, int]

#: A remote service reference: (peer id, control address).  The id selects
#: the key material used to seal envelopes addressed to that peer.
PeerRef = tuple[str, Address]


def parse_address(text: str) -> Address:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"bad address {text!r}; expected HOST:PORT")
    try:
        return (host, int(port))
    except ValueError:
        raise ConfigError(f"bad port in address {text!r}") from None


def _parse_peer_ref(rest: str, key: str) -> PeerRef:
    parts = rest.split()
    if len(parts) != 2:
        raise ConfigError(f"{key} wants '<peer-id> <host:port>', got {rest!r}")
    return (parts[0], parse_address(parts[1]))


@dataclass(frozen=True)
class DepRegistryEntry:
    """One enforcement point and the endpoint identities it protects."""

    dep_id: str
    control: Address
    data: Address
    macs: frozenset[str] = frozenset()
    ips: frozenset[str] = frozenset()
    ports: frozenset[int] = frozenset()


@dataclass(frozen=True)
class BypassRule:
    flow: FlowPattern
    direction: str  # ingress | egress | both

    def applies(self, direction: str) -> bool:
        return self.direction in (direction, "both")


@dataclass
class ServiceConfig:
    """Bag of settings shared by all roles; each service reads its subset."""

    id: str = ""
    scheme: AuthScheme = AuthScheme.NOOP
    listen_control: Optional[Address] = None
    listen_data: Optional[Address] = None
    device_capture: Optional[Address] = None
    device_deliver: Optional[Address] = None
    pasp: Optional[PeerRef] = None
    aasp: Optional[PeerRef] = None
    pdp: Optional[PeerRef] = None
    verifier_pdp: Optional[PeerRef] = None
    verify_fail_open: bool = False
    admins: frozenset[str] = frozenset()
    pdp_peers: dict[str, Address] = dc_field(default_factory=dict)
    peer_secrets: dict[str, bytes] = dc_field(default_factory=dict)
    peer_pubkeys: dict[str, bytes] = dc_field(default_factory=dict)
    private_key: Optional[bytes] = None
    registry: dict[str, DepRegistryEntry] = dc_field(default_factory=dict)
    bypass_rules: list[BypassRule] = dc_field(default_factory=list)
    catalog: dict[str, AttributeKey] = dc_field(default_factory=dict)
    values: dict[str, tuple[AttributeValue, Optional[int]]] = dc_field(default_factory=dict)
    default_freshness_ms: int = 30_000
    policy_files: list[str] = dc_field(default_factory=list)
    store_file: Optional[str] = None
    capture_interface: Optional[str] = None  # raw-capture mode (privileged)
    buffer_limit: int = 64
    request_timeout_ms: int = 1_000
    default_deny_ttl_ms: int = 5_000
    error_retry_ms: int = 1_000
    freshness_window_ms: int = 2_000
    clock_skew_slack_ms: int = 50
    control_timeout_s: float = 5.0
    push_retries: int = 3
    push_backoff_ms: int = 200
    dissection: DissectionOptions = DissectionOptions()


def _parse_int_set(text: str) -> frozenset[int]:
    return frozenset(int(p, 0) for p in text.split(",") if p)


def _parse_dep_entry(rest: str) -> DepRegistryEntry:
    parts = rest.split()
    if not parts:
        raise ConfigError("dep entry without an id")
    dep_id = parts[0]
    control = data = None
    macs: set[str] = set()
    ips: set[str] = set()
    ports: set[int] = set()
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"bad dep attribute {part!r}")
        if key == "control":
            control = parse_address(value)
        elif key == "data":
            data = parse_address(value)
        elif key == "mac":
            macs.update(m.lower() for m in value.split(","))
        elif key == "ip":
            ips.update(value.split(","))
        elif key == "port":
            ports.update(int(p, 0) for p in value.split(","))
        else:
            raise ConfigError(f"unknown dep attribute {key!r}")
    if control is None or data is None:
        raise ConfigError(f"dep {dep_id!r} needs control= and data= endpoints")
    return DepRegistryEntry(dep_id, control, data, frozenset(macs), frozenset(ips), frozenset(ports))


def _parse_value_line(rest: str) -> tuple[str, AttributeValue, Optional[int]]:
    parts = rest.split(None, 1)
    if len(parts) != 2:
        raise ConfigError(f"bad value line {rest!r}")
    key, remainder = parts
    tokens = _tokenize(remainder)
    if len(tokens) == 1:
        return key, _parse_literal(tokens[0]), None
    if len(tokens) == 2:
        freshness = _parse_literal(tokens[1])
        if type(freshness) is not int:
            raise ConfigError(f"value {key!r}: freshness must be an integer (ms)")
        return key, _parse_literal(tokens[0]), freshness
    raise ConfigError(f"bad value line {rest!r}")


def parse_config(text: str, base_dir: str = ".") -> ServiceConfig:
    cfg = ServiceConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip() if '"' not in raw else raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        try:
            _apply(cfg, key, rest, base_dir)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return cfg


def _apply(cfg: ServiceConfig, key: str, rest: str, base_dir: str) -> None:
    if key == "id":
        cfg.id = rest
    elif key == "scheme":
        scheme = SCHEME_NAMES.get(rest)
        if scheme is None:
            raise ConfigError(f"unknown scheme {rest!r}")
        cfg.scheme = scheme
    elif key == "listen-control":
        cfg.listen_control = parse_address(rest)
    elif key == "listen-data":
        cfg.listen_data = parse_address(rest)
    elif key == "device-capture":
        cfg.device_capture = parse_address(rest)
    elif key == "device-deliver":
        cfg.device_deliver = parse_address(rest)
    elif key == "pasp":
        cfg.pasp = _parse_peer_ref(rest, key)
    elif key == "aasp":
        cfg.aasp = _parse_peer_ref(rest, key)
    elif key == "pdp":
        cfg.pdp = _parse_peer_ref(rest, key)
    elif key == "verifier-pdp":
        cfg.verifier_pdp = _parse_peer_ref(rest, key)
    elif key == "verify-fail-open":
        cfg.verify_fail_open = rest.lower() in ("true", "1", "yes")
    elif key == "admin":
        cfg.admins = cfg.admins | {rest}
    elif key == "pdp-peer":
        pid, addr = rest.split(None, 1)
        cfg.pdp_peers[pid] = parse_address(addr)
    elif key == "peer-secret":
        pid, hexkey = rest.split(None, 1)
        cfg.peer_secrets[pid] = bytes.fromhex(hexkey)
    elif key == "peer-pubkey":
        pid, hexkey = rest.split(None, 1)
        cfg.peer_pubkeys[pid] = bytes.fromhex(hexkey)
    elif key == "private-key":
        cfg.private_key = bytes.fromhex(rest)
    elif key == "dep":
        entry = _parse_dep_entry(rest)
        cfg.registry[entry.dep_id] = entry
    elif key == "bypass":
        direction, sep, pattern = rest.partition(" ")
        if direction not in ("ingress", "egress", "both") or not sep:
            raise ConfigError(f"bypass wants '<ingress|egress|both> <pattern>', got {rest!r}")
        cfg.bypass_rules.append(BypassRule(parse_pattern(pattern), direction))
    elif key == "attribute":
        parts = rest.split()
        if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "time-variable"):
            raise ConfigError(f"attribute wants 'name type [time-variable]', got {rest!r}")
        cfg.catalog[parts[0]] = AttributeKey(parts[0], parts[1], len(parts) == 3)
    elif key == "catalog-file":
        path = os.path.join(base_dir, rest)
        with open(path, encoding="utf-8") as fp:
            cfg.catalog.update(parse_catalog(fp.read()))
    elif key == "value":
        name, value, freshness = _parse_value_line(rest)
        cfg.values[name] = (value, freshness)
    elif key == "default-freshness":
        cfg.default_freshness_ms = int(rest)
    elif key == "policy-file":
        cfg.policy_files.append(os.path.join(base_dir, rest))
    elif key == "store-file":
        cfg.store_file = os.path.join(base_dir, rest)
    elif key == "capture-interface":
        cfg.capture_interface = rest
    elif key == "buffer-limit":
        cfg.buffer_limit = int(rest)
    elif key == "request-timeout":
        cfg.request_timeout_ms = int(rest)
    elif key == "default-deny-ttl":
        cfg.default_deny_ttl_ms = int(rest)
    elif key == "error-retry":
        cfg.error_retry_ms = int(rest)
    elif key == "freshness-window":
        cfg.freshness_window_ms = int(rest)
    elif key == "clock-skew-slack":
        cfg.clock_skew_slack_ms = int(rest)
    elif key == "goose-udp-ports":
        cfg.dissection = DissectionOptions(
            goose_udp_ports=_parse_int_set(rest), sv_udp_ports=cfg.dissection.sv_udp_ports
        )
    elif key == "sv-udp-ports":
        cfg.dissection = DissectionOptions(
            goose_udp_ports=cfg.dissection.goose_udp_ports, sv_udp_ports=_parse_int_set(rest)
        )
    else:
        raise ConfigError(f"unknown configuration key {key!r}")


def parse_config_file(path: str) -> ServiceConfig:
    with open(path, encoding="utf-8") as fp:
        return parse_config(fp.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def load_policy_files(cfg: ServiceConfig):
    policies = []
    for path in cfg.policy_files:
        with open(path, encoding="utf-8") as fp:
            policies.append(parse_policy(fp.read()))
    return policies
