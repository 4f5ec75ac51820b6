"""Pluggable frame authentication: sealing, verification, replay rejection.

Three schemes are built in.  The no-op scheme signs nothing and accepts
everything (the measurement baseline for the authorization machinery alone);
HMAC-SHA-512 authenticates with a pre-shared secret per peer pair; Ed25519
signs with the sender's static private key, giving receivers verification
and third parties non-repudiation.  Key material is static configuration —
there is no exchange or rotation protocol here.

`seal` completes a freshly built envelope in place with its tag over its
canonical signing bytes, which the sealed envelope keeps.  The receiving
side runs an `InboundGate`, which verifies the tag over the bytes received,
enforces the strictly-increasing per-sender sequence, and rejects
timestamps outside the freshness window.
"""

from __future__ import annotations

import hmac as _hmac
import hashlib
import threading
from typing import Mapping, Optional, Protocol

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from ..errors import FlowgateError
from .messages import AuthScheme, ProtocolEnvelope, signing_bytes  # re-exports AuthScheme

DEFAULT_FRESHNESS_WINDOW_MS = 2_000


SCHEME_NAMES = {"noop": AuthScheme.NOOP, "hmac-sha512": AuthScheme.HMAC_SHA512, "ed25519": AuthScheme.ED25519}


class OpenFailure(FlowgateError):
    """An inbound envelope was rejected; subclasses say why."""


class AuthFailure(OpenFailure):
    """Tag verification failed or the scheme is not the configured one."""


class ReplayFailure(OpenFailure):
    """Sequence number at or below the last accepted one for this sender."""


class StaleTimestampFailure(OpenFailure):
    """Timestamp outside the freshness window."""


class KeyConfigError(FlowgateError):
    """Missing or malformed key material for the configured scheme."""


class Authenticator(Protocol):
    scheme: AuthScheme

    def sign(self, data: bytes, peer: str) -> bytes: ...

    def verify(self, data: bytes, tag: bytes, peer: str) -> bool: ...


class NoopAuthenticator:
    """Forwards without signing or verifying; tags are empty."""

    scheme = AuthScheme.NOOP

    def sign(self, data: bytes, peer: str) -> bytes:
        return b""

    def verify(self, data: bytes, tag: bytes, peer: str) -> bool:
        return True


class HmacSha512Authenticator:
    """Pre-shared symmetric secret per peer pair."""

    scheme = AuthScheme.HMAC_SHA512

    def __init__(self, peer_secrets: Mapping[str, bytes]):
        self._secrets = dict(peer_secrets)

    def _secret(self, peer: str) -> bytes:
        secret = self._secrets.get(peer)
        if secret is None:
            raise KeyConfigError(f"no shared secret configured for peer {peer!r}")
        return secret

    def sign(self, data: bytes, peer: str) -> bytes:
        return _hmac.new(self._secret(peer), data, hashlib.sha512).digest()

    def verify(self, data: bytes, tag: bytes, peer: str) -> bool:
        try:
            expected = self.sign(data, peer)
        except KeyConfigError:
            return False
        return _hmac.compare_digest(expected, tag)


class Ed25519Authenticator:
    """Static signing key plus a public key per peer."""

    scheme = AuthScheme.ED25519

    def __init__(self, private_key: Optional[bytes], peer_public_keys: Mapping[str, bytes]):
        self._private = (
            Ed25519PrivateKey.from_private_bytes(private_key) if private_key is not None else None
        )
        self._publics = {
            peer: Ed25519PublicKey.from_public_bytes(raw)
            for peer, raw in peer_public_keys.items()
        }

    @staticmethod
    def public_bytes_of(private_key: bytes) -> bytes:
        return (
            Ed25519PrivateKey.from_private_bytes(private_key)
            .public_key()
            .public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        )

    def sign(self, data: bytes, peer: str) -> bytes:
        if self._private is None:
            raise KeyConfigError("no signing key configured")
        return self._private.sign(data)

    def verify(self, data: bytes, tag: bytes, peer: str) -> bool:
        public = self._publics.get(peer)
        if public is None:
            return False
        try:
            public.verify(tag, data)
            return True
        except InvalidSignature:
            return False


def seal(env: ProtocolEnvelope, auth: Authenticator, peer: str) -> ProtocolEnvelope:
    """Set `env`'s scheme and its tag for delivery to `peer`, and return it.

    `env` is completed in place, so each message is built once; seal only an
    envelope that nothing else holds yet.  One that already keeps signed
    bytes (a sealed or a decoded one) is refused with ValueError.
    """
    if env.signed is not None:
        raise ValueError(f"envelope {env.sequence} from {env.sender_id!r} already holds signed bytes")
    signed = signing_bytes(env)
    env.__dict__.update(auth_scheme=auth.scheme, auth_tag=auth.sign(signed, peer), signed=signed)
    return env


class InboundGate:
    """Admission control for received envelopes.

    Checks, in order: scheme match, tag validity, replay (per-sender strict
    sequence increase), timestamp freshness.  `open` either returns nothing
    or raises an OpenFailure subclass; accepted envelopes advance the
    sender's sequence watermark.
    """

    def __init__(
        self,
        auth: Authenticator,
        freshness_window_ms: int = DEFAULT_FRESHNESS_WINDOW_MS,
    ):
        self._auth = auth
        self._window = freshness_window_ms
        self._last_sequence: dict[str, int] = {}
        self._lock = threading.Lock()

    def open(self, env: ProtocolEnvelope, now_ms: int) -> None:
        if env.auth_scheme is not self._auth.scheme:
            raise AuthFailure(
                f"scheme {env.auth_scheme.name} from {env.sender_id!r}; expected {self._auth.scheme.name}"
            )
        signed = env.signed if env.signed is not None else signing_bytes(env)
        if not self._auth.verify(signed, env.auth_tag, env.sender_id):
            raise AuthFailure(f"bad tag from {env.sender_id!r}")
        if abs(now_ms - env.timestamp) > self._window:
            raise StaleTimestampFailure(
                f"timestamp {env.timestamp} outside ±{self._window} ms of {now_ms}"
            )
        with self._lock:
            if env.sequence <= self._last_sequence.get(env.sender_id, -1):
                raise ReplayFailure(
                    f"sequence {env.sequence} from {env.sender_id!r} already seen"
                )
            self._last_sequence[env.sender_id] = env.sequence


class SequenceCounter:
    """Strictly increasing per-process sequence numbers for outbound envelopes."""

    def __init__(self, start: int = 0):
        self._next = start
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value
