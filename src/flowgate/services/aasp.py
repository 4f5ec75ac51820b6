"""Attribute administration and storage: serves attribute values on request.

Each resolution carries a validity interval: time-variable attributes get
``now + freshness`` (per-key or the configured default), constant ones never
expire.  Undeclared or unconfigured keys come back as per-key error markers
rather than failing the whole request — the decision point maps them to a
denying outcome.  Values can be changed at runtime, which is how dynamic
policy behavior is driven.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..policy import FOREVER, AttributeBinding, AttributeValue
from ..wire.messages import (
    AttributeRequest,
    AttributeResolution,
    MessageBody,
    ProtocolEnvelope,
)
from .base import ControlServer, Service, log_event, now_ms
from .config import ServiceConfig


class AaspService(Service):
    role = "aasp"

    def __init__(self, cfg: ServiceConfig, clock=None, control_sock=None):
        super().__init__(cfg, clock or now_ms)
        self._values: dict[str, tuple[AttributeValue, Optional[int]]] = dict(cfg.values)
        self._server = ControlServer(
            cfg.id, cfg.listen_control or ("127.0.0.1", 0), self.gate, self._handle,
            self.factory, self.metrics, self.logger, sock=control_sock, clock=self.clock,
        )

    def start(self) -> None:
        self._server.start()
        log_event(self.logger, "started", control=self.control_address, attributes=len(self._values))

    def set_value(self, key: str, value: AttributeValue, freshness_ms: Optional[int] = None) -> None:
        """Runtime update of an attribute value (and optionally its freshness).

        Any thread may call it: it replaces the key's one tuple, and the loop
        reads that tuple with one `dict.get`."""
        if freshness_ms is None and key in self._values:
            freshness_ms = self._values[key][1]
        self._values[key] = (value, freshness_ms)
        log_event(self.logger, "value-updated", key=key, value=value)

    def _handle(self, env: ProtocolEnvelope, reply: Callable[[MessageBody], None]) -> None:
        if not isinstance(env.body, AttributeRequest):
            self.metrics.incr("control.unexpected-type")
            return
        now = self.clock()
        bindings = []
        unknown = []
        for key in env.body.keys:
            entry = self.cfg.catalog.get(key)
            configured = self._values.get(key)
            if entry is None or configured is None:
                unknown.append(key)
                continue
            value, freshness = configured
            if entry.time_variable:
                until = now + (freshness if freshness is not None else self.cfg.default_freshness_ms)
            else:
                until = FOREVER
            bindings.append(AttributeBinding(key, value, now, until))
        self.metrics.incr("attributes.resolved", len(bindings))
        if unknown:
            self.metrics.incr("attributes.unknown", len(unknown))
        log_event(self.logger, "attribute-resolution", requester=env.sender_id,
                  resolved=len(bindings), unknown=len(unknown))
        reply(AttributeResolution(tuple(bindings), tuple(unknown)))
