"""Policy administration and storage: CRUD intake and distribution.

Holds the persistent policy set.  Every successful create, update, or
delete bumps the revision counter and pushes the change to all registered
decision points; a decision point can also pull the complete set at any
time.  Requests must come from a configured administrator identity.

The policy set and revision belong to the control loop: the constructor
loads them, and afterwards only the loop's handlers change them.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Callable

from ..errors import TransportError
from ..policy import Policy, validate_policy
from ..wire.codec import Writer, decode_whole, items_at, policy_at, write_policy
from ..wire.messages import (
    CrudOp,
    CrudStatus,
    MessageBody,
    PolicyCrudRequest,
    PolicyCrudResponse,
    PolicyExchangeComplete,
    PolicyExchangeIncremental,
    PolicyExchangeRequest,
    ProtocolEnvelope,
)
from ..wire.transport import oneshot
from .base import ControlServer, PeerChannel, Service, log_event, now_ms
from .config import ServiceConfig, load_policy_files


class PaspService(Service):
    role = "pasp"

    def __init__(self, cfg: ServiceConfig, clock=None, control_sock=None,
                 initial_policies=()):
        super().__init__(cfg, clock or now_ms)
        self._policies: dict[str, Policy] = {}
        self._revision = 0
        self._server = ControlServer(
            cfg.id, cfg.listen_control or ("127.0.0.1", 0), self.gate, self._handle,
            self.factory, self.metrics, self.logger, sock=control_sock, clock=self.clock,
        )
        self._load_store()
        for policy in load_policy_files(cfg):
            self._preload(policy)
        for policy in initial_policies:
            self._preload(policy)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._server.start()
        log_event(self.logger, "started", control=self.control_address, policies=len(self._policies))

    @property
    def revision(self) -> int:
        return self._revision

    def policies(self) -> list[Policy]:
        return list(self._policies.values())

    # -- request handling ----------------------------------------------------

    def _handle(self, env: ProtocolEnvelope, reply: Callable[[MessageBody], None]) -> None:
        body = env.body
        if isinstance(body, PolicyCrudRequest):
            reply(self._handle_crud(env.sender_id, body))
        elif isinstance(body, PolicyExchangeRequest):
            snapshot, revision = tuple(self._policies.values()), self._revision
            self.metrics.incr("exchange.complete-served")
            log_event(self.logger, "complete-exchange", pdp=env.sender_id, revision=revision)
            reply(PolicyExchangeComplete(snapshot, revision))
        else:
            self.metrics.incr("control.unexpected-type")

    def _handle_crud(self, sender: str, req: PolicyCrudRequest) -> PolicyCrudResponse:
        if sender not in self.cfg.admins:
            self.metrics.incr("crud.unauthorized")
            log_event(self.logger, "crud-unauthorized", sender=sender, op=req.op.value)
            return PolicyCrudResponse(CrudStatus.UNAUTHORIZED)

        if req.op is CrudOp.READ:
            policy = self._policies.get(req.policy_id)
            self.metrics.incr("crud.read")
            if policy is None:
                return PolicyCrudResponse(CrudStatus.NOT_FOUND)
            return PolicyCrudResponse(CrudStatus.OK, policy)

        if req.op in (CrudOp.CREATE, CrudOp.UPDATE):
            if req.policy is None or req.policy.id != req.policy_id:
                return PolicyCrudResponse(
                    CrudStatus.VALIDATION_FAILED, violations=("request carries no matching policy",)
                )
            violations = validate_policy(req.policy, self.cfg.catalog or None)
            if violations:
                self.metrics.incr("crud.validation-failed")
                log_event(self.logger, "crud-invalid", id=req.policy_id, violations=len(violations))
                return PolicyCrudResponse(CrudStatus.VALIDATION_FAILED, violations=tuple(violations))

        exists = req.policy_id in self._policies
        if req.op is CrudOp.CREATE and exists:
            self.metrics.incr("crud.duplicate")
            return PolicyCrudResponse(CrudStatus.DUPLICATE_ID)
        if req.op in (CrudOp.UPDATE, CrudOp.DELETE) and not exists:
            self.metrics.incr("crud.not-found")
            return PolicyCrudResponse(CrudStatus.NOT_FOUND)
        if req.op is CrudOp.DELETE:
            del self._policies[req.policy_id]
            change = (CrudOp.DELETE, req.policy_id, None)
        else:
            self._policies[req.policy_id] = req.policy
            change = (req.op, req.policy_id, req.policy)
        self._revision += 1
        revision = self._revision
        self._persist()

        self.metrics.incr(f"crud.{req.op.name.lower()}")
        log_event(self.logger, "crud", op=req.op.value, id=req.policy_id, revision=revision)
        self._push_incremental((change,), revision)
        return PolicyCrudResponse(CrudStatus.OK, req.policy if req.op is not CrudOp.DELETE else None)

    # -- distribution ---------------------------------------------------------

    def _push_incremental(self, changes, revision: int) -> None:
        """Write the change to every decision point before the CRUD reply.

        Pushes leave from the control thread in revision order, each on its
        decision point's channel.
        """
        body = PolicyExchangeIncremental(tuple(changes), revision)
        for pdp_id, addr in self.cfg.pdp_peers.items():
            self._push_one(self.factory.channel(pdp_id, addr), body)

    def _push_one(self, channel: PeerChannel, body: PolicyExchangeIncremental) -> None:
        pdp_id = channel.peer
        backoff = self.cfg.push_backoff_ms / 1000.0
        for attempt in range(self.cfg.push_retries):
            try:
                with channel.lock:
                    oneshot(channel, self.factory.sealed(body, pdp_id), await_reply=False,
                            timeout_s=self.cfg.control_timeout_s)
                self.metrics.incr("exchange.incremental-pushed")
                log_event(self.logger, "incremental-push", pdp=pdp_id, revision=body.revision)
                return
            except TransportError as exc:
                log_event(self.logger, "push-retry", pdp=pdp_id, attempt=attempt + 1, detail=exc)
                if attempt + 1 < self.cfg.push_retries:
                    time.sleep(backoff)  # not holding the channel's lock
                    backoff *= 2
        self.metrics.incr("exchange.push-failed")
        log_event(self.logger, "push-failed", pdp=pdp_id, revision=body.revision)

    # -- persistence -----------------------------------------------------------

    def _preload(self, policy: Policy) -> None:
        violations = validate_policy(policy, self.cfg.catalog or None)
        if violations:
            log_event(self.logger, "preload-invalid", id=policy.id, violations="; ".join(violations))
            return
        self._policies[policy.id] = policy
        self._revision += 1
        self._persist()

    def _load_store(self) -> None:
        path = self.cfg.store_file
        if path is None or not os.path.exists(path):
            return
        with open(path, "rb") as fp:
            data = fp.read()
        self._revision, policies = decode_whole(_store_at, data)
        for policy in policies:
            self._policies[policy.id] = policy
        log_event(self.logger, "store-loaded", policies=len(policies), revision=self._revision)

    def _persist(self) -> None:
        path = self.cfg.store_file
        if path is None:
            return
        w = Writer()
        w.u64(self._revision)
        w.u16(len(self._policies))
        for policy in sorted(self._policies.values(), key=lambda p: p.id):
            write_policy(w, policy)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fp:
            fp.write(w.getvalue())
        os.replace(tmp, path)


def _store_at(data: bytes, pos: int) -> tuple[tuple[int, list[Policy]], int]:
    """The store file: a u64 revision, then the policies as `_persist` writes them."""
    (revision,) = struct.unpack_from(">Q", data, pos)
    policies, pos = items_at(policy_at, data, pos + 8)
    return (revision, policies), pos
