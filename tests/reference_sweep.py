"""The sweep and revoke walks as they were before the broker indexed
what is due, kept as references.

`Reference` copies what the walks read from a live core: its contracts,
its enclaves' states, its break-glass requests and the clock. Its
`sweep` and `revoke_contract` then run the old loops on that copy: the
sweep walks every request, every contract and every enclave ever made,
and a revoke walks every enclave to find the contract's open ones.
`emit` records `(actor, kind, payload)` instead of appending, and
raises StorageFailure where the given `refuse(kind, payload)` says so,
as a refused ledger append does. Each op returns the reply the core
should give, or raises the BrokerError it should answer; `events` then
holds the events the core should have appended. The core is never
changed.
"""

from __future__ import annotations

from dataclasses import replace

from enclave_broker import audit as audit_mod
from enclave_broker import contracts as contracts_mod
from enclave_broker import enclave as enclave_mod
from enclave_broker.breakglass import ACTIVATED, AUTO_REVOKED
from enclave_broker.contracts import ACTIVE, is_live
from enclave_broker.errors import StorageFailure, UnknownEntity


class Reference:
    def __init__(self, core, refuse):
        self.now = core.clock.now()
        self.contracts = dict(core.contracts)  # DataContract is frozen
        # Copies that share no segment with the core's enclaves, so a
        # shutdown here wipes nothing there.
        self.enclaves = {eid: replace(e, segments={}) for eid, e in core.enclaves.items()}
        self.requests = [replace(req) for req in core.break_glass.requests.values()]
        self.refuse = refuse
        self.events: list[tuple[str, str, dict]] = []

    def emit(self, actor, kind, payload):
        if self.refuse(kind, payload):
            raise StorageFailure("audit append failed: disk full")
        self.events.append((actor, kind, payload))

    def _record_transition(self, e, from_state, to_state, cause):
        self.emit(
            "broker",
            audit_mod.ENCLAVE_TRANSITION,
            {
                "enclave_id": e.enclave_id,
                "contract_id": e.contract_id,
                "from": from_state,
                "to": to_state,
                "cause": cause,
            },
        )

    def _expire_contract(self, c):
        expired = contracts_mod.expire(c)
        self.emit("broker", audit_mod.CONTRACT_EXPIRED, {"contract_id": c.contract_id, "expired_at": self.now})
        self.contracts[c.contract_id] = expired

    def _shut(self, e, cause):
        enclave_mod.expire_or_revoke(e, cause, self._record_transition)

    def _open_enclaves(self, contract_id):
        terminal = enclave_mod.TERMINAL
        return [e for e in self.enclaves.values() if e.contract_id == contract_id and e.state not in terminal]

    def _shut_enclaves_for(self, contract_id, cause):
        hit = self._open_enclaves(contract_id)
        for e in hit:
            self._shut(e, cause)
        return [e.enclave_id for e in hit]

    def revoke_contract(self, contract_id, reason=""):
        if contract_id not in self.contracts:
            raise UnknownEntity(f"no contract {contract_id!r}")
        c = self.contracts[contract_id]
        if c.status != contracts_mod.REVOKED or not self._open_enclaves(contract_id):
            c = contracts_mod.revoke(c)
            self.emit("operator", audit_mod.CONTRACT_REVOKED, {"contract_id": c.contract_id, "reason": reason})
            self.contracts[contract_id] = c
        closed = self._shut_enclaves_for(contract_id, enclave_mod.CAUSE_REVOCATION)
        return {"contract_id": contract_id, "status": c.status, "revoked_enclaves": closed}

    def sweep(self):
        now = self.now
        expired_contracts, expired_enclaves, auto_revoked = [], [], []

        def contract_live(contract_id, at):
            c = self.contracts.get(contract_id)
            return c is not None and is_live(c, at)

        for req in self.requests:
            if req.status != ACTIVATED:
                continue
            if not contract_live(req.activated_contract_id, now):
                c = self.contracts.get(req.activated_contract_id)
                if c is not None and c.status == ACTIVE:
                    self._expire_contract(c)
                    expired_contracts.append(c.contract_id)
                expired_enclaves.extend(
                    self._shut_enclaves_for(req.activated_contract_id, enclave_mod.CAUSE_BREAK_GLASS_AUTO)
                )
                self.emit(
                    "broker",
                    audit_mod.BREAK_GLASS_REVOKED,
                    {"request_id": req.request_id, "contract_id": req.activated_contract_id},
                )
                req.status = AUTO_REVOKED
                auto_revoked.append(req.request_id)
        for c in list(self.contracts.values()):
            if c.status == ACTIVE and not is_live(c, now):
                self._expire_contract(c)
                expired_contracts.append(c.contract_id)
        for e in self.enclaves.values():
            if e.state in enclave_mod.TERMINAL:
                continue
            c = self.contracts.get(e.contract_id)
            if c is None or not is_live(c, now):
                cause = (
                    enclave_mod.CAUSE_REVOCATION
                    if c is not None and c.status == contracts_mod.REVOKED
                    else enclave_mod.CAUSE_EXPIRY
                )
                self._shut(e, cause)
                expired_enclaves.append(e.enclave_id)
        return {
            "expired": expired_contracts,
            "expired_enclaves": expired_enclaves,
            "bg_auto_revoked": auto_revoked,
        }
