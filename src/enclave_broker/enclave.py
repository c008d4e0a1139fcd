"""Enclave lifecycle with the man-trap door interlock.

An enclave has two doors. The upstream door admits data from the store
while provisioning; the gateway door serves queries once sealed. Like a
physical man-trap, one door must be closed before the other opens, at
every observable point. Once sealed, the enclave is a closed box: each
segment is its own tuple of immutable row tuples holding no store
handle, so no later change to a source table can show up in it, and its
contents never change again until destruction wipes them.

    Defined -> Provisioning -> Sealed -> Serving -> Expired/Revoked -> Destroyed
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from .contracts import DataContract, is_live
from .errors import ContractNotLive, ManTrapViolation, StateError
from .store import Segment, TableStore

DEFINED = "Defined"
PROVISIONING = "Provisioning"
SEALED = "Sealed"
SERVING = "Serving"
EXPIRED = "Expired"
REVOKED = "Revoked"
DESTROYED = "Destroyed"
STATES = (DEFINED, PROVISIONING, SEALED, SERVING, EXPIRED, REVOKED, DESTROYED)
TERMINAL = (EXPIRED, REVOKED, DESTROYED)

CAUSE_OPERATOR = "Operator"
CAUSE_EXPIRY = "Expiry"
CAUSE_REVOCATION = "Revocation"
CAUSE_BREAK_GLASS_AUTO = "BreakGlassAuto"


@dataclass(frozen=True)
class TransitionRecord:
    enclave_id: str
    from_state: str | None  # None for creation
    to_state: str
    timestamp: int
    cause: str


@dataclass
class EnclaveInstance:
    enclave_id: str
    contract_id: str
    grant_count: int
    state: str = DEFINED
    upstream_open: bool = False
    gateway_open: bool = False
    segments: dict[int, Segment] = field(default_factory=dict)
    created_at: int = 0
    sealed_at: int | None = None
    transitions: list[TransitionRecord] = field(default_factory=list)

    def check_doors(self):
        """The man-trap invariant itself; violating it is never recoverable."""
        if self.upstream_open and self.gateway_open:
            raise ManTrapViolation(f"enclave {self.enclave_id}: both doors open")


def _record(e: EnclaveInstance, from_state: str | None, to_state: str, now: int, cause: str):
    e.transitions.append(TransitionRecord(e.enclave_id, from_state, to_state, now, cause))
    e.state = to_state
    e.check_doors()


def create_enclave(c: DataContract, now: int, enclave_id: str | None = None) -> EnclaveInstance:
    """Define a new enclave for a live contract; both doors closed."""
    if not is_live(c, now):
        raise ContractNotLive(f"contract {c.contract_id} is not live")
    e = EnclaveInstance(
        enclave_id=enclave_id or f"enc-{secrets.token_hex(6)}",
        contract_id=c.contract_id,
        grant_count=len(c.grants),
        created_at=now,
    )
    _record(e, None, DEFINED, now, CAUSE_OPERATOR)
    return e


def provision(e: EnclaveInstance, c: DataContract, store: TableStore, now: int) -> EnclaveInstance:
    """Open the upstream door and pull in one segment per grant.

    The door stays open until seal. A failed extraction slams the door
    and revokes the enclave; it never becomes servable.
    """
    if e.state != DEFINED:
        raise StateError(f"cannot provision enclave in state {e.state}")
    if c.contract_id != e.contract_id:
        raise StateError("enclave belongs to a different contract")
    if e.gateway_open:
        raise ManTrapViolation(f"enclave {e.enclave_id}: gateway door open during provisioning")
    _record(e, DEFINED, PROVISIONING, now, CAUSE_OPERATOR)
    e.upstream_open = True
    e.check_doors()
    try:
        for i, g in enumerate(c.grants):
            e.segments[i] = store.extract_segment(g.source, g, now)
    except Exception:
        e.upstream_open = False
        e.segments.clear()
        _record(e, PROVISIONING, REVOKED, now, CAUSE_REVOCATION)
        raise
    return e


def seal(e: EnclaveInstance, now: int) -> EnclaveInstance:
    """Close the upstream door for good; contents are now frozen."""
    if e.state != PROVISIONING:
        raise StateError(f"cannot seal enclave in state {e.state}")
    if len(e.segments) != e.grant_count:
        raise StateError("cannot seal before every grant is materialized")
    e.upstream_open = False
    e.sealed_at = now
    _record(e, PROVISIONING, SEALED, now, CAUSE_OPERATOR)
    return e


def open_gate(e: EnclaveInstance, now: int) -> EnclaveInstance:
    """Open the gateway door; only legal once sealed with upstream shut."""
    if e.state != SEALED:
        raise StateError(f"cannot open gate on enclave in state {e.state}")
    if e.upstream_open:
        # Defense in depth: unreachable through this module's own ops.
        raise ManTrapViolation(f"enclave {e.enclave_id}: upstream door open at gate time")
    e.gateway_open = True
    _record(e, SEALED, SERVING, now, CAUSE_OPERATOR)
    return e


def shutdown_state(e: EnclaveInstance, cause: str) -> str:
    """The terminal state a shutdown of `e` with `cause` would reach.

    Expiry and break-glass auto-revocation end in Expired; operator
    revocation ends in Revoked. Raises if `e` cannot be shut so.
    """
    if e.state in TERMINAL:
        raise StateError(f"cannot expire or revoke enclave in state {e.state}")
    if cause not in (CAUSE_EXPIRY, CAUSE_REVOCATION, CAUSE_BREAK_GLASS_AUTO):
        raise StateError(f"bad shutdown cause {cause!r}")
    return REVOKED if cause == CAUSE_REVOCATION else EXPIRED


def expire_or_revoke(e: EnclaveInstance, cause: str, now: int) -> EnclaveInstance:
    """Terminal shutdown: both doors close in the same step. Every
    session on `e` is dead from then on, since the gateway reads the
    enclave's state on each statement."""
    to_state = shutdown_state(e, cause)
    e.upstream_open = False
    e.gateway_open = False
    _record(e, e.state, to_state, now, cause)
    return e


def destroy(e: EnclaveInstance, now: int) -> EnclaveInstance:
    """Erase the segments of an already-terminal enclave."""
    if e.state not in (EXPIRED, REVOKED):
        raise StateError(f"cannot destroy enclave in state {e.state}")
    e.segments.clear()
    _record(e, e.state, DESTROYED, now, CAUSE_OPERATOR)
    return e
