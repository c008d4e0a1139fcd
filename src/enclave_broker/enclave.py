"""Enclave lifecycle with the man-trap door interlock.

An enclave has two doors. The upstream door admits data from the store
while provisioning; the gateway door serves queries once sealed. Like a
physical man-trap, one door must be closed before the other opens, at
every observable point. Once sealed, the enclave is a closed box: each
segment is its own tuple of immutable row tuples holding no store
handle, so no later change to a source table can show up in it, and its
contents never change again until its shutdown wipes them.

    Defined -> Provisioning -> Sealed -> Serving -> Expired/Revoked

Each transition checks everything first, then calls the caller's
`record(e, from_state, to_state, cause)`, and only then changes the
state and the doors. A raise from `record` leaves the enclave exactly
as it was, so a transition the caller cannot record is never made.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Callable

from .contracts import DataContract, is_live
from .errors import ContractNotLive, ManTrapViolation, StateError
from .store import Segment, TableStore

DEFINED = "Defined"
PROVISIONING = "Provisioning"
SEALED = "Sealed"
SERVING = "Serving"
EXPIRED = "Expired"
REVOKED = "Revoked"
STATES = (DEFINED, PROVISIONING, SEALED, SERVING, EXPIRED, REVOKED)
TERMINAL = (EXPIRED, REVOKED)

CAUSE_OPERATOR = "Operator"
CAUSE_EXPIRY = "Expiry"
CAUSE_REVOCATION = "Revocation"
CAUSE_BREAK_GLASS_AUTO = "BreakGlassAuto"


@dataclass
class EnclaveInstance:
    enclave_id: str
    contract_id: str
    grant_count: int
    state: str = DEFINED
    upstream_open: bool = False
    gateway_open: bool = False
    segments: dict[int, Segment] = field(default_factory=dict)

    def check_doors(self):
        """The man-trap invariant itself; violating it is never recoverable."""
        if self.upstream_open and self.gateway_open:
            raise ManTrapViolation(f"enclave {self.enclave_id}: both doors open")


# record(e, from_state, to_state, cause); from_state is None for creation.
Record = Callable[[EnclaveInstance, "str | None", str, str], None]


def _move(e: EnclaveInstance, to_state: str, record: Record, cause: str = CAUSE_OPERATOR):
    record(e, e.state, to_state, cause)
    e.state = to_state


def create_enclave(c: DataContract, now: int, record: Record, enclave_id: str | None = None) -> EnclaveInstance:
    """Define a new enclave for a live contract; both doors closed."""
    if not is_live(c, now):
        raise ContractNotLive(f"contract {c.contract_id} is not live")
    e = EnclaveInstance(
        enclave_id=enclave_id or f"enc-{secrets.token_hex(6)}",
        contract_id=c.contract_id,
        grant_count=len(c.grants),
    )
    record(e, None, DEFINED, CAUSE_OPERATOR)
    return e


def provision(e: EnclaveInstance, c: DataContract, store: TableStore, now: int, record: Record):
    """Open the upstream door and pull in one segment per grant.

    The door stays open until seal. A failed extraction revokes the
    enclave, which slams the door and wipes what was pulled in; it
    never becomes servable.
    """
    if e.state != DEFINED:
        raise StateError(f"cannot provision enclave in state {e.state}")
    if c.contract_id != e.contract_id:
        raise StateError("enclave belongs to a different contract")
    if e.gateway_open:
        raise ManTrapViolation(f"enclave {e.enclave_id}: gateway door open during provisioning")
    _move(e, PROVISIONING, record)
    e.upstream_open = True
    e.check_doors()
    try:
        for i, g in enumerate(c.grants):
            e.segments[i] = store.extract_segment(g.source, g, now)
    except Exception:
        expire_or_revoke(e, CAUSE_REVOCATION, record)
        raise


def seal(e: EnclaveInstance, record: Record):
    """Close the upstream door for good; contents are now frozen."""
    if e.state != PROVISIONING:
        raise StateError(f"cannot seal enclave in state {e.state}")
    if len(e.segments) != e.grant_count:
        raise StateError("cannot seal before every grant is materialized")
    _move(e, SEALED, record)
    e.upstream_open = False


def open_gate(e: EnclaveInstance, record: Record):
    """Open the gateway door; only legal once sealed with upstream shut."""
    if e.state != SEALED:
        raise StateError(f"cannot open gate on enclave in state {e.state}")
    if e.upstream_open:
        # Defense in depth: unreachable through this module's own ops.
        raise ManTrapViolation(f"enclave {e.enclave_id}: upstream door open at gate time")
    _move(e, SERVING, record)
    e.gateway_open = True
    e.check_doors()


def expire_or_revoke(e: EnclaveInstance, cause: str, record: Record):
    """Terminal shutdown: both doors close and the segments are wiped in
    the same step. Expiry and break-glass auto-revocation end in Expired;
    operator revocation ends in Revoked. Every session on `e` is dead
    from then on, since the gateway reads the enclave's state on each
    statement."""
    if e.state in TERMINAL:
        raise StateError(f"cannot expire or revoke enclave in state {e.state}")
    if cause not in (CAUSE_EXPIRY, CAUSE_REVOCATION, CAUSE_BREAK_GLASS_AUTO):
        raise StateError(f"bad shutdown cause {cause!r}")
    _move(e, REVOKED if cause == CAUSE_REVOCATION else EXPIRED, record, cause)
    e.upstream_open = False
    e.gateway_open = False
    e.segments.clear()
