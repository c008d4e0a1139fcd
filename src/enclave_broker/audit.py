"""Append-only, hash-chained audit ledger.

Every event's hash covers its sequence number, timestamp, actor, kind,
payload, and the previous event's hash, so any edit, reorder, or splice
of history breaks the chain at the first touched position. The ledger
answers who accessed what, when, and under which contract, and it can
prove nobody rewrote the answer.

Persistence is JSON-Lines: one canonically encoded event per line.
Verification works on the raw file. The only thing it trusts is a
SHA-256 digest it computed itself, in this process, over the part of the
file it already checked: if those bytes still hash to that digest, they
are the bytes that were checked, and only the lines after them are
parsed and rehashed. The digest is never written to disk, where anyone
who can write the data dir could forge it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from .canonical import canonical_bytes, canonical_json
from .errors import StorageFailure

GENESIS = "0" * 64
# Bytes per read when rehashing the verified prefix. 1 MiB reads hash no
# faster, and under glibc malloc they left the broker about 2 MB more
# peak RSS (10k-event ledger); 64 KiB reads left none.
_CHUNK = 1 << 16

CONTRACT_SUBMITTED = "ContractSubmitted"
CONTRACT_ACTIVATED = "ContractActivated"
CONTRACT_REVOKED = "ContractRevoked"
CONTRACT_EXPIRED = "ContractExpired"
ENCLAVE_TRANSITION = "EnclaveTransition"
SESSION_OPENED = "SessionOpened"
SESSION_CLOSED = "SessionClosed"
QUERY_EXECUTED = "QueryExecuted"
QUERY_DENIED = "QueryDenied"
ALERT_RAISED = "AlertRaised"
BREAK_GLASS_REQUESTED = "BreakGlassRequested"
BREAK_GLASS_APPROVED = "BreakGlassApproved"
BREAK_GLASS_ACTIVATED = "BreakGlassActivated"
BREAK_GLASS_REVOKED = "BreakGlassRevoked"
BREAK_GLASS_DENIED = "BreakGlassDenied"

KINDS = (
    CONTRACT_SUBMITTED,
    CONTRACT_ACTIVATED,
    CONTRACT_REVOKED,
    CONTRACT_EXPIRED,
    ENCLAVE_TRANSITION,
    SESSION_OPENED,
    SESSION_CLOSED,
    QUERY_EXECUTED,
    QUERY_DENIED,
    ALERT_RAISED,
    BREAK_GLASS_REQUESTED,
    BREAK_GLASS_APPROVED,
    BREAK_GLASS_ACTIVATED,
    BREAK_GLASS_REVOKED,
    BREAK_GLASS_DENIED,
)


@dataclass(frozen=True)
class AuditEvent:
    seq: int  # consecutive from 0
    timestamp: int
    actor: str
    kind: str
    payload: dict
    prev_hash: str  # GENESIS for seq 0
    hash: str

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "actor": self.actor,
            "kind": self.kind,
            "payload": self.payload,
            "prev_hash": self.prev_hash,
            "hash": self.hash,
        }


def compute_hash(seq: int, timestamp: int, actor: str, kind: str, payload: dict, prev_hash: str) -> str:
    body = {
        "seq": seq,
        "timestamp": timestamp,
        "actor": actor,
        "kind": kind,
        "payload": payload,
        "prev_hash": prev_hash,
    }
    return _body_hash(body)


def _body_hash(body: dict) -> str:
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


class AuditLedger:
    """The chain plus, optionally, its file. Appends are flushed before
    the triggering operation is allowed to report success."""

    def __init__(self, path=None):
        self._events: list[AuditEvent] = []
        self._path = path
        self._fh = None
        self._memo = _START  # where the last verify of the file left off
        if path is not None:
            if os.path.exists(path):
                self._events = _load_events(path)
            self._fh = open(path, "a", encoding="utf-8")

    @property
    def path(self):
        return self._path

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[AuditEvent]:
        return list(self._events)

    def last_hash(self) -> str:
        return self._events[-1].hash if self._events else GENESIS

    def append(self, timestamp: int, actor: str, kind: str, payload: dict) -> AuditEvent:
        if kind not in KINDS:
            raise StorageFailure(f"unknown audit kind {kind!r}")
        seq = len(self._events)
        prev = self.last_hash()
        digest = compute_hash(seq, timestamp, actor, kind, payload, prev)
        event = AuditEvent(seq, timestamp, actor, kind, payload, prev, digest)
        if self._fh is not None:
            try:
                self._fh.write(canonical_json(event.to_json()) + "\n")
                self._fh.flush()
            except OSError as exc:
                raise StorageFailure(f"audit append failed: {exc}") from None
        self._events.append(event)
        return event

    def verify(self) -> int | None:
        """Recheck the chain; returns the first bad seq, or None if intact.

        With a file, the answer is always `verify_file(path)`'s. The file
        is re-read from byte 0 on every call, but the bytes an earlier
        call already checked are only rehashed against its digest;
        parsing resumes where that call stopped.
        """
        if self._path is None:
            return verify_events(self._events)
        with open(self._path, "rb") as fh:
            bad, self._memo = _verify_lines(fh, self._memo)
        return bad

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


_FIELDS = ("seq", "timestamp", "actor", "kind", "payload", "prev_hash", "hash")
_BODY = _FIELDS[:-1]


def _check_line(obj, position: int, prev_hash: str) -> str | None:
    """Returns the event's hash if the line is sound at `position`, else None."""
    if not isinstance(obj, dict) or any(f not in obj for f in _FIELDS):
        return None
    if obj["seq"] != position:
        return None
    if obj["prev_hash"] != prev_hash:
        return None
    if not isinstance(obj["payload"], dict):
        return None
    if obj["hash"] != _body_hash({f: obj[f] for f in _BODY}):
        return None
    return obj["hash"]


def verify_events(events) -> int | None:
    """Recheck a parsed chain; returns the first bad seq, or None if intact."""
    prev = GENESIS
    for i, e in enumerate(events):
        obj = e.to_json() if isinstance(e, AuditEvent) else e
        prev = _check_line(obj, i, prev)
        if prev is None:
            return i
    return None


@dataclass(frozen=True)
class _Memo:
    """Where a verify of the file left off: bytes [0, offset) hash to
    `digest` and end with a newline, and the line at `offset` must carry
    seq `seq` and chain from `prev`."""

    offset: int
    digest: bytes
    seq: int
    prev: str


_START = _Memo(0, hashlib.sha256().digest(), 0, GENESIS)


def _resume(fh, memo: _Memo):
    """Hash the first `memo.offset` bytes of `fh`; returns the running
    hash, and `memo` if they hash to its digest, else `_START` with `fh`
    back at byte 0."""
    h = hashlib.sha256()
    left = memo.offset
    while left:
        chunk = fh.read(min(_CHUNK, left))
        if not chunk:
            break
        h.update(chunk)
        left -= len(chunk)
    if left == 0 and h.digest() == memo.digest:
        return h, memo
    fh.seek(0)
    return hashlib.sha256(), _START


def _verify_lines(fh, memo: _Memo) -> tuple[int | None, _Memo]:
    """The one line-checking loop. Checks `fh` from the end of the prefix
    `memo` vouches for (from byte 0 if it no longer does); returns the
    first bad seq or None, and the memo of the good lines read so far.

    Any line that fails to decode, parse, or chain is bad.
    """
    h, memo = _resume(fh, memo)
    offset, position, prev = memo.offset, memo.seq, memo.prev
    bad = None
    for raw in fh:
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            bad = position
            break
        chained = _check_line(obj, position, prev)
        if chained is None:
            bad = position
            break
        if not raw.endswith(b"\n"):
            break  # a good last line with no newline: an append would extend it
        h.update(raw)
        offset += len(raw)
        position += 1
        prev = chained
    return bad, _Memo(offset, h.digest(), position, prev)


def verify_file(path) -> int | None:
    """Verify the persisted log byte-for-byte from disk.

    Any line that fails to decode, parse, or chain marks the first bad
    sequence number. Returns None when the whole file checks out.
    """
    with open(path, "rb") as fh:
        return _verify_lines(fh, _START)[0]


def _load_events(path) -> list[AuditEvent]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                events.append(
                    AuditEvent(
                        seq=obj["seq"],
                        timestamp=obj["timestamp"],
                        actor=obj["actor"],
                        kind=obj["kind"],
                        payload=obj["payload"],
                        prev_hash=obj["prev_hash"],
                        hash=obj["hash"],
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise StorageFailure(f"corrupt audit log {path}: {exc}") from None
    return events
