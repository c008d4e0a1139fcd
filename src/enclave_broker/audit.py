"""Append-only, hash-chained audit ledger.

Every event's hash covers its sequence number, timestamp, actor, kind,
payload, and the previous event's hash, so any edit, reorder, or splice
of history breaks the chain at the first touched position. The ledger
answers who accessed what, when, and under which contract, and it can
prove nobody rewrote the answer.

Persistence is JSON-Lines: one canonically encoded event per line, in
one file. Opening the log checks that every line is a readable event
but not the chain, which only `verify` checks. An append that fails
leaves the file as it was: its bytes are cut back off, and if even that
fails the ledger closes, so every later append fails too.

The hash rule is defined on a line's bytes: an event's hash is the
SHA-256 of its line with the trailing newline and the first
`,"hash":"<64 hex>"` cut out. Keys are sorted, so in every line
`append` writes `hash` is the second key, right after `actor`'s string;
and every quote inside a string is escaped, so `,"` never occurs inside
a value. The cut therefore leaves exactly the canonical body that
`compute_hash` hashes, and verification needs one SHA-256 per line and
no re-encode. A line that is not canonical but whose hash is over its
own cut bytes verifies too: the chain has no key, so whoever could
write such a line could rewrite the whole chain anyway. A genuine line
re-serialized (other whitespace, key order or escapes) does not, since
the rule pins bytes, not meaning. A repeated key, at any depth, makes a
line bad, so every parser reads the same event from accepted bytes.
(If the first match were not the top-level field, the cut bytes would
still hold the top-level hash, which would then have to equal their own
SHA-256.)

Verification works on the raw bytes. The only thing it trusts is a
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

from .canonical import canonical_bytes
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
    """The SHA-256 of the event's canonical body, which `append` stores.

    It is also the hash of the line `append` writes under the byte rule
    that verification applies: the line's SHA-256 with its newline and
    the first `,"hash":"<64 hex>"` cut out (see the module docstring).
    """
    body = {
        "seq": seq,
        "timestamp": timestamp,
        "actor": actor,
        "kind": kind,
        "payload": payload,
        "prev_hash": prev_hash,
    }
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


class AuditLedger:
    """The chain's length and head, over its file.

    No event object is kept: the open reads the log once and keeps only
    the event count and the last hash, which is all an append needs.
    Each append is written, unbuffered, before the triggering operation
    is allowed to report success; anything that wants the events back
    reads them from the log.
    """

    def __init__(self, path):
        self._path = path
        self._memo = _START  # where the last verify of the log left off
        # Unbuffered, so a refused write leaves no bytes behind to reach
        # the file with the next append's.
        self._fh = open(path, "ab", buffering=0)
        try:
            with open(path, "rb") as reader:
                self._count, self._last = _head(reader, path)
            self._size = os.fstat(self._fh.fileno()).st_size
        except BaseException:
            self._fh.close()
            raise

    @property
    def path(self):
        return self._path

    def __len__(self) -> int:
        return self._count

    def events(self) -> list[AuditEvent]:
        try:
            with open(self._path, "rb") as fh:
                return [AuditEvent(*(obj[f] for f in _FIELDS)) for obj in _records(fh, self._path)]
        except OSError as exc:
            raise StorageFailure(f"cannot read audit log {self._path}: {exc}") from None

    def append(self, timestamp: int, actor: str, kind: str, payload: dict) -> AuditEvent:
        if kind not in KINDS:
            raise StorageFailure(f"unknown audit kind {kind!r}")
        seq, prev = self._count, self._last
        digest = compute_hash(seq, timestamp, actor, kind, payload, prev)
        event = AuditEvent(seq, timestamp, actor, kind, payload, prev, digest)
        line = canonical_bytes(event.to_json()) + b"\n"
        try:
            rest = memoryview(line)
            while rest:
                rest = rest[self._fh.write(rest) :]
        except (OSError, ValueError) as exc:  # ValueError: the ledger is closed
            self._cut_back()
            raise StorageFailure(f"audit append failed: {exc}") from None
        self._count, self._last, self._size = seq + 1, digest, self._size + len(line)
        return event

    def _cut_back(self) -> None:
        """Cut the file back to its last good size after a failed write;
        if that fails too, close the ledger for good."""
        try:
            os.ftruncate(self._fh.fileno(), self._size)
        except (OSError, ValueError):
            self._fh.close()

    def verify(self) -> int | None:
        """Recheck the chain; returns the first bad seq, or None if intact.

        The answer is always `verify_file`'s for the same bytes. The log
        is re-read from byte 0 on every call, but the bytes an earlier
        call already checked are only rehashed against its digest;
        parsing resumes where that call stopped.
        """
        try:
            with open(self._path, "rb") as fh:
                bad, self._memo = _verify_lines(fh, self._memo)
        except OSError as exc:
            raise StorageFailure(f"cannot read audit log {self._path}: {exc}") from None
        return bad

    def close(self):
        self._fh.close()


_FIELDS = ("seq", "timestamp", "actor", "kind", "payload", "prev_hash", "hash")
_FIELD_SET = frozenset(_FIELDS)
_HASH_KEY = b',"hash":"'
_HASH_AT = len(_HASH_KEY)  # the hash's first hex digit, from the key's start
_HASH_CUT = _HASH_AT + 64 + 1  # the key, 64 hex digits and the closing quote


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated key")
    return obj


# Reads a line as a verify must: a key repeated at any depth is a
# ValueError, like any other line that is not one JSON value.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _check_line(raw: bytes, obj, position: int, prev_hash: str) -> str | None:
    """Returns the event's hash if the line is sound at `position`, else None.

    `obj` is `raw` parsed by `_DECODER`. The hash must be the SHA-256 of
    `raw` with its newline and first `,"hash":"<64 hex>"` cut out, and
    the cut must be that hash.
    """
    if not isinstance(obj, dict) or obj.keys() != _FIELD_SET:
        return None
    if obj["seq"] != position or obj["prev_hash"] != prev_hash:
        return None
    if not isinstance(obj["payload"], dict):
        return None
    at = raw.find(_HASH_KEY)
    if at < 0:
        return None
    h = hashlib.sha256(raw[:at])
    h.update(raw[at + _HASH_CUT : len(raw) - raw.endswith(b"\n")])
    digest = h.hexdigest()
    if obj["hash"] != digest or not raw.startswith(digest.encode("ascii") + b'"', at + _HASH_AT):
        return None
    return digest


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

    Any line that fails to decode, parse, or chain is bad, an integer too
    long to read and JSON nested too deep included, as at the open.
    """
    h, memo = _resume(fh, memo)
    offset, position, prev = memo.offset, memo.seq, memo.prev
    bad = None
    for raw in fh:
        try:
            obj = _DECODER.decode(raw.decode("utf-8"))
        except (ValueError, RecursionError):
            bad = position
            break
        chained = _check_line(raw, obj, position, prev)
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


def _records(fh, name):
    """Each line of `fh` as a dict carrying all seven fields.

    A line that is not UTF-8, not JSON, or not such an object raises
    StorageFailure naming its line number; so does a blank line, which
    verify finds bad at its seq. Nothing here checks the chain.
    """
    for lineno, raw in enumerate(fh, 1):
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise StorageFailure(f"corrupt audit log {name} line {lineno}: {exc}") from None
        if not isinstance(obj, dict) or any(f not in obj for f in _FIELDS):
            raise StorageFailure(f"corrupt audit log {name} line {lineno}: not an event with all seven fields")
        yield obj


def _head(fh, name) -> tuple[int, str]:
    """The event count and last hash of the log in `fh`, in one pass that
    holds one line at a time."""
    count, last = 0, GENESIS
    for obj in _records(fh, name):
        count += 1
        last = obj["hash"]
    return count, last
