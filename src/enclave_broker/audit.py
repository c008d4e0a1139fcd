"""Append-only, hash-chained audit ledger.

Every event's hash covers its sequence number, timestamp, actor, kind,
payload, and the previous event's hash, so any edit, reorder, or splice
of history breaks the chain at the first touched position. The ledger
answers who accessed what, when, and under which contract, and it can
prove nobody rewrote the answer.

Persistence is JSON-Lines: one canonically encoded event per line, in
one file. Opening the log refuses any line that is not a readable event
with all seven fields, and checks no hash: only `verify` does. An
append that fails leaves the file as it was: its bytes are cut back
off, and if even that fails the ledger closes, so every later append
fails too.

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

A line is sound when it passes two halves of one rule. The structural
half reads the parsed line: one object with exactly the seven fields,
`seq` equal to the line's position, `prev_hash` equal to the previous
line's stored hash, an object `payload`, and the stored `hash` equal to
the 64 ASCII characters at the first `,"hash":"` cut. The byte half
reads only bytes: the SHA-256 of the line with the cut taken out equals
the 64 hex digits at the cut. `verify` applies both to each line
(`_check_line`), chaining on the hash it computed. The open parses
every line anyway, so it applies the structural half to the longest
prefix of newline-terminated lines that pass it, feeding them to a
running SHA-256, and keeps that prefix's memo. The first
`verify` then applies only the byte half to those lines, rehashing
them as it goes; if the rehash of the prefix equals the open's digest,
these are the bytes the open checked, so each of them passed both
halves, and the full check resumes after the prefix. If it differs, the
file changed since the open, and the open's memo is dropped unused.
The answer is `verify_file`'s either way: before the first line that
fails, each stored hash equals the computed one (the byte half compares
the computed hash with the cut, and the structural half the cut with
the stored field), so chaining on stored hashes, as the open does, is
the same chain as chaining on computed ones, as `verify_file` does.
The open's digest is trusted exactly as a verify's: computed here,
over bytes checked here, and never written anywhere.
"""

from __future__ import annotations

import hashlib
import itertools
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
    the event count and the last hash, which is all an append needs, and
    the memo of the prefix whose structure it checked, for the first
    verify.
    Each append is written, unbuffered, before the triggering operation
    is allowed to report success; anything that wants the events back
    reads them from the log.
    """

    def __init__(self, path):
        self._path = path
        self._memo = _START  # where the last verify of the log left off
        self._opened = None  # the prefix the open checked, until a verify passes it
        # Unbuffered, so a refused write leaves no bytes behind to reach
        # the file with the next append's.
        self._fh = open(path, "ab", buffering=0)
        try:
            with open(path, "rb") as reader:
                self._count, self._last, self._opened = _head(reader, path)
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
        parsing resumes where that call stopped. The lines the open
        checked are not parsed again either: only their hashes are
        checked (see the module docstring).
        """
        try:
            with open(self._path, "rb") as fh:
                bad, self._memo, self._opened = _verify_lines(fh, self._memo, self._opened)
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


def _decode_line(raw: bytes):
    """`raw` parsed by `_DECODER`; raises ValueError or RecursionError
    exactly where `_DECODER.decode` does.

    A value that starts at byte 0 and ends at the newline is taken
    straight from the scanner, which skips `decode`'s two whitespace
    matches; any other line goes through `decode` itself.
    """
    text = raw.decode("utf-8")
    try:
        obj, end = _DECODER.scan_once(text, 0)
        if end == len(text) - 1 and text[end] == "\n":
            return obj
    except StopIteration:  # no value at byte 0
        pass
    return _DECODER.decode(text)


def _sound(raw: bytes, obj, position: int, prev_hash: str) -> bool:
    """The structural half of the line rule: is `obj`, which is `raw`
    parsed by `_DECODER`, the event at `position` chaining from
    `prev_hash`, with its stored hash as the 64 characters at the cut?"""
    if not isinstance(obj, dict) or obj.keys() != _FIELD_SET:
        return False
    if obj["seq"] != position or obj["prev_hash"] != prev_hash:
        return False
    if not isinstance(obj["payload"], dict):
        return False
    stored = obj["hash"]
    if not (isinstance(stored, str) and len(stored) == 64 and stored.isascii()):
        return False
    at = raw.find(_HASH_KEY)
    return at >= 0 and raw.startswith(stored.encode("ascii") + b'"', at + _HASH_AT)


def _line_hash(raw: bytes) -> str | None:
    """The byte half of the line rule: the SHA-256 of `raw` with its
    newline and first `,"hash":"<64 hex>"` cut out, if the cut holds
    that hash; else None."""
    at = raw.find(_HASH_KEY)
    if at < 0:
        return None
    h = hashlib.sha256(raw[:at])
    h.update(raw[at + _HASH_CUT : len(raw) - raw.endswith(b"\n")])
    digest = h.hexdigest()
    if not raw.startswith(digest.encode("ascii") + b'"', at + _HASH_AT):
        return None
    return digest


def _check_line(raw: bytes, obj, position: int, prev_hash: str) -> str | None:
    """Returns the event's hash if the line is sound at `position`, else None.

    `obj` is `raw` parsed by `_DECODER`. Both halves of the rule must
    hold; then the stored hash is the computed one.
    """
    return _line_hash(raw) if _sound(raw, obj, position, prev_hash) else None


@dataclass(frozen=True)
class _Memo:
    """Where a verify of the file left off: bytes [0, offset) hash to
    `digest` and end with a newline, and the line at `offset` must carry
    seq `seq` and chain from `prev`. The open's memo says the same of
    the structural half of the rule only."""

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


def _rehash_opened(fh, h, memo: _Memo, opened: _Memo):
    """Apply the byte half of the rule to the lines from `memo` to the
    end of the prefix `opened`, feeding every byte of them to `h`.

    Returns None if those bytes are not the ones the open checked: they
    do not end where its prefix did, or do not hash to its digest. Else
    returns the first bad seq (None if there is none) and the memo of
    the sound lines before it, which is `opened` when all are sound.
    """
    offset, position, prev = memo.offset, memo.seq, memo.prev
    found = None
    for raw in fh:
        if found is None:
            digest = _line_hash(raw)
            if digest is None:
                found = position, _Memo(offset, h.digest(), position, prev)
            else:
                prev = digest
        h.update(raw)
        offset += len(raw)
        position += 1
        if offset >= opened.offset:
            break
    if offset != opened.offset or h.digest() != opened.digest:
        return None
    return found or (None, opened)


def _verify_lines(fh, memo: _Memo, opened: _Memo | None = None) -> tuple[int | None, _Memo, _Memo | None]:
    """The one line-checking loop. Checks `fh` from the end of the prefix
    `memo` vouches for (from byte 0 if it no longer does); returns the
    first bad seq or None, the memo of the good lines read so far, and
    `opened` while that memo is still behind it.

    `opened` is the prefix the open found structurally sound: while the
    file still holds those bytes, its lines get only the byte half of
    the rule. Any line that fails to decode, parse, or chain is bad, an
    integer too long to read and JSON nested too deep included, as at
    the open.
    """
    h, memo = _resume(fh, memo)
    if opened is not None and memo.offset < opened.offset:
        before = h.copy()
        rehashed = _rehash_opened(fh, h, memo, opened)
        if rehashed is None:  # the file changed since the open
            fh.seek(memo.offset)
            h, opened = before, None
        else:
            bad, memo = rehashed
            if bad is not None:
                return bad, memo, opened
    offset, position, prev = memo.offset, memo.seq, memo.prev
    bad = None
    for raw in fh:
        try:
            obj = _decode_line(raw)
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
    return bad, _Memo(offset, h.digest(), position, prev), None


def verify_file(path) -> int | None:
    """Verify the persisted log byte-for-byte from disk.

    Any line that fails to decode, parse, or chain marks the first bad
    sequence number. Returns None when the whole file checks out.
    """
    with open(path, "rb") as fh:
        return _verify_lines(fh, _START)[0]


def _records(fh, name, lineno: int = 1):
    """Each line of `fh`, numbered from `lineno`, as a dict carrying all
    seven fields.

    A line that is not UTF-8, not JSON, or not such an object raises
    StorageFailure naming its line number; so does a blank line, which
    verify finds bad at its seq. Nothing here checks the chain.
    """
    for lineno, raw in enumerate(fh, lineno):
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise StorageFailure(f"corrupt audit log {name} line {lineno}: {exc}") from None
        if not isinstance(obj, dict) or any(f not in obj for f in _FIELDS):
            raise StorageFailure(f"corrupt audit log {name} line {lineno}: not an event with all seven fields")
        yield obj


def _head(fh, name) -> tuple[int, str, _Memo]:
    """The event count and last hash of the log in `fh`, and the memo of
    its longest structurally sound prefix, in one pass that holds one
    line at a time.

    The prefix's lines are parsed by `_decode_line` and fed to a running
    SHA-256. From the first line that is not sound on, the lines are
    read by `_records`, so what the open accepts and refuses, and the
    refusal's line number and text, do not depend on the prefix.
    """
    h = hashlib.sha256()
    offset, count, last = 0, 0, GENESIS
    rest = ()
    for raw in fh:
        try:
            obj = _decode_line(raw)
        except (ValueError, RecursionError):
            obj = None  # not sound; `_records` words the refusal
        if not (raw.endswith(b"\n") and _sound(raw, obj, count, last)):
            rest = itertools.chain((raw,), fh)
            break
        h.update(raw)
        offset += len(raw)
        count += 1
        last = obj["hash"]
    prefix = _Memo(offset, h.digest(), count, last)
    for obj in _records(rest, name, count + 1):
        count += 1
        last = obj["hash"]
    return count, last, prefix
