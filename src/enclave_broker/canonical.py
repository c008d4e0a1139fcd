"""Canonical JSON encoding.

One encoding is used everywhere a byte-stable form matters: audit
hashing, persisted contracts, and wire responses. Keys sorted, no
insignificant whitespace, UTF-8, no NaN or infinity. Result rows held
only as their encoding (`EncodedRows`) encode as the rows they decode to.
"""

from __future__ import annotations

import json


class EncodedRows:
    """Result rows held only as their canonical JSON.

    `wire` is each row's encoding in UTF-8, the rows joined by commas,
    without the enclosing brackets; `len()` is the number of rows. A
    reply writer splices `wire` into the reply line. A reader in the same
    process gets the rows by decoding it: iteration yields row tuples,
    and `canonical_json` encodes the decoded rows. Canonical JSON
    round-trips exactly for every cell a table can hold (INT, finite
    REAL, TEXT and DATE text), so that gives `wire` back. The rows refer
    to no segment, row or cell, so a result that is still held keeps no
    wiped segment's data alive.
    """

    __slots__ = ("wire", "_count")

    def __init__(self, wire: bytes, count: int):
        self.wire = wire
        self._count = count

    def __len__(self) -> int:
        return self._count

    def decode(self) -> list[list]:
        """The rows, each a list of its cells."""
        return json.loads(b"[" + self.wire + b"]")

    def __iter__(self):
        return map(tuple, self.decode())

    def __eq__(self, other):
        if isinstance(other, (EncodedRows, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EncodedRows({tuple(self)!r})"


def _decoded(obj):
    """The value canonical JSON encodes in place of `obj`."""
    if isinstance(obj, EncodedRows):
        return obj.decode()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, default=_decoded
)


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("utf-8")
