"""Canonical JSON encoding.

One encoding is used everywhere a byte-stable form matters: audit
hashing, persisted contracts, and wire responses. Keys sorted, no
insignificant whitespace, UTF-8, no NaN or infinity. Result rows held
only as their encoding (`EncodedRows`) encode as the rows they decode to.
"""

from __future__ import annotations

import io
import json
from array import array
from itertools import accumulate, count, islice, repeat
from json.encoder import c_make_encoder, encode_basestring
from operator import add, sub


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

# The same settings as one C encoder, made once for bulk use. Called as
# `_encode_item(obj, 0)`, it returns a sequence of str chunks that join
# to obj's canonical JSON. It keeps no circular-reference marks, so it
# is only given flat items (rows of scalar cells).
_encode_item = c_make_encoder(
    None,
    _ENCODER.default,
    encode_basestring,
    None,
    _ENCODER.key_separator,
    _ENCODER.item_separator,
    _ENCODER.sort_keys,
    _ENCODER.skipkeys,
    _ENCODER.allow_nan,
)
_STEP = 1024  # items `encode_each` holds encoded apart from its buffer at once


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("utf-8")


def encode_each(items) -> tuple[bytes, array, array]:
    """Each item's canonical JSON as UTF-8, the items joined by commas in
    one buffer, with the start and end offset of each item in it.

    So `b"[" + buf + b"]"` is the canonical encoding of the whole
    sequence, and `buf[starts[i]:ends[i]]` that of item i. Items are
    encoded `_STEP` at a time into the growing buffer, so the encodings
    held apart at once stay a small fraction of its size.
    """
    out = io.BytesIO()
    lengths = array("q")
    rest = iter(items)
    while True:
        chunks = map(_encode_item, islice(rest, _STEP), repeat(0))
        parts = list(map(str.encode, map("".join, chunks)))
        if not parts:
            break
        if lengths:
            out.write(b",")
        lengths.extend(map(len, parts))
        out.write(b",".join(parts))
    # Item i ends after the lengths of items 0..i and the i commas between them.
    ends = array("q", map(add, accumulate(lengths), count()))
    starts = array("q", map(sub, ends, lengths))
    return out.getvalue(), starts, ends
