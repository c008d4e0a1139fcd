"""Tokenizer shared by the contract DSL and the query language.

Both languages use the same identifier, string, number, and date token
forms; keyword handling (case-sensitive vs not) is left to the parsers.
A token keeps only its offset into the text: `position` turns an offset
into a line and column, and runs only when a ParseError is raised.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import ParseError

IDENT = "IDENT"
STRING = "STRING"
INTEGER = "INTEGER"
DECIMAL = "DECIMAL"
DATE = "DATE"
PUNCT = "PUNCT"
EOF = "EOF"

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}

# An open string: a quote, then plain characters and known escapes.
_OPEN_STRING = r'"(?:[^"\\\n]|\\[%s])*' % re.escape("".join(_ESCAPES))
_OPEN_STRING_RE = re.compile(_OPEN_STRING)
_ESCAPE_RE = re.compile(r"\\(.)")

# The first alternative that matches wins. `\d` is a Unicode decimal
# digit, which int() and float() accept; BAD takes any other character,
# so the matches tile the whole text.
_TOKEN_RE = re.compile(
    rf"""(?P<BLANK>[ \t\r\n]+)
    |(?P<COMMENT>\#[^\n]*)
    |(?P<DATE>\d{{4}}-\d{{2}}-\d{{2}}(?!\d))
    |(?P<DECIMAL>-?\d+\.\d+)
    |(?P<INTEGER>-?\d+)
    |(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<STRING>{_OPEN_STRING}")
    |(?P<PUNCT>!=|<=|>=|[{{}}\[\],.*=<>])
    |(?P<BAD>.)""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    value: object
    pos: int  # offset of the first character in the source text


def escape_string(s: str) -> str:
    """Quote a string for DSL output."""
    return '"' + "".join(_UNESCAPES.get(ch, ch) for ch in s) + '"'


def position(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset `pos` in `text`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _fail(text: str, pos: int, message: str):
    raise ParseError(message, *position(text, pos))


def _reject(text: str, pos: int):
    """Diagnose the character at `pos`, where no token form matched."""
    if text[pos] == '"':
        end = _OPEN_STRING_RE.match(text, pos).end()
        if end + 1 < len(text) and text[end] == "\\":
            _fail(text, end + 1, f"unknown escape \\{text[end + 1]}")
        _fail(text, pos, "unterminated string")
    _fail(text, pos, f"unexpected character {text[pos]!r}")


def tokenize(text: str, comments: bool = True) -> list[Token]:
    """Scan `text` into tokens, ending with an EOF marker.

    Raises ParseError at the first character that fits no token form,
    and at a number literal that has no finite value.
    """
    skip = ("BLANK", "COMMENT") if comments else ("BLANK",)
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in skip:
            continue
        word, pos = m.group(), m.start()
        if kind == IDENT or kind == PUNCT or kind == DATE:
            value = word
        elif kind == STRING:
            value = word[1:-1]
            if "\\" in value:
                value = _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], value)
        elif kind == INTEGER:
            try:
                value = int(word)
            except ValueError:  # more digits than int() will read
                _fail(text, pos, "integer literal is too long")
        elif kind == DECIMAL:
            value = float(word)
            if not math.isfinite(value):
                _fail(text, pos, "decimal literal is out of range")
        else:
            _reject(text, pos)
        tokens.append(Token(kind, word, value, pos))
    tokens.append(Token(EOF, "", None, len(text)))
    return tokens


class TokenStream:
    """Cursor over the tokens of `text` with the usual recursive-descent
    helpers; a token's line and column are worked out only on error."""

    def __init__(self, text: str, comments: bool):
        self.text = text
        self._tokens = tokenize(text, comments)
        self._i = 0

    def peek(self) -> Token:
        return self._tokens[self._i]

    def advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != EOF:
            self._i += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == EOF

    def error(self, message: str, token: Token | None = None):
        _fail(self.text, (token or self.peek()).pos, message)

    def describe(self, token: Token | None = None) -> str:
        tok = token or self.peek()
        return "end of input" if tok.kind == EOF else repr(tok.text)

    def expect_punct(self, punct: str) -> Token:
        tok = self.peek()
        if tok.kind != PUNCT or tok.text != punct:
            self.error(f"expected {punct!r}, found {self.describe()}")
        return self.advance()

    def match_punct(self, punct: str) -> bool:
        tok = self.peek()
        if tok.kind == PUNCT and tok.text == punct:
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what}, found {self.describe()}")
        return self.advance()
