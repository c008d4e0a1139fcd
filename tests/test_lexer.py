"""Tokenizer behavior shared by both languages."""

from __future__ import annotations

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclave_broker import lexer
from enclave_broker.errors import ParseError
from enclave_broker.lexer import TokenStream, escape_string, position, tokenize


def kinds(text, comments=True):
    return [t.kind for t in tokenize(text, comments=comments)]


def test_basic_token_kinds():
    toks = tokenize('name "hi" 42 -7 3.5 2025-01-15 { } [ ] , . * = != <= >= < >')
    assert [t.kind for t in toks[:7]] == [
        lexer.IDENT,
        lexer.STRING,
        lexer.INTEGER,
        lexer.INTEGER,
        lexer.DECIMAL,
        lexer.DATE,
        lexer.PUNCT,
    ]
    assert toks[-1].kind == lexer.EOF


def test_token_values():
    toks = tokenize('"a b" -12 2.25 2025-01-15')
    assert toks[0].value == "a b"
    assert toks[1].value == -12
    assert toks[2].value == 2.25
    assert toks[3].value == "2025-01-15"
    # Non-ASCII decimal digits read as numbers: Arabic-Indic 3 and 1.5.
    assert [t.value for t in tokenize("٣ ١.٥")[:2]] == [3, 1.5]


def test_date_not_confused_with_subtraction():
    # Exactly 4-2-2 digits reads as a date; a fifth digit breaks the form.
    toks = tokenize("2025-01-151")
    assert toks[0].kind == lexer.INTEGER
    assert toks[0].value == 2025


def test_string_escapes():
    toks = tokenize(r'"line\nbreak \"quoted\" back\\slash \ttab"')
    assert toks[0].value == 'line\nbreak "quoted" back\\slash \ttab'


def test_unknown_escape_rejected():
    with pytest.raises(ParseError) as exc:
        tokenize(r'"bad \q escape"')
    assert "escape" in str(exc.value)


def test_unterminated_string():
    with pytest.raises(ParseError):
        tokenize('"never ends')
    with pytest.raises(ParseError):
        tokenize('"raw\nnewline"')


def test_comments_only_when_enabled():
    assert kinds("a # rest is gone\nb") == [lexer.IDENT, lexer.IDENT, lexer.EOF]
    with pytest.raises(ParseError):
        tokenize("a # b", comments=False)


def test_positions_are_one_based():
    text = "ab\n  cd"
    toks = tokenize(text)
    assert position(text, toks[0].pos) == (1, 1)
    assert position(text, toks[1].pos) == (2, 3)
    assert position(text, toks[2].pos) == (2, 5)  # EOF sits one past the end


def test_error_position_points_at_offender():
    with pytest.raises(ParseError) as exc:
        tokenize("ok\n   ?")
    assert exc.value.line == 2
    assert exc.value.column == 4


def test_multichar_puncts_win():
    toks = tokenize("!= <= >=")
    assert [t.text for t in toks[:3]] == ["!=", "<=", ">="]


def test_escape_string_round_trips():
    for s in ["plain", 'with "quotes"', "tab\there", "nl\nthere", "back\\slash", ""]:
        toks = tokenize(escape_string(s))
        assert toks[0].value == s


@pytest.mark.parametrize(
    "text, detail, column",
    [
        ("x = " + "1" * 5000, "integer literal is too long", 5),
        ("x = -" + "1" * 5000, "integer literal is too long", 5),
        ("x > " + "1" * 400 + ".5", "decimal literal is out of range", 5),
        ("x = ²", "unexpected character '²'", 5),
        ("x = 1²", "unexpected character '²'", 6),
    ],
)
def test_unreadable_number_literals_are_positioned_errors(text, detail, column):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert (exc.value.detail, exc.value.line, exc.value.column) == (detail, 1, column)


def test_token_stream_helpers():
    ts = TokenStream("a , b", comments=True)
    assert ts.peek().text == "a"
    ts.advance()
    assert ts.match_punct(",")
    assert not ts.match_punct(",")
    tok = ts.expect(lexer.IDENT, "a name")
    assert tok.text == "b"
    assert ts.at_end()
    # advancing at EOF stays put
    ts.advance()
    assert ts.at_end()


def test_token_stream_expect_errors():
    ts = TokenStream("a", comments=True)
    with pytest.raises(ParseError):
        ts.expect(lexer.STRING, "a string")
    ts2 = TokenStream("\n  a", comments=True)
    with pytest.raises(ParseError) as exc:
        ts2.expect_punct("{")
    assert (exc.value.line, exc.value.column) == (2, 3)


# ---------------------------------------------------------------------------
# The character-at-a-time scanner the regex tokenizer replaced, kept as the
# reference for the differential test below. It tracks a line and column for
# every token and reads any character that str.isdigit() accepts as a digit,
# so a literal that int() or float() refuses escapes it as ValueError.


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    value: object
    line: int
    column: int


_REF_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}(?!\d)")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_PUNCTS = ("!=", "<=", ">=", "{", "}", "[", "]", ",", ".", "*", "=", "<", ">")
_REF_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


class _Scanner:
    def __init__(self, text: str, comments: bool):
        self.text = text
        self.comments = comments
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str):
        raise ParseError(message, self.line, self.column)

    def advance(self, n: int = 1):
        for _ in range(n):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def skip_blank(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.advance()
            elif ch == "#" and self.comments:
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.advance()
            else:
                return

    def scan_string(self) -> _RefToken:
        line, column, start = self.line, self.column, self.pos
        self.advance()  # opening quote
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ParseError("unterminated string", line, column)
            ch = self.text[self.pos]
            if ch == "\n":
                raise ParseError("unterminated string", line, column)
            if ch == '"':
                self.advance()
                return _RefToken(lexer.STRING, self.text[start : self.pos], "".join(out), line, column)
            if ch == "\\":
                self.advance()
                if self.pos >= len(self.text):
                    raise ParseError("unterminated string", line, column)
                esc = self.text[self.pos]
                if esc not in _REF_ESCAPES:
                    self.error(f"unknown escape \\{esc}")
                out.append(_REF_ESCAPES[esc])
                self.advance()
            else:
                out.append(ch)
                self.advance()

    def scan_number(self) -> _RefToken:
        line, column, start = self.line, self.column, self.pos
        m = _REF_DATE_RE.match(self.text, self.pos)
        if m:
            self.advance(len(m.group()))
            return _RefToken(lexer.DATE, m.group(), m.group(), line, column)
        if self.text[self.pos] == "-":
            self.advance()
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.advance()
        if (
            self.pos + 1 < len(self.text)
            and self.text[self.pos] == "."
            and self.text[self.pos + 1].isdigit()
        ):
            self.advance()
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.advance()
            text = self.text[start : self.pos]
            return _RefToken(lexer.DECIMAL, text, float(text), line, column)
        text = self.text[start : self.pos]
        return _RefToken(lexer.INTEGER, text, int(text), line, column)


def reference_tokenize(text: str, comments: bool = True) -> list[_RefToken]:
    sc = _Scanner(text, comments)
    tokens: list[_RefToken] = []
    while True:
        sc.skip_blank()
        if sc.pos >= len(text):
            tokens.append(_RefToken(lexer.EOF, "", None, sc.line, sc.column))
            return tokens
        ch = text[sc.pos]
        if ch == '"':
            tokens.append(sc.scan_string())
            continue
        if ch.isdigit() or (ch == "-" and sc.pos + 1 < len(text) and text[sc.pos + 1].isdigit()):
            tokens.append(sc.scan_number())
            continue
        m = _REF_IDENT_RE.match(text, sc.pos)
        if m:
            line, column = sc.line, sc.column
            sc.advance(len(m.group()))
            tokens.append(_RefToken(lexer.IDENT, m.group(), m.group(), line, column))
            continue
        for punct in _REF_PUNCTS:
            if text.startswith(punct, sc.pos):
                line, column = sc.line, sc.column
                sc.advance(len(punct))
                tokens.append(_RefToken(lexer.PUNCT, punct, punct, line, column))
                break
        else:
            sc.error(f"unexpected character {ch!r}")


# Single characters of every token form, the blanks, a comment mark,
# characters no form takes, and digits outside ASCII: U+0663 is a
# decimal digit, U+00B2 and U+2460 pass str.isdigit() but not int().
_CHARS = list('aZ_09-."\\ntrq#?!<=>{}[],* \t\r\n') + ["٣", "²", "①", "é"]
_FRAGMENTS = ["2025-01-15", "12", "-3", "4.5", r"\"", r"\\", r"\n", "select", "# note\n", '"ab"']
_source = st.lists(st.sampled_from(_CHARS + _FRAGMENTS), max_size=40).map("".join)


@settings(max_examples=400)
@given(_source, st.booleans())
def test_tokenize_matches_reference(text, comments):
    try:
        expected = reference_tokenize(text, comments)
    except ParseError as ref:
        with pytest.raises(ParseError) as exc:
            tokenize(text, comments)
        assert (exc.value.detail, exc.value.line, exc.value.column) == (
            ref.detail,
            ref.line,
            ref.column,
        )
        return
    except ValueError:
        # A literal int() or float() refuses: now a positioned ParseError.
        with pytest.raises(ParseError):
            tokenize(text, comments)
        return
    got = [(t.kind, t.text, t.value, position(text, t.pos)) for t in tokenize(text, comments)]
    assert got == [(t.kind, t.text, t.value, (t.line, t.column)) for t in expected]
