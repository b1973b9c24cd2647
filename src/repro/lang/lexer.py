"""Tokenizer for the C subset understood by the frontend.

The lexer produces a flat list of :class:`Token` objects.  It understands
the full C operator set, character/string/number literals, and both comment
styles.  FLASH macros (``WAIT_FOR_DB_FULL`` and friends) arrive here as
ordinary identifiers — exactly how xg++ saw them after preprocessing.

In **tolerant** mode (``Lexer(source, tolerant=True)``) the lexer never
raises: byte sequences it cannot tokenize become ``UNKNOWN`` tokens,
unterminated string and character literals are closed at end of line,
and an unterminated block comment at end of file, so the recovering
parser (:mod:`repro.lang.parser`) always receives a complete token
stream for arbitrary input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from ..errors import LexError
from .source import Location, SourceFile


class TokenKind(Enum):
    IDENT = auto()
    KEYWORD = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()
    CHAR_LIT = auto()
    STRING_LIT = auto()
    PUNCT = auto()
    #: Tolerant-mode lane: input the lexer cannot classify.  Never
    #: produced in strict mode (strict raises :class:`LexError` instead).
    UNKNOWN = auto()
    EOF = auto()


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register return short signed sizeof
    static struct switch typedef union unsigned void volatile while
    """.split()
)

# Longest-match-first punctuation table.
PUNCTUATION = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "?", ":",
    "+", "-", "*", "/", "%", "<", ">", "=", "&", "^", "|", "!", "~",
)

_PUNCT_RE = "|".join(re.escape(p) for p in PUNCTUATION)

# Characters that can start a token, whitespace or a directive.  A run of
# anything else is one UNKNOWN token (tolerant) or a LexError (strict).
# The classes are spelled out in ASCII: ``\d``/``\s``/``\w`` would also
# match Unicode digits and spaces, which C does not accept.
_CLASSIFIABLE = r"""\ \t\r\n\f\v#A-Za-z_0-9"'.<>\-+=!&|*/%^{}()\[\];,?:~"""

# After any blanks that do not end a line, one alternative per lexical
# category, tried in order.  Every character other than those blanks
# starts some alternative, and no alternative matches the empty string, so
# consecutive matches tile the input (trailing blanks aside).  Each match
# has exactly one named group set, and ``lastindex`` says which.
# ``#include`` consumes only its filename, so the metal preamble
# ``{ #include "flash-includes.h" }`` keeps its closing brace; any other
# directive runs to end of line, through backslash-newline continuations.
_MASTER = re.compile(rf"""
  [ \t\r\f\v]*
  (?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<newline>\n[ \t\r\n\f\v]*)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | (?P<open_comment>/\*)
  | (?P<hex>0[xX][0-9a-fA-F]*[uUlLfF]*)
  | (?P<number>(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)
               (?:[eE][+-]?[0-9]+)?[uUlLfF]*)
  | (?P<punct>{_PUNCT_RE})
  | (?P<include>\#[ \t]*include(?![A-Za-z0-9_])[ \t]*(?:"[^"]*"?|<[^>]*>?)?)
  | (?P<directive>\#[^\\\n]*(?:\\\n?[^\\\n]*)*)
  | (?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
  | (?P<char>'[^'\\\n]*(?:\\.[^'\\\n]*)*')
  | (?P<open_string>"[^"\\\n]*(?:\\.[^"\\\n]*)*\\?)
  | (?P<open_char>'[^'\\\n]*(?:\\.[^'\\\n]*)*\\?)
  | (?P<unknown>[^{_CLASSIFIABLE}]+)
  )
""", re.VERBOSE | re.DOTALL)

_GROUP = _MASTER.groupindex
_IDENT, _PUNCT, _NUMBER, _HEX = (
    _GROUP[name] for name in ("ident", "punct", "number", "hex"))
_STRING, _CHAR, _UNKNOWN, _OPEN_COMMENT = (
    _GROUP[name] for name in ("string", "char", "unknown", "open_comment"))

#: Matches that produce no token; all but ``line_comment`` may span lines.
_SKIPPED = frozenset(
    _GROUP[name] for name in ("newline", "line_comment", "block_comment",
                              "include", "directive"))

#: Token matches that may hold a backslash-newline escape.
_LITERALS = frozenset(
    _GROUP[name] for name in ("string", "char", "open_string", "open_char"))

_UNTERMINATED = {
    _GROUP["open_string"]: (TokenKind.STRING_LIT, '"',
                            "unterminated string literal"),
    _GROUP["open_char"]: (TokenKind.CHAR_LIT, "'",
                          "unterminated character literal"),
}

# A decimal number is a float if it has a fraction, an exponent or an
# ``f`` suffix; a hex number only by its suffix.
_FLOAT_MARKS = frozenset(".eEfF")
_HEX_DIGITS = "0123456789abcdefABCDEF"


@dataclass(frozen=True)
class Token:
    """One lexical token with its spelling and source location."""

    kind: TokenKind
    text: str
    location: Location

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text


class Lexer:
    """Tokenizer over a :class:`SourceFile`, driven by one master regex.

    Lines and columns are tracked as the scan passes newlines, so a
    token's :class:`Location` costs no lookup.
    """

    def __init__(self, source: SourceFile, tolerant: bool = False):
        self.source = source
        self.text = source.text
        self.tolerant = tolerant

    def tokenize(self) -> list[Token]:
        """Tokenize the whole file, appending a single EOF token."""
        text, name = self.text, self.source.name
        tokens: list[Token] = []
        append = tokens.append
        line, line_start = 1, 0
        for match in _MASTER.finditer(text):
            group = match.lastindex
            start, end = match.span(group)
            spelling = text[start:end]
            if group in _SKIPPED:
                newline = spelling.rfind("\n")
                if newline >= 0:
                    line += spelling.count("\n")
                    line_start = start + newline + 1
                continue
            location = Location(name, line, start - line_start + 1)
            if group == _IDENT:
                kind = TokenKind.KEYWORD if spelling in KEYWORDS \
                    else TokenKind.IDENT
            elif group == _PUNCT:
                kind = TokenKind.PUNCT
            elif group == _NUMBER:
                kind = TokenKind.FLOAT_LIT \
                    if _FLOAT_MARKS.intersection(spelling) \
                    else TokenKind.INT_LIT
            elif group == _HEX:
                suffix = spelling[2:].lstrip(_HEX_DIGITS)
                kind = TokenKind.FLOAT_LIT \
                    if _FLOAT_MARKS.intersection(suffix) \
                    else TokenKind.INT_LIT
            elif group == _STRING:
                kind = TokenKind.STRING_LIT
            elif group == _CHAR:
                kind = TokenKind.CHAR_LIT
            elif group == _UNKNOWN:
                if not self.tolerant:
                    raise LexError(f"unexpected character {spelling[0]!r}",
                                   location)
                kind = TokenKind.UNKNOWN
            elif group == _OPEN_COMMENT:
                if not self.tolerant:
                    raise LexError("unterminated block comment", location)
                # The comment runs to end of input, which is comment-like
                # anyway.
                newline = text.rfind("\n", start)
                if newline >= 0:
                    line += text.count("\n", start)
                    line_start = newline + 1
                break
            else:  # an unterminated literal: closed at end of line or input
                kind, quote, message = _UNTERMINATED[group]
                if not self.tolerant:
                    raise LexError(message, location)
                spelling += quote
            append(Token(kind, spelling, location))
            if group in _LITERALS:
                newline = spelling.rfind("\n")
                if newline >= 0:
                    line += spelling.count("\n")
                    line_start = start + newline + 1
        append(Token(TokenKind.EOF, "",
                     Location(name, line, len(text) - line_start + 1)))
        return tokens


def tokenize(text: str, filename: str = "<input>",
             tolerant: bool = False) -> list[Token]:
    """Convenience wrapper: tokenize ``text`` into a token list (with EOF)."""
    return Lexer(SourceFile(filename, text), tolerant=tolerant).tokenize()
