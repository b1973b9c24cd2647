"""The char-at-a-time C lexer, kept as a test oracle.

:class:`repro.lang.lexer.Lexer` scans with one master regex.  This is
the hand-written scanner it replaced: one ``_lex_*``/``_skip_*`` helper
per lexical category and a bisection of ``SourceFile.location`` for
every token.  ``tests/test_lexer_differential.py`` checks that both
produce the same ``(kind, text, line, column)`` stream, and the same
``LexError`` wherever this one raises, in strict and tolerant mode.
Nothing outside the tests imports it.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.lexer import KEYWORDS, PUNCTUATION, Token, TokenKind
from repro.lang.source import SourceFile

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")


class OracleLexer:
    """Char-at-a-time tokenizer over a :class:`SourceFile`."""

    def __init__(self, source: SourceFile, tolerant: bool = False):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.tolerant = tolerant

    def tokenize(self) -> list[Token]:
        """Tokenize the whole file, appending a single EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.text):
                tokens.append(Token(TokenKind.EOF, "", self._loc(self.pos)))
                return tokens
            tokens.append(self._next_token())

    # -- internals ---------------------------------------------------------

    def _loc(self, offset: int) -> Location:
        return self.source.location(min(offset, len(self.text)))

    def _skip_whitespace_and_comments(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif ch == "#":
                self._skip_directive()
            elif text.startswith("//", self.pos):
                while self.pos < n and text[self.pos] != "\n":
                    self.pos += 1
            elif text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end == -1:
                    if self.tolerant:
                        # Close the comment at EOF; the rest of the file
                        # is comment-like anyway.
                        self.pos = n
                        return
                    raise LexError("unterminated block comment", self._loc(self.pos))
                self.pos = end + 2
            else:
                return

    def _skip_directive(self) -> None:
        """Skip a preprocessor directive.

        ``#include`` consumes only its filename (so the metal preamble
        ``{ #include "flash-includes.h" }`` keeps its closing brace);
        every other directive is skipped to end of line, honouring
        backslash continuations.
        """
        text, n = self.text, len(self.text)
        self.pos += 1  # '#'
        while self.pos < n and text[self.pos] in " \t":
            self.pos += 1
        start = self.pos
        while self.pos < n and text[self.pos] in _IDENT_CONT:
            self.pos += 1
        directive = text[start:self.pos]
        if directive == "include":
            while self.pos < n and text[self.pos] in " \t":
                self.pos += 1
            if self.pos < n and text[self.pos] == '"':
                end = text.find('"', self.pos + 1)
                self.pos = n if end == -1 else end + 1
            elif self.pos < n and text[self.pos] == "<":
                end = text.find(">", self.pos + 1)
                self.pos = n if end == -1 else end + 1
            return
        while self.pos < n and text[self.pos] != "\n":
            if text[self.pos] == "\\" and self.pos + 1 < n and text[self.pos + 1] == "\n":
                self.pos += 1
            self.pos += 1

    def _next_token(self) -> Token:
        ch = self.text[self.pos]
        if ch in _IDENT_START:
            return self._lex_ident()
        if ch in _DIGITS or (ch == "." and self._peek(1) in _DIGITS):
            return self._lex_number()
        if ch == '"':
            return self._lex_string()
        if ch == "'":
            return self._lex_char()
        return self._lex_punct()

    def _peek(self, ahead: int) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def _lex_ident(self) -> Token:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        text = self.text[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, self._loc(start))

    def _lex_number(self) -> Token:
        start = self.pos
        text = self.text
        is_float = False
        if text.startswith(("0x", "0X"), self.pos):
            self.pos += 2
            while self.pos < len(text) and text[self.pos] in _HEX_DIGITS:
                self.pos += 1
        else:
            while self.pos < len(text) and text[self.pos] in _DIGITS:
                self.pos += 1
            if self.pos < len(text) and text[self.pos] == "." and self._peek(1) != ".":
                is_float = True
                self.pos += 1
                while self.pos < len(text) and text[self.pos] in _DIGITS:
                    self.pos += 1
            if self.pos < len(text) and text[self.pos] in "eE":
                nxt = self._peek(1)
                if nxt in _DIGITS or (nxt in "+-" and self._peek(2) in _DIGITS):
                    is_float = True
                    self.pos += 1
                    if text[self.pos] in "+-":
                        self.pos += 1
                    while self.pos < len(text) and text[self.pos] in _DIGITS:
                        self.pos += 1
        # Suffixes: u/U/l/L for ints, f/F/l/L for floats.
        while self.pos < len(text) and text[self.pos] in "uUlLfF":
            if text[self.pos] in "fF":
                is_float = True
            self.pos += 1
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, text[start:self.pos], self._loc(start))

    def _lex_string(self) -> Token:
        start = self.pos
        self.pos += 1
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                return Token(TokenKind.STRING_LIT, text[start:self.pos], self._loc(start))
            if ch == "\n":
                break
            self.pos += 1
        if self.tolerant:
            # Close the literal at end of line / end of file.
            return Token(TokenKind.STRING_LIT,
                         self.text[start:self.pos] + '"', self._loc(start))
        raise LexError("unterminated string literal", self._loc(start))

    def _lex_char(self) -> Token:
        start = self.pos
        self.pos += 1
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == "'":
                self.pos += 1
                return Token(TokenKind.CHAR_LIT, text[start:self.pos], self._loc(start))
            if ch == "\n":
                break
            self.pos += 1
        if self.tolerant:
            return Token(TokenKind.CHAR_LIT,
                         self.text[start:self.pos] + "'", self._loc(start))
        raise LexError("unterminated character literal", self._loc(start))

    def _lex_punct(self) -> Token:
        for punct in PUNCTUATION:
            if self.text.startswith(punct, self.pos):
                tok = Token(TokenKind.PUNCT, punct, self._loc(self.pos))
                self.pos += len(punct)
                return tok
        if self.tolerant:
            # Group a maximal run of unclassifiable bytes into a single
            # UNKNOWN token, so byte soup does not produce one token per
            # byte.
            start = self.pos
            while (self.pos < len(self.text)
                   and not self._classifiable(self.text[self.pos])):
                self.pos += 1
            return Token(TokenKind.UNKNOWN, self.text[start:self.pos],
                         self._loc(start))
        raise LexError(
            f"unexpected character {self.text[self.pos]!r}", self._loc(self.pos)
        )

    def _classifiable(self, ch: str) -> bool:
        """Could ``ch`` start an ordinary token (or whitespace)?"""
        if ch in " \t\r\n\f\v#":
            return True
        if ch in _IDENT_START or ch in _DIGITS or ch in "\"'.":
            return True
        return any(p.startswith(ch) for p in PUNCTUATION)


def oracle_tokenize(text: str, filename: str = "<input>",
                    tolerant: bool = False) -> list[Token]:
    """Tokenize ``text`` with the oracle (token list ends with EOF)."""
    return OracleLexer(SourceFile(filename, text), tolerant=tolerant).tokenize()
