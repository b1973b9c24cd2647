"""Differential test: the master-regex lexer against the char-at-a-time
oracle it replaced (``tests/lexer_oracle.py``).

Both must give the same ``(kind, text, line, column)`` stream, and where
the oracle raises ``LexError`` the lexer must raise the same message at
the same location — in strict and in tolerant mode.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.flash.codegen import generate_all
from repro.lang.lexer import tokenize

from .lexer_oracle import oracle_tokenize

REALWORLD = Path(__file__).resolve().parent.parent / "examples" / "realworld"


def stream(lex, text: str, tolerant: bool):
    """The token stream of ``lex`` over ``text``, or its LexError."""
    try:
        tokens = lex(text, "f.c", tolerant=tolerant)
    except LexError as exc:
        return ("LexError", str(exc), exc.location)
    return [(t.kind, t.text, t.location.line, t.location.column)
            for t in tokens]


def assert_same(text: str) -> None:
    for tolerant in (False, True):
        assert stream(tokenize, text, tolerant) == \
            stream(oracle_tokenize, text, tolerant), f"tolerant={tolerant}"


def _generated_files():
    return [pytest.param(source, id=f"{protocol.name}/{name}")
            for protocol in generate_all().values()
            for name, source in sorted(protocol.files.items())]


@pytest.mark.parametrize("text", _generated_files())
def test_generated_corpus(text):
    assert_same(text)


@pytest.mark.parametrize(
    "path", sorted(REALWORLD.rglob("*.c")),
    ids=lambda path: str(path.relative_to(REALWORLD)))
def test_realworld_examples(path):
    # Decoded the way the checker reads a non-UTF-8 file.
    assert_same(path.read_bytes().decode("utf-8", errors="replace"))


@pytest.mark.parametrize("text", [
    "", "\n", "x", "1.", "1..2", "1...", ".5.3", "0x", "0xu", "0x1uf",
    "0x1F", "0x.5", "1e", "1e+", "1e+5f", "1.e5", "2UL", "3.0F",
    '"abc', '"abc\\', '"a\\\nb"', "'a", "'\\", "/*/", "/**/", "/* x",
    "a/*\n\n*", "#", "#include", '#include "x', "#include <x\ny",
    "# include\t<a.h> z", "#include2 q\nw", "#define A \\\n B\nc",
    "#define A \\\r\n B", "#\\\ninclude x\ny", "a \\ b", "a @$` b",
    "٣", "x\xa0y", "٣\xa0 ", "a\fb\vc\rd", "x //c\ny",
])
def test_edge_cases(text):
    assert_same(text)


# Weighted toward C punctuation, quotes, comment and directive openers,
# backslash-newline, and Unicode digits and spaces the lexer must not
# treat as ASCII ones.
_PIECES = st.sampled_from([
    "a", "x1", "_", "if", "while", "0", "7", "0x", "f", "e", "u", "L",
    ".", "..", "...", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&",
    "|", "^", "~", "?", ":", ";", ",", "(", ")", "[", "]", "{", "}",
    "<<=", "->", "++", "&&", '"', "'", "\\", "\\\n", "/*", "*/", "//",
    "#include", "#define", "#", "<", ' "h.h"', " ", "\t", "\n", "\r",
    "٣", "\xa0", "@", "$",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
def test_random_text(text):
    assert_same(text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_unicode(text):
    assert_same(text)
