"""Precedence climbing against the ten-level recursive descent it
replaced: ``parse_expression`` must build the same AST for any chain of
the 18 binary operators, with or without parentheses."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast
from repro.lang.lexer import Lexer, TokenKind
from repro.lang.parser import _BINOP_LEVELS, Parser, parse_expression
from repro.lang.source import SourceFile

BINARY_OPS = [op for level in _BINOP_LEVELS for op in level]
# Assignment is right-associative and sits below the conditional.
OPERATORS = BINARY_OPS + ["="]


class LevelParser(Parser):
    """The old grammar: one recursive call per precedence level."""

    def _parse_binary(self, level: int = 0) -> ast.Expr:
        if level >= len(_BINOP_LEVELS):
            return self._parse_unary()
        ops = _BINOP_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self.tok.kind is TokenKind.PUNCT and self.tok.text in ops:
            op = self.advance().text
            right = self._parse_binary(level + 1)
            left = ast.BinaryOp(op=op, left=left, right=right,
                                location=left.location)
        return left


def level_parse(text: str) -> ast.Expr:
    tokens = Lexer(SourceFile("<expr>", text)).tokenize()
    parser = LevelParser(tokens, "<expr>", typedefs={"t"})
    expr = parser.parse_expr()
    assert parser.tok.kind is TokenKind.EOF
    return expr


def shape(node):
    """A comparable dump of an AST (some node classes compare by id)."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            shape(getattr(node, f.name)) for f in dataclasses.fields(node))
    if isinstance(node, list):
        return [shape(item) for item in node]
    return node


_OPERANDS = st.sampled_from(["a", "b", "c", "1", "0x2", "-x", "!y", "*p",
                             "f(a)", "s.m", "q[2]", "(t)1"])


def _chain(children):
    """``operand (op operand)*``, optionally parenthesized."""
    return st.builds(
        lambda first, rest, wrap: (
            "(" if wrap else "") + first + "".join(
                f" {op} {operand}" for op, operand in rest) + (
            ")" if wrap else ""),
        children,
        st.lists(st.tuples(st.sampled_from(OPERATORS), children),
                 max_size=6),
        st.booleans())


_EXPRESSIONS = st.recursive(_OPERANDS, _chain, max_leaves=24)


def test_table_covers_every_binary_operator():
    assert len(BINARY_OPS) == 18 == len(set(BINARY_OPS))


@settings(max_examples=400, deadline=None)
@given(_EXPRESSIONS)
def test_same_ast_as_level_parser(text):
    assert shape(parse_expression(text, typedefs={"t"})) == \
        shape(level_parse(text))

