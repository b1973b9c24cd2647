"""Recursive-descent parser for the C subset.

The grammar covers everything that appears in FLASH-style protocol code
after preprocessing: function definitions, struct/union/enum/typedef
declarations, the full statement set (if/else, while, do, for, switch,
goto/labels, break/continue/return), and the full C expression grammar with
standard precedence.

Typedef names are tracked in a growing set so that ``MyType x;`` parses as
a declaration.  Function-pointer declarators and K&R-style definitions are
out of scope (FLASH handlers do not use them; see DESIGN.md §6).

Two frontend modes (``--frontend strict|tolerant``):

``strict`` (default)
    one unsupported construct raises :class:`ParseError` — right for the
    paper corpus, whose generated C the grammar covers exactly.

``tolerant``
    never raises.  Panic-mode recovery resyncs to ``;`` / ``}`` / the
    next top-level declaration: an unparseable statement becomes an
    :class:`repro.lang.ast.OpaqueStmt` carrying the raw token span, an
    unparseable primary expression becomes an ``OpaqueExpr``, and a
    top-level region that cannot be recovered at all is recorded in
    ``TranslationUnit.quarantined`` for the fleet to surface as a
    ``Quarantine(phase="input")``.  On input the strict grammar accepts,
    tolerant mode takes byte-identical parse decisions (recovery never
    fires), so reports are identical across modes (docs/frontend-
    tolerance.md).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from . import ast
from .lexer import Lexer, Token, TokenKind
from .source import SourceFile

TYPE_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned struct union enum".split()
)
QUALIFIERS = frozenset("const volatile".split())
STORAGE = frozenset("static extern register auto inline typedef".split())

_ASSIGN_OPS = frozenset("= += -= *= /= %= &= ^= |= <<= >>=".split())

# Binary operator precedence, loosest to tightest.
_BINOP_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: Each binary operator's precedence: its index in ``_BINOP_LEVELS``.
_BINOP_PRECEDENCE = {op: level for level, ops in enumerate(_BINOP_LEVELS)
                     for op in ops}

_UNARY_OPS = frozenset("+ - ! ~ * & ++ --".split())

#: Valid values for the frontend ``mode`` flag (``--frontend``).
FRONTEND_MODES = ("strict", "tolerant")

_DEFAULT_MODE = "strict"


def default_mode() -> str:
    """The process-wide frontend mode used when :func:`parse` gets no mode."""
    return _DEFAULT_MODE


def set_default_mode(mode: str) -> str:
    """Set the process-wide frontend mode; returns the previous value.

    Mirrors :func:`repro.mc.feasibility.set_default_enabled`: fleet
    workers call this from their initializer so every parse in the
    process honours ``--frontend`` without threading a flag through
    each call site.
    """
    global _DEFAULT_MODE
    if mode not in FRONTEND_MODES:
        raise ValueError(f"unknown frontend mode {mode!r}")
    previous = _DEFAULT_MODE
    _DEFAULT_MODE = mode
    return previous


class Parser:
    """Parses one token stream into a :class:`repro.lang.ast.TranslationUnit`."""

    def __init__(self, tokens: list[Token], filename: str = "<input>",
                 typedefs: Optional[set[str]] = None, mode: str = "strict"):
        if mode not in FRONTEND_MODES:
            raise ValueError(f"unknown frontend mode {mode!r}")
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.typedefs: set[str] = set(typedefs or ())
        self.mode = mode
        self.tolerant = mode == "tolerant"
        #: Recovery counters, surfaced as ``frontend.*`` metrics.
        self.recovered_statements = 0
        self.opaque_expressions = 0

    # -- token helpers -----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        if not self.tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {str(self.tok)!r}", self.tok.location)
        return self.advance()

    def expect_keyword(self, text: str) -> Token:
        if not self.tok.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {str(self.tok)!r}", self.tok.location)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {str(self.tok)!r}", self.tok.location)
        return self.advance()

    def accept_punct(self, text: str) -> Optional[Token]:
        if self.tok.is_punct(text):
            return self.advance()
        return None

    # -- type recognition ----------------------------------------------------

    def _starts_type(self, tok: Token) -> bool:
        if tok.kind is TokenKind.KEYWORD:
            return tok.text in TYPE_KEYWORDS or tok.text in QUALIFIERS or tok.text in STORAGE
        return tok.kind is TokenKind.IDENT and tok.text in self.typedefs

    # -- entry points --------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        decls: list[ast.Decl] = []
        quarantined: list[tuple[str, str]] = []
        while self.tok.kind is not TokenKind.EOF:
            start = self.pos
            try:
                decl = self.parse_external_declaration()
            except (ParseError, RecursionError) as error:
                if not self.tolerant:
                    raise
                quarantined.append(self._recover_toplevel(start, error))
                continue
            if isinstance(decl, list):
                decls.extend(decl)
            elif decl is not None:
                decls.append(decl)
        return ast.TranslationUnit(filename=self.filename, decls=decls,
                                   quarantined=quarantined)

    def parse_external_declaration(self):
        start = self.tok
        storage = None
        while self.tok.kind is TokenKind.KEYWORD and self.tok.text in STORAGE:
            if self.tok.text == "typedef":
                return self._parse_typedef()
            if storage is None and self.tok.text in ("static", "extern"):
                storage = self.tok.text
            self.advance()

        if self.tok.is_keyword("struct") or self.tok.is_keyword("union"):
            # struct definition or a declaration using a struct type
            if self.peek().kind is TokenKind.IDENT and self.peek(2).is_punct("{"):
                return self._parse_struct_def()
            if self.peek().is_punct("{"):
                return self._parse_struct_def()
        if self.tok.is_keyword("enum"):
            if self.peek().is_punct("{") or (
                self.peek().kind is TokenKind.IDENT and self.peek(2).is_punct("{")
            ):
                return self._parse_enum_def()

        type_name = self.parse_type_name()
        if self.tok.is_punct(";"):
            # e.g. ``struct foo;`` forward declaration — keep nothing.
            self.advance()
            return None
        name_tok = self.expect_ident()

        if self.tok.is_punct("("):
            return self._parse_function(type_name, name_tok, storage)
        return self._parse_var_decls(type_name, name_tok, storage, start)

    # -- declarations ----------------------------------------------------------

    def parse_type_name(self) -> ast.TypeName:
        """Parse specifiers + ``*`` layers.  Array dims are parsed by callers."""
        loc = self.tok.location
        specifiers: list[str] = []
        qualifiers: list[str] = []
        while True:
            tok = self.tok
            if tok.kind is TokenKind.KEYWORD and tok.text in QUALIFIERS:
                qualifiers.append(self.advance().text)
            elif tok.kind is TokenKind.KEYWORD and tok.text in TYPE_KEYWORDS:
                if tok.text in ("struct", "union", "enum"):
                    specifiers.append(self.advance().text)
                    specifiers.append(self.expect_ident().text)
                else:
                    specifiers.append(self.advance().text)
            elif (
                tok.kind is TokenKind.IDENT
                and tok.text in self.typedefs
                and not specifiers
            ):
                specifiers.append(self.advance().text)
            else:
                break
        if not specifiers:
            raise ParseError(f"expected type, found {str(self.tok)!r}", self.tok.location)
        depth = 0
        while self.tok.is_punct("*"):
            self.advance()
            depth += 1
            while self.tok.kind is TokenKind.KEYWORD and self.tok.text in QUALIFIERS:
                self.advance()
        return ast.TypeName(
            specifiers=specifiers, pointer_depth=depth, qualifiers=qualifiers,
            location=loc,
        )

    def _parse_array_dims(self, type_name: ast.TypeName) -> ast.TypeName:
        dims: list[Optional[ast.Expr]] = []
        while self.tok.is_punct("["):
            self.advance()
            if self.tok.is_punct("]"):
                dims.append(None)
            else:
                dims.append(self.parse_expr())
            self.expect_punct("]")
        if dims:
            type_name = ast.TypeName(
                specifiers=list(type_name.specifiers),
                pointer_depth=type_name.pointer_depth,
                array_dims=dims,
                qualifiers=list(type_name.qualifiers),
                location=type_name.location,
            )
        return type_name

    def _parse_typedef(self) -> ast.TypedefDecl:
        loc = self.expect_keyword("typedef").location
        if (self.tok.is_keyword("struct") or self.tok.is_keyword("union")) and (
            self.peek().is_punct("{")
            or (self.peek().kind is TokenKind.IDENT and self.peek(2).is_punct("{"))
        ):
            struct = self._parse_struct_def(consume_semi=False)
            name = self.expect_ident().text
            self.expect_punct(";")
            self.typedefs.add(name)
            spelling = ["union" if struct.is_union else "struct", struct.tag]
            td = ast.TypedefDecl(
                name=name, type_name=ast.TypeName(specifiers=spelling, location=loc),
                location=loc,
            )
            td.struct_def = struct
            return td
        type_name = self.parse_type_name()
        name = self.expect_ident().text
        type_name = self._parse_array_dims(type_name)
        self.expect_punct(";")
        self.typedefs.add(name)
        return ast.TypedefDecl(name=name, type_name=type_name, location=loc)

    def _parse_struct_def(self, consume_semi: bool = True) -> ast.StructDef:
        kw = self.advance()  # struct / union
        is_union = kw.text == "union"
        tag = self.expect_ident().text if self.tok.kind is TokenKind.IDENT else ""
        self.expect_punct("{")
        fields: list[ast.FieldDecl] = []
        while not self.tok.is_punct("}"):
            ftype = self.parse_type_name()
            while True:
                fname = self.expect_ident()
                this_type = self._parse_array_dims(ftype)
                if self.tok.is_punct(":"):  # bitfield width — parse and ignore
                    self.advance()
                    self.parse_conditional()
                fields.append(
                    ast.FieldDecl(name=fname.text, type_name=this_type,
                                  location=fname.location)
                )
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
        self.expect_punct("}")
        if consume_semi:
            self.expect_punct(";")
        return ast.StructDef(tag=tag, fields_=fields, is_union=is_union,
                             location=kw.location)

    def _parse_enum_def(self) -> ast.EnumDef:
        kw = self.expect_keyword("enum")
        tag = self.expect_ident().text if self.tok.kind is TokenKind.IDENT else ""
        self.expect_punct("{")
        enumerators: list[tuple] = []
        while not self.tok.is_punct("}"):
            name = self.expect_ident().text
            value = None
            if self.accept_punct("="):
                value = self.parse_conditional()
            enumerators.append((name, value))
            if not self.accept_punct(","):
                break
        self.expect_punct("}")
        self.expect_punct(";")
        return ast.EnumDef(tag=tag, enumerators=enumerators, location=kw.location)

    def _parse_function(self, return_type: ast.TypeName, name_tok: Token,
                        storage: Optional[str]):
        self.expect_punct("(")
        params: list[ast.ParamDecl] = []
        if not self.tok.is_punct(")"):
            while True:
                if self.tok.is_keyword("void") and self.peek().is_punct(")"):
                    self.advance()
                    params.append(
                        ast.ParamDecl(
                            name="",
                            type_name=ast.TypeName(specifiers=["void"]),
                            location=self.tok.location,
                        )
                    )
                    break
                ptype = self.parse_type_name()
                pname = ""
                ploc = ptype.location
                if self.tok.kind is TokenKind.IDENT:
                    tok = self.advance()
                    pname, ploc = tok.text, tok.location
                ptype = self._parse_array_dims(ptype)
                params.append(ast.ParamDecl(name=pname, type_name=ptype, location=ploc))
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        if self.accept_punct(";"):
            return ast.FunctionDecl(
                name=name_tok.text, return_type=return_type, params=params,
                storage=storage, location=name_tok.location,
            )
        body = self.parse_block()
        return ast.FunctionDef(
            name=name_tok.text, return_type=return_type, params=params,
            body=body, storage=storage, location=name_tok.location,
        )

    def _parse_var_decls(self, type_name: ast.TypeName, first_name: Token,
                         storage: Optional[str], start: Token):
        # ``type_name`` is the first declarator's full type (its ``*``
        # layers were consumed with the specifiers).  Later declarators
        # carry their own ``*`` layers on top of the *specifier* base:
        # ``int *a, b, **c;`` makes a ptr, b int, c ptr-to-ptr.
        base = ast.TypeName(
            specifiers=list(type_name.specifiers),
            pointer_depth=0,
            qualifiers=list(type_name.qualifiers),
            location=type_name.location,
        )
        decls: list[ast.VarDecl] = []
        name_tok = first_name
        current = type_name
        while True:
            this_type = self._parse_array_dims(current)
            init = None
            if self.accept_punct("="):
                init = self._parse_initializer()
            decls.append(
                ast.VarDecl(name=name_tok.text, type_name=this_type, init=init,
                            storage=storage, location=name_tok.location)
            )
            if not self.accept_punct(","):
                break
            extra_depth = 0
            while self.tok.is_punct("*"):
                self.advance()
                extra_depth += 1
            if extra_depth:
                current = ast.TypeName(
                    specifiers=list(base.specifiers),
                    pointer_depth=base.pointer_depth + extra_depth,
                    qualifiers=list(base.qualifiers),
                    location=base.location,
                )
            else:
                current = base
            name_tok = self.expect_ident()
        self.expect_punct(";")
        return decls

    def _parse_initializer(self) -> ast.Expr:
        if self.tok.is_punct("{"):
            loc = self.advance().location
            parts: list[ast.Expr] = []
            while not self.tok.is_punct("}"):
                parts.append(self._parse_initializer())
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            return ast.Comma(parts=parts, location=loc)
        return self.parse_assignment()

    # -- statements --------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self.expect_punct("{")
        stmts: list[ast.Stmt] = []
        while not self.tok.is_punct("}"):
            if self.tok.kind is TokenKind.EOF:
                if self.tolerant:
                    # Unterminated block: close it at EOF so the function
                    # still reaches the CFG, leaving an opaque marker so
                    # the engine treats the tail conservatively.
                    self.recovered_statements += 1
                    stmts.append(ast.OpaqueStmt(
                        text="", reason="unterminated block",
                        location=open_tok.location))
                    return ast.Block(stmts=stmts, location=open_tok.location)
                raise ParseError("unterminated block", open_tok.location)
            if not self.tolerant:
                stmts.append(self.parse_statement())
                continue
            start = self.pos
            try:
                stmts.append(self.parse_statement())
            except (ParseError, RecursionError) as error:
                stmts.append(self._recover_statement(start, error))
        self.expect_punct("}")
        return ast.Block(stmts=stmts, location=open_tok.location)

    # -- panic-mode recovery (tolerant frontend) ---------------------------

    def _span_text(self, start: int, end: int) -> str:
        return " ".join(str(t) for t in self.tokens[start:end])

    def _recover_statement(self, start: int, error: Exception) -> ast.OpaqueStmt:
        """Resync after a failed statement parse.

        Skips forward to the next ``;`` at brace depth zero (consumed)
        or to the ``}`` closing the enclosing block (left for the block
        loop), tracking nested braces so a broken statement inside a
        compound body does not eat the rest of the function.
        """
        depth = 0
        while self.tok.kind is not TokenKind.EOF:
            if self.tok.is_punct("}") and depth == 0:
                break  # the enclosing block's close brace — leave it
            tok = self.advance()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
            elif tok.is_punct(";") and depth == 0:
                break
        if self.pos == start and self.tok.kind is not TokenKind.EOF:
            self.advance()  # guarantee progress
        span = self.tokens[start:self.pos]
        loc = span[0].location if span else self.tok.location
        reason = ("nesting too deep for the parser"
                  if isinstance(error, RecursionError) else str(error))
        self.recovered_statements += 1
        return ast.OpaqueStmt(text=self._span_text(start, self.pos),
                              reason=reason, location=loc)

    def _recover_toplevel(self, start: int, error: Exception) -> tuple[str, str]:
        """Resync after a failed external declaration.

        Skips to the next plausible top-level boundary — past a ``;`` at
        brace depth zero or past the ``}`` closing the region's
        outermost brace — and returns the ``(name, message)`` quarantine
        entry recorded on the translation unit.  The name is the best
        guess at the region's function (first IDENT followed by ``(`` in
        the skipped span), so per-function quarantines from different
        regions stay distinct through fleet-level dedup.
        """
        depth = 0
        while self.tok.kind is not TokenKind.EOF:
            tok = self.advance()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
                if depth <= 0:
                    break
            elif tok.is_punct(";") and depth == 0:
                break
        if self.pos == start and self.tok.kind is not TokenKind.EOF:
            self.advance()  # guarantee progress
        span = self.tokens[start:self.pos]
        name = ""
        for i, tok in enumerate(span):
            if (tok.kind is TokenKind.IDENT and i + 1 < len(span)
                    and span[i + 1].is_punct("(")):
                name = tok.text
                break
        if not name:
            loc = span[0].location if span else self.tok.location
            name = f"<top-level@{loc.line}>"
        message = ("nesting too deep for the parser"
                   if isinstance(error, RecursionError) else str(error))
        return name, message

    def parse_statement(self) -> ast.Stmt:
        tok = self.tok
        if tok.is_punct("{"):
            return self.parse_block()
        if tok.is_punct(";"):
            self.advance()
            return ast.EmptyStmt(location=tok.location)
        if tok.kind is TokenKind.KEYWORD:
            handler = {
                "if": self._parse_if, "while": self._parse_while,
                "do": self._parse_do, "for": self._parse_for,
                "switch": self._parse_switch, "return": self._parse_return,
                "break": self._parse_break, "continue": self._parse_continue,
                "goto": self._parse_goto, "case": self._parse_case,
                "default": self._parse_default,
            }.get(tok.text)
            if handler is not None:
                return handler()
        # Label: IDENT ':' not followed by what could be a ternary tail.
        if (tok.kind is TokenKind.IDENT and self.peek().is_punct(":")
                and tok.text not in self.typedefs):
            self.advance()
            self.advance()
            return ast.Label(name=tok.text, location=tok.location)
        if self._starts_type(tok):
            return self._parse_decl_stmt()
        expr = self.parse_expr()
        self.expect_punct(";")
        return ast.ExprStmt(expr=expr, location=tok.location)

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        start = self.tok
        storage = None
        while self.tok.kind is TokenKind.KEYWORD and self.tok.text in STORAGE:
            if self.tok.text in ("static", "extern"):
                storage = self.tok.text
            self.advance()
        type_name = self.parse_type_name()
        name_tok = self.expect_ident()
        decls = self._parse_var_decls(type_name, name_tok, storage, start)
        return ast.DeclStmt(decls=decls, location=start.location)

    def _parse_if(self) -> ast.If:
        loc = self.expect_keyword("if").location
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then = self.parse_statement()
        otherwise = None
        if self.tok.is_keyword("else"):
            self.advance()
            otherwise = self.parse_statement()
        return ast.If(cond=cond, then=then, otherwise=otherwise, location=loc)

    def _parse_while(self) -> ast.While:
        loc = self.expect_keyword("while").location
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body, location=loc)

    def _parse_do(self) -> ast.DoWhile:
        loc = self.expect_keyword("do").location
        body = self.parse_statement()
        self.expect_keyword("while")
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.DoWhile(body=body, cond=cond, location=loc)

    def _parse_for(self) -> ast.For:
        loc = self.expect_keyword("for").location
        self.expect_punct("(")
        init: Optional[ast.Node] = None
        if not self.tok.is_punct(";"):
            if self._starts_type(self.tok):
                init = self._parse_decl_stmt()  # consumes ';'
            else:
                init = self.parse_expr()
                self.expect_punct(";")
        else:
            self.advance()
        cond = None
        if not self.tok.is_punct(";"):
            cond = self.parse_expr()
        self.expect_punct(";")
        step = None
        if not self.tok.is_punct(")"):
            step = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body, location=loc)

    def _parse_switch(self) -> ast.Switch:
        loc = self.expect_keyword("switch").location
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_block()
        return ast.Switch(cond=cond, body=body, location=loc)

    def _parse_case(self) -> ast.Case:
        loc = self.expect_keyword("case").location
        value = self.parse_conditional()
        self.expect_punct(":")
        return ast.Case(value=value, location=loc)

    def _parse_default(self) -> ast.Default:
        loc = self.expect_keyword("default").location
        self.expect_punct(":")
        return ast.Default(location=loc)

    def _parse_return(self) -> ast.Return:
        loc = self.expect_keyword("return").location
        value = None
        if not self.tok.is_punct(";"):
            value = self.parse_expr()
        self.expect_punct(";")
        return ast.Return(value=value, location=loc)

    def _parse_break(self) -> ast.Break:
        loc = self.expect_keyword("break").location
        self.expect_punct(";")
        return ast.Break(location=loc)

    def _parse_continue(self) -> ast.Continue:
        loc = self.expect_keyword("continue").location
        self.expect_punct(";")
        return ast.Continue(location=loc)

    def _parse_goto(self) -> ast.Goto:
        loc = self.expect_keyword("goto").location
        label = self.expect_ident().text
        self.expect_punct(";")
        return ast.Goto(label=label, location=loc)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """Full expression including the comma operator."""
        first = self.parse_assignment()
        if not self.tok.is_punct(","):
            return first
        parts = [first]
        while self.accept_punct(","):
            parts.append(self.parse_assignment())
        return ast.Comma(parts=parts, location=first.location)

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        if self.tok.kind is TokenKind.PUNCT and self.tok.text in _ASSIGN_OPS:
            op = self.advance().text
            right = self.parse_assignment()
            return ast.Assign(op=op, target=left, value=right, location=left.location)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary()
        if self.accept_punct("?"):
            then = self.parse_expr()
            self.expect_punct(":")
            otherwise = self.parse_conditional()
            return ast.Ternary(cond=cond, then=then, otherwise=otherwise,
                               location=cond.location)
        return cond

    def _parse_binary(self, min_precedence: int = 0) -> ast.Expr:
        """Precedence climbing: one call per operand, left-associative.

        Folds operators binding at least as tightly as
        ``min_precedence``; a right operand takes only operators that
        bind tighter than its own.
        """
        left = self._parse_unary()
        while True:
            tok = self.tok
            if tok.kind is not TokenKind.PUNCT:
                return left
            precedence = _BINOP_PRECEDENCE.get(tok.text, -1)
            if precedence < min_precedence:
                return left
            self.advance()
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(op=tok.text, left=left, right=right,
                                location=left.location)

    def _parse_unary(self) -> ast.Expr:
        tok = self.tok
        if tok.is_keyword("sizeof"):
            self.advance()
            if self.tok.is_punct("(") and self._starts_type(self.peek()):
                self.advance()
                type_name = self.parse_type_name()
                type_name = self._parse_array_dims(type_name)
                self.expect_punct(")")
                return ast.SizeofType(type_name=type_name, location=tok.location)
            operand = self._parse_unary()
            return ast.SizeofExpr(operand=operand, location=tok.location)
        if tok.kind is TokenKind.PUNCT and tok.text in _UNARY_OPS:
            self.advance()
            operand = self._parse_unary()
            return ast.UnaryOp(op=tok.text, operand=operand, location=tok.location)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.tok
            if tok.is_punct("("):
                self.advance()
                args: list[ast.Expr] = []
                if not self.tok.is_punct(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                expr = ast.Call(func=expr, args=args, location=expr.location)
            elif tok.is_punct("["):
                self.advance()
                index = self.parse_expr()
                self.expect_punct("]")
                expr = ast.Index(base=expr, index=index, location=expr.location)
            elif tok.is_punct(".") or tok.is_punct("->"):
                self.advance()
                name = self.expect_ident().text
                expr = ast.Member(base=expr, name=name, arrow=tok.text == "->",
                                  location=tok.location)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self.advance()
                expr = ast.PostfixOp(op=tok.text, operand=expr, location=tok.location)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.tok
        if tok.kind is TokenKind.INT_LIT:
            self.advance()
            return ast.IntLit(text=tok.text, location=tok.location)
        if tok.kind is TokenKind.FLOAT_LIT:
            self.advance()
            return ast.FloatLit(text=tok.text, location=tok.location)
        if tok.kind is TokenKind.CHAR_LIT:
            self.advance()
            return ast.CharLit(text=tok.text, location=tok.location)
        if tok.kind is TokenKind.STRING_LIT:
            self.advance()
            text = tok.text
            # Adjacent string literals concatenate.
            while self.tok.kind is TokenKind.STRING_LIT:
                text = text[:-1] + self.advance().text[1:]
            return ast.StringLit(text=text, location=tok.location)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return ast.Ident(name=tok.text, location=tok.location)
        if tok.is_punct("("):
            # Cast or parenthesized expression.
            if self._starts_type(self.peek()):
                self.advance()
                type_name = self.parse_type_name()
                self.expect_punct(")")
                operand = self._parse_unary()
                return ast.Cast(type_name=type_name, operand=operand,
                                location=tok.location)
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if self.tolerant and tok.kind is not TokenKind.EOF:
            # UNKNOWN tokens (and any stray punctuation) become opaque
            # leaves; at EOF we fall through to ParseError so statement
            # recovery can close the enclosing region instead.
            bad = self.advance()
            self.opaque_expressions += 1
            return ast.OpaqueExpr(text=str(bad), location=bad.location)
        raise ParseError(f"unexpected token {str(tok)!r}", tok.location)


def parse(text: str, filename: str = "<input>",
          typedefs: Optional[set[str]] = None,
          mode: Optional[str] = None) -> ast.TranslationUnit:
    """Parse C source text into a :class:`TranslationUnit`.

    ``mode=None`` defers to the process-wide default
    (:func:`default_mode`, normally ``"strict"``).  The returned unit
    carries a ``frontend_stats`` dict with the recovery counters for
    this parse (all zero in strict mode and on clean tolerant parses).
    """
    mode = default_mode() if mode is None else mode
    if mode not in FRONTEND_MODES:
        raise ValueError(f"unknown frontend mode {mode!r}")
    tolerant = mode == "tolerant"
    tokens = Lexer(SourceFile(filename, text), tolerant=tolerant).tokenize()
    parser = Parser(tokens, filename, typedefs=typedefs, mode=mode)
    try:
        unit = parser.parse_translation_unit()
    except RecursionError:
        # Deep nesting is an input problem, not an internal crash:
        # surface it as a ParseError like any other rejected construct.
        raise ParseError("nesting too deep for the parser",
                         tokens[0].location) from None
    unit.frontend_stats = {
        "recovered_statements": parser.recovered_statements,
        "opaque_expressions": parser.opaque_expressions,
        "quarantined_functions": len(unit.quarantined),
    }
    return unit


def parse_expression(text: str, typedefs: Optional[set[str]] = None) -> ast.Expr:
    """Parse a single C expression (used by metal patterns and tests)."""
    tokens = Lexer(SourceFile("<expr>", text)).tokenize()
    parser = Parser(tokens, "<expr>", typedefs=typedefs)
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ParseError("nesting too deep for the parser",
                         tokens[0].location) from None
    if parser.tok.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input {str(parser.tok)!r}", parser.tok.location)
    return expr


def parse_statement(text: str, typedefs: Optional[set[str]] = None) -> ast.Stmt:
    """Parse a single C statement (used by metal patterns and tests)."""
    tokens = Lexer(SourceFile("<stmt>", text)).tokenize()
    parser = Parser(tokens, "<stmt>", typedefs=typedefs)
    try:
        stmt = parser.parse_statement()
    except RecursionError:
        raise ParseError("nesting too deep for the parser",
                         tokens[0].location) from None
    if parser.tok.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input {str(parser.tok)!r}", parser.tok.location)
    return stmt
