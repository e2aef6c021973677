"""Lexer and parser for the Lisp-like surface syntax of machine description files.

The syntax is s-expressions extended with bracket vectors ``[...]``,
verbatim brace blocks ``{...}`` (C code, kept byte-exact), ``;`` line
comments and ``/* ... */`` block comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class SExprError(Exception):
    """Base for lexing/parsing failures; carries a source location."""

    def __init__(self, msg, filename=None, line=0, col=0):
        self.msg = msg
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__("%s:%d:%d: %s" % (filename or "<input>", line, col, msg))


class UnterminatedString(SExprError):
    pass


class UnterminatedBlock(SExprError):
    pass


class UnterminatedComment(SExprError):
    pass


class UnbalancedParen(SExprError):
    pass


class UnexpectedToken(SExprError):
    pass


class NestingTooDeep(SExprError):
    """A form nests deeper than the recursive parser and tree walks follow."""

    def __init__(self, loc: "Loc"):
        super().__init__("nesting too deep", loc.filename, loc.line, loc.col)


@dataclass(frozen=True)
class Loc:
    filename: str | None
    line: int
    col: int


@dataclass(frozen=True)
class Token:
    kind: str  # one of '(' ')' '[' ']' 'symbol' 'int' 'string' 'brace'
    value: str
    line: int
    col: int


_INT_RE = re.compile(r"-?\d+")
_ATOM_END = set(" \t\r\n\f\v()[]{};\"")

_STR_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def tokenize(source: str, filename: str | None = None) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(source)
    line, col = 1, 1

    def bump(ch):
        nonlocal line, col
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n\f\v":
            bump(c)
            i += 1
        elif c == ";":
            while i < n and source[i] != "\n":
                bump(source[i])
                i += 1
        elif c == "/" and source.startswith("/*", i):
            sl, sc = line, col
            i += 2
            col += 2
            while i < n and not source.startswith("*/", i):
                bump(source[i])
                i += 1
            if i >= n:
                raise UnterminatedComment("unterminated block comment", filename, sl, sc)
            i += 2
            col += 2
        elif c in "()[]":
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
        elif c == '"':
            sl, sc = line, col
            i += 1
            col += 1
            buf = []
            while i < n and source[i] != '"':
                ch = source[i]
                if ch == "\\" and i + 1 < n:
                    nxt = source[i + 1]
                    buf.append(_STR_ESCAPES.get(nxt, "\\" + nxt))
                    bump(ch)
                    bump(nxt)
                    i += 2
                else:
                    buf.append(ch)
                    bump(ch)
                    i += 1
            if i >= n:
                raise UnterminatedString("unterminated string literal", filename, sl, sc)
            i += 1
            col += 1
            toks.append(Token("string", "".join(buf), sl, sc))
        elif c == "{":
            sl, sc = line, col
            depth = 0
            start = i
            while i < n:
                ch = source[i]
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        break
                bump(ch)
                i += 1
            if i >= n or depth != 0:
                raise UnterminatedBlock("unbalanced brace block", filename, sl, sc)
            toks.append(Token("brace", source[start + 1 : i], sl, sc))
            bump("}")
            i += 1
        elif c == "}":
            raise UnbalancedParen("unmatched '}'", filename, line, col)
        else:
            sl, sc = line, col
            start = i
            while i < n and source[i] not in _ATOM_END:
                bump(source[i])
                i += 1
            text = source[start:i]
            kind = "int" if _INT_RE.fullmatch(text) else "symbol"
            toks.append(Token(kind, text, sl, sc))
    return toks


# ---------------------------------------------------------------------------
# Parsed forms


class SExpr:
    """Base class; concrete variants below.

    Only top-level expressions from `parse_text` carry a source location.
    """

    loc: Loc | None = None


@dataclass(eq=True)
class Symbol(SExpr):
    text: str


@dataclass(eq=True)
class Integer(SExpr):
    value: int


@dataclass(eq=True)
class StringLit(SExpr):
    text: str


@dataclass(eq=True)
class BraceBlock(SExpr):
    text: str  # verbatim, braces balanced inside


@dataclass(eq=True)
class SList(SExpr):
    items: list


@dataclass(eq=True)
class SVector(SExpr):
    items: list


_CLOSER = {"(": ")", "[": "]"}


def _parse_expr(toks, i, filename):
    tok = toks[i]
    if tok.kind == "symbol":
        return Symbol(tok.value), i + 1
    if tok.kind == "int":
        return Integer(int(tok.value)), i + 1
    if tok.kind == "string":
        return StringLit(tok.value), i + 1
    if tok.kind == "brace":
        return BraceBlock(tok.value), i + 1
    if tok.kind in "([":
        closer = _CLOSER[tok.kind]
        items = []
        i += 1
        while True:
            if i >= len(toks):
                raise UnbalancedParen("missing '%s'" % closer, filename, tok.line, tok.col)
            if toks[i].kind in ")]":
                if toks[i].kind != closer:
                    raise UnbalancedParen(
                        "mismatched '%s'" % toks[i].kind, filename, toks[i].line, toks[i].col
                    )
                cls = SList if closer == ")" else SVector
                return cls(items), i + 1
            item, i = _parse_expr(toks, i, filename)
            items.append(item)
    raise UnexpectedToken("unexpected '%s'" % tok.value, filename, tok.line, tok.col)


def parse_text(source: str, filename: str | None = None) -> list[SExpr]:
    """Parse a whole source into its sequence of top-level expressions."""
    toks = tokenize(source, filename)
    out = []
    i = 0
    while i < len(toks):
        if toks[i].kind in ")]":
            raise UnbalancedParen(
                "unmatched '%s'" % toks[i].kind, filename, toks[i].line, toks[i].col
            )
        loc = Loc(filename, toks[i].line, toks[i].col)
        try:
            expr, i = _parse_expr(toks, i, filename)
        except RecursionError:  # the parser recurses once per nesting level
            raise NestingTooDeep(loc) from None
        expr.loc = loc
        out.append(expr)
    return out


def parse_one(source: str, filename: str | None = None) -> SExpr:
    exprs = parse_text(source, filename)
    if len(exprs) != 1:
        raise UnexpectedToken("expected exactly one expression", filename, 1, 1)
    return exprs[0]


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        else:
            out.append(ch)
    return "".join(out)


def serialize(e: SExpr) -> str:
    """Render with single spaces; reparsing yields a structurally equal tree."""
    if isinstance(e, Symbol):
        return e.text
    if isinstance(e, Integer):
        return str(e.value)
    if isinstance(e, StringLit):
        return '"%s"' % _escape_string(e.text)
    if isinstance(e, BraceBlock):
        return "{%s}" % e.text
    if isinstance(e, SList):
        return "(%s)" % " ".join(serialize(x) for x in e.items)
    if isinstance(e, SVector):
        return "[%s]" % " ".join(serialize(x) for x in e.items)
    raise TypeError("not an SExpr: %r" % (e,))
