"""Lexer and parser for the Lisp-like surface syntax of machine description files.

The syntax is s-expressions extended with bracket vectors ``[...]``,
verbatim brace blocks ``{...}`` (C code, kept byte-exact), ``;`` line
comments and ``/* ... */`` block comments.
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import Error


class SExprError(Error):
    """Base for lexing/parsing failures; carries a source location."""

    def __init__(self, msg, filename=None, line=0, col=0):
        self.msg = msg
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(where(filename, line, col) + msg)


def where(filename, line, col) -> str:
    """The ``file:line:col: `` prefix of a message about a source position."""
    return "%s:%d:%d: " % (filename or "<input>", line, col)


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


#: How deep input may nest: the lists and vectors of one top-level form and
#: the files of one include chain, each counting the outermost.  Real MD
#: forms nest about a dozen levels; the recursive tree walks take up to three
#: stack frames a level, well inside Python's default recursion limit.
MAX_DEPTH = 200


class NestingTooDeep(SExprError):
    """Input nests more than MAX_DEPTH levels; `loc` is the top-level form,
    or the include form that passes the bound."""

    def __init__(self, loc: "Loc"):
        super().__init__("nesting too deep", *loc)


#: A top-level form's source position: 1-based line, column in characters.
Loc = namedtuple("Loc", "filename line col")


#: kind is one of '(' ')' '[' ']' 'symbol' 'int' 'string' 'brace'; pos is
#: the offset of the token's first character in the source.
Token = namedtuple("Token", "kind value pos")


# Characters that end an atom; an atom is a maximal run of the others.
_SPACE = r" \t\r\n\f\v"
_ATOM_CHAR = r'[^%s()\[\]{};"]' % _SPACE

#: One match per token: the whitespace and comments before it, then one
#: alternative, whose group number says what was found.
_TOKEN_RE = re.compile(
    r"[{s}]*(?:(?:;[^\n]*|/\*.*?\*/)[{s}]*)*".format(s=_SPACE)
    + r"(?:([()\[\]])"  # 1: punctuation
    + r'|("[^"\\]*(?:\\.[^"\\]*)*")'  # 2: string
    + r"|(-?\d+)(?!{a})".format(a=_ATOM_CHAR)  # 3: an integer that is a whole atom
    + r"|((?!/\*){a}+)".format(a=_ATOM_CHAR)  # 4: symbol, unless '/*' opens a comment
    + r"|(.)"  # 5: '{' opens a brace block; '"', '/' or '}' is an error
    + r"|\Z)",
    re.S,
)
_ATOM_KINDS = (None, None, None, "int", "symbol")  # by group number
_BRACE_RE = re.compile(r"[{}]")
_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_STR_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_STRAY = {
    '"': (UnterminatedString, "unterminated string literal"),
    "/": (UnterminatedComment, "unterminated block comment"),
    "}": (UnbalancedParen, "unmatched '}'"),
}


def _unescape(m):
    return _STR_ESCAPES.get(m.group(1), m.group(0))


def line_col(source: str, pos: int, counted: int = 0, line: int = 1) -> tuple[int, int]:
    """The 1-based line and column, in characters, of offset `pos`.

    Lines end at LF only, so a lone CR stays inside its line.  A caller that
    knows `line` is the line of an earlier offset `counted` counts from there.
    """
    return line + source.count("\n", counted, pos), pos - source.rfind("\n", 0, pos)


def tokenize(source: str, filename: str | None = None) -> list[Token]:
    """Split a source into tokens; each carries the offset of its first
    character, which `line_col` turns into a line and column."""
    toks: list[Token] = []
    append = toks.append
    match = _TOKEN_RE.match
    new = tuple.__new__  # builds a Token without its Python-level __new__
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastindex
        if group is None:  # end of input
            return toks
        start, pos = m.span(group)
        text = source[start:pos]
        if group == 1:
            append(new(Token, (text, text, start)))
        elif group == 2:
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE_RE.sub(_unescape, text)
            append(new(Token, ("string", text, start)))
        elif group < 5:
            append(new(Token, (_ATOM_KINDS[group], text, start)))
        elif text == "{":
            depth = 0
            for brace in _BRACE_RE.finditer(source, start):
                depth += 1 if brace.group() == "{" else -1
                if depth == 0:
                    break
            else:
                raise UnterminatedBlock("unbalanced brace block", filename,
                                        *line_col(source, start))
            pos = brace.end()
            append(new(Token, ("brace", source[start + 1 : pos - 1], start)))
        else:
            cls, msg = _STRAY[text]
            raise cls(msg, filename, *line_col(source, start))


# ---------------------------------------------------------------------------
# Parsed forms


class SExpr:
    """Base class; concrete variants below, each with one content field.

    Two expressions are equal when they are of one class and their contents
    are equal.  A node keeps no location: `parse_text` pairs each top-level
    expression with its `Loc`.
    """

    __slots__ = ()
    _field = ""  # name of the content field

    def __eq__(self, other):
        f = self._field
        return type(other) is type(self) and getattr(self, f) == getattr(other, f)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, getattr(self, self._field))


class Symbol(SExpr):
    __slots__ = ("text",)
    _field = "text"

    def __init__(self, text: str):
        self.text = text


class Integer(SExpr):
    __slots__ = ("value",)
    _field = "value"

    def __init__(self, value: int):
        self.value = value


class StringLit(SExpr):
    __slots__ = ("text",)
    _field = "text"

    def __init__(self, text: str):
        self.text = text


class BraceBlock(SExpr):
    __slots__ = ("text",)
    _field = "text"

    def __init__(self, text: str):
        self.text = text  # verbatim, braces balanced inside


class SList(SExpr):
    __slots__ = ("items",)
    _field = "items"

    def __init__(self, items: list):
        self.items = items


class SVector(SExpr):
    __slots__ = ("items",)
    _field = "items"

    def __init__(self, items: list):
        self.items = items


def _atom(kind, value):
    if kind == "symbol":
        return Symbol(value)
    if kind == "int":
        return Integer(int(value))
    return (StringLit if kind == "string" else BraceBlock)(value)


def _parse_items(tokens, opener, top, depth, source):
    """The list or vector that the token `opener` opens, `depth` levels deep
    in the top-level form at `top`, read from the token iterator up to and
    including its closer.

    Atoms are made in the loop; only a nested list or vector recurses, so the
    parser takes one stack frame per nesting level.
    """
    if depth > MAX_DEPTH:
        raise NestingTooDeep(top)
    closer = ")" if opener.kind == "(" else "]"
    items = []
    append = items.append
    for tok in tokens:
        kind = tok.kind
        if kind == "symbol":
            append(Symbol(tok.value))
        elif kind == "(" or kind == "[":
            append(_parse_items(tokens, tok, top, depth + 1, source))
        elif kind == closer:
            return (SList if closer == ")" else SVector)(items)
        elif kind == ")" or kind == "]":
            raise UnbalancedParen("mismatched '%s'" % kind, top.filename,
                                  *line_col(source, tok.pos))
        else:
            append(_atom(kind, tok.value))
    raise UnbalancedParen("missing '%s'" % closer, top.filename,
                          *line_col(source, opener.pos))


def parse_text(source: str, filename: str | None = None) -> list[tuple[Loc, SExpr]]:
    """Parse a whole source into its top-level expressions, each paired with
    its location."""
    tokens = iter(tokenize(source, filename))  # looked up per call: the bench wraps it
    out = []
    line, counted = 1, 0  # each form's line is counted on from the previous form's
    for tok in tokens:
        kind = tok.kind
        line, col = line_col(source, tok.pos, counted, line)
        counted = tok.pos
        loc = Loc(filename, line, col)
        if kind == "(" or kind == "[":
            expr = _parse_items(tokens, tok, loc, 1, source)
        elif kind == ")" or kind == "]":
            raise UnbalancedParen("unmatched '%s'" % kind, filename, line, col)
        else:
            expr = _atom(kind, tok.value)
        out.append((loc, expr))
    return out


def parse_one(source: str, filename: str | None = None) -> SExpr:
    exprs = parse_text(source, filename)
    if len(exprs) != 1:
        raise UnexpectedToken("expected exactly one expression", filename, 1, 1)
    return exprs[0][1]


def _escape_string(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n").replace("\t", "\\t"))


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
