"""Lexer and parser for the Lisp-like surface syntax of machine description files.

The syntax is s-expressions extended with bracket vectors ``[...]``,
verbatim brace blocks ``{...}`` (C code, kept byte-exact), ``;`` line
comments and ``/* ... */`` block comments.

`tokenize` splits a whole source with one ``re.split``, so the loop over
tokens runs in the regex engine, and keeps each token as its source text;
an offset is counted only where a position is reported.  `parse_text`
walks the token texts and builds every top-level form.  Equal atoms of one
source are one node, which no code changes.
"""

import re
from collections import namedtuple
from itertools import accumulate, islice
from operator import length_hint

from . import ATOM_CHAR, MAX_DEPTH, Error, escape_string


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


#: The whitespace between tokens, which ATOM_CHAR leaves out.
_SPACE = r" \t\r\n\f\v"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'

#: Brace blocks nested up to this many levels are matched by the token
#: regex; a deeper one is measured in place by `_block_end`, and the source
#: after it is lexed by `_lex_past_blocks`.
_BRACE_DEPTH = 8


def _brace_block(depth: int) -> str:
    """A regex for a brace block of at most `depth` levels.  Each level reads
    a run of non-brace characters between nested blocks, so no character
    matches two ways, and a failing match backtracks in linear time."""
    inner = r"[^{}]*"
    for _ in range(depth - 1):
        inner = r"[^{}]*(?:\{%s\}[^{}]*)*" % inner
    return r"\{%s\}" % inner


#: One match per token: group 1 is the whitespace and comments before it,
#: group 2 the token's source text, empty at the end of the input.  A fault
#: takes the rest of the source as its text, so lexing ends there: an
#: unterminated string or block comment, a stray '}', and a '{' whose block
#: is unterminated or nests deeper than _BRACE_DEPTH.
_LAYOUT = r"[{s}]*(?:(?:;[^\n]*|/\*.*?\*/)[{s}]*)*".format(s=_SPACE)
_GOOD_TOKEN = (
    r"[()\[\]]"  # punctuation
    + "|" + _STRING
    + "|" + _brace_block(_BRACE_DEPTH)
    + r"|(?!/\*){a}+".format(a=ATOM_CHAR)  # integer or symbol, unless '/*' opens a comment
)
_TOKEN_RE = re.compile(
    "(%s)(%s" % (_LAYOUT, _GOOD_TOKEN)
    + r'|["{}].*|/\*.*'  # a fault
    + r"|\Z)",
    re.S,
)
#: Up to 256 tokens that are no fault, each with the layout before it.  The
#: layout is matched in a lookahead, which never backtracks, so a token is
#: never looked for inside a comment; the bound keeps the regex engine's
#: backtracking stack small.
_RUN = r"(?:(?=(%s))\1(?:%s)){0,256}" % (_LAYOUT, _GOOD_TOKEN)
_STRING_RE = re.compile(_STRING, re.S)
_BRACE_RE = re.compile(r"[{}]")
_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_STR_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_PUNCT = frozenset("()[]")
_CLOSER = {"(": ")", "[": "]"}


def _unescape(m):
    return _STR_ESCAPES.get(m.group(1), m.group(0))


def line_col(source: str, pos: int, counted: int = 0, line: int = 1) -> tuple[int, int]:
    """The 1-based line and column, in characters, of offset `pos`.

    Lines end at LF only, so a lone CR stays inside its line.  A caller that
    knows `line` is the line of an earlier offset `counted` counts from there.
    """
    return line + source.count("\n", counted, pos), pos - source.rfind("\n", 0, pos)


def _is_int(text: str) -> bool:
    return text.isdecimal() or (text[0] == "-" and text[1:].isdecimal())


def _string(text: str) -> str:
    """The characters of a string token, its escapes decoded."""
    text = text[1:-1]
    return _ESCAPE_RE.sub(_unescape, text) if "\\" in text else text


def _token(text: str, pos: int, new=tuple.__new__) -> Token:
    # tuple.__new__ builds a Token without its Python-level __new__
    if text in _PUNCT:
        return new(Token, (text, text, pos))
    if text[0] == '"':
        return new(Token, ("string", _string(text), pos))
    if text[0] == "{":
        return new(Token, ("brace", text[1:-1], pos))
    return new(Token, ("int" if _is_int(text) else "symbol", text, pos))


class Tokens:
    """The tokens of one source, in order: `texts` holds each token's source
    text, and indexing or iterating gives `Token`s.  An offset is counted
    from the lengths of the texts and of the layout between them, only when
    it is asked for."""

    __slots__ = ("source", "filename", "texts", "_pieces")

    def __init__(self, source: str, filename: str | None, pieces: list):
        self.source = source
        self.filename = filename
        self._pieces = pieces  # the layout before each token, then its text
        self.texts = pieces[1::2]

    def __len__(self):
        return len(self.texts)

    def __getitem__(self, i):
        i = range(len(self.texts))[i]
        return _token(self.texts[i], self.pos(i))

    def __iter__(self):
        starts = islice(accumulate(map(len, self._pieces)), 0, None, 2)
        return map(_token, self.texts, starts)

    def pos(self, i: int) -> int:
        """The offset of token `i`'s first character."""
        return len("".join(self._pieces[:2 * i + 1]))

    def error(self, cls, msg: str, i: int) -> SExprError:
        """An error of class `cls` about token `i`."""
        return cls(msg, self.filename, *line_col(self.source, self.pos(i)))


def _split(source: str) -> list:
    """The layout before each token of `source` and the token's text, in
    turn, up to the end of the input or a fault."""
    pieces = _TOKEN_RE.split(source)
    del pieces[::3]  # the text between two matches, always empty
    while pieces and not pieces[-1]:  # the end of the input
        del pieces[-2:]
    return pieces


def _block_end(source: str, start: int) -> int | None:
    """The end of the brace block at offset `start` of `source`, or None if
    it is unterminated."""
    depth = 0
    for brace in _BRACE_RE.finditer(source, start):
        depth += 1 if brace.group() == "{" else -1
        if depth == 0:
            return brace.end()
    return None


def _run_end(source: str, pos: int) -> int:
    """The end of the tokens from offset `pos` on that are no fault: the
    stretch `_TOKEN_RE` splits up to a fault or the end of the input."""
    # compiled on first use, and then cached by `re`: only a source with a
    # deep brace block needs it
    run = re.compile(_RUN, re.S)
    while True:
        end = run.match(source, pos).end()
        if end == pos:
            return pos
        pos = end


def _lex_past_blocks(source: str, pieces: list, filename: str | None):
    """Lex the rest of `source` after `pieces`, whose last piece is a fault:
    a brace block that nests deeper than _BRACE_DEPTH or is unterminated,
    and the rest of the source.  Each such block is measured in place and
    each stretch between two of them is split once, so the work stays
    linear in the length of the source."""
    start = len(source) - len(pieces.pop())
    while source.startswith("{", start):
        end = _block_end(source, start)
        if end is None:
            raise UnterminatedBlock("unbalanced brace block", filename,
                                    *line_col(source, start))
        stop = _run_end(source, end)
        pieces.append(source[start:end])
        pieces += _split(source[end:stop])
        m = _TOKEN_RE.match(source, stop)
        pieces.append(m.group(1))
        start = m.start(2)
    if start < len(source):
        pieces.append(source[start:])  # a fault
    else:
        pieces.pop()  # the layout at the end of the input


def tokenize(source: str, filename: str | None = None) -> Tokens:
    """Split a source into tokens.  A lexing fault raises here, so it is
    reported before any parse error."""
    pieces = _split(source)
    if pieces and pieces[-1][:1] == "{" and _block_end(pieces[-1], 0) != len(pieces[-1]):
        _lex_past_blocks(source, pieces, filename)
    last = pieces[-1] if pieces else ""
    if last[:1] == '"' and not _STRING_RE.fullmatch(last):
        cls, msg = UnterminatedString, "unterminated string literal"
    elif last[:1] == "}":
        cls, msg = UnbalancedParen, "unmatched '}'"
    elif last[:2] == "/*":
        cls, msg = UnterminatedComment, "unterminated block comment"
    else:
        return Tokens(source, filename, pieces)
    # a fault's text runs to the end of the source
    raise cls(msg, filename, *line_col(source, len(source) - len(last)))


# ---------------------------------------------------------------------------
# Parsed forms


class SExpr:
    """Base class; concrete variants below, each with one content field.

    Two expressions are equal when they are of one class and their contents
    are equal.  A node keeps no location: `parse_text` pairs each top-level
    expression with its `Loc`.  `parse_text` makes one node for the equal
    atoms of one source, so no code may change an atom's content.
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


def _atom(text: str) -> SExpr:
    first = text[0]
    if first == '"':
        return StringLit(_string(text))
    if first == "{":
        return BraceBlock(text[1:-1])
    if _is_int(text):
        return Integer(int(text))
    return Symbol(text)


def _build(it, closer, depth, top, toks, atoms):
    """The list or vector whose opener the token-text iterator `it` has just
    read, `depth` levels deep in the top-level form at `top`, read up to and
    including its `closer`.

    Atoms are looked up in `atoms`, which maps the source text of each atom
    made so far to its node; only a nested list or vector recurses, so the
    parser takes one stack frame per nesting level.
    """
    if depth > MAX_DEPTH:
        raise NestingTooDeep(top)
    items = []
    append = items.append
    for text in it:
        if text in _PUNCT:
            if text == closer:
                return (SList if closer == ")" else SVector)(items)
            inner = _CLOSER.get(text)
            if inner is None:
                raise toks.error(UnbalancedParen, "mismatched '%s'" % text,
                                 len(toks) - length_hint(it) - 1)
            append(_build(it, inner, depth + 1, top, toks, atoms))
        else:
            node = atoms.get(text)
            if node is None:
                node = atoms[text] = _atom(text)
            append(node)
    raise toks.error(UnbalancedParen, "missing '%s'" % closer, _innermost_open(toks.texts))


def _innermost_open(texts) -> int:
    """The index of the innermost bracket left open at the end of `texts`,
    when every closer before it matches."""
    closed = 0
    for i in range(len(texts) - 1, -1, -1):
        if texts[i] in _CLOSER:
            if not closed:
                return i
            closed -= 1
        elif texts[i] in _PUNCT:
            closed += 1


def parse_text(source: str, filename: str | None = None) -> list[tuple[Loc, SExpr]]:
    """Parse a whole source into its top-level expressions, each paired with
    its location."""
    toks = tokenize(source, filename)  # looked up per call: the bench wraps it
    texts, pieces = toks.texts, toks._pieces
    n = len(texts)
    it = iter(texts)
    atoms = {}
    out = []
    line, counted = 1, 0  # each form's line is counted on from the previous form's
    prev, pos = 0, len(pieces[0]) if pieces else 0  # a token's index and offset
    while True:
        text = next(it, None)
        if text is None:
            return out
        i = n - length_hint(it) - 1
        pos += len("".join(pieces[2 * prev + 1:2 * i + 1]))
        prev = i
        line, col = line_col(source, pos, counted, line)
        counted = pos
        loc = Loc(filename, line, col)
        closer = _CLOSER.get(text)
        if closer is None:
            if text in _PUNCT:
                raise UnbalancedParen("unmatched '%s'" % text, filename, line, col)
            out.append((loc, _atom(text)))
        else:
            out.append((loc, _build(it, closer, 1, loc, toks, atoms)))


def parse_one(source: str, filename: str | None = None) -> SExpr:
    exprs = parse_text(source, filename)
    if len(exprs) != 1:
        raise UnexpectedToken("expected exactly one expression", filename, 1, 1)
    return exprs[0][1]


def serialize(e: SExpr) -> str:
    """Render with single spaces; reparsing yields a structurally equal tree."""
    if isinstance(e, Symbol):
        return e.text
    if isinstance(e, Integer):
        return str(e.value)
    if isinstance(e, StringLit):
        return '"%s"' % escape_string(e.text)
    if isinstance(e, BraceBlock):
        return "{%s}" % e.text
    if isinstance(e, SList):
        return "(%s)" % " ".join(serialize(x) for x in e.items)
    if isinstance(e, SVector):
        return "[%s]" % " ".join(serialize(x) for x in e.items)
    raise TypeError("not an SExpr: %r" % (e,))
