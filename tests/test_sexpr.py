import os
from collections import namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA
from mdpattern import escape_string, md_reader, sexpr
from mdpattern.sexpr import (BraceBlock, Integer, SList, StringLit, SVector,
                             Symbol, line_col, parse_one, parse_text, serialize,
                             tokenize)


def kinds(toks):
    return [t.kind for t in toks]


def test_tokenize_simple_list():
    toks = tokenize("(plus:SI a b)")
    assert kinds(toks) == ["(", "symbol", "symbol", "symbol", ")"]
    assert toks[1].value == "plus:SI"


def test_tokenize_comment_elision():
    toks = tokenize("; comment\n(set)")
    assert [(t.kind, t.value) for t in toks] == [("(", "("), ("symbol", "set"), (")", ")")]


def test_tokenize_block_comment():
    assert kinds(tokenize("/* multi\nline */ (x)")) == ["(", "symbol", ")"]


def test_tokenize_string_literals():
    toks = tokenize('(define_insn "addsi3" [] "" "add %0,%1,%2")')
    strings = [t.value for t in toks if t.kind == "string"]
    assert strings == ["addsi3", "", "add %0,%1,%2"]


def test_tokenize_negative_integer():
    toks = tokenize("(const_int -42)")
    assert toks[2].kind == "int" and toks[2].value == "-42"


def test_tokenize_brace_block_nested():
    toks = tokenize("{ if (x) { y(); } }")
    assert toks[0].kind == "brace"
    assert toks[0].value == " if (x) { y(); } "


def test_tokenize_locations_monotonic():
    src = "(a\n  b c)\n(d)"
    toks = tokenize(src)
    assert [t.pos for t in toks] == [0, 1, 5, 7, 8, 10, 11, 12]
    posns = [line_col(src, t.pos) for t in toks]
    assert posns == sorted(posns)
    assert posns[0] == (1, 1) and posns[2] == (2, 3)


@pytest.mark.parametrize(
    "src,exc",
    [
        ('"never closed', sexpr.UnterminatedString),
        ("{ open { brace }", sexpr.UnterminatedBlock),
        ("/* no end", sexpr.UnterminatedComment),
        ("(a (b)", sexpr.UnbalancedParen),
        ("a))", sexpr.UnbalancedParen),
        ("(a]", sexpr.UnbalancedParen),
    ],
)
def test_lex_parse_errors(src, exc):
    with pytest.raises(exc) as ei:
        parse_text(src, "t.md")
    assert ei.value.line >= 1


def test_stray_closing_brace_is_an_error():
    with pytest.raises(sexpr.UnbalancedParen) as ei:
        tokenize("(a)\n  } b", "t.md")
    assert (ei.value.line, ei.value.col, ei.value.msg) == (2, 3, "unmatched '}'")


def test_lone_backslash_at_end_of_string_is_unterminated():
    with pytest.raises(sexpr.UnterminatedString) as ei:
        tokenize('(a "x\\')
    assert (ei.value.line, ei.value.col) == (1, 4)


def test_deep_nesting_is_a_typed_error():
    source = "(a)\n  [" + "(b " * 50000 + ")" * 50000 + "]"
    with pytest.raises(sexpr.NestingTooDeep) as ei:
        parse_text(source, "t.md")
    assert (ei.value.filename, ei.value.line, ei.value.col) == ("t.md", 2, 3)
    nested = "(b " * 100 + ")" * 100
    assert serialize(parse_one(nested)) == nested.replace(" )", ")")


@pytest.mark.parametrize("opener,closer", [("(b ", ")"), ("[", "]")], ids=["lists", "vectors"])
def test_nesting_is_bounded_at_max_depth(opener, closer):
    # the top-level form counts as one level; lists and vectors count alike
    at_bound = "(a " + opener * (sexpr.MAX_DEPTH - 1) + closer * (sexpr.MAX_DEPTH - 1) + ")"
    assert serialize(parse_one(at_bound)) == at_bound.replace(" )", ")").replace(" ]", "]")
    past = "(a " + opener * sexpr.MAX_DEPTH + closer * sexpr.MAX_DEPTH + ")"
    with pytest.raises(sexpr.NestingTooDeep) as ei:
        parse_text("x\n " + past, "t.md")
    assert (ei.value.filename, ei.value.line, ei.value.col) == ("t.md", 2, 2)


def test_parse_empty_input():
    assert parse_text("") == []
    assert parse_text(" ; only a comment\n") == []


def test_parse_vector_nesting():
    e = parse_one("(define_insn [(set a b) (clobber c)])")
    assert isinstance(e, SList)
    vec = e.items[1]
    assert isinstance(vec, SVector) and len(vec.items) == 2


def test_equal_atoms_of_one_source_are_one_node():
    (_, first), (_, second) = parse_text('(set x "s" 1 {c} (v))\n(set "s" x [1 {c}] (v))')
    op, x, s, one, c, v = first.items
    shared = [*second.items[:3], *second.items[3].items]
    assert list(map(id, shared)) == list(map(id, [op, s, x, one, c]))
    assert second.items[4] == v and second.items[4] is not v  # lists are not shared
    (_, again), = parse_text('(set x "s" 1 {c} (v))')
    assert again == first
    assert [y is z for y, z in zip(again.items, first.items)] == [False] * 6


def test_string_escapes_roundtrip():
    e = parse_one(r'"a\"b\\c\nd"')
    assert isinstance(e, StringLit)
    assert e.text == 'a"b\\c\nd'
    assert parse_one(serialize(e)) == e


def test_brace_roundtrip_byte_exact():
    body = "\n  operands[1] = x; /* {nested} */\n"
    e = parse_one("{%s}" % body)
    assert isinstance(e, BraceBlock) and e.text == body
    assert serialize(e) == "{%s}" % body


# ---------------------------------------------------------------------------
# Property: parse(serialize(s)) is structurally equal to s

import re

_sym = st.from_regex(r"[a-z_<>][a-z0-9_:<>*.-]{0,8}", fullmatch=True).filter(
    lambda s: not re.fullmatch(r"-?\d+", s)
)


def _bal(s):
    depth = 0
    for ch in s:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


_leaf = st.one_of(
    _sym.map(Symbol),
    st.integers(-10**6, 10**6).map(Integer),
    st.text(max_size=12).map(StringLit),
    st.text(alphabet="abc (){}\n", max_size=12).filter(_bal).map(BraceBlock),
)

_expr = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(SList),
        st.lists(children, max_size=4).map(SVector),
    ),
    max_leaves=25,
)


@given(_expr)
def test_serialize_parse_roundtrip(e):
    assert parse_one(serialize(e)) == e


@given(_expr)
def test_serialize_is_stable(e):
    assert serialize(parse_one(serialize(e))) == serialize(e)


# ---------------------------------------------------------------------------
# Property: the one-match-per-token lexer agrees with a per-character one

_REF_INT_RE = re.compile(r"-?\d+")
_REF_ATOM_END = set(" \t\r\n\f\v()[]{};\"")
_REF_STR_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def reference_tokenize(source, filename=None):
    """The lexer as a loop over characters, kept as an oracle."""
    toks = []
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
                raise sexpr.UnterminatedComment("unterminated block comment", filename, sl, sc)
            i += 2
            col += 2
        elif c in "()[]":
            toks.append((c, c, line, col))
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
                    buf.append(_REF_STR_ESCAPES.get(nxt, "\\" + nxt))
                    bump(ch)
                    bump(nxt)
                    i += 2
                else:
                    buf.append(ch)
                    bump(ch)
                    i += 1
            if i >= n:
                raise sexpr.UnterminatedString("unterminated string literal", filename, sl, sc)
            i += 1
            col += 1
            toks.append(("string", "".join(buf), sl, sc))
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
                raise sexpr.UnterminatedBlock("unbalanced brace block", filename, sl, sc)
            toks.append(("brace", source[start + 1 : i], sl, sc))
            bump("}")
            i += 1
        elif c == "}":
            raise sexpr.UnbalancedParen("unmatched '}'", filename, line, col)
        else:
            sl, sc = line, col
            start = i
            while i < n and source[i] not in _REF_ATOM_END:
                bump(source[i])
                i += 1
            text = source[start:i]
            kind = "int" if _REF_INT_RE.fullmatch(text) else "symbol"
            toks.append((kind, text, sl, sc))
    return toks


def _tokenize_with_line_col(source, filename):
    return [(t.kind, t.value, *line_col(source, t.pos)) for t in tokenize(source, filename)]


def _lex_outcome(lexer, source):
    """The token tuples, or the error's class, message and location."""
    try:
        return [tuple(t) for t in lexer(source, "t.md")]
    except sexpr.SExprError as exc:
        return (type(exc), exc.msg, exc.filename, exc.line, exc.col)


_LEX_ALPHABET = '()[]{};"\\/*-01a: \t\r\n'


@settings(max_examples=3000)
@given(st.text(alphabet=_LEX_ALPHABET, max_size=25))
@example('"never closed')
@example('(a\n  "x\\')
@example("x\n  /* no end */")
@example("a\r\n /* no end")
@example("(a)\n\t} b")
@example("{ open\n { brace }")
@example('a/b x*/ - 12abc -7 /*c*/-7 "a\\q\\"\n" { "}" }}')
@example("a;/* not a comment\n;\n/* ; \" ( */b")
@example("\u0663 -\u0663 \x1c\xa0 \f\v")  # non-ASCII digits; space only by the list
def test_tokenize_matches_per_character_reference(source):
    assert (_lex_outcome(_tokenize_with_line_col, source)
            == _lex_outcome(reference_tokenize, source))


@pytest.mark.parametrize("source,error,line,col,msg", [
    ('(a\n  "x', sexpr.UnterminatedString, 2, 3, "unterminated string literal"),
    ('"x\\"', sexpr.UnterminatedString, 1, 1, "unterminated string literal"),
    ("a\n\t/* x *", sexpr.UnterminatedComment, 2, 2, "unterminated block comment"),
    ("/*/", sexpr.UnterminatedComment, 1, 1, "unterminated block comment"),
    ("\r\n  { {x}", sexpr.UnterminatedBlock, 2, 3, "unbalanced brace block"),
    ('x "\n" }', sexpr.UnbalancedParen, 2, 3, "unmatched '}'"),
])
def test_lex_error_locations(source, error, line, col, msg):
    with pytest.raises(error) as ei:
        tokenize(source, "t.md")
    assert (ei.value.line, ei.value.col, ei.value.msg) == (line, col, msg)
    assert _lex_outcome(reference_tokenize, source) == (error, msg, "t.md", line, col)


def test_columns_count_characters():
    src = '\t(a\r\n\t"x\ny" \fb)'
    assert [(t.kind, *line_col(src, t.pos)) for t in tokenize(src)] == [
        ("(", 1, 2), ("symbol", 1, 3), ("string", 2, 2), ("symbol", 3, 5), (")", 3, 6)]
    assert line_col("a\rb\rc", 4) == (1, 5)  # a lone CR ends no line


def _reference_escape(s):
    out = []
    for ch in s:
        out.append({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}.get(ch, ch))
    return "".join(out)


@given(st.text(alphabet='\\"\n\ta \r', max_size=20) | st.text(max_size=20))
def test_escape_string_matches_per_character_reference(s):
    assert escape_string(s) == _reference_escape(s)


# ---------------------------------------------------------------------------
# Property: the one-loop-per-level parser agrees with a per-token one

_REF_CLOSER = {"(": ")", "[": "]"}
_RefToken = namedtuple("_RefToken", "kind value line col")


def _reference_parse_expr(toks, i, filename):
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
        closer = _REF_CLOSER[tok.kind]
        items = []
        i += 1
        while True:
            if i >= len(toks):
                raise sexpr.UnbalancedParen("missing '%s'" % closer, filename, tok.line, tok.col)
            if toks[i].kind in ")]":
                if toks[i].kind != closer:
                    raise sexpr.UnbalancedParen(
                        "mismatched '%s'" % toks[i].kind, filename, toks[i].line, toks[i].col
                    )
                cls = SList if closer == ")" else SVector
                return cls(items), i + 1
            item, i = _reference_parse_expr(toks, i, filename)
            items.append(item)
    raise sexpr.UnexpectedToken("unexpected '%s'" % tok.value, filename, tok.line, tok.col)


def reference_parse_text(source, filename=None):
    """The parser as one recursive call per token over the reference
    tokenizer's own lines and columns, kept as an oracle."""
    toks = [_RefToken(*t) for t in reference_tokenize(source, filename)]
    out = []
    i = 0
    while i < len(toks):
        if toks[i].kind in ")]":
            raise sexpr.UnbalancedParen(
                "unmatched '%s'" % toks[i].kind, filename, toks[i].line, toks[i].col
            )
        loc = sexpr.Loc(filename, toks[i].line, toks[i].col)
        try:
            expr, i = _reference_parse_expr(toks, i, filename)
        except RecursionError:
            raise sexpr.NestingTooDeep(loc) from None
        out.append((loc, expr))
    return out


def _parse_outcome(parser, source):
    """Each top-level tree with its location, or the error's class, message
    and location."""
    try:
        exprs = parser(source, "t.md")
    except sexpr.SExprError as exc:
        return (type(exc), exc.msg, exc.filename, exc.line, exc.col)
    return exprs


# lexer-alphabet text, or a whole atom, nested in lists and vectors that are
# sometimes closed by the other closer or not at all
_nested_source = st.recursive(
    st.text(alphabet=_LEX_ALPHABET, max_size=8)
    | st.sampled_from(["a", "-1", '"s\\n"', "{b {c}}", "x:y", "\n  ", ";c\n"]),
    lambda inner: st.tuples(st.sampled_from("(["), st.lists(inner, max_size=4),
                            st.sampled_from([")", ")", "]", "]", ""]))
                    .map(lambda t: t[0] + " ".join(t[1]) + t[2]),
    max_leaves=12,
)


@settings(max_examples=600)
@given(st.lists(_nested_source, max_size=3).map("\n".join)
       | st.lists(_expr.map(serialize), max_size=3).map("\n ".join))
@example("(a [b (c 1)] \"s\" {x})\n  [d]\nsym -2")
@example("(a\n  [b (c d]]")
@example("(a [b (c)")
@example("(a)\n ) b")
@example("[(x)] ]")
def test_parse_text_matches_per_token_reference(source):
    assert _parse_outcome(parse_text, source) == _parse_outcome(reference_parse_text, source)


@pytest.mark.parametrize("name", ["lex.md", "lex-crlf.md"])
def test_top_level_locs_of_the_lex_corpus_match_the_reference(name):
    # each form's line is counted on from the previous form's
    forms = md_reader.load_md_file(DATA / "lex" / "lex.md")
    with open(DATA / "lex" / name, encoding="latin-1", newline="") as fh:
        source = fh.read()
    toks = reference_tokenize(source)
    expected, depth = [], 0
    for i, (kind, _, line, col) in enumerate(toks):
        if depth == 0 and toks[i + 1][1] != "include":  # spliced in place
            expected.append((line, col))
        depth += (kind in ("(", "[")) - (kind in (")", "]"))
    got = [(f.origin.line, f.origin.col) for f in forms
           if os.path.basename(f.origin.filename) == name]
    assert got == expected and len(expected) >= 2


# ---------------------------------------------------------------------------
# Lexing stays linear on unterminated input; brace blocks nest without limit

import time  # noqa: E402


@pytest.mark.parametrize("source,error,line,col", [
    ("(a)\n " + "{" * 5000, sexpr.UnterminatedBlock, 2, 2),
    ("(a)\n { " + "{x} {" * 20000, sexpr.UnterminatedBlock, 2, 2),
    ('(a\n  "' + "x" * 10**5, sexpr.UnterminatedString, 2, 3),
    ('"\\' * 50000, sexpr.UnterminatedString, 1, 1),
    ("x /* " * 30000, sexpr.UnterminatedComment, 1, 3),
], ids=["nested-braces", "open-braces", "long-string", "quote-backslash", "open-comments"])
def test_unterminated_input_is_lexed_in_linear_time(source, error, line, col):
    start = time.perf_counter()
    with pytest.raises(error) as ei:
        parse_text(source, "t.md")
    assert time.perf_counter() - start < 2.0
    assert (ei.value.filename, ei.value.line, ei.value.col) == ("t.md", line, col)
    assert _lex_outcome(reference_tokenize, source) == (error, ei.value.msg, "t.md", line, col)


@pytest.mark.parametrize("depth", [7, 8, 9, 40, 3000])
def test_brace_blocks_nest_without_limit(depth):
    block = "{" * depth + ' " ; /* ' + "}" * depth
    source = '(a %s "s" ;c\n %s [b])\n%s (c)' % (block, block, block)
    assert (_lex_outcome(_tokenize_with_line_col, source)
            == _lex_outcome(reference_tokenize, source))
    assert _parse_outcome(parse_text, source) == _parse_outcome(reference_parse_text, source)
    unterminated = source.replace("}", "", 1)
    assert (_lex_outcome(_tokenize_with_line_col, unterminated)
            == _lex_outcome(reference_tokenize, unterminated)
            == (sexpr.UnterminatedBlock, "unbalanced brace block", "t.md", 1, 4))


_DEEP_BLOCK = "{" * 10 + ' " ; /* ' + "}" * 10


def test_deep_brace_blocks_are_lexed_in_linear_work(monkeypatch):
    # each block is deeper than the token regex reads; the stretches between
    # them are split once, not the rest of the source after each block
    source = ("(a " + "".join(_DEEP_BLOCK + ' b "s" ;c\n' for _ in range(2000))
              + " b" * 600 + _DEEP_BLOCK + ")")
    split, lengths = sexpr._split, []

    def counted(text):
        lengths.append(len(text))
        return split(text)

    monkeypatch.setattr(sexpr, "_split", counted)
    assert _lex_outcome(_tokenize_with_line_col, source) == _lex_outcome(reference_tokenize, source)
    assert len(lengths) == 2002
    assert sum(lengths) <= 2 * len(source)


@settings(max_examples=500)
@given(st.lists(st.one_of(st.text(alphabet=_LEX_ALPHABET, max_size=6), st.just(_DEEP_BLOCK),
                          st.just("{" * 9 + "}" * 8)), max_size=8))
@example(["a", _DEEP_BLOCK, " ;c\n", _DEEP_BLOCK, "b/* x */", _DEEP_BLOCK, " "])
@example([_DEEP_BLOCK, ' "s', _DEEP_BLOCK])
@example([_DEEP_BLOCK, ' ;c x"y\n', "}"])  # no token is looked for inside a comment
def test_text_between_deep_blocks_matches_per_character_reference(parts):
    source = "".join(parts)
    assert (_lex_outcome(_tokenize_with_line_col, source)
            == _lex_outcome(reference_tokenize, source))


def test_tokens_index_like_a_list():
    toks = tokenize('(a "b\\n" {c}) -4', "t.md")
    assert len(toks) == 6
    assert toks[-1] == toks[5] == ("int", "-4", 14)
    assert toks[2] == ("string", "b\n", 3)
    with pytest.raises(IndexError):
        toks[6]
