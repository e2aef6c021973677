import pytest
from hypothesis import given, strategies as st

from mdpattern import sexpr
from mdpattern.sexpr import (BraceBlock, Integer, SList, StringLit, SVector,
                             Symbol, parse_one, parse_text, serialize, tokenize)


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
    toks = tokenize("(a\n  b c)\n(d)")
    posns = [(t.line, t.col) for t in toks]
    assert posns == sorted(posns)
    assert toks[0].line == 1 and toks[2].line == 2


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


def test_parse_empty_input():
    assert parse_text("") == []
    assert parse_text(" ; only a comment\n") == []


def test_parse_vector_nesting():
    e = parse_one("(define_insn [(set a b) (clobber c)])")
    assert isinstance(e, SList)
    vec = e.items[1]
    assert isinstance(vec, SVector) and len(vec.items) == 2


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
