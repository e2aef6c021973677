import re

import pytest

from conftest import analyze_file
from mdpattern import md_reader, sexpr
from mdpattern.md_reader import (DEFAULT_CONSIDERED_HEADS, FormKind,
                                 IncludeCycle, MissingInclude,
                                 MissingTemplateVector,
                                 extract_template_vector, load_md_file,
                                 parse_md, resolve_includes)

ADD_EXPAND = """
(define_expand "add<mode>3"
  [(set (match_operand:GPR 0 "register_operand")
        (plus:GPR (match_operand:GPR 1 "register_operand")
                  (match_operand:GPR 2 "arith_operand")))]
  ""
  "")
"""


def test_considered_classification():
    forms = parse_md(ADD_EXPAND, "mips.md")
    assert len(forms) == 1
    f = forms[0]
    assert f.kind is FormKind.CONSIDERED
    assert f.head == "define_expand"
    assert f.name == "add<mode>3"


@pytest.mark.parametrize(
    "src,kind,head",
    [
        ('(define_insn "x" [] "" "")', FormKind.CONSIDERED, "define_insn"),
        ('(define_split [] "" [] "")', FormKind.CONSIDERED, "define_split"),
        ('(define_attr "length" "" (const_int 4))', FormKind.IGNORED, "define_attr"),
        ("(define_mode_iterator GPR [SI DI])", FormKind.ITERATOR, "define_mode_iterator"),
        ("(define_code_iterator any_logic [and ior])", FormKind.ITERATOR, "define_code_iterator"),
        ('(include "other.md")', FormKind.INCLUDE, "include"),
        ('(define_peephole2 [] "" [] "")', FormKind.IGNORED, "define_peephole2"),
        ('(define_c_enum "unspec" [A B])', FormKind.IGNORED, "define_c_enum"),
    ],
)
def test_classification_totality(src, kind, head):
    forms = parse_md(src)
    assert len(forms) == 1
    assert forms[0].kind is kind
    assert forms[0].head == head


def test_form_origin_is_line_and_column_of_each_top_level_form():
    src = ('; header\n(define_insn "a"\n  [(set (reg 0)\n        (reg 1))]\n  "" "")\n'
           '   (define_expand "b"\n  [(use (reg 2))] "" "")\n'
           '(define_attr "x" ""\n  (const_int 4)) (define_insn "c" [(clobber (reg 3))] "" "")\n')
    forms = parse_md(src, "f.md")
    assert [(f.name, f.origin.filename, f.origin.line, f.origin.col) for f in forms] == [
        ("a", "f.md", 2, 1), ("b", "f.md", 6, 4), ("x", "f.md", 8, 1), ("c", "f.md", 9, 18)]


def test_binding_origin_is_file_and_line(tmp_path, table):
    path = tmp_path / "f.md"
    path.write_text(";; one\n\n" + ADD_EXPAND)
    a = analyze_file(path, "f", table)
    assert [b.origin for b in a.bindings] == [sexpr.Loc(str(path), 4, 1)]


def test_bare_top_level_symbol_reports_its_position():
    with pytest.raises(sexpr.UnexpectedToken, match="f.md:2:3"):
        parse_md('(define_insn "a" [] "" "")\n  stray\n', "f.md")


def test_empty_input_gives_no_forms():
    assert parse_md("") == []


def test_considered_heads_override():
    heads = frozenset({"define_insn"})
    forms = parse_md(ADD_EXPAND, considered_heads=heads)
    assert forms[0].kind is FormKind.IGNORED


def test_extract_template_vector_single():
    f = parse_md(ADD_EXPAND)[0]
    vec = extract_template_vector(f)
    assert len(vec.items) == 1
    assert sexpr.serialize(vec.items[0]).startswith("(set ")


def test_extract_template_vector_order_preserving():
    f = parse_md('(define_insn "x" [(set a b) (clobber c)] "" "")')[0]
    vec = extract_template_vector(f)
    assert [sexpr.serialize(x) for x in vec.items] == ["(set a b)", "(clobber c)"]


def test_extract_template_vector_missing():
    f = parse_md('(define_expand "x" "" "")')[0]
    with pytest.raises(MissingTemplateVector):
        extract_template_vector(f)


# ---------------------------------------------------------------------------
# Includes

SUB = '(define_insn "inner" [(set a b)] "" "")\n'


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_include_substitution(tmp_path):
    _write(tmp_path, "sub.md", SUB)
    root = _write(tmp_path, "root.md", '(include "sub.md")\n(define_insn "outer" [(set c d)] "" "")\n')
    forms = load_md_file(str(root))
    assert [f.name for f in forms if f.kind is FormKind.CONSIDERED] == ["inner", "outer"]


def test_include_disabled_passes_through(tmp_path):
    _write(tmp_path, "sub.md", SUB)
    root = _write(tmp_path, "root.md", '(include "sub.md")\n(define_insn "outer" [(set c d)] "" "")\n')
    on = load_md_file(str(root), resolve=True)
    off = load_md_file(str(root), resolve=False)
    considered = lambda fs: [f for f in fs if f.kind is FormKind.CONSIDERED]
    assert len(considered(on)) == 2
    assert len(considered(off)) == 1
    # the include form is retained as Ignored, not dropped
    assert any(f.head == "include" and f.kind is FormKind.IGNORED for f in off)


def test_include_cycle(tmp_path):
    root = _write(tmp_path, "self.md", '(include "self.md")\n')
    with pytest.raises(IncludeCycle) as ei:
        load_md_file(str(root))
    assert ei.value.origin == sexpr.Loc(str(root), 1, 1)
    assert str(ei.value) == "%s:1:1: include cycle: %s -> %s" % (root, root, root)


def test_include_cycle_names_the_closing_include_form(tmp_path):
    root = _write(tmp_path, "c.md", '(include "b.md")\n')
    mid = _write(tmp_path, "b.md", ';; b\n(define_insn "x" [(set a b)] "" "")\n  (include "c.md")\n')
    with pytest.raises(IncludeCycle) as ei:
        load_md_file(str(root))
    assert ei.value.chain == [str(root), str(mid), str(root)]
    assert str(ei.value) == "%s:3:3: include cycle: %s -> %s -> %s" % (mid, root, mid, root)


def test_missing_include(tmp_path):
    root = _write(tmp_path, "root.md", '(include "nope.md")\n')
    with pytest.raises(MissingInclude):
        load_md_file(str(root))


def test_missing_include_names_the_include_form(tmp_path):
    (tmp_path / "sub").mkdir()
    _write(tmp_path, "sub/mid.md", ';; mid\n  (include "nope.md")\n')
    root = _write(tmp_path, "root.md", '(include "sub/mid.md")\n')
    with pytest.raises(MissingInclude) as ei:
        load_md_file(str(root))
    mid = str(tmp_path / "sub" / "mid.md")
    assert ei.value.origin == sexpr.Loc(mid, 2, 3)
    assert ei.value.path == str(tmp_path / "sub" / "nope.md")
    assert str(ei.value) == "%s:2:3: included file not found: %s" % (mid, ei.value.path)


def test_include_without_path_names_the_include_form(tmp_path):
    root = _write(tmp_path, "root.md", '(define_insn "x" [(set a b)] "" "")\n\t(include)\n')
    with pytest.raises(MissingInclude) as ei:
        load_md_file(str(root))
    assert str(ei.value) == (
        "%s:2:2: included file not found: <missing path argument>" % root)


def test_each_file_is_tokenized_once(tmp_path, monkeypatch):
    # the benchmark times sexpr.tokenize by wrapping this module attribute
    calls = []
    tokenize = sexpr.tokenize

    def counting_tokenize(source, filename=None):
        calls.append(filename)
        return tokenize(source, filename)

    monkeypatch.setattr(sexpr, "tokenize", counting_tokenize)
    sexpr.parse_text("(a)", "one.md")
    assert calls == ["one.md"]
    (tmp_path / "sub").mkdir()
    _write(tmp_path, "sub/leaf.md", SUB)
    _write(tmp_path, "sub/mid.md", '(include "leaf.md")\n' + SUB)
    root = _write(tmp_path, "root.md", '(include "sub/mid.md")\n(include "sub/leaf.md")\n')
    del calls[:]
    load_md_file(str(root))
    leaf, mid = str(tmp_path / "sub" / "leaf.md"), str(tmp_path / "sub" / "mid.md")
    assert calls == [str(root), mid, leaf, leaf]


def test_nested_include_relative_to_parent(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "leaf.md").write_text(SUB)
    (sub / "mid.md").write_text('(include "leaf.md")\n')
    root = _write(tmp_path, "root.md", '(include "sub/mid.md")\n')
    forms = load_md_file(str(root))
    assert [f.name for f in forms if f.kind is FormKind.CONSIDERED] == ["inner"]


# ---------------------------------------------------------------------------
# Independent grep oracle over the bundled corpus


def _strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r";[^\n]*", "", text)


def test_considered_count_matches_grep_oracle():
    import pathlib

    total_forms = 0
    grep_total = 0
    for name in ("alpha.md", "core-extra.md"):
        src = (pathlib.Path(__file__).parent / "data" / "synth" / name).read_text()
        grep_total += sum(
            len(re.findall(r"\(%s[\s(\[]" % h, _strip_comments(src)))
            for h in DEFAULT_CONSIDERED_HEADS
        )
    root = pathlib.Path(__file__).parent / "data" / "synth" / "alpha.md"
    forms = load_md_file(str(root))
    total_forms = sum(1 for f in forms if f.kind is FormKind.CONSIDERED)
    assert total_forms == grep_total == 50


# ---------------------------------------------------------------------------
# Every form is built and classified

import json  # noqa: E402

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mdpattern.md_reader import classify  # noqa: E402
from test_sexpr import reference_parse_text, reference_tokenize  # noqa: E402

DEEP = sexpr.MAX_DEPTH


def _error_outcome(exc):
    return (type(exc), exc.msg, exc.filename, exc.line, exc.col)


def _first_overflow(toks):
    """The index of the first token nested past MAX_DEPTH, with its form's
    location, or None."""
    depth = 0
    for k, (kind, _, line, col) in enumerate(toks):
        if depth == 0:
            top = sexpr.Loc("t.md", line, col)
        if kind in ("(", "["):
            depth += 1
            if depth > DEEP:
                return k, top
        elif kind in (")", "]"):
            depth = max(depth - 1, 0)
    return None


def reference_parse_md(source, considered_heads):
    """`classify` over each form of `reference_parse_text`, with nesting past
    MAX_DEPTH reported where it comes in token order.  Returns each form's
    fields, or the error's."""
    try:
        toks = reference_tokenize(source, "t.md")
    except sexpr.SExprError as exc:
        return _error_outcome(exc)
    fault, at = None, len(toks) + 1
    try:
        exprs = reference_parse_text(source, "t.md")
    except sexpr.SExprError as exc:
        fault = exc
        at = len(toks) if exc.msg.startswith("missing") else next(
            k for k, t in enumerate(toks) if (t[2], t[3]) == (exc.line, exc.col))
    overflow = _first_overflow(toks)
    if overflow and overflow[0] < at:
        return (sexpr.NestingTooDeep, "nesting too deep", *overflow[1])
    if fault:
        return _error_outcome(fault)
    forms = []
    for loc, expr in exprs:
        if not isinstance(expr, sexpr.SList):
            return (sexpr.UnexpectedToken, "top-level form is not a list", *loc)
        f = classify(loc, expr, considered_heads)
        forms.append((f.kind, f.head, f.name, f.origin, f.body))
    return forms


def _parse_md_outcome(source, considered_heads):
    try:
        forms = parse_md(source, "t.md", considered_heads)
    except sexpr.SExprError as exc:
        return _error_outcome(exc)
    return [(f.kind, f.head, f.name, f.origin, f.body) for f in forms]


def _nest(opener, closer, levels, inner="x"):
    return opener * levels + inner + closer * levels


_HEAD = st.sampled_from([
    "define_insn", "define_code_iterator", "include", "define_attr", "define_peephole2",
    "(a)", "[v (w)]", "((a) b)", "7", "-2", "٣", '"h"', '"h\\"x"', "{c}", ""])
_SECOND = st.sampled_from(['"x"', '"a\\"b\\n"', '""', "m", "(b c)", "[c]", "3", "{d}", ""])
_ITEM = st.sampled_from([
    "[(set (reg 0) (reg 1))]", '"cond"', "(a [b (c 1)] {x})", "{ if (x) { y; } }",
    "{" * 12 + ' " ; ' + "}" * 12, "[SI DI]", ";c\n", "/* ( */", "\n  ",
    _nest("(", ")", DEEP - 1), _nest("[", "]", DEEP - 1)])
# bracket faults, and nesting past the bound
_FAULT = st.sampled_from(["(a", "(a]", "[b)", "]", _nest("[", "]", DEEP),
                          _nest("(", ")", DEEP + 2, "x ]"), "(" * (DEEP + 3) + "]",
                          "(" * (DEEP - 1)])
_FORM = st.tuples(_HEAD, _SECOND, st.lists(st.one_of(*[_ITEM] * 6, _FAULT), max_size=3),
                  st.sampled_from([")"] * 12 + ["]", ""])).map(
    lambda t: "(%s %s %s%s" % (t[0], t[1], " ".join(t[2]), t[3]))
_TOP = st.one_of(*[_FORM] * 6, st.sampled_from(["x", "12", '"s"', "[v]", ")"]))
_CONSIDERED = st.sampled_from([DEFAULT_CONSIDERED_HEADS, frozenset({"define_peephole2"}),
                               frozenset({"define_insn", ""})])


@settings(max_examples=800)
@given(st.lists(_TOP, max_size=4).map("\n ".join), _CONSIDERED)
@example("x\n(a]", DEFAULT_CONSIDERED_HEADS)
@example('((a) "x" (b))', DEFAULT_CONSIDERED_HEADS)
@example('(7 "x")\n("s" "y")\n([v] "z")\n(define_attr m "n")\n()', DEFAULT_CONSIDERED_HEADS)
@example("(define_attr " + _nest("(", ")", DEEP + 1) + " ]", DEFAULT_CONSIDERED_HEADS)
@example("(define_attr (a ] " + _nest("(", ")", DEEP + 1), DEFAULT_CONSIDERED_HEADS)
@example("(define_attr [(x)\n  (y", DEFAULT_CONSIDERED_HEADS)
@example('(define_peephole2 [(set a b)] "" [] "")\n(define_attr "x" ""\n ({)', DEFAULT_CONSIDERED_HEADS)
def test_parse_md_matches_classify_of_reference_parse(source, considered_heads):
    assert (_parse_md_outcome(source, considered_heads)
            == reference_parse_md(source, considered_heads))


PEEPHOLE = ('(define_peephole2 "p" [(set (match_operand:SI 0 "register_operand")\n'
            '                   (plus:SI (match_dup 0) (const_int 1)))] "" [] "")\n')


def test_an_ignored_form_keeps_its_head_name_and_tree():
    forms = parse_md(PEEPHOLE + ADD_EXPAND)
    assert [(f.kind, f.head, f.name) for f in forms] == [
        (FormKind.IGNORED, "define_peephole2", "p"), (FormKind.CONSIDERED, "define_expand", "add<mode>3")]
    assert forms[0].body == sexpr.parse_one(PEEPHOLE)
    built = parse_md(PEEPHOLE, considered_heads=frozenset({"define_peephole2"}))[0]
    assert built.kind is FormKind.CONSIDERED
    assert built.body == sexpr.parse_one(PEEPHOLE)


def test_the_heads_of_an_entry_choose_the_forms_that_are_built(tmp_path, capsys):
    from mdpattern.cli import main

    (tmp_path / "p.md").write_text(PEEPHOLE + ADD_EXPAND)
    (tmp_path / "m.txt").write_text("p = p.md\n")
    (tmp_path / "h.txt").write_text("p = p.md heads=define_peephole2,define_expand\n")

    def expressions(*argv):
        assert main(["stats", "--format", "json", *argv]) == 0
        return json.loads(capsys.readouterr().out)["rows"][0]["expressions"]

    assert expressions("--manifest", str(tmp_path / "m.txt")) == 1
    assert expressions("--manifest", str(tmp_path / "m.txt"),
                       "--heads", "define_peephole2,define_expand") == 2
    assert expressions("--manifest", str(tmp_path / "h.txt")) == 2


def test_an_include_form_keeps_its_body_when_includes_are_off(tmp_path):
    _write(tmp_path, "sub.md", SUB)
    root = _write(tmp_path, "root.md", '(include "sub.md")\n' + PEEPHOLE)
    inc, peep = load_md_file(str(root), resolve=False)
    assert (inc.kind, inc.head, peep.kind) == (FormKind.IGNORED, "include", FormKind.IGNORED)
    assert inc.body == sexpr.parse_one('(include "sub.md")')
    assert peep.body == sexpr.parse_one(PEEPHOLE)
