import pytest
from hypothesis import given, strategies as st

from mdpattern import md_reader, rtl, sexpr
from mdpattern.rtl import (CLASSES, SIDE_EFFECT_CODES, RtxCodeTable, build_rtl_tree,
                           build_template_tree)


def height(e):
    """Longest root-to-leaf node count of an RtlExpr tree: the reference
    for the height that extraction computes in its walk.

    Vector groups are transparent (members count as direct children) and
    scalar arguments, the nodes with no code that are not vectors, are part
    of their owning node, not below it.
    """
    if e.code is None and not e.is_vector:
        return 0
    if e.is_vector:
        return max((height(c) for c in e.children), default=0)
    if not e.children:
        return 1
    return 1 + max((height(c) for c in e.children), default=0)


@pytest.fixture(scope="module")
def table():
    return RtxCodeTable.default()


#: (code, class name) pairs of the built-in table
CLASS_OF = [
    ("plus", "comm_arith"),
    ("and", "comm_arith"),
    ("geu", "compare"),
    ("lt", "compare"),
    ("eq", "comm_compare"),
    ("ordered", "comm_compare"),
    ("neg", "unary"),
    ("float", "unary"),
    ("fix", "unary"),
    ("minus", "bin_arith"),
    ("ashiftrt", "bin_arith"),
    ("zero_extract", "bitfield_ops"),
    ("if_then_else", "ternary"),
    ("fma", "ternary"),
    ("reg", "obj"),
    ("symbol_ref", "obj"),
    ("const_int", "const_obj"),
    ("const_double", "const_obj"),
    ("match_operand", "match"),
    ("match_parallel", "match"),
    ("post_inc", "autoinc"),
    ("pre_modify", "autoinc"),
    ("subreg", "extra"),
    ("code_label", "extra"),
    ("set", "extra"),
    ("unspec_volatile", "extra"),
]


# the ids spell each class as the constant of the enum that the table used
# before it used class names, so that the ids stay the same
@pytest.mark.parametrize("code,cls", [
    pytest.param(code, cls, id="%s-RtxClass.%s" % (code, cls.upper())) for code, cls in CLASS_OF])
def test_class_lookup(table, code, cls):
    assert table.rtx_class(code) == cls


def test_unknown_code(table):
    assert table.rtx_class("frobnicate") is None


def test_side_effect_set_exact(table):
    assert SIDE_EFFECT_CODES == frozenset(
        {"set", "return", "call", "clobber", "use", "parallel", "cond_exec",
         "sequence", "asm_input", "unspec", "unspec_volatile", "addr_vec",
         "addr_diff_vec"}
    )
    # EXTRA is not a pattern class: these stay by their side-effect flag
    assert SIDE_EFFECT_CODES <= table.retained(False)
    for code in SIDE_EFFECT_CODES:
        assert table.rtx_class(code) == "extra"


@pytest.mark.parametrize(
    "code,expected",
    [
        ("set", True),
        ("plus", True),
        ("minus", True),
        ("geu", True),
        ("post_inc", True),
        ("zero_extract", True),
        ("match_operand", False),
        ("const_int", False),
        ("reg", False),
        ("subreg", False),
        ("frobnicate", False),
    ],
)
def test_is_pattern_operator(table, code, expected):
    assert (code in table.retained(True)) is expected


def test_is_pattern_operator_iterator_and_toggle(table):
    # iterator names are not in the table: analyze adds them to the set
    assert "any_logic" not in table.retained(True)
    assert "minus" in table.retained(True)
    assert "minus" not in table.retained(False)
    assert "set" in table.retained(False)
    assert table.retained(True) - table.retained(False) == {
        code for code in table.retained(True)
        if table.rtx_class(code) == "bin_arith"}


def test_class_partition(table):
    # every known code has exactly one class by construction; no code of an
    # object, constant or match class is retained
    assert rtl.PATTERN_CLASSES < CLASSES
    for code in rtl._default_entries():
        cls = table.rtx_class(code)
        assert cls in CLASSES
        if cls in ("obj", "const_obj", "match"):
            assert code not in table.retained(True)


def test_table_override_file(tmp_path, monkeypatch):
    p = tmp_path / "codes.txt"
    p.write_text("frobnicate comm_arith no\nset extra yes  # still a side effect\n")
    t = RtxCodeTable.from_file(str(p))
    assert t.rtx_class("frobnicate") == "comm_arith"
    monkeypatch.setenv("MDPATTERN_CODE_TABLE", str(p))
    assert RtxCodeTable.load().rtx_class("frobnicate") == "comm_arith"


def test_table_override_rejects_garbage(tmp_path):
    p = tmp_path / "codes.txt"
    p.write_text("frobnicate nosuchclass maybe\n")
    with pytest.raises(rtl.RtlError):
        RtxCodeTable.from_file(str(p))


# ---------------------------------------------------------------------------
# Tree building


def _tree(src):
    return build_rtl_tree(sexpr.parse_one(src))


def test_build_simple_tree():
    t = _tree("(plus:SI (reg 1) (reg 2))")
    assert t.code == "plus" and t.mode == "SI"
    assert [c.code for c in t.children] == ["reg", "reg"]


def test_build_leaf_payloads():
    t = _tree('(match_operand:SI 0 "s_register_operand" "")')
    assert t.code == "match_operand" and t.mode == "SI"
    assert all(c.code is None and not c.is_vector for c in t.children)
    payloads = [sexpr.serialize(c.source) for c in t.children]
    assert payloads == ["0", '"s_register_operand"', '""']


def test_build_keeps_iterator_modes_verbatim():
    t = _tree("(plus:GPR a b)")
    assert t.mode == "GPR"
    t = _tree("(plus:<mode> a b)")
    assert t.mode == "<mode>"


def test_build_rejects_non_lists():
    with pytest.raises(rtl.NotAList):
        build_rtl_tree(sexpr.parse_one("symbol"))
    with pytest.raises(rtl.EmptyList):
        build_rtl_tree(sexpr.parse_one("()"))


def test_build_fig2_shape():
    t = _tree(
        '(set (match_operand:SI 0 "s_register_operand" "")'
        ' (plus:SI (match_operand:SI 1 "s_register_operand" "")'
        ' (match_operand:SI 2 "reg_or_int_operand" "")))'
    )
    assert t.code == "set"
    assert [c.code for c in t.children] == ["match_operand", "plus"]
    assert [c.code for c in t.children[1].children] == ["match_operand", "match_operand"]


# ---------------------------------------------------------------------------
# Height


def test_height_single_node():
    assert height(_tree("(reg 1)")) == 1


def test_height_fig2_chain():
    t = _tree("(set (reg 0) (plus:SI (reg 1) (reg 2)))")
    assert height(t) == 3


def test_height_parallel_vector_transparent():
    t = _tree("(parallel [(set (a) (b)) (clobber (c))])")
    assert height(t) == 3


def test_height_dominates_children():
    t = _tree("(set (reg 0) (plus:SI (neg:SI (reg 1)) (reg 2)))")
    for c in t.children:
        assert height(t) > height(c)
    assert height(t) >= 1


# ---------------------------------------------------------------------------
# Each node's source over the bundled corpus


def _check_sources(e, s):
    """`e` was built from the parsed node `s`, and so was each node below it."""
    assert e.source is s
    if e.is_vector:
        assert isinstance(s, sexpr.SVector)
        items = s.items
    elif e.code is not None:
        assert isinstance(s, sexpr.SList)
        assert s.items[0].text == (e.code if e.mode is None else "%s:%s" % (e.code, e.mode))
        items = s.items[1:]
    else:
        assert not isinstance(s, (sexpr.SList, sexpr.SVector))
        items = []
    assert len(e.children) == len(items)
    for child, item in zip(e.children, items):
        _check_sources(child, item)


def test_each_node_keeps_its_parsed_node_over_corpus():
    import pathlib

    root = pathlib.Path(__file__).parent / "data" / "synth" / "alpha.md"
    forms = md_reader.load_md_file(str(root))
    n = 0
    for f in forms:
        if f.kind is not md_reader.FormKind.CONSIDERED:
            continue
        vec = md_reader.extract_template_vector(f)
        _check_sources(build_template_tree(vec), vec)
        n += 1
    assert n == 50
