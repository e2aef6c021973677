import pytest
from hypothesis import given, strategies as st

from mdpattern import md_reader, rtl, sexpr
from mdpattern.pattern import extract_pattern
from mdpattern.rtl import CLASSES, SIDE_EFFECT_CODES, RtxCodeTable, build_template_tree
from mdpattern.sexpr import SList, SVector


def height(e):
    """Longest root-to-leaf list count of a parsed template: the reference
    for the height that extraction computes in its walk.

    Vectors are transparent (their items count as direct children) and
    atoms are part of their owning list, not below it.
    """
    if isinstance(e, SVector):
        return max((height(c) for c in e.items), default=0)
    if not isinstance(e, SList):
        return 0
    return 1 + max((height(c) for c in e.items[1:]), default=0)


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
    """The one operator of the template `[src]`, which the check passes."""
    vec = sexpr.parse_one("[%s]" % src)
    assert build_template_tree(vec) is vec
    return vec.items[0]


def _head(e):
    return e.items[0].text


def test_build_simple_tree():
    t = _tree("(plus:SI (reg 1) (reg 2))")
    assert _head(t) == "plus:SI"
    assert [_head(c) for c in t.children] == ["reg", "reg"]


def test_build_leaf_payloads():
    t = _tree('(match_operand:SI 0 "s_register_operand" "")')
    assert _head(t) == "match_operand:SI"
    assert all(not isinstance(c, (SList, SVector)) and c.children == () for c in t.children)
    payloads = [sexpr.serialize(c) for c in t.children]
    assert payloads == ["0", '"s_register_operand"', '""']


def test_build_keeps_iterator_modes_verbatim(table):
    # the walk splits a head at its first ':' and keeps the mode as it stands
    for src, mode in [("(plus:GPR a b)", "GPR"), ("(plus:<mode> a b)", "<mode>"),
                      ("(plus: a b)", ""), ("(plus:SI:x a b)", "SI:x")]:
        p, assigns = extract_pattern(_tree(src), table, table.retained(True))
        assert p.canonical_text == "(plus:$mode0 $arg0 $arg1)"
        assert assigns[0] == ("$mode0", mode)
    p, assigns = extract_pattern(_tree("(plus a b)"), table, table.retained(True))
    assert (p.canonical_text, assigns) == ("(plus $arg0 $arg1)", [("$arg0", "a"), ("$arg1", "b")])


def test_build_rejects_non_lists():
    # each list of a template, at any depth, is checked in pre-order
    cases = [
        ("[(1 a)]", rtl.NotAList, "RTL head is not a symbol: (1 a)"),
        ("[()]", rtl.EmptyList, "empty RTL expression"),
        ('[(set (reg 0) [("x" a)])]', rtl.NotAList, 'RTL head is not a symbol: ("x" a)'),
        ("[(set (reg 0) (plus ()))]", rtl.EmptyList, "empty RTL expression"),
        ("[(1 ())]", rtl.NotAList, "RTL head is not a symbol: (1 ())"),
        ("[(set () (1))]", rtl.EmptyList, "empty RTL expression"),
        ("[(set (1) ())]", rtl.NotAList, "RTL head is not a symbol: (1)"),
    ]
    for src, cls, msg in cases:
        with pytest.raises(cls) as info:
            build_template_tree(sexpr.parse_one(src))
        assert str(info.value) == msg
    # a vector and an atom are operands, not operators
    vec = sexpr.parse_one("[a 1 [b] {c}]")
    assert build_template_tree(vec) is vec


def test_build_fig2_shape():
    t = _tree(
        '(set (match_operand:SI 0 "s_register_operand" "")'
        ' (plus:SI (match_operand:SI 1 "s_register_operand" "")'
        ' (match_operand:SI 2 "reg_or_int_operand" "")))'
    )
    assert _head(t) == "set"
    assert [_head(c) for c in t.children] == ["match_operand:SI", "plus:SI"]
    assert [_head(c) for c in t.children[1].children] == ["match_operand:SI", "match_operand:SI"]


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
# Each node's operands over the bundled corpus


def _check_children(e):
    """The operands of `e` and of each node below it are its items after the
    head for a list, its items for a vector, and none for an atom."""
    if isinstance(e, SList):
        assert e.children == e.items[1:]
    elif isinstance(e, SVector):
        assert e.children == e.items
    else:
        assert e.children == ()
    for child in e.children:
        _check_children(child)


def test_each_node_keeps_its_parsed_node_over_corpus():
    import pathlib

    root = pathlib.Path(__file__).parent / "data" / "synth" / "alpha.md"
    forms = md_reader.load_md_file(str(root))
    n = 0
    for f in forms:
        if f.kind is not md_reader.FormKind.CONSIDERED:
            continue
        vec = md_reader.extract_template_vector(f)
        assert build_template_tree(vec) is vec
        _check_children(vec)
        n += 1
    assert n == 50
