import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import analyze_file, random_corpus, DATA
from test_rtl import height
from mdpattern import ATOM_CHAR, MAX_DEPTH, md_reader, pattern, rtl, sexpr, similarity
from mdpattern.pattern import (PatternStore, analyze, extract_pattern, read_pattern_text,
                               register_iterators, renumber_holes, subpatterns, substitute)
from mdpattern.rtl import RtxCodeTable, build_template_tree
from mdpattern.sexpr import SList, SVector

MIPS_ADD = (
    '(set (match_operand:GPR 0 "register_operand")'
    ' (plus:GPR (match_operand:GPR 1 "register_operand")'
    ' (match_operand:GPR 2 "arith_operand")))'
)
ARM_ADD = (
    '(set (match_operand:SI 0 "s_register_operand" "")'
    ' (plus:SI (match_operand:SI 1 "s_register_operand" "")'
    ' (match_operand:SI 2 "reg_or_int_operand" "")))'
)


def _extract(src, table, iterators=frozenset(), include_bin_arith=True, unknown_codes=None):
    tree = sexpr.parse_one(src)
    build_template_tree(SVector([tree]))
    retained = table.retained(include_bin_arith) | iterators
    return extract_pattern(tree, table, retained, unknown_codes)


def test_extract_arm_add(table):
    p, assigns = _extract(ARM_ADD, table)
    assert p.canonical_text == "(set $arg0 (plus:$mode0 $arg1 $arg2))"
    assert assigns == [
        ("$mode0", "SI"),
        ("$arg0", '(match_operand:SI 0 "s_register_operand" "")'),
        ("$arg1", '(match_operand:SI 1 "s_register_operand" "")'),
        ("$arg2", '(match_operand:SI 2 "reg_or_int_operand" "")'),
    ]


def test_extract_mips_add_same_pattern(table):
    pm, am = _extract(MIPS_ADD, table)
    pa, _ = _extract(ARM_ADD, table)
    assert pm.canonical_text == pa.canonical_text
    assert ("$mode0", "GPR") in am


def test_extract_parameter_reuse(table):
    p, assigns = _extract("(set (reg:SI 0) (plus:SI (reg:SI 0) (reg:SI 0)))", table)
    assert p.canonical_text == "(set $arg0 (plus:$mode0 $arg0 $arg0))"
    assert assigns == [("$mode0", "SI"), ("$arg0", "(reg:SI 0)")]


def test_extract_mode_reuse_across_expression(table):
    p, assigns = _extract("(set (reg:SI 0) (minus:SI (reg:SI 1) (reg:SI 2)))", table)
    assert sum(1 for n, _ in assigns if n.startswith("$mode")) == 1


def test_extract_machine_specific_root_is_single_hole(table):
    p, assigns = _extract('(match_operand:SI 0 "register_operand" "")', table)
    assert p.canonical_text == "$arg0"
    assert p.height == 1


def test_extract_match_operator_subtree_is_one_hole(table):
    src = ('(if_then_else:SI (match_operator 3 "comparison_operator"'
           ' [(reg:CC 24) (const_int 0)]) (reg:SI 1) (reg:SI 2))')
    p, assigns = _extract(src, table)
    assert p.canonical_text == "(if_then_else:$mode0 $arg0 $arg1 $arg2)"
    assert assigns[1][1].startswith("(match_operator 3")


def test_extract_scalar_args_of_retained_ops_become_holes(table):
    p, assigns = _extract("(unspec [(reg:SI 1)] 12)", table)
    assert p.canonical_text == "(unspec [$arg0] $arg1)"
    assert ("$arg1", "12") in assigns


def test_extract_unknown_code_becomes_hole(table):
    from collections import Counter

    unknown = Counter()
    p, _ = _extract("(set (reg:SI 0) (frobnicate:SI (reg:SI 1)))", table,
                    unknown_codes=unknown)
    assert p.canonical_text == "(set $arg0 $arg1)"
    assert unknown["frobnicate"] == 1


def test_extract_iterator_code_kept_verbatim(table):
    p, _ = _extract("(set (reg:SI 0) (any_logic:SI (reg:SI 1) (reg:SI 2)))",
                    table, iterators=frozenset({"any_logic"}))
    assert "any_logic" in p.canonical_text


def test_extract_bin_arith_toggle(table):
    p_on, _ = _extract("(set (reg:SI 0) (minus:SI (reg:SI 1) (reg:SI 2)))", table)
    p_off, _ = _extract("(set (reg:SI 0) (minus:SI (reg:SI 1) (reg:SI 2)))", table,
                        include_bin_arith=False)
    assert "minus" in p_on.canonical_text
    assert "minus" not in p_off.canonical_text


def test_no_machine_specific_nodes_remain(table):
    corpus = random_corpus(7)
    forms = md_reader.parse_md(corpus)
    a = analyze(forms, table)

    def scan(e):
        if isinstance(e, sexpr.Symbol):
            assert e.text.startswith("$arg")
            return
        items = e.items
        if isinstance(e, sexpr.SList):
            code, _, mode = items[0].text.partition(":")
            assert table.rtx_class(code) not in ("obj", "const_obj", "match")
            assert mode == "" or mode.startswith("$mode")
            items = items[1:]
        for c in items:
            scan(c)

    for e in a.store.entries():
        scan(sexpr.parse_one(e.pattern.canonical_text))


def test_code_table_flag_decides_what_is_kept(tmp_path):
    # `yes` keeps a code whatever its class; `no` leaves `set` to its class
    p = tmp_path / "codes.txt"
    p.write_text("frob extra yes\nset extra no\n")
    forms = md_reader.parse_md(
        '(define_insn "f" [(set (reg 0) (reg 1)) (frob:SI (reg:SI 1))] "" "")')
    a = analyze(forms, RtxCodeTable.from_file(str(p)))
    assert next(a.store.entries()).pattern.canonical_text == "[$arg0 (frob:$mode0 $arg1)]"


# ---------------------------------------------------------------------------
# The former extraction, kept as the reference for the one-walk extraction


def _is_pattern_operator(code, table, iterators, include_bin_arith):
    """The former per-node decision, with the built-in side-effect set."""
    if code in iterators:
        return True
    if code in rtl.SIDE_EFFECT_CODES:
        return True
    cls = table.rtx_class(code)
    if cls is None:
        return False
    if cls == "bin_arith" and not include_bin_arith:
        return False
    return cls in rtl.PATTERN_CLASSES


def rtl_text(e):
    """Render a parsed template back to MD syntax (single spaces) from its
    list heads and atoms."""
    if isinstance(e, SVector):
        return "[%s]" % " ".join(rtl_text(c) for c in e.items)
    if isinstance(e, SList):
        return "(%s)" % " ".join([e.items[0].text, *(rtl_text(c) for c in e.items[1:])])
    return sexpr.serialize(e)


def _reference_extract(tree, table, iterators, include_bin_arith, unknown_codes):
    """(pattern text, height, assignments): a walk for the pattern, and
    rtl_text for each hole."""
    arg_map, mode_map = {}, {}

    def hole(names, kind, text):
        return names.setdefault(text, "$%s%d" % (kind, len(names)))

    def walk_all(nodes):
        parts = [walk(c) for c in nodes]
        return [t for t, _ in parts], max((h for _, h in parts), default=0)

    def walk(node):
        if isinstance(node, SVector):
            texts, h = walk_all(node.items)
            return "[%s]" % " ".join(texts), h
        if isinstance(node, SList):
            code, *mode = node.items[0].text.split(":", 1)
            if code not in iterators and table.rtx_class(code) is None:
                unknown_codes[code] += 1
            if _is_pattern_operator(code, table, iterators, include_bin_arith):
                head = code
                if mode:
                    head += ":" + hole(mode_map, "mode", mode[0])
                texts, h = walk_all(node.items[1:])
                return "(%s)" % " ".join([head, *texts]), 1 + h
        return hole(arg_map, "arg", rtl_text(node)), 1

    text, h = walk(tree)
    assignments = [(name, value) for holes in (mode_map, arg_map)
                   for value, name in holes.items()]
    return text, max(1, h), assignments


#: Codes of random_corpus; the side-effect codes are not dropped from the
#: table, because the reference keeps them whatever the table says.
_CORPUS_CODES = ["plus", "minus", "div", "eq", "lt", "neg", "sign_extend", "reg",
                 "mem", "const_int", "match_operand"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(),
       st.frozensets(st.sampled_from(_CORPUS_CODES)),
       st.frozensets(st.sampled_from(_CORPUS_CODES + ["set", "parallel", "clobber"])))
def test_one_walk_matches_reference_extraction(seed, include_bin_arith, dropped, iterators):
    # codes dropped from the table are unknown; iterator names stay in
    # patterns whether the table knows them or not
    table = RtxCodeTable({code: entry for code, entry in rtl._default_entries().items()
                          if code not in dropped})
    retained = table.retained(include_bin_arith) | iterators
    for f in md_reader.parse_md(random_corpus(seed, max_depth=5)):
        if f.kind is not md_reader.FormKind.CONSIDERED:
            continue
        vec = md_reader.extract_template_vector(f)
        tree = build_template_tree(vec)
        unknown, expected_unknown = Counter(), Counter()
        p, assigns = extract_pattern(tree, table, retained, unknown)
        expected = _reference_extract(tree, table, iterators, include_bin_arith,
                                       expected_unknown)
        assert (p.canonical_text, p.height, assigns) == expected
        assert read_pattern_text(p.canonical_text) == ([n for n, _ in assigns], p.height)
        assert unknown == expected_unknown
        assert substitute(p.canonical_text, dict(assigns)) == sexpr.serialize(vec)


# ---------------------------------------------------------------------------
# Canonical text


def test_canonicalize_renumbers():
    assert renumber_holes("(set $arg3 (plus:$mode2 $arg1 $arg3))") \
        == "(set $arg0 (plus:$mode0 $arg1 $arg0))"


def test_canonicalize_idempotent(table):
    # extraction alone numbers holes canonically
    a = analyze(md_reader.parse_md(random_corpus(5)), table)
    for text in ["(set $arg0 (plus:$mode0 $arg1 $arg2))", *a.store.canonical_texts()]:
        assert renumber_holes(text) == text


@given(st.randoms(use_true_random=False))
def test_alpha_invariance_under_renaming(rng):
    text = "(set $arg0 (plus:$mode0 $arg1 (minus:$mode1 $arg2 $arg0)))"
    args = ["$arg0", "$arg1", "$arg2"]
    modes = ["$mode0", "$mode1"]
    perm_a = rng.sample(range(10, 19), len(args))
    perm_m = rng.sample(range(10, 19), len(modes))
    renames = {a: "$arg%d" % i for a, i in zip(args, perm_a)}
    renames.update({m: "$mode%d" % i for m, i in zip(modes, perm_m)})
    shuffled = re.sub(r"\$(arg|mode)\d+", lambda m: renames[m.group(0)], text)
    assert renumber_holes(shuffled) == text


def _reference_pattern_holes(text):
    """The hole names of `text`, modes first, if it is a pattern text, decided
    on the parser's tree: every list head is code or code:$modeN, every other
    atom is $argN, the holes of each kind are numbered by first occurrence,
    and the text is the tree's single-space rendering; None if it is not."""
    try:
        tree = sexpr.parse_one(text)
    except sexpr.SExprError:
        return None
    holes = []  # (kind, name) of each hole, in textual order

    def valid(e):
        if isinstance(e, sexpr.SVector):
            return all(valid(x) for x in e.items)
        if isinstance(e, sexpr.SList):
            if not (e.items and isinstance(e.items[0], sexpr.Symbol)):
                return False
            code, colon, mode = e.items[0].text.partition(":")
            if colon:
                holes.append(("$mode", mode))
            return bool(code) and all(valid(x) for x in e.items[1:])
        if isinstance(e, sexpr.Symbol):
            holes.append(("$arg", e.text))
            return True
        return False

    if not valid(tree) or sexpr.serialize(tree) != text:
        return None
    found = []
    for kind in ("$mode", "$arg"):
        names = list(dict.fromkeys(name for k, name in holes if k == kind))
        if names != ["%s%d" % (kind, i) for i in range(len(names))]:
            return None
        found += names
    return found


_TEXT_TOKENS = ["(", ")", "[", "]", " ", "  ", "set", "plus", "-", ":", "$arg0", "$arg1",
                "$arg", "$mode0", "$mode1", "1", '"s"', "{b}", ";", "/*", "(set)", "[]"]
_ITEMS = st.recursive(
    st.sampled_from(["$arg0", "$arg1", "$arg2"]),
    lambda items: st.builds(lambda head, xs: "(%s)" % " ".join([head, *xs]),
                            st.sampled_from(["set", "plus:$mode0", "plus:$mode1", "-1",
                                             "1:$mode0", "$arg0", "a/*b", "/*b", ":$mode0"]),
                            st.lists(items, max_size=3))
    | st.lists(items, max_size=3).map(lambda xs: "[%s]" % " ".join(xs)),
    max_leaves=10)


@st.composite
def _near_pattern_texts(draw):
    """A grammar text, renumbered or not, with up to two tokens put in."""
    text = draw(_ITEMS | _ITEMS.map(renumber_holes))
    for token in draw(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=2)):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + token + text[i:]
    return text


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=16).map("".join)
       | _near_pattern_texts())
@example("[(set)1]")  # a list glued to the atom after it
@example("(set(set) $arg0)")  # a list glued to the code before it
@example("(set[])")  # a vector glued to the code before it
@example("[]")  # no hole at all
@example("(set:$mode0 $arg0 (plus:$mode1 $arg1 $arg0) (neg:$mode0 $arg2))")  # kinds interleaved
def test_is_pattern_text_matches_reference(text):
    read = read_pattern_text(text)
    assert (None if read is None else read[0]) == _reference_pattern_holes(text)


# The regex reader that `read_pattern_text` replaced: each pass of
# `_GROUP_RE` collapses the innermost lists and vectors to a hole, so a
# grammar text nesting at most MAX_DEPTH levels becomes one hole; then
# `_HEIGHT_RE` scans the text again for its height.

#: A list or vector of `$arg` holes only, where an item stands: after the
#: start, a space or '[' (looked back at from past the opener, so that `re`
#: scans for openers only), and before the end, a space, ')' or ']'.
_GROUP_RE = re.compile(
    r"(?:\((?<![^ \[].)(?!-?\d+[ )]|/\*)%s+(?::\$mode\d+)?(?: \$arg\d+)*\)"
    r"|\[(?<![^ \[].)(?:\$arg\d+(?: \$arg\d+)*)?\])(?![^ \])])"
    % ATOM_CHAR.replace("^", "^:", 1))
_HOLE_RE = re.compile(r"(?<![^ \[:])\$(?:arg|mode)\d+")
#: The list brackets and `$arg` holes of a pattern text.
_HEIGHT_RE = re.compile(r"[()]|(?<![^ \[])\$arg")


def _regex_pattern_holes(text):
    """The hole names of `text`, `$mode` holes first, if it is a pattern
    text; None if it is not."""
    reduced = text
    for _ in range(MAX_DEPTH):
        reduced, n = _GROUP_RE.subn("$arg0", reduced)
        if not n:
            break
    if reduced != "$arg0":
        return None
    modes, args = [], []
    for name in dict.fromkeys(_HOLE_RE.findall(text)):
        holes, kind = (args, "$arg%d") if name[1] == "a" else (modes, "$mode%d")
        if name != kind % len(holes):
            return None
        holes.append(name)
    return modes + args


def regex_height(text):
    """The height `_HEIGHT_RE` finds: a list or hole inside `depth` lists
    is `depth` + 1 high, and every text at least 1; of any text."""
    h, depth = 1, 0
    for token in _HEIGHT_RE.findall(text):
        if token == ")":
            depth -= 1
        else:  # a list or a hole, inside `depth` lists
            h = max(h, depth + 1)
            depth += token == "("
    return h


def _regex_read(text):
    holes = _regex_pattern_holes(text)
    return None if holes is None else (holes, regex_height(text))


#: What the edits below put in or write over: the characters of the grammar,
#: of the texts near it, and a digit `\d` takes that '%d' does not write.
_EDIT_CHARS = "()[] :$argmode01-/*\"{};x\t\n\u0663"


@st.composite
def _edited_pattern_texts(draw):
    """A grammar text, with one character put in, deleted or written over,
    or as it is."""
    text = draw(_ITEMS | _ITEMS.map(renumber_holes))
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(_EDIT_CHARS))
    return draw(st.sampled_from([text, text[:i] + char + text[i:], text[:i] + text[i + 1:],
                                 text[:i] + char + text[i + 1:]]))


@settings(max_examples=500)
@given(_edited_pattern_texts())
@example("(set:$mode0 $arg0 (plus:$mode1 $arg1 $arg0) (neg:$mode0 $arg2))")
@example("(set $arg\u0663)")  # a digit that '%d' does not write
@example("(x$arg0 $arg0)")  # a code that holds a hole's name
def test_one_pass_reader_matches_the_regex_reader(text):
    assert read_pattern_text(text) == _regex_read(text)


@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 5000])
@pytest.mark.parametrize("opener,closer", [("(set ", ")"), ("[", "]"),
                                           ("(a:$mode0 [$arg0 ", "])")])
def test_one_pass_reader_matches_the_regex_reader_at_depth(depth, opener, closer):
    text = opener * depth + "$arg0" + closer * depth
    read = read_pattern_text(text)
    assert read == _regex_read(text)
    nests = depth * (opener.count("(") + opener.count("["))  # lists and vectors
    assert (read is not None) == (nests <= MAX_DEPTH)


# ---------------------------------------------------------------------------
# Height and the store


def test_pattern_height(table):
    a, _ = _extract("(set (reg:SI 0) (mem:SI (reg:SI 1)))", table)
    b, _ = _extract(ARM_ADD, table)
    c, _ = _extract("(parallel [(set (reg 0) (neg:SI (reg 1))) (clobber (reg 2))])", table)
    assert (a.height, b.height, c.height) == (2, 3, 4)


@pytest.mark.parametrize("text,expected", [
    ("$arg0", 1), ("[]", 1), ("(set)", 1), ("(set [])", 1), ("[$arg0 $arg1]", 1),
    ("(set:$mode0)", 1), ("(x$arg0)", 1), ("(a (b:$mode0))", 2), ("(set $arg0 $arg1)", 2),
    ("(set [$arg0] [])", 2), ("(a:$mode0 (b) $arg0)", 2),
    ("(set $arg0 (plus:$mode0 $arg1 $arg2))", 3), ("[(set (b (c))) (clobber $arg0)]", 3),
    ("(parallel [(set $arg0 (neg:$mode0 $arg1)) (clobber $arg2)])", 4),
])
def test_height_of_a_pattern_text(text, expected):
    assert read_pattern_text(text)[1] == expected


def test_store_dedup(table):
    store = PatternStore()
    p1, _ = _extract(ARM_ADD, table)
    p2, _ = _extract(MIPS_ADD, table)
    id1, new1 = store.insert(p1)
    id2, new2 = store.insert(p2)
    assert new1 and not new2 and id1 == id2
    assert store.pattern_count == 1
    assert store.get(id1).count == 2
    assert sum(e.count for e in store.entries()) == 2


def test_store_three_variants_one_pattern(table):
    srcs = [
        ARM_ADD,
        MIPS_ADD,
        '(set (match_operand:DI 0 "x") (plus:DI (match_operand:DI 1 "y") (match_operand:DI 2 "z")))',
    ]
    store = PatternStore()
    for s in srcs:
        p, _ = _extract(s, table)
        store.insert(p)
    assert store.pattern_count == 1
    assert next(store.entries()).count == 3


# ---------------------------------------------------------------------------
# Substitution


def test_substitution_roundtrip(table):
    for src in (ARM_ADD, MIPS_ADD, "(set (reg:SI 0) (plus:SI (reg:SI 0) (reg:SI 0)))"):
        p, assigns = _extract(src, table)
        assert substitute(p.canonical_text, dict(assigns)) == src


def test_substitution_fills_whole_holes_only():
    # a code may hold or be a hole's name, and $arg1 begins $arg10
    tail = " ".join("$arg%d" % i for i in range(2, 11))
    text = "(set:$mode0 [$arg0 ($arg1:$mode1 $arg1)] (x$arg0 %s))" % tail
    mapping = {"$mode0": "SI", "$mode1": "DI", "$arg0": "(reg 0)", "$arg1": "1"}
    mapping.update(("$arg%d" % i, "r%d" % i) for i in range(2, 11))
    assert read_pattern_text(text) == (["$mode0", "$mode1"] + ["$arg%d" % i for i in range(11)], 3)
    assert (substitute(text, mapping)
            == "(set:SI [(reg 0) ($arg1:DI 1)] (x$arg0 %s))" % tail.replace("$arg", "r"))


def _analyzed_templates(analysis, forms):
    """The template vector of each binding's form, found by its origin."""
    by_origin = {f.origin: f for f in forms}
    return [md_reader.extract_template_vector(by_origin[b.origin]) for b in analysis.bindings]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_substitution_roundtrip_random(table, seed):
    forms = md_reader.parse_md(random_corpus(seed))
    a = analyze(forms, table)
    for b, vec in zip(a.bindings, _analyzed_templates(a, forms)):
        entry = a.store.get(b.pattern_id)
        assert substitute(entry.pattern.canonical_text, dict(b.assignments)) == sexpr.serialize(vec)


# ---------------------------------------------------------------------------
# analyze()


def test_analyze_empty_corpus(table):
    a = analyze([], table, "empty")
    assert a.expr_count == 0
    assert a.store.pattern_count == 0


def test_analyze_singleton(table):
    forms = md_reader.parse_md('(define_insn "only" [(set (reg 0) (reg 1))] "" "")')
    a = analyze(forms, table)
    assert (a.expr_count, a.store.pattern_count) == (1, 1)


def test_analyze_counts_conserved(table):
    a = analyze_file(DATA / "synth" / "alpha.md", "alpha", table)
    assert a.expr_count == 50
    assert sum(e.count for e in a.store.entries()) == a.expr_count


def test_analyze_registers_iterators(table):
    a = analyze_file(DATA / "synth" / "alpha.md", "alpha", table)
    names, _ = register_iterators(md_reader.load_md_file(DATA / "synth" / "alpha.md"))
    assert similarity._iterator_members(a) == (("any_logic", ("and", "ior", "xor")),)
    assert "any_logic" in names
    assert "<logic_insn>" in names
    assert any("define_mode_iterator ANYI" in it for it in a.iterators)


def test_analyze_skips_malformed_not_fatal(table):
    forms = md_reader.parse_md(
        '(define_expand "bad" "" "")\n(define_insn "ok" [(set (reg 0) (reg 1))] "" "")'
    )
    a = analyze(forms, table)
    assert a.expr_count == 1
    assert len(a.diagnostics["skipped"]) == 1


def test_analyze_multielement_template_is_one_pattern(table):
    forms = md_reader.parse_md(
        '(define_insn "two" [(set (reg 0) (reg 1)) (clobber (reg 2))] "" "")'
    )
    a = analyze(forms, table)
    assert a.expr_count == 1
    assert a.store.pattern_count == 1
    assert next(a.store.entries()).pattern.canonical_text.startswith("[(set ")


def test_count_subpatterns_diagnostic(table):
    forms = md_reader.parse_md(
        '(define_insn "x" [(set (reg 0) (plus:SI (reg 1) (reg 2)))] "" "")'
    )
    text, = analyze(forms, table).store.canonical_texts()
    assert set(subpatterns(text)) == {"(plus:$mode0 $arg0 $arg1)",
                                      "(set $arg0 (plus:$mode0 $arg1 $arg2))"}


def test_height_monotone_under_abstraction(table):
    forms = md_reader.parse_md(random_corpus(3))
    a = analyze(forms, table)
    for b, vec in zip(a.bindings, _analyzed_templates(a, forms)):
        source_tree = build_template_tree(vec)
        entry = a.store.get(b.pattern_id)
        assert entry.pattern.height <= max(1, height(source_tree))


# ---------------------------------------------------------------------------
# Brute-force store oracle (small version; the 1000-seed run is in
# test_acceptance.py)


def brute_force_unique(forms, table):
    texts = []
    for f in forms:
        if f.kind is not md_reader.FormKind.CONSIDERED:
            continue
        tree = build_template_tree(md_reader.extract_template_vector(f))
        p, _ = extract_pattern(tree, table, table.retained(True))
        texts.append(p.canonical_text)
    unique = []
    for t in texts:  # deliberate O(n^2) pairwise comparison
        if not any(t == u for u in unique):
            unique.append(t)
    return set(unique), len(texts)


@pytest.mark.parametrize("seed", range(25))
def test_store_matches_brute_force(table, seed):
    forms = md_reader.parse_md(random_corpus(seed))
    a = analyze(forms, table)
    expected, n = brute_force_unique(forms, table)
    assert a.store.canonical_texts() == expected
    assert a.expr_count == n
