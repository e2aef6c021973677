import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import analyze_file, random_corpus, DATA
from mdpattern import md_reader, pattern, rtl, sexpr
from mdpattern.pattern import (ArityMismatch, ParamName, PatternStore,
                               RtlPattern, analyze, canonicalize,
                               extract_pattern, substitute)
from mdpattern.rtl import RtxCodeTable, build_rtl_tree, build_template_tree, rtl_text

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


def _extract(src, table, **kw):
    tree = build_rtl_tree(sexpr.parse_one(src))
    return extract_pattern(tree, table, **kw)


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

    def scan(node):
        if node.param is not None:
            return
        assert node.payload is None or rtl_text(node).startswith("$")
        if node.code is not None:
            cls = table.rtx_class(node.code)
            assert cls not in (rtl.RtxClass.OBJ, rtl.RtxClass.CONST_OBJ,
                               rtl.RtxClass.MATCH)
        for c in node.children:
            scan(c)

    for e in a.store.entries():
        scan(e.pattern.tree)


# ---------------------------------------------------------------------------
# Canonicalization


def _pattern_from_text(text):
    tree = _as_pattern_tree(sexpr.parse_one(text))
    return RtlPattern(tree, max(1, rtl.height(tree)), rtl_text(tree))


def _as_pattern_tree(e):
    node = rtl._build_arg(e)

    def fix(n):
        if n.payload is not None and isinstance(n.payload, sexpr.Symbol) \
                and n.payload.text.startswith("$arg"):
            return rtl.RtlExpr(param=n.payload.text)
        n.children = [fix(c) for c in n.children]
        return n

    return fix(node)


def test_canonicalize_renumbers():
    p = _pattern_from_text("(set $arg3 $arg1)")
    canon, _ = canonicalize(p)
    assert canon.canonical_text == "(set $arg0 $arg1)"


def test_canonicalize_idempotent():
    p = _pattern_from_text("(set $arg0 (plus:$mode0 $arg1 $arg2))")
    once, _ = canonicalize(p)
    twice, _ = canonicalize(once)
    assert once.canonical_text == twice.canonical_text == p.canonical_text


@given(st.randoms(use_true_random=False))
def test_alpha_invariance_under_renaming(rng):
    p = _pattern_from_text("(set $arg0 (plus:$mode0 $arg1 (minus:$mode1 $arg2 $arg0)))")
    args = ["$arg0", "$arg1", "$arg2"]
    modes = ["$mode0", "$mode1"]
    perm_a = rng.sample(range(10, 19), len(args))
    perm_m = rng.sample(range(10, 19), len(modes))
    renames = {a: "$arg%d" % i for a, i in zip(args, perm_a)}
    renames.update({m: "$mode%d" % i for m, i in zip(modes, perm_m)})
    shuffled = RtlPattern(pattern._rename_tree(p.tree, renames), p.height, "")
    shuffled.canonical_text = rtl_text(shuffled.tree)
    canon, _ = canonicalize(shuffled)
    base, _ = canonicalize(p)
    assert canon.canonical_text == base.canonical_text


# ---------------------------------------------------------------------------
# Height and the store


def test_pattern_height():
    a = _pattern_from_text("(set $arg0 $arg1)")
    b = _pattern_from_text("(set $arg0 (plus:$mode0 $arg1 $arg2))")
    assert a.height == 2 and b.height == 3


def test_store_dedup(table):
    store = PatternStore()
    p1, _ = _extract(ARM_ADD, table)
    p2, _ = _extract(MIPS_ADD, table)
    id1, new1 = store.insert(p1)
    id2, new2 = store.insert(p2)
    assert new1 and not new2 and id1 == id2
    assert store.pattern_count == 1
    assert store.get(id1).count == 2
    assert store.total_templates == 2


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
        assert substitute(p.tree, dict(assigns)) == src


def test_substitution_arity_mismatch(table):
    p, assigns = _extract(ARM_ADD, table)
    short = dict(assigns)
    short.pop("$arg2")
    with pytest.raises(ArityMismatch):
        substitute(p.tree, short)
    extra = dict(assigns)
    extra["$arg9"] = "(reg 1)"
    with pytest.raises(ArityMismatch):
        substitute(p.tree, extra)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_substitution_roundtrip_random(table, seed):
    forms = md_reader.parse_md(random_corpus(seed))
    a = analyze(forms, table)
    for b, src in zip(a.bindings, a.source_texts):
        entry = a.store.get(b.pattern_id)
        assert substitute(entry.pattern.tree, dict(b.assignments)) == src


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
    assert a.store.total_templates == a.expr_count


def test_analyze_registers_iterators(table):
    a = analyze_file(DATA / "synth" / "alpha.md", "alpha", table)
    assert "any_logic" in a.code_iterator_names
    assert "<logic_insn>" in a.code_iterator_names
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
    a = analyze(forms, table, count_subpatterns=True)
    subs = a.diagnostics["subpatterns"]
    assert "(plus:$mode0 $arg0 $arg1)" in subs


def test_height_monotone_under_abstraction(table):
    forms = md_reader.parse_md(random_corpus(3))
    a = analyze(forms, table)
    for b, src in zip(a.bindings, a.source_texts):
        source_tree = build_template_tree(sexpr.parse_one(src))
        entry = a.store.get(b.pattern_id)
        assert entry.pattern.height <= max(1, rtl.height(source_tree))


# ---------------------------------------------------------------------------
# Brute-force store oracle (small version; the 1000-seed run is in
# test_acceptance.py)


def brute_force_unique(forms, table):
    texts = []
    for f in forms:
        if f.kind is not md_reader.FormKind.CONSIDERED:
            continue
        tree = build_template_tree(md_reader.extract_template_vector(f))
        p, _ = extract_pattern(tree, table)
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
