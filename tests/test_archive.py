from urllib.parse import unquote

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, analyze_file, random_corpus
from mdpattern import archive, md_reader, pattern, rtl, sexpr, similarity
from mdpattern.archive import (BadHeader, DanglingPatternId, MalformedEntry,
                               PatternFile, escape_value, merge, read_archives,
                               read_pattern_file, recombine, render_pattern_file,
                               template_tokens, unescape_value,
                               verify_roundtrip, write_param_file,
                               write_pattern_file)
from mdpattern.pattern import ArityMismatch, height
from mdpattern.sexpr import MAX_DEPTH


@pytest.fixture(scope="module")
def alpha_forms():
    return md_reader.load_md_file(str(DATA / "synth" / "alpha.md"))


@pytest.fixture(scope="module")
def alpha(table, alpha_forms):
    return pattern.analyze(alpha_forms, table, "alpha")


def _source_templates(forms):
    """The parser's rendering of each considered form's template vector."""
    return [sexpr.serialize(md_reader.extract_template_vector(f)) for f in forms
            if f.kind is md_reader.FormKind.CONSIDERED]


@pytest.fixture()
def fig2(table):
    mips = analyze_file(DATA / "fig2" / "mips.md", "mips", table)
    arm = analyze_file(DATA / "fig2" / "arm.md", "arm", table)
    return mips, arm


# -- escaping ----------------------------------------------------------------


#: Every character at which str.splitlines breaks a line.
LINE_BREAKERS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"


@given(st.text(max_size=60) | st.text(alphabet="% \tab" + LINE_BREAKERS, max_size=30))
def test_escaping_is_bit_exact(s):
    enc = escape_value(s)
    assert " " not in enc and "\t" not in enc
    assert len(enc.splitlines()) <= 1
    assert unescape_value(enc) == s


def test_escaping_of_each_line_breaker():
    assert escape_value("%  \t" + LINE_BREAKERS) == (
        "%25%20%20%09%0A%0B%0C%0D%1C%1D%1E%C2%85%E2%80%A8%E2%80%A9")


# unquote is the reference decoder: archives written before it was replaced
# must read back the same
@given(st.text(alphabet="%0123456789abcdefABCDEFz \x85\u00e9\u2028", max_size=40))
def test_unescape_matches_unquote(s):
    assert unescape_value(s) == unquote(s)


@pytest.mark.parametrize("s", [
    "", "%", "%%", "%4", "%zz", "%4g", "%C2", "%C2%", "%E2%80%A8", "%e2%80%a8",
    "%E2%80", "%E2%80a", "%C3%A9%41", "%FF%FE", "%C2\x85", "a%20b%0A%25%2541",
])
def test_unescape_matches_unquote_on_malformed_input(s):
    assert unescape_value(s) == unquote(s)


# -- writing -----------------------------------------------------------------


def test_pattern_file_headers_and_sorting(alpha):
    text = write_pattern_file(alpha)
    lines = text.splitlines()
    assert lines[0] == "# arch: alpha"
    assert lines[1] == "# total_templates: 50"
    iter_lines = [l for l in lines if l.startswith("# iterator: ")]
    assert len(iter_lines) == len(alpha.iterators)
    entry_keys = []
    for line in lines:
        if line.startswith("#"):
            continue
        pid, h, count, _ = line.split(" ", 3)
        entry_keys.append((int(h), int(pid)))
    assert entry_keys == sorted(entry_keys)


def test_fig2_shared_pattern_and_bindings(fig2):
    mips, arm = fig2
    ptext_m = write_pattern_file(mips)
    ptext_a = write_pattern_file(arm)
    entry_m = [l for l in ptext_m.splitlines() if not l.startswith("#")]
    entry_a = [l for l in ptext_a.splitlines() if not l.startswith("#")]
    assert len(entry_m) == len(entry_a) == 1
    assert entry_m[0].split(" ", 3)[3] == entry_a[0].split(" ", 3)[3]
    params_m = write_param_file(mips)
    params_a = write_param_file(arm)
    assert "$mode0=GPR" in params_m
    assert "$mode0=SI" in params_a


def test_empty_analysis_writes_header_only(table):
    a = pattern.analyze([], table, "void")
    text = write_pattern_file(a)
    assert all(l.startswith("#") for l in text.splitlines())
    assert write_param_file(a) == ""


def test_three_expression_single_pattern_fixture(table):
    src = "\n".join(
        '(define_insn "v%d" [(set (match_operand:%s 0 "p%d") '
        '(plus:%s (match_operand:%s 1 "q%d") (match_operand:%s 2 "r%d")))] "" "")'
        % (i, m, i, m, m, i, m, i)
        for i, m in enumerate(("SI", "DI", "HI"))
    )
    a = pattern.analyze(md_reader.parse_md(src), table, "three")
    pf = archive.pattern_file_of(a)
    assert len(pf.entries) == 1
    assert pf.entries[0][2] == 3
    assert len(write_param_file(a).splitlines()) == 3


def test_write_is_deterministic(alpha, table):
    again = analyze_file(DATA / "synth" / "alpha.md", "alpha", table)
    assert write_pattern_file(alpha) == write_pattern_file(again)
    assert write_param_file(alpha) == write_param_file(again)


# -- reading -----------------------------------------------------------------


def test_read_write_roundtrip(alpha):
    store, bindings, pf = read_archives(
        write_pattern_file(alpha), write_param_file(alpha)
    )
    assert pf.arch == "alpha"
    assert store.pattern_count == alpha.store.pattern_count
    assert store.total_templates == alpha.store.total_templates
    for e in alpha.store.entries():
        got = store.get(e.pattern_id)
        assert got.pattern.canonical_text == e.pattern.canonical_text
        assert got.count == e.count
        assert got.pattern.height == e.pattern.height
    assert len(bindings) == len(alpha.bindings)
    for b, orig in zip(bindings, alpha.bindings):
        assert b.pattern_id == orig.pattern_id
        assert b.assignments == orig.assignments
        assert (b.form_kind, b.form_name) == (orig.form_kind, orig.form_name)


#: The characters that escaping or record parsing treat specially.
_FIELD_CHARS = "%=$# \tab" + LINE_BREAKERS
_FIELDS = st.text(_FIELD_CHARS, max_size=8) | st.text(max_size=8)


@given(st.lists(st.tuples(st.sampled_from(sorted(md_reader.DEFAULT_CONSIDERED_HEADS)), _FIELDS,
                          st.lists(_FIELDS, max_size=2), st.lists(_FIELDS, max_size=3)),
                max_size=4))
def test_param_records_round_trip(records):
    store = pattern.PatternStore()
    store.insert(pattern.RtlPattern("[$arg0]", 1))
    written = [pattern.ParamBinding(0, [("$mode%d" % i, v) for i, v in enumerate(modes)]
                                    + [("$arg%d" % i, v) for i, v in enumerate(args)],
                                    kind, name)
               for kind, name, modes, args in records]
    a = pattern.MdAnalysis("x", store, written, [])
    _, bindings, _ = read_archives(write_pattern_file(a), write_param_file(a))
    assert ([(b.form_kind, b.form_name, b.assignments) for b in bindings]
            == [(b.form_kind, b.form_name, b.assignments) for b in written])


def test_read_bad_header():
    with pytest.raises(BadHeader):
        read_pattern_file("0 2 1 (set $arg0 $arg1)\n")
    with pytest.raises(BadHeader):
        read_pattern_file("# arch: x\n# bogus: y\n")


def test_read_malformed_entry_reports_line():
    text = "# arch: x\n# total_templates: 1\n0 1 one (set $arg0 $arg1)\n"
    with pytest.raises(MalformedEntry) as ei:
        read_pattern_file(text)
    assert ei.value.lineno == 3


@pytest.mark.parametrize("second", [
    "0 3 1 (set $arg0 (plus:$mode0 $arg1 $arg2))",  # duplicate id
    "1 2 1 (set $arg0 $arg1)",  # duplicate text
    "1 2 1 ( set  $arg0 $arg1 )",  # line 3's text but for spacing, which is not canonical
])
def test_read_duplicate_entry_reports_line(second):
    ptext = "# arch: x\n# total_templates: 2\n0 2 1 (set $arg0 $arg1)\n%s\n" % second
    with pytest.raises(MalformedEntry) as ei:
        read_archives(ptext, "0 define_insn a $arg0=x $arg1=y\n")
    assert ei.value.lineno == 4


# "spacing" to "mode-numbering" are a pattern's text but for spacing, atoms or
# hole names: merge adds up counts by exact text, so a reader that normalized
# them would count one pattern twice
@pytest.mark.parametrize("text", ["(set $arg0", "(set () $arg0)", "(set (1 $arg0))",
                                  "((set) $arg0)", "[(set $arg0) ()]", "(a) (b)",
                                  pytest.param("( set  $arg0 [ (plus:$mode0 $arg1) ] )",
                                               id="spacing"),
                                  pytest.param("(set $arg0 $arg1 )", id="trailing-space"),
                                  pytest.param('(set $arg0 "s")', id="string"),
                                  pytest.param("(set $arg0 {b})", id="brace-block"),
                                  pytest.param("(set $arg1 $arg0)", id="arg-numbering"),
                                  pytest.param("(set:$mode1 (plus:$mode0 $arg0))",
                                               id="mode-numbering"),
                                  pytest.param("(set " * 5000 + "$arg0" + ")" * 5000,
                                               id="deeper-than-the-recursive-parser"),
                                  pytest.param("(set " * (MAX_DEPTH + 1) + "$arg0"
                                               + ")" * (MAX_DEPTH + 1),
                                               id="one-level-past-the-bound")])
def test_read_rejects_malformed_pattern_text(text):
    # the height column agrees with the text, so only the text is at fault
    with pytest.raises(MalformedEntry) as ei:
        read_pattern_file("# arch: x\n# total_templates: 1\n0 %d 1 %s\n" % (height(text), text))
    assert ei.value.lineno == 3


# '\u00b2' and '\u2460' are digits to str.isdigit but not decimal, and int()
# rejects them; '\u0663' is the Arabic-Indic digit three
@pytest.mark.parametrize("pid,ok", [("\u00b2", False), ("\u2460", False), ("\u0663", True)])
def test_ids_are_decimal_in_both_archives(pid, ok):
    ptext = "# arch: x\n# total_templates: 1\n%s 2 1 (set $arg0 $arg1)\n" % pid
    mtext = "%s define_insn a $arg0=x $arg1=y\n" % pid
    if ok:
        store, bindings, _ = read_archives(ptext, mtext)
        assert [e.pattern_id for e in store.entries()] == [b.pattern_id for b in bindings] == [3]
        return
    with pytest.raises(MalformedEntry) as ei:
        read_pattern_file(ptext)
    assert ei.value.lineno == 3
    with pytest.raises(MalformedEntry) as ei:
        read_archives("# arch: x\n# total_templates: 1\n0 2 1 (set $arg0 $arg1)\n", mtext)
    assert ei.value.lineno == 1


def test_read_accepts_pattern_text_at_the_bound():
    text = "(set " * MAX_DEPTH + "$arg0" + ")" * MAX_DEPTH
    pf = read_pattern_file("# arch: x\n# total_templates: 1\n0 %d 1 %s\n" % (MAX_DEPTH + 1, text))
    assert pf.entries == [(0, MAX_DEPTH + 1, 1, text)]


def test_read_dangling_pattern_id(alpha):
    ptext = write_pattern_file(alpha)
    with pytest.raises(DanglingPatternId):
        read_archives(ptext, "9999 define_insn ghost $arg0=x\n")


# -- recombination -----------------------------------------------------------


def test_recombine_fig2_arm(fig2):
    _, arm = fig2
    store, bindings, _ = read_archives(write_pattern_file(arm), write_param_file(arm))
    forms = recombine(store, bindings)
    assert len(forms) == 1
    assert forms[0].form_kind == "define_expand"
    assert forms[0].form_name == "addsi3"
    source, = _source_templates(md_reader.load_md_file(str(DATA / "fig2" / "arm.md")))
    assert template_tokens(forms[0].template_text) == template_tokens(source)


def test_recombine_zero_bindings(alpha):
    store, _, _ = read_archives(write_pattern_file(alpha), "")
    assert recombine(store, []) == []


def test_recombine_arity_mismatch(fig2):
    _, arm = fig2
    store, bindings, _ = read_archives(write_pattern_file(arm), write_param_file(arm))
    bindings[0].assignments.pop()
    with pytest.raises(ArityMismatch):
        recombine(store, bindings)


def test_verify_full_corpus(alpha, alpha_forms):
    assert verify_roundtrip(alpha, alpha_forms) == (0, 0, 0)


def test_verify_finds_a_fault_in_the_rtl_tree(table, monkeypatch):
    # the tree drops the last operand of every plus; the walk and the
    # archives are consistent with that tree, the source is not
    build = rtl.build_rtl_tree

    def drop_last_plus_operand(s):
        tree = build(s)
        if tree.code == "plus":
            tree.children.pop()
        return tree

    monkeypatch.setattr(rtl, "build_rtl_tree", drop_last_plus_operand)
    forms = md_reader.load_md_file(str(DATA / "synth" / "alpha.md"))
    missing, extra, changed = verify_roundtrip(pattern.analyze(forms, table, "alpha"), forms)
    assert (missing, extra) == (0, 0) and changed > 0


def test_verify_detects_corruption(alpha, alpha_forms):
    ptext = write_pattern_file(alpha)
    mtext = write_param_file(alpha)
    store, bindings, _ = read_archives(ptext, mtext)
    bindings[4].assignments = [
        (n, v.replace("register_operand", "corrupted_operand"))
        for n, v in bindings[4].assignments
    ]
    regen = recombine(store, bindings)
    orig = [template_tokens(t) for t in _source_templates(alpha_forms)]
    got = [template_tokens(r.template_text) for r in regen]
    assert sum(1 for o, g in zip(orig, got) if o != g) == 1


def test_verify_compares_string_literals_exactly(table, monkeypatch):
    source = ('(define_insn "a" [(set (match_operand:SI 0 "reg  op" "=r") (reg:SI 1))] "" "")\n'
              '(define_insn "b" [(set (reg:SI 2) (const_string "x y"))] "" "")\n')
    forms = md_reader.parse_md(source)
    a = pattern.analyze(forms, table, "ws")
    assert verify_roundtrip(a, forms) == (0, 0, 0)
    real = archive.recombine

    def collapse_inner_space(store, bindings):
        forms = real(store, bindings)
        forms[0].template_text = forms[0].template_text.replace('"reg  op"', '"reg op"')
        return forms

    monkeypatch.setattr(archive, "recombine", collapse_inner_space)
    assert verify_roundtrip(a, forms) == (0, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_verify_random_corpora(table, seed):
    forms = md_reader.parse_md(random_corpus(seed))
    assert verify_roundtrip(pattern.analyze(forms, table, "rnd"), forms) == (0, 0, 0)


#: An iterator form whose strings hold '%', two line breakers and a lone CR.
ITERATOR_FORM = '(define_mode_attr sfx [(SI "a\fb") (DI "c\x85d") (QI "e\rf") (HI "50%")])'


def test_iterator_headers_survive_extract_merge_recombine_verify(tmp_path, capsys):
    from mdpattern.cli import main

    template = "[(set (reg:SI 0) (reg:SI 1))]"
    (tmp_path / "one.md").write_text('%s\n(define_insn "x" %s "" "")\n'
                                     % (ITERATOR_FORM, template), encoding="latin-1")
    (tmp_path / "m.txt").write_text("one = one.md\n")
    manifest = ["--manifest", str(tmp_path / "m.txt")]
    assert main(["extract", "one", "--out-dir", str(tmp_path)] + manifest) == 0
    patterns = tmp_path / "one.patterns"
    assert ('# iterator: (define_mode_attr sfx [(SI "a%0Cb") (DI "c%C2%85d") (QI "e%0Df")'
            ' (HI "50%25")])\n') in patterns.read_text(encoding="utf-8")
    merged = tmp_path / "merged.patterns"
    assert main(["merge", str(patterns), "--out", str(merged)]) == 0
    assert merged.read_bytes() == patterns.read_bytes()
    assert read_pattern_file(merged.read_text(encoding="utf-8")).iterators == [ITERATOR_FORM]
    out = tmp_path / "one.recombined"
    assert main(["recombine", "--patterns", str(merged), "--params",
                 str(tmp_path / "one.params"), "--out", str(out)]) == 0
    assert "\n  %s\n" % template in out.read_text(encoding="utf-8")
    assert main(["verify"] + manifest) == 0
    assert capsys.readouterr().out.endswith("one: 0 missing / 0 extra / 0 changed\n")


# -- merge -------------------------------------------------------------------


def _pf(analysis):
    return archive.pattern_file_of(analysis)


def test_merge_with_self_doubles_counts(alpha):
    pf = _pf(alpha)
    merged = merge([pf, pf], 0)
    assert len(merged.entries) == len(pf.entries)
    by_text = {t: c for _, _, c, t in merged.entries}
    for _, _, count, text in pf.entries:
        assert by_text[text] == 2 * count
    assert merged.total_templates == 2 * pf.total_templates


def test_merge_threshold_is_strict(alpha):
    pf = _pf(alpha)
    top = max(c for _, _, c, _ in pf.entries)
    merged = merge([pf], top)
    assert all(c > top for _, _, c, _ in merged.entries)


def test_merge_monotone_in_min_count(alpha):
    pf = _pf(alpha)
    sizes = [len(merge([pf], k).entries) for k in range(0, 6)]
    assert sizes == sorted(sizes, reverse=True)
    assert {t for *_, t in merge([pf], 0).entries} == {t for *_, t in pf.entries}


def test_merge_retains_common_patterns(table, alpha):
    beta = analyze_file(DATA / "synth" / "beta.md", "beta", table)
    merged = merge([_pf(alpha), _pf(beta)], 1)
    kept = {t for *_, t in merged.entries}
    common = {
        alpha.store.get(ia).pattern.canonical_text
        for ia, _ in similarity.common_patterns(alpha, beta)
    }
    assert common <= kept
    assert merged.arch == "alpha,beta"


def test_merge_roundtrips_through_render(alpha):
    pf = _pf(alpha)
    merged = merge([pf], 0)
    again = read_pattern_file(render_pattern_file(merged))
    assert again.entries == merged.entries
    assert again.iterators == merged.iterators
