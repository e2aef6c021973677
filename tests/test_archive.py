from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA, analyze_file, random_corpus
from mdpattern import archive, md_reader, pattern, rtl, sexpr, similarity
from mdpattern.archive import (ArchiveError, BadHeader, DanglingPatternId, MalformedEntry,
                               UnfitRecord, escape_value, merge, read_archives,
                               read_pattern_file, recombine, unescape_value,
                               verify_roundtrip, write_param_file,
                               write_pattern_file)
from mdpattern.sexpr import MAX_DEPTH
from test_pattern import regex_height


@pytest.fixture(scope="module")
def alpha_forms():
    return md_reader.load_md_file(str(DATA / "synth" / "alpha.md"))


@pytest.fixture(scope="module")
def alpha(table, alpha_forms):
    return pattern.analyze(alpha_forms, table, "alpha")


def _skeletons(forms):
    """The skeleton of each considered form, as `recombine` writes it: its
    head, its name and the parser's rendering of its template vector."""
    return ['(%s %s\n  %s\n  ""\n  "")' % (f.head, sexpr.serialize(sexpr.StringLit(f.name)),
                                          sexpr.serialize(md_reader.extract_template_vector(f)))
            for f in forms if f.kind is md_reader.FormKind.CONSIDERED]


def _rows(analysis):
    """The (id, height, count, text) of each pattern, in archive order."""
    return [(e.pattern_id, e.pattern.height, e.count, e.pattern.canonical_text)
            for e in analysis.store.entries()]


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


def _read_as_field(s):
    """Whether the readers take `s` as an escaped field: only if escaping
    what `unescape_value` makes of it gives `s` back."""
    return escape_value(unescape_value(s)) == s


# unquote was the decoder before the readers took only the escapes the
# writer writes: a field reads as it read then, or it is rejected
@given(st.text(alphabet="%0123456789abcdefABCDEFz \x85\u00e9\u2028", max_size=40))
def test_unescape_matches_unquote(s):
    assert unescape_value(s) == unquote(s) or not _read_as_field(s)


@pytest.mark.parametrize("s", [
    "", "%", "%%", "%4", "%zz", "%4g", "%C2", "%C2%", "%E2%80%A8", "%e2%80%a8",
    "%E2%80", "%E2%80a", "%C3%A9%41", "%FF%FE", "%C2\x85", "a%20b%0A%25%2541",
])
def test_unescape_matches_unquote_on_malformed_input(s):
    assert unescape_value(s) == unquote(s) or not _read_as_field(s)


# unescape_value inverts exactly the escapes escape_value writes: any other
# '%' stays as it is, so a field that holds one does not read
@pytest.mark.parametrize("s,decoded,read", [
    ("%25%20%09%0A%C2%85%E2%80%A8", "% \t\n\x85\u2028", True),
    ("%2541", "%41", True),
    ("%41", "%41", False),
    ("%e9", "%e9", False),
    ("%C3%A9", "%C3%A9", False),
    ("%0a", "%0a", False),
    ("%", "%", False),
    ("%%25", "%%", False),
    ("%C2", "%C2", False),
    ("a\tb", "a\tb", False),
])
def test_unescape_inverts_exactly_the_escapes_the_writer_writes(s, decoded, read):
    assert unescape_value(s) == decoded
    assert _read_as_field(s) is read


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
    assert [c for _, _, c, _ in _rows(a)] == [3]
    assert len(write_param_file(a).splitlines()) == 3


def test_write_is_deterministic(alpha, table):
    again = analyze_file(DATA / "synth" / "alpha.md", "alpha", table)
    assert write_pattern_file(alpha) == write_pattern_file(again)
    assert write_param_file(alpha) == write_param_file(again)


# -- reading -----------------------------------------------------------------


def test_read_write_roundtrip(alpha):
    again = read_archives(write_pattern_file(alpha), write_param_file(alpha))
    store, bindings = again.store, again.bindings
    assert again.arch_name == "alpha"
    assert store.pattern_count == alpha.store.pattern_count
    assert again.expr_count == alpha.expr_count
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


def test_expr_count_is_the_templates_an_archive_sums_up(table, alpha):
    beta = analyze_file(DATA / "synth" / "beta.md", "beta", table)
    extracted = [alpha, beta] + [pattern.analyze(md_reader.parse_md(random_corpus(seed)),
                                                 table, "rnd") for seed in range(3)]
    for a in extracted:
        assert a.expr_count == sum(c for _, _, c, _ in _rows(a)) == len(a.bindings)
    # read back, it is the header, whatever the counts sum to
    assert read_pattern_file("# arch: x\n# total_templates: 7\n0 2 1 (set $arg0 $arg1)\n"
                             ).expr_count == 7
    read = [read_pattern_file(write_pattern_file(a)) for a in (alpha, beta)]
    assert [a.expr_count for a in read] == [alpha.expr_count, beta.expr_count]
    # merged, it is the inputs' sum, the templates of dropped patterns included
    merged = merge(read, 1)
    assert merged.expr_count == alpha.expr_count + beta.expr_count
    assert len(_rows(merged)) < len(_rows(merge(read, 0)))
    assert sum(c for _, _, c, _ in _rows(merged)) < merged.expr_count
    assert read_pattern_file(write_pattern_file(merged)).expr_count == merged.expr_count


@pytest.mark.parametrize("path", sorted((DATA / "golden").glob("*/*.patterns")),
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_golden_pattern_files_read_and_write_back(path):
    text = path.read_text(encoding="utf-8")
    assert write_pattern_file(read_pattern_file(text, str(path))) == text


#: The characters that escaping or record parsing treat specially.
_FIELD_CHARS = "%=$# \tab" + LINE_BREAKERS
_FIELDS = st.text(_FIELD_CHARS, max_size=8) | st.text(max_size=8)


_RECORDS = st.lists(st.tuples(st.sampled_from(sorted(md_reader.DEFAULT_CONSIDERED_HEADS)),
                              _FIELDS, st.lists(_FIELDS, max_size=2),
                              st.lists(_FIELDS, max_size=3)), max_size=4)


def _analysis(records, arch="x", iterators=(), expr_count=0):
    """An analysis with one binding per (kind, name, modes, args) record,
    each bound to a pattern that has exactly the record's holes."""
    store = pattern.PatternStore()
    bindings = []
    for kind, name, modes, args in records:
        text = "[%s]" % " ".join(["(c:$mode%d)" % i for i in range(len(modes))]
                                 + ["$arg%d" % i for i in range(len(args))])
        pid, _ = store.insert(pattern.RtlPattern(text, pattern.read_pattern_text(text)[1]))
        bindings.append(pattern.ParamBinding(
            pid, [("$mode%d" % i, v) for i, v in enumerate(modes)]
            + [("$arg%d" % i, v) for i, v in enumerate(args)], kind, name))
    return pattern.MdAnalysis(arch, store, bindings, list(iterators), expr_count=expr_count)


@given(_RECORDS)
def test_param_records_round_trip(records):
    a = _analysis(records)
    bindings = read_archives(write_pattern_file(a), write_param_file(a)).bindings
    assert ([(b.form_kind, b.form_name, b.assignments) for b in bindings]
            == [(b.form_kind, b.form_name, b.assignments) for b in a.bindings])


# an arch name is written unescaped, so it holds no line breaker; an iterator
# text is escaped, so it may be any string
@given(_RECORDS, st.text(st.characters(exclude_characters=LINE_BREAKERS)),
       st.lists(st.text() | st.text(_FIELD_CHARS), max_size=3), st.integers(0, 10**9))
@example([("define_insn", "", [], ["x"])], " x: y ", [" (a: b) "], 0)
def test_the_readers_invert_the_writers_exactly(records, arch, iterators, total):
    a = _analysis(records, arch, iterators, total)
    ptext, mtext = write_pattern_file(a), write_param_file(a)
    assert write_pattern_file(read_pattern_file(ptext)) == ptext
    assert write_param_file(read_archives(ptext, mtext)) == mtext


#: What the edits below insert and write over: ASCII and Arabic-Indic
#: digits, letters, the characters of escapes, fields, headers and pattern
#: texts, space, tab and a line breaker.
_EDIT_CHARS = "07\u0663%aA$=#[]() \t\x85"


def _one_character_edits(text):
    """Each text one insert, delete or replace away from `text`."""
    for i in range(len(text) + 1):
        yield from (text[:i] + c + text[i:] for c in _EDIT_CHARS)
        if i < len(text):
            yield text[:i] + text[i + 1:]
            yield from (text[:i] + c + text[i + 1:] for c in _EDIT_CHARS if c != text[i])


# the archive law: a reader either rejects a text or takes it exactly, so
# that writing what it read gives the text back, byte for byte
@settings(max_examples=12, deadline=None)
@given(_RECORDS, st.text("x% \t:", max_size=2), st.lists(st.text(_FIELD_CHARS, max_size=3),
                                                        max_size=2), st.integers(0, 12))
def test_each_one_character_edit_is_rejected_or_read_back(records, arch, iterators, total):
    a = _analysis(records, arch, iterators, total)
    ptext = write_pattern_file(a)
    for text, read, write in [(ptext, read_pattern_file, write_pattern_file),
                              (write_param_file(a), lambda t: read_archives(ptext, t),
                               write_param_file)]:
        assert write(read(text)) == text
        for edit in _one_character_edits(text):
            try:
                back = write(read(edit))
            except ArchiveError:
                continue
            assert back == edit, edit


def _line_edits(text):
    """Each text that moves, repeats or swaps a line of `text`, or ends one
    in another line breaker or in none."""
    lines = text.splitlines(True)
    for i, line in enumerate(lines):
        rest = lines[:i] + lines[i + 1:]
        for j in range(len(lines) + 1):
            yield "".join(rest[:j] + [line] + rest[j:])
            yield "".join(lines[:j] + [line] + lines[j:])
        for j in range(i + 1, len(lines)):
            yield "".join(lines[:i] + [lines[j]] + lines[i + 1:j] + [line] + lines[j + 1:])
        for end in ("", "\r\n", "\x85", "\n\n"):
            yield "".join(lines[:i] + [line[:-1] + end] + lines[i + 1:])


# the same law for a file's layout: its headers first, in the writer's
# order, then its entries in (height, id) order, each line ended by '\n'
@settings(max_examples=20, deadline=None)
@given(_RECORDS, st.lists(st.text(_FIELD_CHARS, max_size=3), max_size=2), st.integers(0, 12))
@example([("define_insn", "a", ["m"], ["x"]), ("define_insn", "b", [], ["y"])], ["(i)"], 2)
def test_each_line_moved_repeated_or_swapped_is_rejected_or_read_back(records, iterators,
                                                                      total):
    a = _analysis(records, "x", iterators, total)
    ptext = write_pattern_file(a)
    for text, read, write in [(ptext, read_pattern_file, write_pattern_file),
                              (write_param_file(a), lambda t: read_archives(ptext, t),
                               write_param_file)]:
        for edit in _line_edits(text):
            try:
                back = write(read(edit))
            except ArchiveError:
                continue
            assert back == edit, edit


def test_read_rejects_a_line_out_of_the_writers_place():
    entries = "1 1 1 (c:$mode0)\n0 2 1 (set $arg0 $arg1)\n"
    for text, lineno in [("# total_templates: 2\n# arch: x\n" + entries, 1),
                         ("# arch: x\n# total_templates: 2\n# arch: x\n" + entries, 3),
                         ("# arch: x\n# total_templates: 2\n" + entries + "# iterator: (i)\n", 3),
                         ("# arch: x\n# total_templates: 2\n" + "".join(
                             reversed(entries.splitlines(True))), 3),
                         ("# arch: x\r\n# total_templates: 2\n" + entries, 1),
                         ("# arch: x\n# total_templates: 2\n" + entries[:-1], 4)]:
        with pytest.raises(ArchiveError) as ei:
            read_pattern_file(text, "x.patterns")
        assert str(ei.value) == "x.patterns:%d: not the line the writer writes here" % lineno
    with pytest.raises(ArchiveError) as ei:
        read_archives(FIT_PATTERNS, "0 define_insn a $arg0=x $arg1=y", None, "x.params")
    assert str(ei.value) == "x.params:1: not the line the writer writes here"


def test_read_bad_header():
    with pytest.raises(BadHeader):
        read_pattern_file("0 2 1 (set $arg0 $arg1)\n")
    with pytest.raises(BadHeader):
        read_pattern_file("# arch: x\n# bogus: y\n")
    # a count is decimal digits only, as an id is: int() would take the rest
    for total in ("-3", "+3", "1_0", "1 0", "", "\u00b2"):
        with pytest.raises(BadHeader) as ei:
            read_pattern_file("# arch: x\n# total_templates: %s\n" % total, "x.patterns")
        assert str(ei.value) == "x.patterns:2: bad total_templates"
    # and a count has the writer's one spelling: no space around it, no
    # leading zero and no digit but ASCII
    for total in (" 07", "07 ", " 07 ", "07", "00", "\u0663"):
        with pytest.raises(BadHeader):
            read_pattern_file("# arch: x\n# total_templates: %s\n" % total)
    assert read_pattern_file("# arch: x\n# total_templates: 70\n").expr_count == 70


# each header is read as the writer writes it: '# ', the key, ': ', the value
@pytest.mark.parametrize("header", ["#", "#arch: x", "# arch:x", "#  arch: x", "# arch:",
                                    "# arch :x", "# Arch: x", "#\tarch: x",
                                    "# total_templates:3", "# iterator:(x)", "# iterator:"])
def test_read_rejects_a_header_not_written_as_the_writer_writes_it(header):
    with pytest.raises(BadHeader) as ei:
        read_pattern_file("# arch: x\n# total_templates: 1\n%s\n0 1 1 $arg0\n" % header,
                          "x.patterns")
    assert str(ei.value) == "x.patterns:3: unknown header line %r" % header


@pytest.mark.parametrize("line", ["", " ", "\t", " # arch: x", " 0 1 1 $arg0"])
def test_read_rejects_a_line_the_pattern_writer_never_writes(line):
    with pytest.raises(MalformedEntry) as ei:
        read_pattern_file("# arch: x\n# total_templates: 1\n%s\n0 1 1 $arg0\n" % line,
                          "x.patterns")
    assert str(ei.value) == "x.patterns:3: malformed entry: %r" % line


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
        read_pattern_file("# arch: x\n# total_templates: 1\n0 %d 1 %s\n"
                          % (regex_height(text), text))
    assert ei.value.lineno == 3


# '\u00b2' and '\u2460' are digits to str.isdigit but not decimal, and int()
# rejects them; '\u0663', the Arabic-Indic digit three, is decimal, but the
# writer writes ASCII digits only
@pytest.mark.parametrize("pid,ok", [("\u00b2", False), ("\u2460", False), ("\u0663", False),
                                    ("0", True)])
def test_ids_are_decimal_in_both_archives(pid, ok):
    ptext = "# arch: x\n# total_templates: 1\n%s 2 1 (set $arg0 $arg1)\n" % pid
    mtext = "%s define_insn a $arg0=x $arg1=y\n" % pid
    if ok:
        a = read_archives(ptext, mtext)
        assert [e.pattern_id for e in a.store.entries()] == [b.pattern_id for b in a.bindings] == [0]
        return
    with pytest.raises(MalformedEntry) as ei:
        read_pattern_file(ptext)
    assert ei.value.lineno == 3
    with pytest.raises(MalformedEntry) as ei:
        read_archives("# arch: x\n# total_templates: 1\n0 2 1 (set $arg0 $arg1)\n", mtext)
    assert ei.value.lineno == 1


def test_read_accepts_pattern_text_at_the_bound():
    text = "(set " * MAX_DEPTH + "$arg0" + ")" * MAX_DEPTH
    a = read_pattern_file("# arch: x\n# total_templates: 1\n0 %d 1 %s\n" % (MAX_DEPTH + 1, text))
    assert _rows(a) == [(0, MAX_DEPTH + 1, 1, text)]


class _CountedCalls:
    """A wrapper of `obj` that adds the name of each method called on it to
    `calls`."""

    def __init__(self, obj, calls):
        self.obj, self.calls = obj, calls

    def __getattr__(self, name):
        method = getattr(self.obj, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


# the regex reader that `read_pattern_text` replaced ran one pass per level
# on such a line, up to MAX_DEPTH passes
@pytest.mark.parametrize("text,ok", [
    ("(set " * MAX_DEPTH + "$arg0" + ")" * MAX_DEPTH, True),
    ("[" * MAX_DEPTH + "]" * MAX_DEPTH, True),
    ("(set " * (MAX_DEPTH + 1) + "$arg0" + ")" * (MAX_DEPTH + 1), False),
], ids=["lists-at-the-bound", "vectors-at-the-bound", "past-the-bound"])
def test_an_entry_line_is_read_with_one_token_scan(monkeypatch, text, ok):
    calls = []
    monkeypatch.setattr(pattern, "_TOKEN_RE", _CountedCalls(pattern._TOKEN_RE, calls))
    ptext = "# arch: x\n# total_templates: 1\n0 %d 1 %s\n" % (regex_height(text), text)
    if ok:
        assert [t for *_, t in _rows(read_pattern_file(ptext))] == [text]
    else:
        with pytest.raises(MalformedEntry):
            read_pattern_file(ptext)
    assert calls == ["findall"]


def test_read_dangling_pattern_id(alpha):
    ptext = write_pattern_file(alpha)
    with pytest.raises(DanglingPatternId):
        read_archives(ptext, "9999 define_insn ghost $arg0=x\n")


FIT_PATTERNS = "# arch: x\n# total_templates: 2\n1 1 1 (c:$mode0)\n0 2 1 (set $arg0 $arg1)\n"


@pytest.mark.parametrize("kind", ["define_insn", "a:b", "-", "x-1", "\u00b2", "a/*b"])
def test_read_accepts_a_symbol_as_form_kind(kind):
    a = read_archives(FIT_PATTERNS, "0 %s n $arg0=x $arg1=y\n" % kind)
    assert [b.form_kind for b in a.bindings] == [kind]


# a kind is written as the head of a recombined form, so it must read as a symbol
@pytest.mark.parametrize("kind", ["(weird", "", "12", "-3", "\u0663", "/*x", "a;b", 'a"b',
                                  "a]", "{b}", "a\tb"])
def test_read_rejects_a_form_kind_that_is_no_symbol(kind):
    record = "0 %s a $arg0=x $arg1=y" % kind
    with pytest.raises(MalformedEntry) as ei:
        read_archives(FIT_PATTERNS, "1 define_insn b $mode0=SI\n%s\n" % record, None, "x.params")
    assert str(ei.value) == "x.params:2: malformed entry: %r" % record


def test_read_rejects_a_record_that_does_not_fit_its_pattern():
    for fields, fault in [
            ("$arg0=x", "misses $arg1"),
            ("$arg1=y", "misses $arg0"),
            ("$arg0=x $arg1=y $arg9=z", "adds $arg9"),
            ("$arg0=x $arg1=y $mode0=SI", "adds $mode0"),
            ("$arg0=x $arg1=y junk=1", "adds junk"),
            ("$arg0=x $arg1=y $arg0=z", "repeats $arg0"),
            ("$arg0=x $arg0=z", "misses $arg1; repeats $arg0"),
            ("$arg0=x $arg2=y $arg2=z", "misses $arg1; adds $arg2; repeats $arg2"),
            ("", "misses $arg0 $arg1")]:
        record = " ".join(["0 define_insn a"] + fields.split())
        with pytest.raises(UnfitRecord) as ei:
            read_archives(FIT_PATTERNS, "1 define_insn b $mode0=SI\n%s\n" % record,
                          None, "x.params")
        assert str(ei.value) == ("x.params:2: parameter record does not fit pattern 0: %s"
                                 % fault), fields
        assert ei.value.lineno == 2


# the writer writes the holes in the pattern's order, so a record has one spelling
def test_read_rejects_the_holes_of_a_record_out_of_order():
    with pytest.raises(UnfitRecord) as ei:
        read_archives(FIT_PATTERNS, "0 define_insn a $arg1=y $arg0=x\n", None, "x.params")
    assert str(ei.value) == ("x.params:1: parameter record does not fit pattern 0: names its "
                             "holes in the order $arg1 $arg0, not $arg0 $arg1")


# the writer separates fields by one space and writes no other line, so
# anything else is malformed, not skipped or read past
@pytest.mark.parametrize("record", ["", " ", "#", "# a comment",
                                    "0 define_insn a $arg0=x  $arg1=y",
                                    "0 define_insn a  $arg0=x $arg1=y",
                                    "0 define_insn a $arg0=x $arg1=y ",
                                    " 0 define_insn a $arg0=x $arg1=y"])
def test_read_rejects_a_line_the_param_writer_never_writes(record):
    with pytest.raises(MalformedEntry) as ei:
        read_archives(FIT_PATTERNS, "1 define_insn b $mode0=SI\n%s\n" % record, None, "x.params")
    assert str(ei.value) == "x.params:2: malformed entry: %r" % record


@pytest.mark.parametrize("field", ["$arg1", "$arg1y", "=", "=y"])
def test_read_rejects_a_field_without_a_name_or_value(field):
    record = "0 define_insn a $arg0=x %s" % field
    with pytest.raises(MalformedEntry) as ei:
        read_archives(FIT_PATTERNS, record + "\n")
    assert ei.value.lineno == 1


# -- recombination -----------------------------------------------------------


def test_recombine_fig2_arm(fig2):
    _, arm = fig2
    form, = recombine(read_archives(write_pattern_file(arm), write_param_file(arm)))
    assert form.startswith('(define_expand "addsi3"\n  [')
    source, = _skeletons(md_reader.load_md_file(str(DATA / "fig2" / "arm.md")))
    assert form == source


def test_recombine_zero_bindings(alpha):
    assert recombine(read_archives(write_pattern_file(alpha), "")) == []


@settings(deadline=None)
@given(st.lists(st.text('"\\\t\n%q ', max_size=6), min_size=1, max_size=4))
def test_recombined_forms_extract_to_the_same_archives(table, names):
    # each name is written with the escapes of a string literal
    source = "".join('(define_insn %s [(set (reg:SI %d) (reg:SI 1))] "" "")\n'
                     % (sexpr.serialize(sexpr.StringLit(n)), i) for i, n in enumerate(names))
    a = pattern.analyze(md_reader.parse_md(source), table, "q")
    assert [b.form_name for b in a.bindings] == names
    archives = write_pattern_file(a), write_param_file(a)
    regen = "\n\n".join(recombine(read_archives(*archives)))
    again = pattern.analyze(md_reader.parse_md(regen), table, "q")
    assert (write_pattern_file(again), write_param_file(again)) == archives


def test_verify_full_corpus(alpha, alpha_forms):
    assert verify_roundtrip(alpha, alpha_forms) == (0, 0, 0)


def test_verify_finds_a_fault_in_the_rtl_tree(table, monkeypatch):
    # the tree drops the last operand of every plus; the walk and the
    # archives are consistent with that tree, the source is not
    build = rtl.build_template_tree

    def drop_last_plus_operand(e):
        # a changed copy: the parsed forms that verify compares with stay as read
        if isinstance(e, sexpr.SVector):
            return sexpr.SVector([drop_last_plus_operand(x) for x in e.items])
        if isinstance(e, sexpr.SList):
            items = [drop_last_plus_operand(x) for x in e.items]
            return sexpr.SList(items[:-1] if items[0].text.partition(":")[0] == "plus" else items)
        return e

    monkeypatch.setattr(rtl, "build_template_tree", lambda vec: drop_last_plus_operand(build(vec)))
    forms = md_reader.load_md_file(str(DATA / "synth" / "alpha.md"))
    missing, extra, changed = verify_roundtrip(pattern.analyze(forms, table, "alpha"), forms)
    assert (missing, extra) == (0, 0) and changed > 0
    monkeypatch.undo()
    assert verify_roundtrip(pattern.analyze(forms, table, "alpha"), forms) == (0, 0, 0)


def _edit_record(monkeypatch, index, edit):
    """Make the parameter archive that `verify_roundtrip` writes pass record
    `index` through `edit`."""
    write = archive.write_param_file

    def edited(analysis):
        records = write(analysis).splitlines(keepends=True)
        records[index] = edit(records[index])
        return "".join(records)

    monkeypatch.setattr(archive, "write_param_file", edited)


def test_verify_detects_corruption(alpha, alpha_forms, monkeypatch):
    assert "register_operand" in write_param_file(alpha).splitlines()[4]
    _edit_record(monkeypatch, 4, lambda r: r.replace("register_operand", "corrupted_operand"))
    assert verify_roundtrip(alpha, alpha_forms) == (0, 0, 1)


@pytest.mark.parametrize("edit", [
    lambda r: r.replace(" define_insn ", " define_expand ", 1),
    lambda r: r.replace(" define_insn ", " define_insn renamed_", 1),
    lambda r: r.replace(" define_insn ", " define_insn x%20", 1),
], ids=["kind", "name", "name-with-a-space"])
def test_verify_counts_a_form_renamed_or_rekinded_by_the_archives(alpha, alpha_forms,
                                                                  monkeypatch, edit):
    assert write_param_file(alpha).split(" ", 2)[1] == "define_insn"
    _edit_record(monkeypatch, 0, edit)
    assert verify_roundtrip(alpha, alpha_forms) == (0, 0, 1)


def test_verify_compares_string_literals_exactly(table, monkeypatch):
    source = ('(define_insn "a" [(set (match_operand:SI 0 "reg  op" "=r") (reg:SI 1))] "" "")\n'
              '(define_insn "b" [(set (reg:SI 2) (const_string "x y"))] "" "")\n')
    forms = md_reader.parse_md(source)
    a = pattern.analyze(forms, table, "ws")
    assert verify_roundtrip(a, forms) == (0, 0, 0)
    real = archive.recombine

    def collapse_inner_space(analysis):
        forms = real(analysis)
        forms[0] = forms[0].replace('"reg  op"', '"reg op"')
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


def test_merge_with_self_doubles_counts(alpha):
    merged = merge([alpha, alpha], 0)
    assert len(_rows(merged)) == len(_rows(alpha))
    by_text = {t: c for _, _, c, t in _rows(merged)}
    for _, _, count, text in _rows(alpha):
        assert by_text[text] == 2 * count
    assert merged.expr_count == 2 * alpha.expr_count


def test_merge_threshold_is_strict(alpha):
    top = max(c for _, _, c, _ in _rows(alpha))
    merged = merge([alpha], top)
    assert all(c > top for _, _, c, _ in _rows(merged))


def test_merge_monotone_in_min_count(alpha):
    sizes = [len(_rows(merge([alpha], k))) for k in range(0, 6)]
    assert sizes == sorted(sizes, reverse=True)
    assert {t for *_, t in _rows(merge([alpha], 0))} == {t for *_, t in _rows(alpha)}


def test_merge_retains_common_patterns(table, alpha):
    beta = analyze_file(DATA / "synth" / "beta.md", "beta", table)
    merged = merge([alpha, beta], 1)
    kept = {t for *_, t in _rows(merged)}
    common = {
        alpha.store.get(ia).pattern.canonical_text
        for ia, _ in similarity.common_patterns(alpha, beta)
    }
    assert common <= kept
    assert merged.arch_name == "alpha,beta"


def test_merge_roundtrips_through_render(alpha):
    merged = merge([alpha], 0)
    again = read_pattern_file(write_pattern_file(merged))
    assert _rows(again) == _rows(merged)
    assert again.iterators == merged.iterators
