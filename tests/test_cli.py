import gc
import json
import os
import subprocess
import sys

import pytest

from conftest import DATA, analyze_file, random_corpus
from mdpattern.cli import (EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VERIFY, main)
from mdpattern.sexpr import MAX_DEPTH

SYNTH = str(DATA / "synth" / "manifest.txt")
FIG2 = str(DATA / "fig2" / "manifest.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "--manifest", SYNTH)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["Arch", "Expr", "(E)", "Patterns"]
    alpha = next(l for l in lines if l.startswith("alpha"))
    assert alpha.split()[1] == "50"


def test_stats_json_matches_text(capsys):
    code, out, _ = run(capsys, "stats", "--manifest", SYNTH, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    rows = {r["arch"]: r for r in data["rows"]}
    assert rows["alpha"]["expressions"] == 50
    assert rows["alpha"]["average"] == round(50 / rows["alpha"]["patterns"], 2)
    code2, text_out, _ = run(capsys, "stats", "--manifest", SYNTH)
    for r in data["rows"]:
        row_line = next(l for l in text_out.splitlines() if l.startswith(r["arch"]))
        cols = row_line.split()
        assert int(cols[1]) == r["expressions"]
        assert int(cols[2]) == r["patterns"]
        assert float(cols[3]) == r["average"]


def test_stats_single_expression_fixture(tmp_path, capsys):
    (tmp_path / "one.md").write_text(
        '(define_insn "only" [(set (reg 0) (reg 1))] "" "")\n'
    )
    (tmp_path / "m.txt").write_text("one = one.md\n")
    code, out, _ = run(capsys, "stats", "--manifest", str(tmp_path / "m.txt"),
                       "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert (row["expressions"], row["patterns"], row["average"]) == (1, 1, 1.0)


def test_stats_toggles_change_counts(capsys):
    _, out_def, _ = run(capsys, "stats", "--manifest", SYNTH, "--format", "json")
    _, out_insn, _ = run(capsys, "stats", "--manifest", SYNTH, "--format", "json",
                         "--heads", "define_insn")
    _, out_noinc, _ = run(capsys, "stats", "--manifest", SYNTH, "--format", "json",
                          "--no-includes")
    by = lambda o: {r["arch"]: r["expressions"] for r in json.loads(o)["rows"]}
    assert by(out_def)["alpha"] == 50
    assert by(out_insn)["alpha"] == 45  # drops expand/split forms
    assert by(out_noinc)["alpha"] == 44  # drops the included file


def test_compare_self_is_100(capsys):
    code, out, _ = run(capsys, "compare", "alpha", "alpha", "--manifest", SYNTH,
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pattern_similarity_pct"] == 100.0
    assert data["expression_similarity_pct"] == 100.0
    assert data["coverage_a_to_b"]["pct"] == 100.0


def test_compare_json_is_the_library_report(capsys, table):
    # one schema: compare prints expression_similarity's dict and the two
    # coverage entries, in that order, with every float rounded to two places
    from mdpattern import similarity

    code, out, _ = run(capsys, "compare", "alpha", "beta", "--manifest", SYNTH,
                       "--format", "json")
    assert code == EXIT_OK
    a, b = (analyze_file(DATA / "synth" / ("%s.md" % n), n, table) for n in ("alpha", "beta"))
    rep = similarity.expression_similarity(a, b)
    (cov_ab, pct_ab), (cov_ba, pct_ba) = (similarity.target_coverage(a, b),
                                          similarity.target_coverage(b, a))
    assert rep["pattern_similarity_pct"] != round(rep["pattern_similarity_pct"], 2)
    expected = {k: round(v, 2) if isinstance(v, float) else v for k, v in rep.items()}
    expected["coverage_a_to_b"] = {"covered": cov_ab, "pct": round(pct_ab, 2)}
    expected["coverage_b_to_a"] = {"covered": cov_ba, "pct": round(pct_ba, 2)}
    assert list(json.loads(out).items()) == list(expected.items())


def test_compare_fig2_pair(capsys):
    code, out, _ = run(capsys, "compare", "mips", "arm", "--manifest", FIG2,
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["common_patterns"] == 1
    assert data["pattern_similarity_pct"] == 100.0


def test_matrix_pattern_and_coverage(capsys):
    code, out, _ = run(capsys, "matrix", "--manifest", SYNTH, "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["cells"]) == 1  # C(2,2)
    code, out, _ = run(capsys, "matrix", "--manifest", SYNTH, "--metric",
                       "coverage", "--format", "json")
    assert len(json.loads(out)["cells"]) == 2


def test_extract_recombine_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "extract", "alpha", "--manifest", SYNTH,
                       "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    patterns = tmp_path / "alpha.patterns"
    params = tmp_path / "alpha.params"
    assert patterns.is_file() and params.is_file()
    code, out, _ = run(capsys, "recombine", "--patterns", str(patterns),
                       "--params", str(params))
    assert code == EXIT_OK
    assert out.count("(define_") == 50


def test_split_is_extract_alias(tmp_path, capsys):
    code, _, _ = run(capsys, "split", "beta", "--manifest", SYNTH,
                     "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "beta.patterns").is_file()


def test_merge_command(tmp_path, capsys):
    run(capsys, "extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    run(capsys, "extract", "beta", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    out_file = tmp_path / "merged.patterns"
    code, _, _ = run(capsys, "merge", str(tmp_path / "alpha.patterns"),
                     str(tmp_path / "beta.patterns"), "--min-count", "1",
                     "--out", str(out_file))
    assert code == EXIT_OK
    text = out_file.read_text()
    assert text.startswith("# arch: alpha,beta")


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--manifest", SYNTH)
    assert code == EXIT_OK
    assert out.count("0 missing / 0 extra / 0 changed") == 2


def test_verify_failure_exit_code(tmp_path, capsys):
    # a corrupted param record must surface as a changed expression
    run(capsys, "extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    params = tmp_path / "alpha.params"
    text = params.read_text().replace("register_operand", "corrupt", 1)
    params.write_text(text)
    # recombine still succeeds; verify uses in-memory archives so exercise
    # the changed path through the library here instead
    from mdpattern import archive, md_reader, sexpr

    forms = md_reader.load_md_file(str(DATA / "synth" / "alpha.md"))
    store, bindings, _ = archive.read_archives(
        (tmp_path / "alpha.patterns").read_text(), text
    )
    regen = archive.recombine(store, bindings)
    orig = [archive.template_tokens(sexpr.serialize(md_reader.extract_template_vector(f)))
            for f in forms if f.kind is md_reader.FormKind.CONSIDERED]
    got = [archive.template_tokens(r.template_text) for r in regen]
    assert sum(1 for o, g in zip(orig, got) if o != g) == 1


def test_recombine_rejects_duplicate_pattern_id(tmp_path, capsys):
    patterns = tmp_path / "x.patterns"
    patterns.write_text("# arch: x\n# total_templates: 2\n"
                        "0 2 1 (set $arg0 $arg1)\n"
                        "0 3 1 (set $arg0 (plus:$mode0 $arg1 $arg2))\n")
    params = tmp_path / "x.params"
    params.write_text("0 define_insn a $arg0=(reg:SI 0) $arg1=(reg:SI 1)\n")
    code, out, err = run(capsys, "recombine", "--patterns", str(patterns),
                         "--params", str(params))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("mdpattern: %s:4: malformed entry" % patterns)


@pytest.mark.parametrize("third", [
    "0 2 1 (set $arg0",  # unbalanced
    "0 2 1 (set () $arg0)",  # a list without a head symbol
    "0 2 1 (set   $arg0  $arg1 )",  # line 2's text but for spacing, which is not canonical
])
def test_archive_reads_report_the_entry_line(tmp_path, capsys, third):
    patterns = tmp_path / "x.patterns"
    patterns.write_text("# arch: x\n1 2 1 (set $arg0 $arg1)\n%s\n"
                        "# total_templates: 2\n" % third)
    params = tmp_path / "x.params"
    params.write_text("1 define_insn a $arg0=(reg:SI%200) $arg1=(reg:SI%201)\n")
    for argv in (("recombine", "--patterns", str(patterns), "--params", str(params)),
                 ("merge", str(patterns))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("mdpattern: %s:3: malformed entry" % patterns)


def test_a_height_that_disagrees_with_the_text_is_a_parse_error(tmp_path, capsys):
    # (set $arg0 $arg1) is 2 high; a height of 9 would order it after taller
    # patterns in the archive and in a merge
    patterns = tmp_path / "x.patterns"
    patterns.write_text("# arch: x\n# total_templates: 1\n0 9 1 (set $arg0 $arg1)\n")
    params = tmp_path / "x.params"
    params.write_text("0 define_insn a $arg0=(reg:SI%200) $arg1=(reg:SI%201)\n")
    for argv in (("recombine", "--patterns", str(patterns), "--params", str(params)),
                 ("merge", str(patterns))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("mdpattern: %s:3: malformed entry" % patterns)


def test_a_record_id_that_is_not_decimal_is_a_parse_error(tmp_path, capsys):
    run(capsys, "extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    params = tmp_path / "bad.params"
    params.write_text("\u00b2 define_insn x\n", encoding="utf-8")
    code, out, err = run(capsys, "recombine", "--patterns", str(tmp_path / "alpha.patterns"),
                         "--params", str(params))
    assert (code, out, err) == (EXIT_PARSE, "",
                                "mdpattern: %s:1: malformed entry: '\u00b2 define_insn x'\n"
                                % params)


def test_archive_errors_name_their_file(tmp_path, capsys):
    run(capsys, "extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    good, params = tmp_path / "alpha.patterns", tmp_path / "alpha.params"
    bad = tmp_path / "bad.patterns"
    for text, msg in [("# arch: x\n# total_templates: 1\n0 2 1 (set $arg0\n",
                       ":3: malformed entry: '0 2 1 (set $arg0'"),
                      ("# arch: x\n", ": missing arch/total_templates header")]:
        bad.write_text(text)
        code, out, err = run(capsys, "merge", str(good), str(bad))
        assert (code, out, err) == (EXIT_PARSE, "", "mdpattern: %s%s\n" % (bad, msg))
    records = params.read_text().splitlines()
    params.write_text("\n".join(records + ["9999 define_insn ghost"]) + "\n")
    code, out, err = run(capsys, "recombine", "--patterns", str(good), "--params", str(params))
    assert (code, out, err) == (EXIT_PARSE, "", "mdpattern: %s:%d: parameter record references "
                                "unknown pattern id 9999\n" % (params, len(records) + 1))


def test_stats_stray_closing_brace_is_parse_error(tmp_path, capsys):
    (tmp_path / "bad.md").write_text('(define_insn "x" [(set (reg 0) (reg 1))] "" "")\n}\n')
    (tmp_path / "m.txt").write_text("bad = bad.md\n")
    code, _, err = run(capsys, "stats", "--manifest", str(tmp_path / "m.txt"))
    assert code == EXIT_PARSE
    assert "bad.md:2:1: unmatched '}'" in err


def _manifest_with_empty_archs(tmp_path, names):
    # arch `a` has one template; every other arch has none
    for name in "abc":
        (tmp_path / ("%s.md" % name)).write_text(
            '(define_insn "x" [(set (reg 0) (reg 1))] "" "")\n' if name == "a"
            else "(define_constants [(X 1)])\n")
    (tmp_path / "m.txt").write_text("".join("%s = %s.md\n" % (n, n) for n in names))
    return str(tmp_path / "m.txt")


@pytest.mark.parametrize("expand", [[], ["--expand-iterators"]], ids=["plain", "expand"])
@pytest.mark.parametrize("pair,message", [
    (("a", "b"), "b: target has no expressions"),
    (("b", "a"), "b: target has no expressions"),
    (("b", "c"), "b, c: no patterns on either side"),
])
def test_compare_with_an_empty_arch_is_a_parse_error(tmp_path, capsys, expand, pair, message):
    manifest = _manifest_with_empty_archs(tmp_path, "abc")
    code, out, err = run(capsys, "compare", *pair, "--manifest", manifest, *expand)
    assert (code, out, err) == (EXIT_PARSE, "", "mdpattern: %s\n" % message)


@pytest.mark.parametrize("metric,names,message", [
    ("coverage", "ab", "b: target has no expressions"),
    ("pattern", "bc", "b, c: no patterns on either side"),
    ("expr", "abc", "b, c: no patterns on either side"),
])
def test_matrix_with_empty_archs_is_a_parse_error(tmp_path, capsys, metric, names, message):
    manifest = _manifest_with_empty_archs(tmp_path, names)
    code, out, err = run(capsys, "matrix", "--metric", metric, "--manifest", manifest)
    assert (code, out, err) == (EXIT_PARSE, "", "mdpattern: %s\n" % message)
    # one empty arch beside a non-empty one has defined symmetric metrics
    code, _, _ = run(capsys, "matrix", "--metric", metric, "--manifest",
                     _manifest_with_empty_archs(tmp_path, "ac"))
    assert code == (EXIT_PARSE if metric == "coverage" else EXIT_OK)


def _one_form_manifest(tmp_path, source):
    (tmp_path / "one.md").write_text(source)
    (tmp_path / "m.txt").write_text("one = one.md\n")
    return str(tmp_path / "m.txt")


def _nested_template(levels):
    """A define_insn that nests `levels` deep, the form itself counting as 1."""
    negs = levels - 4  # the form, its vector, set and reg
    return ('(define_insn "deep"\n  [(set (reg:SI 0) %s(reg:SI 1)%s)]\n  "" "")\n'
            % ("(neg:SI " * negs, ")" * negs))


def _nested_iterator(levels):
    return "(define_code_iterator deep [plus %s%s])\n" % ("(minus " * (levels - 2),
                                                          ")" * (levels - 2))


def _nested_ignored(levels):
    return '(define_attr "deep" "" %s1%s)\n' % ("(if_then_else " * (levels - 1),
                                                  ")" * (levels - 1))


@pytest.mark.parametrize("source", [
    _nested_template(1000),
    _nested_template(50000),
    # the bound leaves room for the tree walks, three stack frames per level
    _nested_template(MAX_DEPTH + 1),
    # an iterator form is printed whole into the pattern archive
    _nested_iterator(MAX_DEPTH + 1),
    _nested_ignored(MAX_DEPTH + 1),
], ids=["template-1000", "template-50000", "template-walks", "iterator-printer", "ignored"])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, source):
    manifest = _one_form_manifest(tmp_path, ";; too deep\n" + source)
    for command in ("stats", "verify"):
        code, out, err = run(capsys, command, "--manifest", manifest)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "mdpattern: one: %s:2:1: nesting too deep\n" % (tmp_path / "one.md")


def test_nesting_100_deep_is_analyzed(tmp_path, capsys):
    manifest = _one_form_manifest(tmp_path, _nested_template(100))
    code, out, _ = run(capsys, "verify", "--manifest", manifest)
    assert (code, out) == (EXIT_OK, "one: 0 missing / 0 extra / 0 changed\n")


@pytest.mark.parametrize("nested", [_nested_template, _nested_iterator, _nested_ignored],
                         ids=["template", "iterator", "ignored"])
def test_nesting_at_the_bound_is_analyzed(tmp_path, capsys, nested):
    manifest = _one_form_manifest(tmp_path, nested(MAX_DEPTH))
    code, out, _ = run(capsys, "verify", "--manifest", manifest)
    assert (code, out) == (EXIT_OK, "one: 0 missing / 0 extra / 0 changed\n")
    code, _, _ = run(capsys, "extract", "one", "--manifest", manifest,
                     "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "merge", str(tmp_path / "one.patterns"))
    assert code == EXIT_OK


def _include_chain(tmp_path, files):
    """A manifest whose root file 0.md includes 1.md, which includes 2.md,
    and so on: `files` files in all, the last holding one template."""
    for i in range(files - 1):
        (tmp_path / ("%d.md" % i)).write_text(';; link %d\n  (include "%d.md")\n' % (i, i + 1))
    (tmp_path / ("%d.md" % (files - 1))).write_text(_nested_template(5))
    (tmp_path / "m.txt").write_text("chain = 0.md\n")
    return str(tmp_path / "m.txt")


def test_include_chain_at_the_bound_is_read(tmp_path, capsys):
    code, out, _ = run(capsys, "stats", "--manifest", _include_chain(tmp_path, MAX_DEPTH),
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["expressions"] == 1


def test_include_chain_past_the_bound_is_a_parse_error(tmp_path, capsys):
    manifest = _include_chain(tmp_path, MAX_DEPTH + 1)
    code, out, err = run(capsys, "stats", "--manifest", manifest)
    assert (code, out) == (EXIT_PARSE, "")
    # the include form that would open file MAX_DEPTH + 1
    last = tmp_path / ("%d.md" % (MAX_DEPTH - 1))
    assert err == "mdpattern: chain: %s:2:3: nesting too deep\n" % last


def test_empty_mode_keeps_its_colon(tmp_path, capsys):
    manifest = _one_form_manifest(
        tmp_path, '(define_insn "x"\n  [(set (reg: 0)\n        (plus: (reg:SI 1) (reg:SI 2)))]\n'
                  '  "" "")\n')
    code, _, _ = run(capsys, "extract", "one", "--manifest", manifest,
                     "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "recombine", "--patterns", str(tmp_path / "one.patterns"),
                       "--params", str(tmp_path / "one.params"))
    assert code == EXIT_OK
    assert "\n  [(set (reg: 0) (plus: (reg:SI 1) (reg:SI 2)))]\n" in out
    code, out, _ = run(capsys, "verify", "--manifest", manifest)
    assert (code, out) == (EXIT_OK, "one: 0 missing / 0 extra / 0 changed\n")


@pytest.mark.parametrize("include,missing", [
    ('(include "nope.md")', "{dir}/nope.md"),
    ("(include)", "<missing path argument>"),
])
def test_include_errors_name_the_include_form(tmp_path, capsys, include, missing):
    md = tmp_path / "x.md"
    md.write_text('(define_insn "a" [(set b c)] "" "")\n  %s\n' % include)
    manifest = tmp_path / "m.txt"
    manifest.write_text("x = x.md\n")
    code, out, err = run(capsys, "stats", "--manifest", str(manifest))
    assert (code, out) == (EXIT_PARSE, "")
    missing = missing.format(dir=tmp_path)
    assert err == "mdpattern: x: %s:2:3: included file not found: %s\n" % (md, missing)


def test_include_cycle_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "c.md").write_text('(include "b.md")\n')
    (tmp_path / "b.md").write_text(';; b\n  (include "c.md")\n')
    (tmp_path / "m.txt").write_text("c = c.md\n")
    code, out, err = run(capsys, "stats", "--manifest", str(tmp_path / "m.txt"))
    assert (code, out) == (EXIT_PARSE, "")
    c, b = tmp_path / "c.md", tmp_path / "b.md"
    assert err == "mdpattern: c: %s:2:3: include cycle: %s -> %s -> %s\n" % (b, c, b, c)


# a template string holding a character at which str.splitlines breaks
FORM_FEED_MD = '(define_insn "ff"\n  [(set (reg:SI 0) (unspec:SI [(const_string "a\fb")] 1))]\n  "" "")\n'


def test_form_feed_in_a_string_round_trips(tmp_path, capsys):
    manifest = _one_form_manifest(tmp_path, FORM_FEED_MD)
    code, out, _ = run(capsys, "verify", "--manifest", manifest)
    assert (code, out) == (EXIT_OK, "one: 0 missing / 0 extra / 0 changed\n")
    code, _, _ = run(capsys, "extract", "one", "--manifest", manifest,
                     "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "%0C" in (tmp_path / "one.params").read_text()
    code, out, _ = run(capsys, "recombine", "--patterns", str(tmp_path / "one.patterns"),
                       "--params", str(tmp_path / "one.params"))
    assert code == EXIT_OK
    assert '\n  [(set (reg:SI 0) (unspec:SI [(const_string "a\fb")] 1))]\n' in out


#: UTF-8 bytes, which the reader takes as two Latin-1 characters each.
NON_ASCII_TEMPLATE = b'[(set (match_operand:SI 0 "reg_\xc3\xb1" "") (reg:SI 1))]'


def test_recombine_writes_back_the_bytes_it_read(tmp_path, capsysbinary):
    source = b'(define_insn "a\xc3\xb1adir"\n  ' + NON_ASCII_TEMPLATE + b'\n  "" "")\n'
    (tmp_path / "one.md").write_bytes(source)
    (tmp_path / "m.txt").write_text("one = one.md\n")
    assert main(["extract", "one", "--manifest", str(tmp_path / "m.txt"),
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    params = tmp_path / "one.params"
    argv = ["recombine", "--patterns", str(tmp_path / "one.patterns"), "--params", str(params)]
    assert main(argv + ["--out", str(tmp_path / "r.md")]) == EXIT_OK
    capsysbinary.readouterr()
    assert main(argv) == EXIT_OK
    out = capsysbinary.readouterr().out
    assert out == (tmp_path / "r.md").read_bytes()
    assert out.startswith(source[:source.index(b"]") + 2])
    # only a hand-edited archive holds a character that no MD file byte reads as
    params.write_text(params.read_text("utf-8").replace("reg_\xc3\xb1", "reg_\u4e00"), "utf-8")
    assert main(argv) == EXIT_PARSE
    err = capsysbinary.readouterr().err.decode()
    assert err.startswith("mdpattern: ") and "Latin-1" in err


def test_verify_reports_an_unreadable_archive(tmp_path, capsys, monkeypatch):
    # an escaping that lets a form feed through breaks the parameter record
    from mdpattern import archive
    monkeypatch.setattr(archive, "escape_value",
                        lambda s: s.replace("%", "%25").replace(" ", "%20"))
    manifest = _one_form_manifest(tmp_path, FORM_FEED_MD)
    code, out, err = run(capsys, "verify", "--manifest", manifest)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("mdpattern: one: line 2: malformed entry")


# a lone CR inside a template string; reading must not turn it into LF
LONE_CR_MD = '(define_insn "cr"\n  [(set (match_operand:SI 0 "" "=r\r") (reg:SI 1))]\n  "" "")\n'


def test_lone_cr_in_a_string_round_trips(tmp_path, capsys):
    manifest = _one_form_manifest(tmp_path, LONE_CR_MD)
    code, _, _ = run(capsys, "extract", "one", "--manifest", manifest,
                     "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert '"=r%0D"' in (tmp_path / "one.params").read_text()
    out = tmp_path / "one.recombined"
    code, _, _ = run(capsys, "recombine", "--patterns", str(tmp_path / "one.patterns"),
                     "--params", str(tmp_path / "one.params"), "--out", str(out))
    assert code == EXIT_OK
    assert b'\n  [(set (match_operand:SI 0 "" "=r\r") (reg:SI 1))]\n' in out.read_bytes()


@pytest.mark.parametrize("table,message", [
    ("plus bogus yes\n", ":1: bad code-table line: 'plus bogus yes'"),
    (None, "No such file or directory"),
], ids=["malformed", "missing"])
def test_code_table_errors_are_parse_errors(tmp_path, capsys, monkeypatch, table, message):
    path = tmp_path / "codes.txt"
    if table is not None:
        path.write_text(table)
    monkeypatch.setenv("MDPATTERN_CODE_TABLE", str(path))
    for argv in (["stats"], ["extract", "alpha", "--out-dir", str(tmp_path)],
                 ["compare", "alpha", "beta"], ["matrix"], ["verify"]):
        code, out, err = run(capsys, *argv, "--manifest", SYNTH)
        assert (code, out) == (EXIT_PARSE, ""), argv
        assert err.startswith("mdpattern: code table: ") and message in err
        assert str(path) in err


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "json"],
    ["verify", "--out", "v.json"],
    ["extract", "alpha", "--out-dir", "d", "--format", "json"],
    ["compare", "alpha", "beta", "--count-subpatterns"],
    ["matrix", "--count-subpatterns"],
], ids=" ".join)
def test_options_a_command_ignores_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--manifest", SYNTH)
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code(capsys):
    assert run(capsys, "stats")[0] == EXIT_USAGE  # missing --manifest
    assert run(capsys, "nonsense")[0] == EXIT_USAGE


@pytest.mark.parametrize("heads", ["", ","], ids=["empty", "comma"])
@pytest.mark.parametrize("argv", [
    ["stats"], ["matrix"], ["verify"], ["compare", "alpha", "beta"],
    ["extract", "alpha", "--out-dir", "d"],
], ids=" ".join)
def test_an_empty_heads_list_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, heads):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--manifest", SYNTH, "--heads", heads)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "mdpattern: --heads needs a non-empty list\n"
    assert list(tmp_path.iterdir()) == []


def test_parse_failure_exit_code(tmp_path, capsys):
    (tmp_path / "bad.md").write_text("(define_insn \"x\" [(set a b] \"\" \"\")\n")
    (tmp_path / "m.txt").write_text("bad = bad.md\n")
    code, _, err = run(capsys, "stats", "--manifest", str(tmp_path / "m.txt"))
    assert code == EXIT_PARSE
    assert "bad" in err


def test_missing_arch_is_usage_error(capsys):
    assert run(capsys, "compare", "alpha", "nope", "--manifest", SYNTH)[0] == EXIT_USAGE


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "stats", "--manifest", SYNTH, "--format", "json",
                       "--out", str(target))
    assert code == EXIT_OK
    assert json.loads(target.read_text())["table"] == "stats"


def test_determinism(capsys, tmp_path):
    a = run(capsys, "matrix", "--manifest", SYNTH, "--metric", "coverage",
            "--format", "json")
    b = run(capsys, "matrix", "--manifest", SYNTH, "--metric", "coverage",
            "--format", "json")
    assert a == b


# -- files that cannot be read or written --------------------------------------

NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"


def test_manifest_not_utf8_is_a_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(b"alpha = %s  # caf\xff\n" % str(DATA / "synth" / "alpha.md").encode())
    code, out, err = run(capsys, "stats", "--manifest", str(manifest))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("mdpattern: %s: %s" % (manifest, NOT_UTF8))


def test_a_manifest_path_may_hold_a_hash(tmp_path, capsys):
    (tmp_path / "a#b.md").write_bytes((DATA / "synth" / "alpha.md").read_bytes())
    (tmp_path / "core-extra.md").write_bytes((DATA / "synth" / "core-extra.md").read_bytes())
    manifest = tmp_path / "m.txt"
    manifest.write_text("alpha = a#b.md  # a copy of synth's alpha\n")
    code, out, _ = run(capsys, "stats", "--manifest", str(manifest))
    assert code == EXIT_OK
    assert next(l for l in out.splitlines() if l.startswith("alpha")).split()[1] == "50"


@pytest.mark.parametrize("line,message", [
    ("alpha alpha.md", "expected 'name = path'"),
    ("alpha =", "expected 'name = path'"),
    ("alpha = alpha.md\nalpha = beta.md", "duplicate architecture 'alpha'"),
    ("alpha = alpha.md heads=", "empty heads= list"),
    ("alpha = alpha.md nope", "unknown flag 'nope'"),
], ids=["no-equals", "no-path", "duplicate", "empty-heads", "unknown-flag"])
def test_malformed_manifest_names_its_file_and_line(tmp_path, capsys, line, message):
    manifest = tmp_path / "bad.txt"
    manifest.write_text("# one arch\n" + line + "\n")
    code, out, err = run(capsys, "stats", "--manifest", str(manifest))
    assert (code, out) == (EXIT_USAGE, "")
    lineno = line.count("\n") + 2
    assert err == "mdpattern: %s:%d: %s\n" % (manifest, lineno, message)


def test_code_table_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch):
    table = tmp_path / "codes.txt"
    table.write_bytes(b"frob extra yes\nplus comm_arith no # \xff\n")
    monkeypatch.setenv("MDPATTERN_CODE_TABLE", str(table))
    code, out, err = run(capsys, "stats", "--manifest", SYNTH)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("mdpattern: code table: %s: %s" % (table, NOT_UTF8))


def test_archives_not_utf8_are_parse_errors(tmp_path, capsys):
    run(capsys, "extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    patterns, params = tmp_path / "alpha.patterns", tmp_path / "alpha.params"
    bad = tmp_path / "bad"
    bad.write_bytes(patterns.read_bytes().replace(b"$arg0", b"$arg0\xff", 1))
    for argv in (("recombine", "--patterns", str(bad), "--params", str(params)),
                 ("recombine", "--patterns", str(patterns), "--params", str(bad)),
                 ("merge", str(patterns), str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, ""), argv
        assert err.startswith("mdpattern: %s: %s" % (bad, NOT_UTF8)), argv


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    run(capsys, "extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path))
    patterns, params = str(tmp_path / "alpha.patterns"), str(tmp_path / "alpha.params")
    target = tmp_path / "no" / "such" / "x.out"
    for argv in (["stats", "--manifest", SYNTH],
                 ["compare", "alpha", "beta", "--manifest", SYNTH],
                 ["matrix", "--manifest", SYNTH],
                 ["recombine", "--patterns", patterns, "--params", params],
                 ["merge", patterns]):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == "mdpattern: %s: No such file or directory\n" % target, argv
    code, out, err = run(capsys, "stats", "--manifest", SYNTH, "--out", str(tmp_path))
    assert (code, out, err) == (EXIT_USAGE, "", "mdpattern: %s: Is a directory\n" % tmp_path)


def test_extract_into_a_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "F"
    target.write_text("")
    for out_dir, reason in ((target, "File exists"), (target / "sub", "Not a directory")):
        code, out, err = run(capsys, "extract", "alpha", "--manifest", SYNTH,
                             "--out-dir", str(out_dir))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "mdpattern: %s: %s\n" % (out_dir, reason)
    assert target.read_text() == ""


# a write to stdout that fails ends the command with a message, like an
# unwritable --out; the interpreter's flush at exit then finds nothing to fail

def _stdout_commands(tmp_path):
    assert main(["extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path)]) == 0
    patterns, params = str(tmp_path / "alpha.patterns"), str(tmp_path / "alpha.params")
    return [["--help"],
            ["stats", "--help"],
            ["stats", "--manifest", SYNTH],
            ["matrix", "--manifest", SYNTH],
            ["verify", "--manifest", SYNTH],
            ["extract", "alpha", "--manifest", SYNTH, "--out-dir", str(tmp_path)],
            ["recombine", "--patterns", patterns, "--params", params],
            ["merge", patterns]]


def _run_with_stdout(stdout, argv):
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "mdpattern", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True)
    return proc.returncode, proc.stderr


def test_a_closed_pipe_on_stdout_is_a_usage_error(tmp_path, capsys):
    for argv in _stdout_commands(tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = _run_with_stdout(write_end, argv)
        finally:
            os.close(write_end)
        assert result == (EXIT_USAGE, "mdpattern: <stdout>: Broken pipe\n"), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_is_a_usage_error(tmp_path, capsys):
    for argv in _stdout_commands(tmp_path)[:6]:
        with open("/dev/full", "w") as full:
            result = _run_with_stdout(full, argv)
        assert result == (EXIT_USAGE, "mdpattern: <stdout>: No space left on device\n"), argv


# -- the cyclic collector ----------------------------------------------------------


@pytest.mark.parametrize("argv,status", [
    (["stats", "--manifest", SYNTH], EXIT_OK),
    (["compare", "alpha", "nope", "--manifest", SYNTH], EXIT_USAGE),  # mdpattern.Error
    (["stats", "--no-such-flag"], EXIT_USAGE),  # argparse
], ids=["returns", "cli-error", "argparse"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_state(capsys, monkeypatch, argv, status, enabled):
    from mdpattern import md_reader

    seen = []
    load = md_reader.load_md_file
    monkeypatch.setattr(md_reader, "load_md_file",
                        lambda *a: seen.append(gc.isenabled()) or load(*a))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, *argv)[0] == status
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False, False] if status == EXIT_OK else [])


def _cyclic_garbage(capsys, manifest):
    """Objects that `gc.collect` finds unreachable after one `stats`."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, "stats", "--manifest", manifest)[0] == EXIT_OK
        return gc.collect()
    finally:
        if was:
            gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path, capsys):
    source = random_corpus(6, max_exprs=300)
    assert source.count("(define_insn") >= 200
    big = _one_form_manifest(tmp_path, source)
    _cyclic_garbage(capsys, SYNTH)  # imports, caches
    assert _cyclic_garbage(capsys, big) == _cyclic_garbage(capsys, SYNTH)
