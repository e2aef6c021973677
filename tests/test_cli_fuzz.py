"""No input makes the CLI print a traceback.

Each example writes two small MD files drawn from a hostile alphabet, a
manifest, maybe a code table, and pattern and parameter archives with
mutated bytes, then runs every command on them in process. Each command must
return a status in {0, 1, 2, 3}, and a non-zero status must come with a
``mdpattern: `` line or an argparse usage line on stderr. One command may get
a stdout whose reader has gone; closing that stdout afterwards stands in for
the interpreter's flush at exit, which must not fail either.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from mdpattern.cli import main

#: Whole top-level forms: templates, iterators, includes and near misses.
MD_FORMS = [
    '(define_insn "add" [(set (match_operand:SI 0 "r" "=r")'
    ' (plus:SI (reg:SI 1) (const_int 2)))] "" "")',
    '(define_insn "any" [(set (reg:GPR 0) (any_op:GPR (reg:GPR 1) (reg:GPR 2)))] "" "")',
    '(define_expand "par" [(parallel [(set (reg 0) (neg:<size> (reg 1)))'
    ' (clobber (reg:CC 24))])] "" "")',
    '(define_split [(set (mem: (reg 0)) (unspec [(const_string "a%b")] 1))] "" [])',
    '(define_insn "none" "" "")',
    '(define_insn "flat" [7 (const_int 0) ()] "" "")',
    "(define_code_iterator any_op [plus minus])",
    "(define_mode_iterator GPR [SI DI])",
    '(define_mode_attr size [(SI "4") (DI "8")])',
    "(define_code_iterator)",
    "(define_constants [(X 1)])",
    '(include "inc.md")', '(include "b.md")', '(include "a.md")', '(include "nope.md")',
    "(include)", "(include 7)",
]
#: Tokens that break or bend a form; MD files are read as latin-1.
MD_TOKENS = [s.encode("utf-8") for s in [
    "(", ")", "[", "]", "{", "}", '"', "\\", ";", "/*", "*/", " ", "\n", "\r", "\f",
    "\x00", "%", ":", "$arg0", "set", "plus:SI", "(reg 1)", "-1", "1", "\u00b2",
    "\u0663", "\u2028"]] + [b"\x85", b"\xff"]

MANIFEST_LINES = [
    b"c = a.md no-includes", b"d = b.md heads=define_expand,define_split", b"e = inc.md",
    b"# a = b.md", b"", b"f = a.md  # x", b"\xc2\xb2 = a.md",
    b"a = b.md", b"g =", b"= a.md", b"h = a.md heads=", b"i = a.md bogus", b"j = nope.md",
    b"k = .", b"# caf\xff",
]
CODE_TABLE_LINES = [
    b"frob extra yes", b"set extra no", b"plus comm_arith no", b"minus bin_arith yes",
    b"any_op unary no", b"# set extra no", b"",
    b"plus bogus yes", b"plus unary", b"neg unary maybe", b"# \xff",
]
#: Bytes spliced into the archives: digits that are not ASCII, line breakers,
#: bad escapes, headers, holes and bytes that are not UTF-8.
ARCHIVE_PIECES = [s.encode("utf-8") for s in [
    "\u00b2", "\u0663", "\u2028", "\x85", "%", "%2", "%ZZ", "%C2", "%FF", " ", "\t", "\n",
    "\r", "#", "# arch: z\n", "# total_templates: x\n",
    "# iterator: (define_code_iterator q [plus])\n", "(", ")", "[", "$arg0", "$mode0", "$p=",
    "=", "0", "7", "define_insn"]] + [b"\xff", b"\xc2"]

#: Archives to mutate when `extract` fails on the drawn MD file.
FALLBACK_PATTERNS = (b"# arch: a\n# total_templates: 2\n"
                     b"# iterator: (define_code_iterator any_op [plus minus])\n"
                     b"0 2 1 [(set $arg0 $arg1)]\n"
                     b"1 3 1 [(set $arg0 (plus:$mode0 $arg1 $arg2))]\n")
FALLBACK_PARAMS = (b"0 define_insn mov $arg0=(reg:SI%200) $arg1=(reg:SI%201)\n"
                   b"1 define_insn add $arg0=(reg:SI%200) $mode0=SI"
                   b" $arg1=(reg:SI%201) $arg2=(const_int%202)\n")

FLAGS = [[], ["--no-includes"], ["--no-bin-arith"], ["--heads", "define_insn,define_expand"],
         ["--heads", ","], ["--heads", ""]]


def _spliced(data, splices):
    """`data` with each (position, bytes to delete, bytes to insert) applied."""
    for pos, delete, insert in splices:
        pos %= len(data) + 1
        data = data[:pos] + insert + data[pos + delete:]
    return data


def splices(pieces):
    """Edits for `_spliced`; often none, so that intact archives and MD files
    reach the layers behind the parser."""
    return st.just([]) | st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(0, 4),
                                            st.lists(st.sampled_from(pieces), min_size=1,
                                                     max_size=3).map(b"".join)),
                                  min_size=1, max_size=3)


md_file = st.builds(_spliced, st.lists(st.sampled_from(MD_FORMS), min_size=1, max_size=6)
                    .map(lambda forms: "\n".join(forms).encode()), splices(MD_TOKENS))
code_table = st.none() | st.lists(st.sampled_from(CODE_TABLE_LINES), min_size=1,
                                  max_size=3).map(b"\n".join)

COMMANDS = ["stats", "verify", "compare", "matrix", "extract", "recombine", "merge"]

VALID_MD = b"".join(s.encode() for s in MD_FORMS[:4] + MD_FORMS[6:9])


def _run(argv, broken_stdout):
    """(status, stderr) of one in-process command."""
    err = io.StringIO()
    stdout = io.StringIO()
    if broken_stdout:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w", encoding="utf-8")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            status = main(argv)
    finally:
        stdout.close()  # flushes what is left, as the interpreter does at exit
    return status, err.getvalue()


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(md_a=md_file, md_b=md_file,
       manifest_lines=st.lists(st.sampled_from(MANIFEST_LINES), max_size=2),
       table=code_table, flags=st.sampled_from(FLAGS),
       metric=st.sampled_from(["pattern", "expr", "coverage"]),
       pattern_splices=splices(ARCHIVE_PIECES), param_splices=splices(ARCHIVE_PIECES),
       broken=st.none() | st.sampled_from(COMMANDS))
# a parameter record whose id is a digit that int() rejects
@example(md_a=VALID_MD, md_b=VALID_MD, manifest_lines=[], table=None, flags=[],
         metric="pattern", pattern_splices=[],
         param_splices=[(0, 0, "\u00b2 define_insn x\n".encode())], broken=None)
# a report written into a pipe whose reader has closed
@example(md_a=VALID_MD, md_b=VALID_MD, manifest_lines=[], table=None, flags=[],
         metric="coverage", pattern_splices=[], param_splices=[], broken="matrix")
def test_no_input_escapes_as_a_traceback(md_a, md_b, manifest_lines, table, flags, metric,
                                         pattern_splices, param_splices, broken):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "a.md").write_bytes(md_a)
        (d / "b.md").write_bytes(md_b)
        (d / "inc.md").write_bytes(MD_FORMS[1].encode())
        manifest = d / "manifest.txt"
        manifest.write_bytes(b"\n".join([b"a = a.md", b"b = b.md", *manifest_lines]) + b"\n")
        env = {k: v for k, v in os.environ.items() if k != "MDPATTERN_CODE_TABLE"}
        if table is not None:
            env["MDPATTERN_CODE_TABLE"] = str(d / "codes.txt")
            (d / "codes.txt").write_bytes(table)
        opts = ["--manifest", str(manifest), *flags]
        out = d / "out"
        patterns, params = out / "a.patterns", out / "a.params"
        commands = {
            "stats": ["stats", "--count-subpatterns", *opts],
            "verify": ["verify", *opts],
            "compare": ["compare", "a", "b", "--expand-iterators", *opts],
            "matrix": ["matrix", "--metric", metric, "--expand-iterators", *opts],
            "extract": ["extract", "a", "--out-dir", str(out), *opts],
            "recombine": ["recombine", "--patterns", str(patterns), "--params", str(params)],
            "merge": ["merge", str(patterns), str(d / "fallback.patterns")],
        }
        (d / "fallback.patterns").write_bytes(FALLBACK_PATTERNS)
        with mock.patch.dict(os.environ, env, clear=True):
            for name in COMMANDS:
                if name == "recombine":  # splice the archives `extract` wrote
                    out.mkdir(exist_ok=True)
                    for path, fallback, edits in ((patterns, FALLBACK_PATTERNS, pattern_splices),
                                                  (params, FALLBACK_PARAMS, param_splices)):
                        data = path.read_bytes() if path.is_file() else fallback
                        path.write_bytes(_spliced(data, edits))
                status, err = _run(commands[name], broken == name)
                assert status in (0, 1, 2, 3), (name, status)
                if status:
                    assert any(line.startswith(("mdpattern: ", "usage: "))
                               for line in err.splitlines()), (name, err)
