"""Golden CLI outputs: every report the CLI prints must stay byte-identical.

The expected outputs live in ``tests/data/golden/<corpus>/``, and the
sha256 of every output of one benchmark repetition on the seed-1 corpora in
``tests/data/golden/bench-seed1.sha256``.  To record them again after an
intended output change, run::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "mdbench"))
import corpus as bench_corpus  # noqa: E402
import run as bench  # noqa: E402
from conftest import DATA  # noqa: E402
from mdpattern.cli import main  # noqa: E402

GOLDEN = DATA / "golden"
BENCH_DIGESTS = GOLDEN / "bench-seed1.sha256"
BENCH_WORKLOADS = ("iterators", "survey")
CORPORA = {"synth": ("alpha", "beta"), "fig2": ("mips", "arm"), "iter": ("iota", "kappa"),
           "lex": ("lex", "flat")}
#: Corpora whose expanded reports are also recorded with the two archs
#: swapped, from a manifest that lists them in the other order: greedy
#: matching is not symmetric.
SWAPPED = {"iter": "swapped.txt"}


def _report_cases(corpus):
    """(golden file name, argv) for every report that goes to stdout."""
    a, b = CORPORA[corpus]
    manifest = ["--manifest", str(DATA / corpus / "manifest.txt")]
    cases = []
    for fmt in ("text", "json"):
        for flag in ("", "--count-subpatterns", "--no-bin-arith"):
            name = "stats%s.%s" % (flag, fmt)
            cases.append((name, ["stats", "--format", fmt] + manifest + [flag]))
        for expand in ("", "--expand-iterators"):
            for metric in ("pattern", "expr", "coverage"):
                name = "matrix-%s%s.%s" % (metric, expand, fmt)
                cases.append((name, ["matrix", "--metric", metric, "--format", fmt]
                              + manifest + [expand]))
            name = "compare%s.%s" % (expand, fmt)
            cases.append((name, ["compare", a, b, "--format", fmt] + manifest + [expand]))
    if corpus in SWAPPED:
        swapped = ["--manifest", str(DATA / corpus / SWAPPED[corpus])]
        for fmt in ("text", "json"):
            for metric in ("pattern", "expr", "coverage"):
                name = "swapped-matrix-%s--expand-iterators.%s" % (metric, fmt)
                cases.append((name, ["matrix", "--metric", metric, "--format", fmt]
                              + swapped + ["--expand-iterators"]))
            name = "swapped-compare--expand-iterators.%s" % fmt
            cases.append((name, ["compare", b, a, "--format", fmt] + swapped
                          + ["--expand-iterators"]))
    cases.append(("verify.txt", ["verify"] + manifest))
    return [(name, [arg for arg in argv if arg]) for name, argv in cases]


def _archive_outputs(corpus, work):
    """Golden file name -> bytes written by extract, recombine and merge."""
    manifest = ["--manifest", str(DATA / corpus / "manifest.txt")]
    outputs = {}
    for arch in CORPORA[corpus]:
        assert main(["extract", arch, "--out-dir", str(work)] + manifest) == 0
        for ext in ("patterns", "params"):
            path = work / ("%s.%s" % (arch, ext))
            outputs[path.name] = path.read_bytes()
        out = work / ("%s.recombined" % arch)
        assert main(["recombine", "--patterns", str(work / ("%s.patterns" % arch)),
                     "--params", str(work / ("%s.params" % arch)),
                     "--out", str(out)]) == 0
        outputs[out.name] = out.read_bytes()
    out = work / "merge-min1.patterns"
    assert main(["merge", "--min-count", "1", "--out", str(out)]
                + [str(work / ("%s.patterns" % arch)) for arch in CORPORA[corpus]]) == 0
    outputs[out.name] = out.read_bytes()
    return outputs


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_cli_outputs_match_golden(corpus, capsys, tmp_path):
    for name, argv in _report_cases(corpus):
        code, out = _run(capsys, argv)
        assert code == 0, argv
        assert out.encode() == (GOLDEN / corpus / name).read_bytes(), name
    for name, data in _archive_outputs(corpus, tmp_path).items():
        assert data == (GOLDEN / corpus / name).read_bytes(), name


def _stdout_bytes(argv):
    """The bytes that `main(argv)` writes to stdout, which must exit 0."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    out.flush()
    return raw.getvalue()


def _bench_digests(work):
    """'<workload>/<output>' -> sha256 of each output of one benchmark
    repetition (`run.plan`) on the workload's seed-1 corpus, run in process:
    every report on stdout, and each archive that `extract` writes."""
    digests = {}
    for workload in BENCH_WORKLOADS:
        c = bench_corpus.generate(workload, 1)
        c.write(str(work / workload / "corpus"))
        archives = work / workload / "archives"
        for step in bench.plan(c, work / workload / "corpus" / "manifest.txt", archives):
            if step.group == "extract":
                _stdout_bytes(step.args)
                outputs = {name: (archives / name).read_bytes()
                           for name in (step.args[1] + ".patterns", step.args[1] + ".params")}
            else:
                outputs = {step.label: _stdout_bytes(step.args)}
            for name, data in outputs.items():
                digests["%s/%s" % (workload, name)] = hashlib.sha256(data).hexdigest()
    return digests


def _read_digests():
    lines = BENCH_DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_bench_outputs_match_recorded_digests(tmp_path):
    assert _bench_digests(tmp_path) == _read_digests()


def _record():
    import tempfile

    for corpus in sorted(CORPORA):
        target = GOLDEN / corpus
        target.mkdir(parents=True, exist_ok=True)
        for name, argv in _report_cases(corpus):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, argv
            (target / name).write_bytes(buf.getvalue().encode())
        with tempfile.TemporaryDirectory() as work, \
                contextlib.redirect_stdout(io.StringIO()):
            outputs = _archive_outputs(corpus, Path(work))
        for name, data in outputs.items():
            (target / name).write_bytes(data)
    with tempfile.TemporaryDirectory() as work:
        digests = _bench_digests(Path(work))
    BENCH_DIGESTS.write_text("".join("%s  %s\n" % (digests[name], name)
                                     for name in sorted(digests)), encoding="utf-8")


if __name__ == "__main__":
    _record()
