"""The tool's laws, checked on corpora of `conftest.random_corpus` whose
seeds hypothesis draws.  These corpora hold no iterators."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import random_corpus
from mdpattern import md_reader, pattern
from mdpattern.archive import merge, verify_roundtrip, write_pattern_file
from mdpattern.cli import main

SEEDS = st.integers(0, 10**6)


def _corpus(seed):
    return random_corpus(seed, max_exprs=30, max_depth=5)


def _entries(analysis):
    """The entry lines of an analysis's pattern file, and its template total:
    what `merge` adds up."""
    lines = write_pattern_file(analysis).splitlines()
    return [line for line in lines if not line.startswith("#")], analysis.expr_count


@settings(max_examples=100, deadline=None)
@given(st.lists(SEEDS, min_size=3, max_size=3), st.integers(0, 3))
def test_merge_is_commutative_and_associative(table, seeds, min_count):
    a, b, c = (pattern.analyze(md_reader.parse_md(_corpus(seed)), table, "r%d" % seed)
               for seed in seeds)
    assert _entries(merge([a, b], min_count)) == _entries(merge([b, a], min_count))
    merged = _entries(merge([a, b, c], min_count))
    assert _entries(merge([merge([a, b], 0), c], min_count)) == merged
    assert _entries(merge([a, merge([b, c], 0)], min_count)) == merged
    assert _entries(merge([c, a, b], min_count)) == merged


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_extract_recombine_extract_gives_the_same_archives(seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "r.md").write_text(_corpus(seed), encoding="latin-1")
        (tmp / "m1.txt").write_text("r = r.md\n")
        (tmp / "m2.txt").write_text("r = again.md\n")
        assert main(["extract", "r", "--manifest", str(tmp / "m1.txt"),
                     "--out-dir", str(tmp / "one")]) == 0
        assert main(["recombine", "--patterns", str(tmp / "one" / "r.patterns"),
                     "--params", str(tmp / "one" / "r.params"),
                     "--out", str(tmp / "again.md")]) == 0
        assert main(["extract", "r", "--manifest", str(tmp / "m2.txt"),
                     "--out-dir", str(tmp / "two")]) == 0
        for name in ("r.patterns", "r.params"):
            assert (tmp / "two" / name).read_bytes() == (tmp / "one" / name).read_bytes()


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_verify_finds_no_difference(table, seed):
    forms = md_reader.parse_md(_corpus(seed))
    assert verify_roundtrip(pattern.analyze(forms, table, "r"), forms) == (0, 0, 0)


def _printed(tmp, argv, sources, aliases=()):
    """The JSON a command prints on a manifest that names each source by
    its key, and each (alias, key) pair's file again by the alias."""
    for name, text in sources.items():
        (tmp / (name + ".md")).write_text(text, encoding="latin-1")
    names = [(name, name) for name in sources] + list(aliases)
    (tmp / "m.txt").write_text("".join("%s = %s.md\n" % pair for pair in names))
    out = tmp / "out.json"
    assert main([*argv, "--manifest", str(tmp / "m.txt"), "--format", "json",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


@settings(max_examples=60, deadline=None)
@given(SEEDS, SEEDS)
def test_compare_is_total_on_itself_and_symmetric(seed_a, seed_b):
    sources = {"a": _corpus(seed_a), "b": _corpus(seed_b)}
    with tempfile.TemporaryDirectory() as tmp:
        same = _printed(Path(tmp), ["compare", "a", "a2"], sources, [("a2", "a")])
        ab = _printed(Path(tmp), ["compare", "a", "b"], sources)
        ba = _printed(Path(tmp), ["compare", "b", "a"], sources)
    assert (same["pattern_similarity_pct"], same["expression_similarity_pct"]) == (100, 100)
    assert same["coverage_a_to_b"]["pct"] == same["coverage_b_to_a"]["pct"] == 100
    for key in ("pattern_similarity_pct", "expression_similarity_pct"):
        assert ab[key] == ba[key]


@settings(max_examples=60, deadline=None)
@given(st.lists(SEEDS, min_size=3, max_size=3))
def test_coverage_is_at_most_100_percent(seeds):
    sources = {"r%d" % i: _corpus(seed) for i, seed in enumerate(seeds)}
    with tempfile.TemporaryDirectory() as tmp:
        cells = _printed(Path(tmp), ["matrix", "--metric", "coverage"], sources)["cells"]
    assert len(cells) == 6
    assert all(0 <= cell["pct"] <= 100 for cell in cells)
