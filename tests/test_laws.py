"""The tool's laws, checked on corpora of `conftest.random_corpus` whose
seeds hypothesis draws.  These corpora hold no iterators."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import random_corpus
from mdpattern import md_reader, pattern
from mdpattern.archive import merge, write_pattern_file
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
