import os

import pytest
from hypothesis import given, strategies as st

from mdpattern.manifest import ManifestError, parse_manifest

MANIFEST = os.path.join(os.sep, "corpus", "manifest.txt")


def _resolved(path):
    return os.path.normpath(os.path.join(os.path.dirname(MANIFEST), path))


#: A name or path holding '#' anywhere but at its start, where it would
#: start a comment.
_WORDS = st.text(alphabet="ab#_.-", min_size=1, max_size=8).filter(lambda w: w[0] != "#")
_PATHS = st.lists(_WORDS, min_size=1, max_size=3).map("/".join)
_COMMENTS = st.tuples(st.sampled_from([" ", "  ", "\t"]), st.text(alphabet="ab #=\t", max_size=6))


@given(st.lists(st.tuples(_WORDS, st.sampled_from(["=", " = ", "\t= "]), _PATHS,
                          st.none() | _COMMENTS),
                min_size=1, max_size=4, unique_by=lambda line: line[0]))
def test_names_and_paths_may_hold_a_hash(lines):
    text = ""
    for name, equals, path, comment in lines:
        text += name + equals + path
        if comment is not None:
            space, note = comment
            text += space + "#" + note
        text += "\n"
    entries = parse_manifest(text, MANIFEST)
    assert [(e.name, e.path) for e in entries] == [
        (name, _resolved(path)) for name, _, path, _ in lines]


def test_a_hash_after_whitespace_starts_a_comment():
    text = ("# a whole line\n"
            "  # an indented one\n"
            "arm = a#b.md  # note\n"
            "mips = c.md\t#note no-includes\n"
            "sparc=d.md no-includes # heads=nope\n")
    entries = parse_manifest(text, MANIFEST)
    assert [(e.name, e.path, e.resolve_includes) for e in entries] == [
        ("arm", _resolved("a#b.md"), True), ("mips", _resolved("c.md"), True),
        ("sparc", _resolved("d.md"), False)]


def test_a_path_after_a_hash_is_a_comment():
    with pytest.raises(ManifestError, match="manifest.txt:1: expected 'name = path'"):
        parse_manifest("arm = #a.md\n", MANIFEST)
