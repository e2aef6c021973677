import itertools
import os
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA, analyze_file, random_corpus
from mdpattern import archive, cli, md_reader, pattern, similarity
from mdpattern.manifest import load_manifest
from mdpattern.pattern import MdAnalysis, PatternStore, RtlPattern
from mdpattern.similarity import (BothEmpty, EmptyTarget, common_patterns,
                                  coverage_pct, expression_similarity,
                                  expression_similarity_pct,
                                  pattern_similarity_pct,
                                  similarity_matrix, target_coverage)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "mdbench"))
import corpus as bench_corpus  # noqa: E402


@pytest.fixture(scope="module")
def alpha(table):
    return analyze_file(DATA / "synth" / "alpha.md", "alpha", table)


@pytest.fixture(scope="module")
def beta(table):
    return analyze_file(DATA / "synth" / "beta.md", "beta", table)


# -- formula exactness against the published numbers ------------------------


def test_pattern_similarity_formula():
    assert pattern_similarity_pct(362, 187, 79) == pytest.approx(28.78, abs=0.01)
    assert pattern_similarity_pct(547, 64, 34) == pytest.approx(11.13, abs=0.01)


def test_expression_similarity_formula():
    assert expression_similarity_pct(0, 1486, 1581, 736) == pytest.approx(64.13, abs=0.01)


def test_coverage_formula():
    assert coverage_pct(88, 125) == pytest.approx(70.40, abs=0.01)
    assert coverage_pct(632, 2238) == pytest.approx(28.23, abs=0.01)


def test_empty_denominators():
    with pytest.raises(BothEmpty):
        pattern_similarity_pct(0, 0, 0)
    with pytest.raises(BothEmpty):
        expression_similarity_pct(0, 0, 0, 0)
    with pytest.raises(EmptyTarget):
        coverage_pct(0, 0)


# -- analysis-level operations ----------------------------------------------


def test_self_comparison_is_total(alpha):
    assert len(common_patterns(alpha, alpha)) == alpha.store.pattern_count
    rep = expression_similarity(alpha, alpha)
    assert rep["pattern_similarity_pct"] == pytest.approx(100.0)
    assert rep["expression_similarity_pct"] == pytest.approx(100.0)
    assert rep["covered_expr_a"] == rep["covered_expr_b"] == alpha.expr_count
    covered, pct = target_coverage(alpha, alpha)
    assert covered == alpha.expr_count and pct == pytest.approx(100.0)


def test_disjoint_corpora(table):
    a = pattern.analyze(md_reader.parse_md(
        '(define_insn "x" [(set (reg 0) (plus:SI (reg 1) (reg 2)))] "" "")'), table, "a")
    b = pattern.analyze(md_reader.parse_md(
        '(define_insn "y" [(unspec [(reg 0)] 1)] "" "")'), table, "b")
    assert common_patterns(a, b) == []
    rep = expression_similarity(a, b)
    assert rep["pattern_similarity_pct"] == 0.0
    assert rep["expression_similarity_pct"] == 0.0


def test_symmetry(alpha, beta):
    ab = expression_similarity(alpha, beta)
    ba = expression_similarity(beta, alpha)
    assert ab["pattern_similarity_pct"] == pytest.approx(ba["pattern_similarity_pct"])
    assert ab["expression_similarity_pct"] == pytest.approx(ba["expression_similarity_pct"])
    assert ((ab["covered_expr_a"], ab["covered_expr_b"])
            == (ba["covered_expr_b"], ba["covered_expr_a"]))


def test_bounds(alpha, beta):
    rep = expression_similarity(alpha, beta)
    assert 0 <= rep["pattern_similarity_pct"] <= 100
    assert 0 <= rep["expression_similarity_pct"] <= 100
    assert 0 <= rep["common_patterns"] <= min(alpha.store.pattern_count,
                                              beta.store.pattern_count)
    assert rep["covered_expr_a"] <= alpha.expr_count
    assert rep["covered_expr_b"] <= beta.expr_count


def test_coverage_not_symmetric(alpha, beta):
    cov_ab = target_coverage(alpha, beta)
    cov_ba = target_coverage(beta, alpha)
    # alpha covers beta far better than the reverse on this corpus
    assert cov_ab[1] != cov_ba[1]


def test_composition_identity(alpha, beta):
    rep = expression_similarity(alpha, beta)
    cov_b, _ = target_coverage(alpha, beta)  # expressions of beta covered
    cov_a, _ = target_coverage(beta, alpha)
    assert rep["covered_expr_a"] == cov_a
    assert rep["covered_expr_b"] == cov_b
    lhs = rep["expression_similarity_pct"]
    rhs = 100.0 * (cov_a + cov_b) / (alpha.expr_count + beta.expr_count)
    assert lhs == pytest.approx(rhs)


def test_covered_counts_match_membership_scan(table, alpha, beta):
    # independent per-expression scan: an expression is covered iff its own
    # pattern's canonical text appears in the other store
    common = {alpha.store.get(ia).pattern.canonical_text
              for ia, _ in common_patterns(alpha, beta)}
    scan = sum(
        1 for b in alpha.bindings
        if alpha.store.get(b.pattern_id).pattern.canonical_text in common
    )
    rep = expression_similarity(alpha, beta)
    assert rep["covered_expr_a"] == scan


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_symmetry_random(table, seed_a, seed_b):
    a = pattern.analyze(md_reader.parse_md(random_corpus(seed_a)), table, "a")
    b = pattern.analyze(md_reader.parse_md(random_corpus(seed_b)), table, "b")
    ab = expression_similarity(a, b)
    ba = expression_similarity(b, a)
    assert ab["pattern_similarity_pct"] == pytest.approx(ba["pattern_similarity_pct"])
    assert ab["expression_similarity_pct"] == pytest.approx(ba["expression_similarity_pct"])
    assert 0 <= ab["pattern_similarity_pct"] <= 100
    assert 0 <= ab["expression_similarity_pct"] <= 100


# -- matrices ----------------------------------------------------------------


def _analyses(table, n):
    return [pattern.analyze(md_reader.parse_md(random_corpus(seed)), table, "m%d" % seed)
            for seed in range(n)]


def test_matrix_cell_counts(table):
    fives = _analyses(table, 5)
    assert len(similarity_matrix(fives, "pattern")["cells"]) == 10
    assert len(similarity_matrix(fives, "expr")["cells"]) == 10
    assert len(similarity_matrix(fives, "coverage")["cells"]) == 20


def test_matrix_identical_corpora(table):
    a = pattern.analyze(md_reader.parse_md(random_corpus(1)), table, "a")
    b = pattern.analyze(md_reader.parse_md(random_corpus(1)), table, "b")
    rep = similarity_matrix([a, b], "pattern")
    assert len(rep["cells"]) == 1
    assert rep["cells"][0]["pct"] == pytest.approx(100.0)


def test_matrix_rejects_unknown_metric(table):
    with pytest.raises(ValueError):
        similarity_matrix(_analyses(table, 2), "nonsense")


# -- iterator expansion mode -------------------------------------------------


def test_expand_iterators_mode(table):
    # alpha spells logic ops via a code iterator, gamma spells them directly
    alpha_src = (
        "(define_code_iterator any_logic [and ior xor])\n"
        '(define_insn "logic" [(set (reg:SI 0)'
        " (any_logic:SI (reg:SI 1) (reg:SI 2)))] \"\" \"\")"
    )
    gamma_src = '(define_insn "and" [(set (reg:SI 0) (and:SI (reg:SI 1) (reg:SI 2)))] "" "")'
    a = pattern.analyze(md_reader.parse_md(alpha_src), table, "a")
    g = pattern.analyze(md_reader.parse_md(gamma_src), table, "g")
    assert common_patterns(a, g) == []
    assert len(common_patterns(a, g, expand_iterators=True)) == 1


# -- iterator expansion against the reference scan ----------------------------


def _reference_expand(text, members, cap=64):
    variants = [text]
    for name, codes in members.items():
        for needle in ("(%s " % name, "(%s:" % name, "(%s)" % name):
            if any(needle in v for v in variants):
                new = []
                for v in variants:
                    if needle in v:
                        new.extend(v.replace(needle, needle.replace(name, c)) for c in codes)
                    else:
                        new.append(v)
                variants = new[:cap]
    return frozenset(variants)


def _reference_common_patterns(a, members_a, b, members_b):
    """Greedy first fit by scanning all pairs: each pattern of a takes the
    first unmatched pattern of b whose expansions share a text with its own."""
    expanded_b = [(e.pattern_id, _reference_expand(e.pattern.canonical_text, members_b))
                  for e in b.store.entries()]
    matched, out = set(), []
    for ea in a.store.entries():
        ex_a = _reference_expand(ea.pattern.canonical_text, members_a)
        for id_b, ex_b in expanded_b:
            if id_b not in matched and ex_a & ex_b:
                out.append((ea.pattern_id, id_b))
                matched.add(id_b)
                break
    return out


def _store_analysis(patterns, members):
    """An analysis of (text, height) patterns, ids in list order, whose
    iterator forms define the code iterators of `members`, in its order."""
    store = PatternStore()
    for text, height in patterns:
        store.insert(RtlPattern(text, height))
    return MdAnalysis("m", store, [], ["(define_code_iterator %s [%s])" % (name, " ".join(codes))
                                       for name, codes in members.items()])


# Names and codes collide on purpose: an iterator may list another iterator
# or itself, and the name "p:it" starts like the codes "p" and "p:q".
_NAMES = ("xy", "it", "p:it", "plus")
_CODES = ("plus", "neg", "x", "y", "p", "p:q") + _NAMES

_texts = st.recursive(
    st.just("$arg0"),
    lambda kids: st.builds(
        lambda head, mode, args: "(%s)" % " ".join([head + mode, *args]),
        st.sampled_from(_CODES), st.sampled_from(["", ":$mode0"]),
        st.lists(kids, max_size=2)),
    max_leaves=4)
_patterns = st.lists(st.tuples(_texts, st.integers(1, 3)), max_size=8,
                     unique_by=lambda p: p[0])
_members = st.dictionaries(st.sampled_from(_NAMES),
                           st.lists(st.sampled_from(_CODES), min_size=1, max_size=5).map(tuple),
                           max_size=4)
_ROADMAP_A = ([("(xy $arg0)", 1), ("(x $arg0)", 1)], {"xy": ("x", "y")})
_ROADMAP_B = ([("(x $arg0)", 1), ("(y $arg0)", 1)], {})
# 5 * 6 * 3 = 90 variants, cut to the first 64
_CAPPED = ([("(plus (xy $arg0) (it $arg1) (p:it:$mode0))", 2)],
           {"xy": ("x", "y", "neg", "p", "plus"), "it": ("x", "y", "neg", "p", "plus", "p:q"),
            "p:it": ("x", "neg", "plus")})
_PAST_CAP = ([("(plus (plus $arg0) (plus $arg1) (plus:$mode0))", 2),
              ("(plus (x $arg0) (x $arg1) (x:$mode0))", 2)], {})
# "it" is defined after "xy" and substituted into its texts
_NESTED = ([("(xy $arg0)", 1)], {"xy": ("it",), "it": ("x", "y")})
# substituting "p" for "xy" in "(xy:it" writes a needle of "p:it"
_NESTED_COLON = ([("(xy:it $arg0)", 1)], {"xy": ("p",), "p:it": ("x", "y")})
# both variants of "(xy $arg0)" hit; the later variant hits the earlier pattern
_HITS_BOTH = ([("(y $arg0)", 1), ("(x $arg0)", 1)], {})


@settings(max_examples=300, deadline=None)
@given(st.tuples(_patterns, _members), st.tuples(_patterns, _members))
@example(_ROADMAP_A, _ROADMAP_B)
@example(_CAPPED, _PAST_CAP)
@example(_NESTED, _HITS_BOTH)
@example(_NESTED_COLON, _HITS_BOTH)
def test_expanded_matching_equals_reference_scan(side_a, side_b):
    a, b = _store_analysis(*side_a), _store_analysis(*side_b)
    assert common_patterns(a, b, True) == _reference_common_patterns(a, side_a[1], b, side_b[1])
    assert common_patterns(b, a, True) == _reference_common_patterns(b, side_b[1], a, side_a[1])


@settings(max_examples=300, deadline=None)
@given(_texts, _members)
@example(_NESTED[0][0][0], _NESTED[1])
@example(_NESTED_COLON[0][0][0], _NESTED_COLON[1])
def test_every_variant_has_its_patterns_skeleton(text, members):
    # uncapped, so the property covers the variants the cap drops too
    skeleton = similarity._skeleton(text)
    assert {similarity._skeleton(v) for v in _reference_expand(text, members, cap=None)} == {
        skeleton}
    assert similarity._skeleton("(p:it:$mode0 (p:q $arg0))") == "( ( $arg0))"


def test_greedy_matching_depends_on_order():
    # p1 -> {x, y} takes q1 -> {x} first, so p2 -> {x} finds no partner and
    # q2 -> {y} stays unmatched: 1 pair where a maximum matching has 2.
    a, b = _store_analysis(*_ROADMAP_A), _store_analysis(*_ROADMAP_B)
    assert common_patterns(a, b, True) == [(0, 0)]
    assert common_patterns(b, a, True) == [(0, 0)]


def test_expansion_past_the_cap_is_dropped():
    a, b = _store_analysis(*_CAPPED), _store_analysis(*_PAST_CAP)
    assert len(similarity._expand_text(_CAPPED[0][0][0], similarity._iterator_members(a))) == 64
    # members are substituted in order, so the all-"x" variant is among the
    # first 64 and the all-"plus" one is cut
    assert common_patterns(a, b, True) == [(0, 1)]
    assert common_patterns(b, a, True) == [(1, 0)]


# -- work counts: each pattern is expanded at most once per command -----------

ITER = DATA / "iter"


@pytest.fixture
def expand_calls(monkeypatch):
    """(text, members) of each real expansion, a miss of _expand_text's
    cache, in call order, and the set of the same keys of both patterns of
    each expanded match."""
    calls, matched = [], set()
    expand, common = similarity._expand_text, similarity.common_patterns
    expand.cache_clear()

    def counted(text, members):
        misses = expand.cache_info().misses
        variants = expand(text, members)
        if expand.cache_info().misses > misses:
            calls.append((text, members))
        return variants

    def matching(a, b, expand_iterators=False):
        pairs = common(a, b, expand_iterators)
        if expand_iterators:
            members_a, members_b = similarity._iterator_members(a), similarity._iterator_members(b)
            for ia, ib in pairs:
                matched.add((a.store.get(ia).pattern.canonical_text, members_a))
                matched.add((b.store.get(ib).pattern.canonical_text, members_b))
        return pairs

    monkeypatch.setattr(similarity, "_expand_text", counted)
    monkeypatch.setattr(similarity, "common_patterns", matching)
    return calls, matched


def _pattern_counts(table, paths):
    return [analyze_file(p, p.stem, table).store.pattern_count for p in paths]


def _assert_expanded_once(expand_calls, pattern_total):
    calls, matched = expand_calls
    assert len(set(calls)) == len(calls)  # no pattern is expanded twice
    assert matched and matched <= set(calls)  # matched patterns were expanded
    assert len(calls) < pattern_total  # patterns that cannot match are not


def test_compare_expands_each_pattern_once(table, expand_calls, capsys):
    manifest = str(ITER / "manifest.txt")
    assert cli.main(["compare", "iota", "kappa", "--manifest", manifest]) == 0
    assert expand_calls == ([], set())
    assert cli.main(["compare", "iota", "kappa", "--manifest", manifest,
                     "--expand-iterators"]) == 0
    _assert_expanded_once(expand_calls, sum(
        _pattern_counts(table, [ITER / "iota.md", ITER / "kappa.md"])))


@pytest.mark.parametrize("metric", ["pattern", "expr", "coverage"])
def test_matrix_expands_each_pattern_once(table, expand_calls, capsys, tmp_path, metric):
    paths = [ITER / "iota.md", ITER / "kappa.md", DATA / "synth" / "alpha.md"]
    manifest = tmp_path / "m.txt"
    manifest.write_text("".join("%s = %s\n" % (p.stem, p) for p in paths))
    assert cli.main(["matrix", "--metric", metric, "--manifest", str(manifest),
                     "--expand-iterators"]) == 0
    _assert_expanded_once(expand_calls, sum(_pattern_counts(table, paths)))


# -- an analysis holds exactly what its archives hold --------------------------


def test_members_are_read_from_the_iterator_forms():
    a = MdAnalysis("m", PatternStore(), [], [
        "(define_code_iterator x [a b])", "(define_mode_iterator M [SI DI])",
        '(define_code_iterator y [c (d "TARGET_D") ("e")])', "(define_code_iterator x [f])",
        "(define_code_iterator z [])", "(define_code_attr x [(a \"p\")])"])
    # a later definition of a name replaces the members of an earlier one,
    # which keeps its place in definition order
    assert similarity._iterator_members(a) == (("x", ("f",)), ("y", ("c", "d")))


def _corpus_manifest(name, tmp_path_factory):
    """The manifest of a bundled corpus, or of a workload's seed-1 corpus
    written by the benchmark's generator."""
    if (DATA / name).is_dir():
        return DATA / name / "manifest.txt"
    root = tmp_path_factory.mktemp(name)
    bench_corpus.generate(name, 1).write(str(root))
    return root / "manifest.txt"


@pytest.fixture(scope="module", params=["iter", "synth", "iterators", "survey"])
def analyses_and_archives(request, table, tmp_path_factory):
    """The analyses of a corpus, and the same analyses read back from the
    archives written for them."""
    analyses = [pattern.analyze(md_reader.load_md_file(e.path), table, e.name)
                for e in load_manifest(str(_corpus_manifest(request.param, tmp_path_factory)))]
    return analyses, [archive.read_archives(archive.write_pattern_file(a),
                                            archive.write_param_file(a)) for a in analyses]


def _reports(analyses, expand):
    """What `compare` prints for each ordered pair, and each `matrix` table."""
    pairs = [(expression_similarity(a, b, expand), target_coverage(a, b, expand))
             for a, b in itertools.permutations(analyses, 2)]
    return pairs, [similarity_matrix(analyses, metric, expand)
                   for metric in ("pattern", "expr", "coverage")]


@pytest.mark.parametrize("expand", [False, True], ids=["plain", "expanded"])
def test_archives_compare_as_their_analyses_do(analyses_and_archives, expand):
    analyses, archives = analyses_and_archives
    assert _reports(archives, expand) == _reports(analyses, expand)


def test_read_back_archives_find_every_expanded_match(table):
    analyses = [analyze_file(DATA / "iter" / ("%s.md" % n), n, table) for n in ("iota", "kappa")]
    archives = [archive.read_archives(archive.write_pattern_file(a), archive.write_param_file(a))
                for a in analyses]
    for pair in (analyses, archives):
        assert expression_similarity(*pair, True)["common_patterns"] == 14


def test_an_analysis_holds_only_what_its_archives_hold(alpha, beta):
    back = archive.read_archives(archive.write_pattern_file(alpha),
                                 archive.write_param_file(alpha))
    merged = archive.merge([alpha, beta], 0)
    for a in (alpha, back, merged):
        similarity_matrix([a, beta], "coverage", True)  # a comparison stores nothing on them
        assert set(vars(a)) == {"arch_name", "store", "bindings", "expr_count", "iterators",
                                "diagnostics"}
