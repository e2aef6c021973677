"""Acceptance suite.

Each test prints one ``ACCEPTANCE <name>: PASS|FAIL`` line.  Criterion 2
needs the GCC 4.6.1 MD corpus on disk (point MDPATTERN_GCC_CORPUS at a
directory holding arm.md, mips.md, sparc.md, i386.md, vax.md along with
their included files); it is skipped when the corpus is absent.
"""

import os
import time

import pytest

from conftest import DATA, analyze_file, random_corpus
from mdpattern import archive, md_reader, pattern, similarity
from mdpattern.cli import EXIT_OK, main
from mdpattern.manifest import load_manifest
from mdpattern.rtl import RtxCodeTable

SYNTH = str(DATA / "synth" / "manifest.txt")


def report(name, ok):
    print("ACCEPTANCE %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok


# -- 1. formula exactness ----------------------------------------------------


def test_criterion_1_formula_exactness():
    start = time.monotonic()
    checks = [
        abs(similarity.pattern_similarity_pct(362, 187, 79) - 28.78) <= 0.01,
        abs(similarity.pattern_similarity_pct(547, 64, 34) - 11.13) <= 0.01,
        abs(similarity.expression_similarity_pct(1486, 0, 1581, 736) - 64.13) <= 0.01,
        abs(similarity.coverage_pct(88, 125) - 70.40) <= 0.01,
        abs(similarity.coverage_pct(632, 2238) - 28.23) <= 0.01,
    ]
    fast = (time.monotonic() - start) < 0.1
    report("1-formula-exactness", all(checks) and fast)


# -- 2. GCC 4.6.1 corpus reproduction ---------------------------------------

TABLE1 = {"arm": (1581, 362), "mips": (736, 209), "sparc": (701, 187),
          "i386": (2238, 547), "vax": (125, 64)}


def _gcc_corpus_dir():
    root = os.environ.get("MDPATTERN_GCC_CORPUS")
    if not root:
        return None
    if all(os.path.isfile(os.path.join(root, "%s.md" % a)) for a in TABLE1):
        return root
    return None


@pytest.mark.skipif(_gcc_corpus_dir() is None,
                    reason="GCC 4.6.1 MD corpus not available "
                           "(set MDPATTERN_GCC_CORPUS)")
def test_criterion_2_corpus_reproduction():
    root = _gcc_corpus_dir()
    table = RtxCodeTable.default()
    heads_with_split = md_reader.DEFAULT_CONSIDERED_HEADS
    heads_no_split = heads_with_split - {"define_split"}
    combos = {}
    start = time.monotonic()
    for includes in (True, False):
        for heads, hname in ((heads_with_split, "split"), (heads_no_split, "nosplit")):
            results = {}
            for arch in TABLE1:
                forms = md_reader.load_md_file(
                    os.path.join(root, "%s.md" % arch), includes, heads)
                a = pattern.analyze(forms, table, arch)
                results[arch] = (a.expr_count, a.store.pattern_count)
            combos[("inc" if includes else "noinc", hname)] = results
    elapsed = time.monotonic() - start

    def max_err(results):
        errs = []
        for arch, (e, p) in results.items():
            te, tp = TABLE1[arch]
            errs.append(max(abs(e - te) / te, abs(p - tp) / tp))
        return max(errs)

    for combo, results in sorted(combos.items()):
        print("combo %s: %s (max rel err %.3f)" % (combo, results, max_err(results)))
    best = min(combos, key=lambda c: max_err(combos[c]))
    print("closest toggle combination: %s" % (best,))
    ok = all(
        abs(e - TABLE1[a][0]) <= 0.10 * TABLE1[a][0]
        and abs(p - TABLE1[a][1]) <= 0.20 * TABLE1[a][1]
        for a, (e, p) in combos[best].items()
    )
    report("2-corpus-reproduction", ok and elapsed < 4 * 10.0)


# -- 3. round-trip verify ----------------------------------------------------


def test_criterion_3_roundtrip_bundled():
    code = main(["verify", "--manifest", SYNTH])
    entries = load_manifest(SYNTH)
    table = RtxCodeTable.default()
    alpha = analyze_file(entries[0].path, "alpha", table)
    ok = code == EXIT_OK and alpha.expr_count == 50
    report("3-roundtrip-bundled-50", ok)


@pytest.mark.skipif(_gcc_corpus_dir() is None,
                    reason="GCC 4.6.1 MD corpus not available "
                           "(set MDPATTERN_GCC_CORPUS)")
def test_criterion_3_roundtrip_gcc_corpus():
    root = _gcc_corpus_dir()
    table = RtxCodeTable.default()
    ok = True
    for arch in TABLE1:
        forms = md_reader.load_md_file(os.path.join(root, "%s.md" % arch))
        a = pattern.analyze(forms, table, arch)
        result = archive.verify_roundtrip(a, forms)
        print("%s: %d missing / %d extra / %d changed" % (arch, *result))
        ok = ok and result == (0, 0, 0)
    report("3-roundtrip-gcc-corpus", ok)


# -- 4. brute-force store oracle --------------------------------------------


def test_criterion_4_store_oracle_1000_seeds():
    table = RtxCodeTable.default()
    ok = True
    for seed in range(1000):
        forms = md_reader.parse_md(random_corpus(seed))
        a = pattern.analyze(forms, table)
        # independent O(n^2) pairwise comparison over canonical texts
        texts = []
        for f in forms:
            if f.kind is not md_reader.FormKind.CONSIDERED:
                continue
            from mdpattern.rtl import build_template_tree

            tree = build_template_tree(md_reader.extract_template_vector(f))
            p, _ = pattern.extract_pattern(tree, table, table.retained(True))
            texts.append(p.canonical_text)
        unique = []
        for t in texts:
            if not any(t == u for u in unique):
                unique.append(t)
        if a.store.canonical_texts() != set(unique) or a.expr_count != len(texts):
            ok = False
            break
    report("4-store-oracle-1000-seeds", ok)


# -- 5. invariant suite ------------------------------------------------------


def test_criterion_5_invariant_suite():
    # the properties themselves are hypothesis tests in the per-module
    # files; run their core assertions once more over the bundled corpus
    table = RtxCodeTable.default()
    alpha = analyze_file(DATA / "synth" / "alpha.md", "alpha", table)
    beta = analyze_file(DATA / "synth" / "beta.md", "beta", table)
    checks = []
    # alpha-invariance: extracted texts are already canonical
    for e in alpha.store.entries():
        text = e.pattern.canonical_text
        checks.append(pattern.renumber_holes(text) == text)
    # count conservation
    checks.append(sum(e.count for e in alpha.store.entries()) == alpha.expr_count)
    # symmetry and bounds
    ab = similarity.expression_similarity(alpha, beta)
    ba = similarity.expression_similarity(beta, alpha)
    checks.append(abs(ab["pattern_similarity_pct"] - ba["pattern_similarity_pct"]) < 1e-9)
    checks.append(abs(ab["expression_similarity_pct"] - ba["expression_similarity_pct"]) < 1e-9)
    checks.append(0 <= ab["pattern_similarity_pct"] <= 100)
    checks.append(0 <= ab["expression_similarity_pct"] <= 100)
    # coverage/similarity composition
    cov_b, _ = similarity.target_coverage(alpha, beta)
    cov_a, _ = similarity.target_coverage(beta, alpha)
    composed = 100.0 * (cov_a + cov_b) / (alpha.expr_count + beta.expr_count)
    checks.append(abs(ab["expression_similarity_pct"] - composed) < 1e-9)
    # merge monotonicity
    pf = archive.pattern_file_of(alpha)
    sizes = [len(archive.merge([pf], k).entries) for k in range(6)]
    checks.append(sizes == sorted(sizes, reverse=True))
    checks.append({t for *_, t in archive.merge([pf], 0).entries}
                  == {t for *_, t in pf.entries})
    # archive read/write identity
    store, bindings, _ = archive.read_archives(
        archive.write_pattern_file(alpha), archive.write_param_file(alpha))
    checks.append(store.canonical_texts() == alpha.store.canonical_texts())
    checks.append([b.assignments for b in bindings]
                  == [b.assignments for b in alpha.bindings])
    report("5-invariant-suite", all(checks))


# -- 6. motivating-example golden test ---------------------------------------


def test_criterion_6_motivating_example_golden():
    table = RtxCodeTable.default()
    mips = analyze_file(DATA / "fig2" / "mips.md", "mips", table)
    arm = analyze_file(DATA / "fig2" / "arm.md", "arm", table)
    common = similarity.common_patterns(mips, arm)
    checks = [len(common) == 1]
    text = mips.store.get(common[0][0]).pattern.canonical_text
    checks.append(text == "[(set $arg0 (plus:$mode0 $arg1 $arg2))]")
    pct = similarity.expression_similarity(mips, arm)["pattern_similarity_pct"]
    checks.append(abs(pct - 100.0) < 1e-9)
    checks.append(mips.bindings[0].assignments == [
        ("$mode0", "GPR"),
        ("$arg0", '(match_operand:GPR 0 "register_operand")'),
        ("$arg1", '(match_operand:GPR 1 "register_operand")'),
        ("$arg2", '(match_operand:GPR 2 "arith_operand")'),
    ])
    checks.append(arm.bindings[0].assignments == [
        ("$mode0", "SI"),
        ("$arg0", '(match_operand:SI 0 "s_register_operand" "")'),
        ("$arg1", '(match_operand:SI 1 "s_register_operand" "")'),
        ("$arg2", '(match_operand:SI 2 "reg_or_int_operand" "")'),
    ])
    report("6-motivating-example", all(checks))
