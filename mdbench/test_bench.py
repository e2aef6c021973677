"""Tests of the benchmark itself: corpus determinism, the oracle against the
program, failure accounting and the traced run.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest mdbench -q
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
from mdpattern import md_reader, pattern, rtl, similarity  # noqa: E402

TINY = corpus.Profile(
    archs={"alpha": (40, 25, 22600), "beta": (30, 20, 17800), "gamma": (20, 15, 12600)},
    pair=("alpha", "beta"), n_common=30, p_common=0.6, p_variant=0.5, depth=(1, 3),
    p_iter=0.4, p_attr=0.1, p_short=0.5, p_unknown=0.05, ignored_per_100=20, lean=False)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(corpus.PROFILES, "tiny", TINY)
    return "tiny"


@pytest.mark.parametrize("workload", sorted(corpus.PROFILES))
def test_same_seed_same_corpus_bytes(workload):
    a = corpus.generate(workload, 11)
    assert a.files == corpus.generate(workload, 11).files
    assert a.files != corpus.generate(workload, 12).files


@pytest.mark.parametrize("workload", sorted(corpus.PROFILES))
def test_archs_are_drawn_near_their_target_size(workload):
    # runs with different seeds must do about the same amount of work
    for seed in (1, 2, 3):
        for a in corpus.generate(workload, seed).archs:
            target = corpus.PROFILES[workload].archs[a.name][2]
            assert abs(a.bytes - target) <= 0.05 * target, (seed, a.name, a.bytes)


def test_oracle_agrees_with_program(tiny, tmp_path):
    c = corpus.generate(tiny, 5)
    c.write(str(tmp_path))
    table = rtl.RtxCodeTable.default()
    analyses = {}
    heads = collections.Counter()
    for truth in c.archs:
        forms = md_reader.load_md_file(str(tmp_path / truth.root))
        heads.update(f.head for f in forms)
        kinds = collections.Counter(f.kind.value for f in forms)
        assert dict(kinds) == truth.forms
        a = pattern.analyze(forms, table, truth.name)
        analyses[truth.name] = a
        assert a.expr_count == truth.expressions
        assert {e.pattern.canonical_text: e.count for e in a.store.entries()} == truth.counts
        assert len(a.diagnostics["skipped"]) == truth.skipped
        assert sum(a.diagnostics["unknown_codes"].values()) == truth.unknown_codes
        members = similarity._iterator_members(a)
        for text in truth.counts:
            assert len(similarity._expand_text(text, members)) == min(
                c.expansion[text], corpus.EXPANSION_CAP)
    assert {h for h, _ in corpus.CONSIDERED_HEADS} <= set(heads)
    x, y = c.pair
    assert len(similarity.common_patterns(analyses[x], analyses[y])) == len(c.shared(x, y))


def _repetition(workload, seed, tmp_path, command):
    env = run.child_env()
    c, _ = run.setup(workload, seed, tmp_path, env)
    steps, _ = run.run_repetition(c, tmp_path, env, command(tmp_path, "test-run"))
    return c, steps


def test_clean_repetition_has_no_failures(tiny, tmp_path):
    _, steps = _repetition(tiny, 3, tmp_path, run.untraced)
    assert [s.reason for s in steps if s.reason] == []
    assert {s.group for s in steps} == set(run.GROUPS) | {"merge"}


FAKE_CLI = '''
import contextlib, io, sys
from mdpattern import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(sys.argv[1:])
out = buf.getvalue()
if sys.argv[1] == "stats":
    out = out.replace('"expressions": ', '"expressions": 1', 1)  # E off for one arch
if sys.argv[1] == "verify":
    out = out.replace(" 0 changed", " 1 changed", 1)
sys.stdout.write(out)
sys.exit(code)
'''


def test_wrong_outputs_are_counted_as_failed(tiny, tmp_path):
    fake = tmp_path / "fake_cli.py"
    fake.write_text(FAKE_CLI)
    _, steps = _repetition(tiny, 3, tmp_path,
                           lambda work, run_id: lambda i, args: [sys.executable, str(fake)] + args)
    failed = [s.label for s in steps if s.reason]
    assert failed == ["stats"] * run.ROUNDS["stats"] + ["verify"]


def test_checks_reject_wrong_counts(tiny):
    c = corpus.generate(tiny, 3)
    a = c.archs[0]
    rows = [{"arch": t.name, "expressions": t.expressions, "patterns": t.patterns}
            for t in c.archs]
    assert run.check_stats(c)(json.dumps({"rows": rows}), None) == ""
    rows[0]["patterns"] -= 1
    assert run.check_stats(c)(json.dumps({"rows": rows}), None) != ""
    lines = ["%s: 0 missing / 0 extra / 0 changed" % t.name for t in c.archs]
    assert run.check_verify(c)("\n".join(lines), None) == ""
    lines[0] = "%s: 1 missing / 0 extra / 0 changed  FAIL" % a.name
    assert run.check_verify(c)("\n".join(lines), None) != ""


def test_traced_repetition_reports_every_layer_metric(tiny, tmp_path):
    c, steps = _repetition(tiny, 3, tmp_path, run.traced)
    assert [s.reason for s in steps if s.reason] == []
    assert {s.spans["run_id"] for s in steps} == {"test-run"}
    metrics, shares = run.layer_metrics(steps, c)
    assert set(run.PER_LAYER) <= set(metrics)
    # two stats, three matrices, extract and verify analyze every arch; both compares the pair
    total = sum(t.expressions for t in c.archs)
    pair = sum(c.arch(name).expressions for name in c.pair)
    assert metrics["pattern.exprs"] == 7 * total + 2 * pair
    assert metrics["sexpr.tokenize_s"] > 0 and metrics["archive.recombine_s"] > 0


def test_main_prints_the_result_line(tiny, capsys):
    assert run.main(["--workload", tiny, "--seed", "2", "--seconds", "0.1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(run.E2E)
