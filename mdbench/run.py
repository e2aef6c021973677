#!/usr/bin/env python3
"""End-to-end benchmark of the mdpattern CLI on generated GCC-shaped corpora.

Usage, from the root of a checkout::

    python3 mdbench/run.py --workload survey --seed 1 --seconds 60 --trace 0

Each run builds the workload's corpus from ``--seed`` (see ``corpus.py``),
then runs the whole study as one closed loop with a single client: every
``python3 -m mdpattern`` subcommand of `plan` runs as a child process, one
after another, and the next starts when the previous one has exited.  The
sequence repeats until ``--seconds`` is used up.  Every output is checked
against the generator's bookkeeping.  The last line of stdout is one JSON
object: ``correct``, ``attempted`` (CLI invocations), ``failed``
(invocations with a non-zero exit or a failed output check) and
``metrics``, each metric the median over the repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
command through ``trace_shim.py``, which records a span around each call
into a layer of the program, and reports the per-layer metrics instead;
its times include the tracing cost, so end-to-end numbers come from
untraced runs only.  Per-run details (every invocation with its output
sha256, the traced spans of the first repetition, layer shares) are
written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402

#: End-to-end metrics: name -> unit.
E2E = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "stats_s": "s",
    "compare_expand_s": "s",
    "extract_s": "s",
    "recombine_s": "s",
}
#: Command groups of one repetition.
GROUPS = ("stats", "matrix", "compare", "compare_expand", "extract", "recombine", "verify")
#: Groups with an end-to-end metric of their own, one per kind of work:
#: parse and analysis, the expanded similarity scan, archive writes, archive
#: reads.  `matrix`, `compare` and `verify` spend nearly all their time
#: parsing and analyzing the archs that `stats` times, so a metric of their
#: own would add a check as noisy as `stats_s` and tell nothing it does not;
#: `merge` is mostly interpreter start.  They count in wall_s and cpu_s, and
#: their layers in the traced run.
TIMED = ("stats", "compare_expand", "extract", "recombine")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no repetition starts after this, whatever --seconds says
MERGE_MIN_COUNT = 1
#: Times each repetition runs a group's calls; its metric is their mean.
#: `stats` and `recombine` are short, and much of them is interpreter
#: start, so one call varies more than the others.
ROUNDS = {"stats": 2, "recombine": 2}

# ---------------------------------------------------------------------------
# Running one command


@dataclass
class Step:
    group: str
    label: str  # group plus the arch it runs on, if any
    args: list  # mdpattern arguments
    check: object  # (stdout text, Step) -> reason string, or '' when correct
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int = 0
    reason: str = ""
    sha256: str = ""
    spans: dict = field(default_factory=dict)


def child_env():
    env = dict(os.environ)
    env.pop("MDPATTERN_CODE_TABLE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, out_path, env):
    """Run one child to completion; returns (exit code, wall s, cpu s, max rss MB)."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=str(ROOT))
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Output checks against the generator's bookkeeping


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_stats(c):
    def check(text, step):
        data = _json(text)
        if data is None:
            return "stats: output is not JSON"
        rows = {r["arch"]: r for r in data.get("rows", [])}
        if set(rows) != {a.name for a in c.archs}:
            return "stats: archs %s" % sorted(rows)
        for a in c.archs:
            r = rows[a.name]
            if (r["expressions"], r["patterns"]) != (a.expressions, a.patterns):
                return "stats: %s E,P = %d,%d, expected %d,%d" % (
                    a.name, r["expressions"], r["patterns"], a.expressions, a.patterns)
        return ""
    return check


def expected_matrix(c, metric):
    names = [a.name for a in c.archs]
    cells = {}
    if metric == "coverage":
        for src in names:
            for tgt in names:
                if src != tgt:
                    cells[(src, tgt)] = c.covered(tgt, c.shared(src, tgt))
        return cells
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            shared = c.shared(a, b)
            cells[(a, b)] = (len(shared) if metric == "pattern"
                             else c.covered(a, shared) + c.covered(b, shared))
    return cells


def check_matrix(c, metric):
    want = expected_matrix(c, metric)

    def check(text, step):
        data = _json(text)
        if data is None:
            return "matrix %s: output is not JSON" % metric
        got = {(x["row"], x["col"]): x["count"] for x in data.get("cells", [])}
        if got != want:
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return "matrix %s: %d cells differ, first %s: %s vs %s" % (
                metric, len(bad), bad[0], got.get(bad[0]), want.get(bad[0]))
        return ""
    return check


def check_compare(c, expand):
    a, b = c.pair
    shared = c.shared(a, b)
    want = {"common_patterns": len(shared),
            "covered_expr_a": c.covered(a, shared),
            "covered_expr_b": c.covered(b, shared),
            "coverage_a_to_b": c.covered(b, shared),
            "coverage_b_to_a": c.covered(a, shared)}

    def check(text, step):
        data = _json(text)
        if data is None or (data.get("arch_a"), data.get("arch_b")) != (a, b):
            return "compare: output is not the JSON report for %s/%s" % (a, b)
        if expand:
            return ""  # the expanded matching has no oracle: its counts are recorded only
        got = {k: data[k] for k in ("common_patterns", "covered_expr_a", "covered_expr_b")}
        got["coverage_a_to_b"] = data["coverage_a_to_b"]["covered"]
        got["coverage_b_to_a"] = data["coverage_b_to_a"]["covered"]
        if got != want:
            return "compare: %s, expected %s" % (got, want)
        return ""
    return check


def read_pattern_entries(path):
    """text -> count from a pattern archive."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                _, _, count, text = line.split(" ", 3)
                out[text] = int(count)
    return out


def count_records(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def check_extract(c, arch, archive_dir):
    truth = c.arch(arch)

    def check(text, step):
        ppath = archive_dir / ("%s.patterns" % arch)
        mpath = archive_dir / ("%s.params" % arch)
        if not (ppath.is_file() and mpath.is_file()):
            return "extract %s: archives not written" % arch
        step.sha256 = sha256_files(ppath, mpath)
        if read_pattern_entries(ppath) != truth.counts:
            return "extract %s: pattern archive differs from the oracle" % arch
        if count_records(mpath) != truth.expressions:
            return "extract %s: %d parameter records, expected %d" % (
                arch, count_records(mpath), truth.expressions)
        return ""
    return check


def check_recombine(c, arch, archive_dir):
    def check(text, step):
        forms = sum(1 for line in text.splitlines() if line.startswith("(define_"))
        records = count_records(archive_dir / ("%s.params" % arch))
        if forms != records or records != c.arch(arch).expressions:
            return "recombine %s: %d forms from %d records" % (arch, forms, records)
        return ""
    return check


def check_merge(c):
    want = c.merged(MERGE_MIN_COUNT)

    def check(text, step):
        got = set()
        for line in text.splitlines():
            if line and not line.startswith("#"):
                got.add(line.split(" ", 3)[3])
        if got != want:
            return "merge: %d patterns kept, expected %d (%d differ)" % (
                len(got), len(want), len(got ^ want))
        return ""
    return check


def check_verify(c):
    want = {"%s: 0 missing / 0 extra / 0 changed" % a.name for a in c.archs}

    def check(text, step):
        got = set(text.splitlines())
        if got != want:
            return "verify: %s" % "; ".join(sorted(got - want)[:3])
        return ""
    return check


def sha256_files(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The command sequence


def plan(c, manifest, archive_dir):
    """One repetition of the study, in order."""
    m = str(manifest)
    a, b = c.pair
    steps = [Step("stats", "stats", ["stats", "--manifest", m, "--format", "json"],
                  check_stats(c)) for _ in range(ROUNDS["stats"])]
    for metric in ("pattern", "expr", "coverage"):
        steps.append(Step("matrix", "matrix:" + metric,
                          ["matrix", "--manifest", m, "--metric", metric, "--format", "json"],
                          check_matrix(c, metric)))
    steps.append(Step("compare", "compare", ["compare", a, b, "--manifest", m, "--format", "json"],
                      check_compare(c, False)))
    steps.append(Step("compare_expand", "compare_expand",
                      ["compare", a, b, "--manifest", m, "--format", "json",
                       "--expand-iterators"], check_compare(c, True)))
    for arch in c.archs:
        steps.append(Step("extract", "extract:" + arch.name,
                          ["extract", arch.name, "--manifest", m, "--out-dir", str(archive_dir)],
                          check_extract(c, arch.name, archive_dir)))
    for _ in range(ROUNDS["recombine"]):
        for arch in c.archs:
            steps.append(Step("recombine", "recombine:" + arch.name,
                              ["recombine",
                               "--patterns", str(archive_dir / (arch.name + ".patterns")),
                               "--params", str(archive_dir / (arch.name + ".params"))],
                              check_recombine(c, arch.name, archive_dir)))
    steps.append(Step("merge", "merge",
                      ["merge"] + [str(archive_dir / (arch.name + ".patterns")) for arch in c.archs]
                      + ["--min-count", str(MERGE_MIN_COUNT)], check_merge(c)))
    steps.append(Step("verify", "verify", ["verify", "--manifest", m], check_verify(c)))
    return steps


def untraced(work, run_id):
    """argv of one CLI invocation: ``python3 -m mdpattern ARGS``."""
    return lambda i, args: [sys.executable, "-m", "mdpattern"] + args


def traced(work, run_id):
    """argv of one traced invocation; its spans go to ``out/NN.spans.json``."""
    def command(i, args):
        spans = work / "out" / ("%02d.spans.json" % i)
        return [sys.executable, str(HERE / "trace_shim.py"), str(spans), run_id, "--"] + args
    return command


def run_repetition(c, work, env, command):
    """Run the whole sequence once, then check every output.

    ``command(i, args)`` gives the argv of step i.  Returns the steps and
    the wall time of the sequence (checks are made after it).
    """
    archive_dir = work / "archives"
    shutil.rmtree(archive_dir, ignore_errors=True)
    archive_dir.mkdir(parents=True)
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    steps = plan(c, work / "corpus" / "manifest.txt", archive_dir)
    t0 = time.perf_counter()
    for i, step in enumerate(steps):
        step.exit_code, step.wall_s, step.cpu_s, step.rss_mb = run_child(
            command(i, step.args), out_dir / ("%02d.out" % i), env)
    wall = time.perf_counter() - t0
    for i, step in enumerate(steps):
        text = (out_dir / ("%02d.out" % i)).read_bytes()
        step.sha256 = hashlib.sha256(text).hexdigest()
        if step.exit_code != 0:
            err = (out_dir / ("%02d.out.err" % i)).read_text("utf-8", "replace").strip()
            step.reason = "%s: exit code %d: %s" % (step.label, step.exit_code,
                                                    err.splitlines()[-1] if err else "")
        else:
            try:
                step.reason = step.check(text.decode("utf-8", "replace"), step)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                step.reason = "%s: malformed output (%r)" % (step.label, exc)
        spans = out_dir / ("%02d.spans.json" % i)
        if spans.is_file():
            with open(spans, encoding="utf-8") as fh:
                step.spans = json.load(fh)
    return steps, wall


# ---------------------------------------------------------------------------
# Metrics


def e2e_metrics(steps, wall):
    m = {"wall_s": wall,
         "cpu_s": sum(s.cpu_s for s in steps),
         "peak_rss_mb": max(s.rss_mb for s in steps)}
    for g in TIMED:
        m[g + "_s"] = sum(s.wall_s for s in steps if s.group == g) / ROUNDS.get(g, 1)
    return m


LAYERS = ("sexpr", "md_reader", "rtl", "pattern", "similarity", "archive")

#: span name -> (per-layer metric, True to add the span's self time rather
#: than its inclusive time); self time leaves out the spans it called.
SPAN_METRICS = {
    "sexpr.tokenize": ("sexpr.tokenize_s", True),
    "sexpr.parse_text": ("sexpr.parse_s", True),
    "md_reader.load_md_file": ("md_reader.load_s", False),
    "rtl.build_template_tree": ("rtl.build_s", False),
    "pattern.analyze": ("pattern.analyze_s", True),
    "pattern.extract_pattern": ("pattern.extract_s", False),
    "similarity.common_patterns": ("similarity.common_s", False),
    "similarity.common_patterns[expand]": ("similarity.common_expand_s", False),
    "archive.write_pattern_file": ("archive.write_s", False),
    "archive.write_param_file": ("archive.write_s", False),
    "archive.read_archives": ("archive.read_s", True),
    "archive.read_pattern_file": ("archive.read_s", True),
    "archive.recombine": ("archive.recombine_s", False),
    "archive.verify_roundtrip": ("archive.verify_s", True),
    "archive.merge": ("archive.merge_s", False),
}


def _self_cpu(spans):
    """span id -> (name, self thread-CPU seconds, inclusive thread-CPU seconds)."""
    child_cpu = defaultdict(float)
    for sid, parent, name, t0, t1, c0, c1, tid in spans:
        if parent:  # children of the root run on many threads; the root has no layer
            child_cpu[parent] += c1 - c0
    return {sid: (name, (c1 - c0) - child_cpu[sid], c1 - c0)
            for sid, parent, name, t0, t1, c0, c1, tid in spans if sid}


def layer_metrics(steps, c):
    """Per-layer metrics of one traced repetition, plus layer shares per group."""
    m = defaultdict(float)
    busy = defaultdict(float)  # (group, layer) -> self thread-CPU seconds
    group_wall = defaultdict(float)
    for step in steps:
        data = step.spans
        group_wall[step.group] += step.wall_s
        spans_cpu = 0.0
        for name, self_cpu, incl_cpu in _self_cpu(data["spans"]).values():
            layer = name.split(".", 1)[0]
            busy[(step.group, layer)] += self_cpu
            spans_cpu += self_cpu
            if name in SPAN_METRICS:
                metric, own = SPAN_METRICS[name]
                m[metric] += self_cpu if own else incl_cpu
            if layer == "md_reader":
                m["md_reader.self_s"] += self_cpu
        for k, v in data["counts"].items():
            m[k] += v
        m["cli.overhead_s." + step.group] += (
            step.wall_s - spans_cpu - data["count_cpu_s"] - data["dump_s"])
    parse_s = m["sexpr.tokenize_s"] + m["sexpr.parse_s"]
    m["sexpr.mb_per_s"] = m["sexpr.bytes"] / 1e6 / parse_s if parse_s else 0.0
    m["pattern.store_hit_ratio"] = (1 - m["pattern.patterns"] / m["pattern.exprs"]
                                    if m["pattern.exprs"] else 0.0)
    m["similarity.capped_patterns"] = c.capped(c.pair)  # one expanded compare per repetition
    shares = {g: {layer: 100.0 * busy[(g, layer)] / group_wall[g] for layer in LAYERS}
              for g in group_wall}
    m["share.stats.parse"] = shares["stats"]["sexpr"] + shares["stats"]["md_reader"]
    m["share.compare.similarity"] = shares["compare"]["similarity"]
    m["share.compare_expand.similarity"] = shares["compare_expand"]["similarity"]
    m["share.recombine.archive"] = shares["recombine"]["archive"]
    return dict(m), shares


#: Per-layer metrics in report order, with units.
PER_LAYER = {
    "sexpr.tokenize_s": "s", "sexpr.parse_s": "s", "sexpr.tokens": "count",
    "sexpr.bytes": "B", "sexpr.mb_per_s": "MB/s",
    "md_reader.load_s": "s", "md_reader.self_s": "s", "md_reader.files": "count",
    "md_reader.forms_considered": "count", "md_reader.forms_iterator": "count",
    "md_reader.forms_ignored": "count",
    "rtl.build_s": "s", "rtl.nodes": "count",
    "pattern.analyze_s": "s", "pattern.extract_s": "s", "pattern.exprs": "count",
    "pattern.patterns": "count", "pattern.store_hit_ratio": "ratio",
    "pattern.skipped": "count", "pattern.unknown_codes": "count",
    "similarity.common_s": "s", "similarity.common_expand_s": "s",
    "similarity.matched_pairs": "count", "similarity.matched_pairs_expand": "count",
    "similarity.pair_scan_bound": "count", "similarity.capped_patterns": "count",
    "archive.write_s": "s", "archive.read_s": "s", "archive.recombine_s": "s",
    "archive.verify_s": "s", "archive.merge_s": "s", "archive.bytes_written": "B",
    "archive.records": "count",
    **{"cli.overhead_s." + g: "s" for g in GROUPS + ("merge",)},
    "share.stats.parse": "%", "share.compare.similarity": "%",
    "share.compare_expand.similarity": "%", "share.recombine.archive": "%",
}

#: The dominance each workload was chosen to show: (metric, test, threshold, claim).
PREDICTIONS = {
    "survey": [("share.stats.parse", ">", 50.0,
                "sexpr plus md_reader take most of stats_s")],
    "iterators": [("share.compare_expand.similarity", ">", 50.0,
                   "similarity takes most of compare_expand_s"),
                  ("share.compare.similarity", "<", 10.0,
                   "similarity takes little of compare"),
                  ("share.recombine.archive", ">", 10.0,
                   "archive read and recombine take a visible share of recombine_s")],
}


# ---------------------------------------------------------------------------


def setup(workload, seed, work, env):
    """Generate and write the corpus, then warm the interpreter's bytecode cache."""
    t0 = time.perf_counter()
    c = corpus_mod.generate(workload, seed)
    cdir = work / "corpus"
    shutil.rmtree(cdir, ignore_errors=True)
    c.write(str(cdir))
    code, _, _, _ = run_child([sys.executable, "-m", "mdpattern", "--help"],
                              work / "warmup.out", env)
    if code != 0:
        raise RuntimeError("mdpattern --help exited with %d" % code)
    return c, time.perf_counter() - t0


def print_layer_report(workload, values, shares):
    """Print the layer-share table and whether each prediction holds."""
    print("layer share of each command group's wall (%), traced, median of repetitions:")
    print("  %-15s" % "group" + "".join("%11s" % layer for layer in LAYERS))
    for g, row in shares.items():
        print("  %-15s" % g + "".join("%11.1f" % row[layer] for layer in LAYERS))
    verdicts = []
    for metric, op, threshold, claim in PREDICTIONS[workload]:
        v = values[metric]
        holds = v > threshold if op == ">" else v < threshold
        verdicts.append({"claim": claim, "metric": metric, "value": v,
                         "threshold": "%s %g" % (op, threshold), "holds": holds})
        print("prediction %s: %s: %s = %.1f%% (%s %g%%): %s" % (
            workload, claim, metric, v, op, threshold, "holds" if holds else "MISSED"))
    return verdicts


def main(argv=None):
    p = argparse.ArgumentParser(description="mdpattern end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=sorted(corpus_mod.PROFILES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mdpattern" / "cli.py").is_file():
        print("mdbench: no mdpattern sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    run_id = "%s-seed%d-trace%d-%d-%d" % (args.workload, args.seed, args.trace,
                                         os.getpid(), time.time_ns())
    results_dir = ROOT / ".bench_work" / "results"
    work = ROOT / ".bench_work" / run_id
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            c, t = setup(args.workload, args.seed, work, env)
            setup_times.append(t)
        command = (traced if args.trace else untraced)(work, run_id)
        reps = []
        start = time.perf_counter()
        while True:
            steps, wall = run_repetition(c, work, env, command)
            reps.append((steps, wall))
            elapsed = time.perf_counter() - start
            # start another repetition only if it should end before the deadline
            if elapsed + elapsed / len(reps) > min(args.seconds, RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_steps = [s for steps, _ in reps for s in steps]
    failed = [s for s in all_steps if s.reason]
    report = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "setup_s": setup_times, "repetitions": len(reps),
              "corpus": {a.name: {"expressions": a.expressions, "patterns": a.patterns,
                                  "bytes": a.bytes, "files": a.files} for a in c.archs},
              "invocations": [[{"label": s.label, "exit": s.exit_code, "wall_s": s.wall_s,
                                "cpu_s": s.cpu_s, "rss_mb": s.rss_mb, "sha256": s.sha256,
                                "failure": s.reason} for s in steps] for steps, _ in reps]}
    shas = defaultdict(set)
    for s in all_steps:
        shas[s.label].add(s.sha256)
    report["output_sha256"] = {k: sorted(v) for k, v in shas.items()}

    if args.trace:
        per_rep = [layer_metrics(steps, c) for steps, _ in reps]
        values = {k: statistics.median(m[k] for m, _ in per_rep) for k in PER_LAYER}
        shares = {g: {layer: statistics.median(r[g][layer] for _, r in per_rep)
                      for layer in LAYERS} for g in per_rep[0][1]}
        report["per_layer"] = values
        report["layer_shares_pct"] = shares
        report["predictions"] = print_layer_report(args.workload, values, shares)
        report["spans_first_repetition"] = [
            {"label": s.label, "wall_s": s.wall_s, **s.spans} for s in reps[0][0]]
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        per_rep = [e2e_metrics(steps, wall) for steps, wall in reps]
        values = {k: statistics.median(m[k] for m in per_rep) for k in E2E if k != "setup_s"}
        values["setup_s"] = statistics.median(setup_times)
        report["e2e"] = values
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E.items()}
    for s in failed[:5]:
        print("FAILED %s" % s.reason)

    path = results_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("%s seed %d: %d repetitions, %d invocations, %d failed; details in %s" % (
        args.workload, args.seed, len(reps), len(all_steps), len(failed),
        path.relative_to(ROOT)))
    print(json.dumps({"correct": not failed, "attempted": len(all_steps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
