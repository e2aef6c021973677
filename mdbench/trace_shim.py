"""Run one mdpattern command with a span around every call into a layer.

Usage::

    python3 mdbench/trace_shim.py SPANS_JSON RUN_ID -- <mdpattern arguments>

The shim wraps the public functions the CLI calls in each module of
``mdpattern`` (sexpr, md_reader, rtl, pattern, similarity, archive), runs
``mdpattern.cli.main`` on the remaining arguments, and writes the spans and
work counts to SPANS_JSON when the command ends.  The program's code is not
changed: the wrappers replace module attributes, which the CLI and the
modules look up at call time.

A span is ``[id, parent, name, start, end, cpu_start, cpu_end, thread]``.
``start``/``end`` are ``time.perf_counter()`` (the system monotonic clock);
``cpu_start``/``cpu_end`` are ``time.thread_time()``.  The CLI analyzes
architectures in a thread pool, and under the interpreter lock spans on
different threads overlap in wall time, so a layer's busy time is taken
from thread CPU time.  Span 0 is the whole ``cli.main`` call; spans opened
on pool threads have it as parent.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter

from mdpattern import archive, cli, md_reader, pattern, rtl, sexpr, similarity
from mdpattern.md_reader import FormKind


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(c) for c in node.children)


def _expand_flag(args, kwargs) -> bool:
    return bool(args[2] if len(args) > 2 else kwargs.get("expand_iterators", False))


class Tracer:
    """Spans and counters of one process; kept in memory until `dump`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.count_cpu = 0.0  # thread CPU spent computing counts, outside spans
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def add(self, counts):
        with self._lock:
            self.counts.update(counts)

    def wrap(self, module, fname, count=None, label=None):
        fn = getattr(module, fname)
        name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], fname)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            span_name = label(name, args, kwargs) if label else name
            stack.append(sid)
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = time.thread_time(), time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, span_name, t0, t1, c0, c1,
                                   threading.get_ident()))
            if count:
                count(self, args, kwargs, result)
                cpu = time.thread_time() - c1
                with self._lock:
                    self.count_cpu += cpu
            return result

        setattr(module, fname, traced)

    def install(self):
        def tokens(t, args, kwargs, result):
            t.add({"sexpr.tokens": len(result), "sexpr.bytes": len(args[0])})

        def files(t, args, kwargs, result):
            t.add({"md_reader.files": 1})

        def forms(t, args, kwargs, result):
            kinds = Counter(f.kind for f in result)
            t.add({"md_reader.forms_considered": kinds[FormKind.CONSIDERED],
                   "md_reader.forms_iterator": kinds[FormKind.ITERATOR],
                   "md_reader.forms_ignored": kinds[FormKind.IGNORED]})

        def nodes(t, args, kwargs, result):
            t.add({"rtl.nodes": _count_nodes(result)})

        def analysis(t, args, kwargs, result):
            t.add({"pattern.exprs": result.expr_count,
                   "pattern.patterns": result.store.pattern_count,
                   "pattern.skipped": len(result.diagnostics["skipped"]),
                   "pattern.unknown_codes": sum(result.diagnostics["unknown_codes"].values())})

        def common(t, args, kwargs, result):
            if _expand_flag(args, kwargs):
                a, b = args[0], args[1]
                t.add({"similarity.matched_pairs_expand": len(result),
                       "similarity.pair_scan_bound":
                           a.store.pattern_count * b.store.pattern_count})
            else:
                t.add({"similarity.matched_pairs": len(result)})

        def written(t, args, kwargs, result):
            t.add({"archive.bytes_written": len(result)})

        def records(t, args, kwargs, result):
            t.add({"archive.records": len(result)})

        def expand_label(name, args, kwargs):
            return name + "[expand]" if _expand_flag(args, kwargs) else name

        self.wrap(sexpr, "tokenize", tokens)
        self.wrap(sexpr, "parse_text")
        self.wrap(md_reader, "parse_md", files)
        self.wrap(md_reader, "load_md_file", forms)
        self.wrap(rtl, "build_template_tree", nodes)
        self.wrap(pattern, "extract_pattern")
        self.wrap(pattern, "analyze", analysis)
        self.wrap(similarity, "common_patterns", common, expand_label)
        self.wrap(similarity, "expression_similarity")
        self.wrap(similarity, "target_coverage")
        self.wrap(similarity, "similarity_matrix")
        self.wrap(archive, "write_pattern_file", written)
        self.wrap(archive, "write_param_file", written)
        self.wrap(archive, "read_pattern_file")
        self.wrap(archive, "read_archives")
        self.wrap(archive, "recombine", records)
        self.wrap(archive, "verify_roundtrip")
        self.wrap(archive, "merge")

    def dump(self, path, argv):
        t0 = time.perf_counter()
        data = json.dumps({"run_id": self.run_id, "argv": argv, "spans": self.spans,
                           "counts": self.counts, "count_cpu_s": self.count_cpu})
        with open(path, "w", encoding="utf-8") as fh:
            # the time spent writing the spans is reported so it can be
            # told apart from the CLI's own overhead
            fh.write(data[:-1] + ', "dump_s": %.6f}' % (time.perf_counter() - t0))


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    path, run_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        return cli.main(cli_argv)
    finally:
        tracer.spans.append((0, None, "cli.main", t0, time.perf_counter(), c0,
                             time.thread_time(), threading.get_ident()))
        tracer.dump(path, cli_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
