"""Command-line front end.

``mdpattern <stats|extract|split|compare|matrix|recombine|merge|verify>``

Exit codes: 0 success, 1 usage error, 2 parse failure, 3 verification
failure.  Every failure is a `mdpattern.Error`: `_run` prints it as
``mdpattern: <message>`` and exits with its `status`.

Every command is a process of its own, so each subcommand imports only the
layers it uses.  Layer functions are called through their module, so a
patched module attribute takes effect.  A command runs with the cyclic
garbage collector paused: the parse trees and pattern data hold no
reference cycles, so reference counting frees them, and the collector
would only rescan them as they grow.
"""

import argparse
import gc
import operator
import os
import sys

from . import Error

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def print_help(self):
        _emit(self.format_help())  # argparse would drop a failed write silently

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _apply_overrides(entries, args):
    if args.no_includes:
        for e in entries:
            e.resolve_includes = False
    if args.heads is not None:
        head_set = frozenset(h for h in args.heads.split(",") if h)
        if not head_set:
            raise Error("--heads needs a non-empty list", EXIT_USAGE)
        for e in entries:
            e.considered_heads = head_set
    return entries


def _analyze_manifest(args, names=None):
    """The analyses of the named architectures of --manifest (all by default);
    no architecture's forms are kept while the next one is analyzed."""
    return list(map(operator.itemgetter(1), _each_arch(args, names)))


def _each_arch(args, names=None):
    """Yield (forms, analysis) for each named architecture of --manifest."""
    from . import md_reader, pattern, rtl

    try:
        table = rtl.RtxCodeTable.load()
    except rtl.RtlError as exc:
        raise Error("code table: %s" % exc)
    for entry in _load_entries(args, names):
        try:
            forms = md_reader.load_md_file(entry.path, entry.resolve_includes,
                                           entry.considered_heads)
            analysis = pattern.analyze(forms, table, entry.name,
                                       include_bin_arith=not args.no_bin_arith)
        except (OSError, Error) as exc:
            raise Error("%s: %s" % (entry.name, exc))
        yield forms, analysis


def _load_entries(args, names=None):
    from .manifest import load_manifest

    entries = _apply_overrides(load_manifest(args.manifest), args)
    if names:
        by_name = {e.name: e for e in entries}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise Error("not in manifest: %s" % ", ".join(missing), EXIT_USAGE)
        entries = [by_name[n] for n in names]
    return entries


def _emit_json(data, out):
    import json

    _emit(json.dumps(_rounded(data), indent=2) + "\n", out)


def _rounded(data):
    """`data` with every float rounded to two places."""
    if isinstance(data, float):
        return round(data, 2)
    if isinstance(data, dict):
        return {k: _rounded(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_rounded(v) for v in data]
    return data


def _emit(text, out=None):
    """Write `text` to the file `out`, or to stdout: bytes as they are, a str
    in UTF-8 to a file and in stdout's encoding to stdout.  Every stdout
    write of a command goes through here."""
    if out:
        return _write_file(out, text)
    try:
        if isinstance(text, str):
            sys.stdout.write(text)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.write(text)
        else:  # a text stream without bytes, such as io.StringIO
            sys.stdout.write(text.decode("latin-1"))
        sys.stdout.flush()
    except OSError as exc:
        # give the interpreter's flush at exit a stdout that takes the rest
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise Error("<stdout>: %s" % exc.strerror, EXIT_USAGE)


def _write_file(path, text):
    try:
        with open(path, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
    except OSError as exc:
        raise Error("%s: %s" % (path, exc.strerror), EXIT_USAGE)


def _fmt_table(headers, rows):
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_stats(args):
    from . import pattern

    analyses = _analyze_manifest(args)
    rows = []
    data = []
    for a in analyses:
        e, p = a.expr_count, a.store.pattern_count
        avg = e / p if p else 0.0
        rows.append([a.arch_name, str(e), str(p), "%.2f" % avg])
        item = {"arch": a.arch_name, "expressions": e, "patterns": p, "average": avg}
        if args.count_subpatterns:
            item["unique_subpatterns"] = len({s for text in a.store.canonical_texts()
                                              for s in pattern.subpatterns(text)})
        if a.diagnostics["unknown_codes"]:
            item["unknown_codes"] = a.diagnostics["unknown_codes"]
        data.append(item)
    if args.format == "json":
        _emit_json({"table": "stats", "rows": data}, args.out)
    else:
        _emit(_fmt_table(["Arch", "Expr (E)", "Patterns (P)", "E/P"], rows), args.out)
    return EXIT_OK


def cmd_extract(args):
    from . import archive

    analysis = _analyze_manifest(args, [args.arch])[0]
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise Error("%s: %s" % (exc.filename, exc.strerror), EXIT_USAGE)
    ppath = os.path.join(args.out_dir, "%s.patterns" % analysis.arch_name)
    mpath = os.path.join(args.out_dir, "%s.params" % analysis.arch_name)
    _write_file(ppath, archive.write_pattern_file(analysis))
    _write_file(mpath, archive.write_param_file(analysis))
    _emit("wrote %s and %s\n" % (ppath, mpath))
    return EXIT_OK


def cmd_compare(args):
    from . import similarity

    a, b = _analyze_manifest(args, [args.arch_a, args.arch_b])
    try:
        rep = similarity.expression_similarity(a, b, args.expand_iterators)
        # the a -> b matching is the report's: b's covered expressions
        cov_b = rep["covered_expr_b"]
        cov_ab = cov_b, similarity.coverage_pct(cov_b, b.expr_count)
        cov_ba = similarity.target_coverage(b, a, args.expand_iterators)
    except similarity.SimilarityError as exc:
        raise _undefined(exc, [a, b])
    if args.format == "json":
        _emit_json(dict(rep, coverage_a_to_b={"covered": cov_ab[0], "pct": cov_ab[1]},
                        coverage_b_to_a={"covered": cov_ba[0], "pct": cov_ba[1]}), args.out)
    else:
        lines = [
            "%s vs %s" % (rep["arch_a"], rep["arch_b"]),
            "  common patterns:        %d (%.2f%%)"
            % (rep["common_patterns"], rep["pattern_similarity_pct"]),
            "  covered expressions:    %d + %d (%.2f%%)"
            % (rep["covered_expr_a"], cov_b, rep["expression_similarity_pct"]),
            "  coverage %s -> %s:  %d (%.2f%%)"
            % (rep["arch_a"], rep["arch_b"], *cov_ab),
            "  coverage %s -> %s:  %d (%.2f%%)"
            % (rep["arch_b"], rep["arch_a"], *cov_ba),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _undefined(exc, analyses):
    # a percentage over no expressions: name the architectures that have none
    empty = dict.fromkeys(a.arch_name for a in analyses if not a.expr_count)
    return Error("%s: %s" % (", ".join(empty), exc))


def cmd_matrix(args):
    from . import similarity

    analyses = _analyze_manifest(args)
    if len(analyses) < 2:
        raise Error("matrix needs at least two architectures", EXIT_USAGE)
    try:
        rep = similarity.similarity_matrix(analyses, args.metric, args.expand_iterators)
    except similarity.SimilarityError as exc:
        raise _undefined(exc, analyses)
    if args.format == "json":
        _emit_json(rep, args.out)
    else:
        rows = [[c["row"], c["col"], str(c["count"]), "%.2f" % c["pct"]] for c in rep["cells"]]
        head = ["Source", "Target"] if rep["table"] == "coverage" else ["Arch A", "Arch B"]
        _emit(_fmt_table(head + ["Count", "Pct"], rows), args.out)
    return EXIT_OK


def cmd_recombine(args):
    from . import archive, read_text

    store, bindings, _ = archive.read_archives(read_text(args.patterns), read_text(args.params),
                                               args.patterns, args.params)
    forms = archive.recombine(store, bindings)
    text = "\n\n".join(f.form_text for f in forms) + "\n"
    try:
        data = text.encode("latin-1")  # the inverse of how MD files are read
    except UnicodeEncodeError as exc:
        raise Error("recombined forms hold %r, which no MD file holds: MD files "
                    "are Latin-1" % exc.object[exc.start])
    _emit(data, args.out)
    return EXIT_OK


def cmd_merge(args):
    from . import archive, read_text

    pfiles = [archive.read_pattern_file(read_text(path), path) for path in args.patterns]
    _emit(archive.render_pattern_file(archive.merge(pfiles, args.min_count)), args.out)
    return EXIT_OK


def cmd_verify(args):
    from . import archive

    lines = []  # printed once every architecture has been analyzed
    failed = False
    for forms, a in _each_arch(args, args.archs or None):
        try:
            counts = archive.verify_roundtrip(a, forms)
        except Error as exc:
            raise Error("%s: %s" % (a.arch_name, exc))
        failed = failed or any(counts)
        lines.append("%s: %d missing / %d extra / %d changed%s\n"
                     % (a.arch_name, *counts, "  FAIL" if any(counts) else ""))
    for line in lines:
        _emit(line)
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------


def _add_manifest(p):
    p.add_argument("--manifest", required=True, help="corpus manifest file")
    p.add_argument("--no-includes", action="store_true",
                   help="do not resolve (include ...) directives")
    p.add_argument("--heads", help="comma-separated considered define_* heads")
    p.add_argument("--no-bin-arith", action="store_true",
                   help="abstract non-commutative arithmetic operators too")


def _add_report(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")


def build_parser():
    parser = _Parser(prog="mdpattern",
                     description="Extract and compare RTL patterns from "
                                 "machine description files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="per-architecture expression/pattern counts")
    _add_manifest(p)
    p.add_argument("--count-subpatterns", action="store_true",
                   help="also count sub-patterns (diagnostic)")
    _add_report(p)
    p.set_defaults(func=cmd_stats)

    for alias in ("extract", "split"):
        p = sub.add_parser(alias, help="write pattern and parameter archives")
        p.add_argument("arch")
        p.add_argument("--out-dir", required=True)
        _add_manifest(p)
        p.set_defaults(func=cmd_extract)

    p = sub.add_parser("compare", help="all three metrics for one pair")
    p.add_argument("arch_a")
    p.add_argument("arch_b")
    p.add_argument("--expand-iterators", action="store_true")
    _add_manifest(p)
    _add_report(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("matrix", help="all-pairs similarity matrix")
    p.add_argument("--metric", choices=("pattern", "expr", "coverage"),
                   default="pattern")
    p.add_argument("--expand-iterators", action="store_true")
    _add_manifest(p)
    _add_report(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("recombine", help="regenerate MD forms from archives")
    p.add_argument("--patterns", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recombine)

    p = sub.add_parser("merge", help="merge pattern archives with a threshold")
    p.add_argument("patterns", nargs="+")
    p.add_argument("--min-count", type=int, default=0,
                   help="keep patterns occurring strictly more often than this")
    p.add_argument("--out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("verify", help="split+recombine round-trip check")
    p.add_argument("archs", nargs="*")
    _add_manifest(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    gc_enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return _run(argv)
    finally:
        if gc_enabled:
            gc.enable()


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's, after --help or a usage error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except Error as exc:
        print("mdpattern: %s" % exc, file=sys.stderr)
        return exc.status


if __name__ == "__main__":
    sys.exit(main())
