"""Command-line front end.

``mdpattern <stats|extract|split|compare|matrix|recombine|merge|verify>``

Exit codes: 0 success, 1 usage error, 2 parse failure, 3 verification
failure.

Every command is a process of its own, so each subcommand imports only the
layers it uses.  Layer functions are called through their module, so a
patched module attribute takes effect.  A command runs with the cyclic
garbage collector paused: the parse trees and pattern data hold no
reference cycles, so reference counting frees them, and the collector
would only rescan them as they grow.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class CliError(Exception):
    def __init__(self, msg, code=EXIT_USAGE):
        super().__init__(msg)
        self.code = code


def _apply_overrides(entries, args):
    if args.no_includes:
        for e in entries:
            e.resolve_includes = False
    if args.heads:
        head_set = frozenset(h for h in args.heads.split(",") if h)
        if not head_set:
            raise CliError("--heads needs a non-empty list")
        for e in entries:
            e.considered_heads = head_set
    return entries


def _analyze_manifest(args, names=None):
    """Analyze the named architectures of --manifest (all by default)."""
    from . import md_reader, pattern, rtl
    from .sexpr import SExprError

    try:
        table = rtl.RtxCodeTable.load()
    except (OSError, rtl.RtlError) as exc:
        raise CliError("code table: %s" % exc, EXIT_PARSE)
    analyses = []
    for entry in _load_entries(args, names):
        try:
            forms = md_reader.load_md_file(entry.path, entry.resolve_includes,
                                           entry.considered_heads)
            analyses.append(pattern.analyze(forms, table, entry.name,
                                            include_bin_arith=not args.no_bin_arith))
        except (OSError, md_reader.MdReaderError, SExprError) as exc:
            raise CliError("%s: %s" % (entry.name, exc), EXIT_PARSE)
    return analyses


def _load_entries(args, names=None):
    from .manifest import ManifestError, load_manifest

    try:
        entries = load_manifest(args.manifest)
    except (OSError, ManifestError) as exc:
        raise CliError(str(exc))
    entries = _apply_overrides(entries, args)
    if names:
        by_name = {e.name: e for e in entries}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise CliError("not in manifest: %s" % ", ".join(missing))
        entries = [by_name[n] for n in names]
    return entries


def _emit_json(data, out):
    import json

    _emit(json.dumps(data, indent=2) + "\n", out)


def _emit(text, out):
    if out:
        _write_file(out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError("%s: %s" % (path, exc.strerror))


def _read_archive(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise CliError("%s: %s" % (path, exc), EXIT_PARSE) from None


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
        avg = round(e / p, 2) if p else 0.0
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
        raise CliError("%s: %s" % (exc.filename, exc.strerror))
    ppath = os.path.join(args.out_dir, "%s.patterns" % analysis.arch_name)
    mpath = os.path.join(args.out_dir, "%s.params" % analysis.arch_name)
    _write_file(ppath, archive.write_pattern_file(analysis))
    _write_file(mpath, archive.write_param_file(analysis))
    print("wrote %s and %s" % (ppath, mpath))
    return EXIT_OK


def cmd_compare(args):
    from . import similarity

    a, b = _analyze_manifest(args, [args.arch_a, args.arch_b])
    try:
        rep = similarity.expression_similarity(a, b, args.expand_iterators)
        # the a -> b matching is the report's: b's covered expressions
        cov_ab = rep.covered_expr_b, similarity.coverage_pct(rep.covered_expr_b, b.expr_count)
        cov_ba = similarity.target_coverage(b, a, args.expand_iterators)
    except similarity.SimilarityError as exc:
        raise _undefined(exc, [a, b])
    data = {
        "arch_a": rep.arch_a,
        "arch_b": rep.arch_b,
        "common_patterns": rep.common_pattern_count,
        "pattern_similarity_pct": round(rep.pattern_similarity_pct, 2),
        "covered_expr_a": rep.covered_expr_a,
        "covered_expr_b": rep.covered_expr_b,
        "expression_similarity_pct": round(rep.expression_similarity_pct, 2),
        "coverage_a_to_b": {"covered": cov_ab[0], "pct": round(cov_ab[1], 2)},
        "coverage_b_to_a": {"covered": cov_ba[0], "pct": round(cov_ba[1], 2)},
    }
    if args.format == "json":
        _emit_json(data, args.out)
    else:
        lines = [
            "%s vs %s" % (rep.arch_a, rep.arch_b),
            "  common patterns:        %d (%.2f%%)"
            % (rep.common_pattern_count, rep.pattern_similarity_pct),
            "  covered expressions:    %d + %d (%.2f%%)"
            % (rep.covered_expr_a, rep.covered_expr_b, rep.expression_similarity_pct),
            "  coverage %s -> %s:  %d (%.2f%%)"
            % (rep.arch_a, rep.arch_b, cov_ab[0], cov_ab[1]),
            "  coverage %s -> %s:  %d (%.2f%%)"
            % (rep.arch_b, rep.arch_a, cov_ba[0], cov_ba[1]),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _undefined(exc, analyses):
    # a percentage over no expressions: name the architectures that have none
    empty = dict.fromkeys(a.arch_name for a in analyses if not a.expr_count)
    return CliError("%s: %s" % (", ".join(empty), exc), EXIT_PARSE)


def cmd_matrix(args):
    from . import similarity

    analyses = _analyze_manifest(args)
    if len(analyses) < 2:
        raise CliError("matrix needs at least two architectures")
    try:
        rep = similarity.similarity_matrix(analyses, args.metric, args.expand_iterators)
    except similarity.SimilarityError as exc:
        raise _undefined(exc, analyses)
    if args.format == "json":
        data = {
            "table": rep.metric,
            "archs": rep.arch_names,
            "cells": [
                {"row": c.row, "col": c.col, "count": c.count, "pct": round(c.pct, 2)}
                for c in rep.cells
            ],
        }
        _emit_json(data, args.out)
    else:
        rows = [[c.row, c.col, str(c.count), "%.2f" % c.pct] for c in rep.cells]
        head = ["Source", "Target"] if rep.metric == "coverage" else ["Arch A", "Arch B"]
        _emit(_fmt_table(head + ["Count", "Pct"], rows), args.out)
    return EXIT_OK


def cmd_recombine(args):
    from . import archive
    from .pattern import PatternError

    try:
        ptext = _read_archive(args.patterns)
        mtext = _read_archive(args.params)
        store, bindings, _ = archive.read_archives(ptext, mtext)
        forms = archive.recombine(store, bindings)
    except (OSError, archive.ArchiveError, PatternError) as exc:
        raise CliError(str(exc), EXIT_PARSE)
    _emit("\n\n".join(f.form_text for f in forms) + ("\n" if forms else ""), args.out)
    return EXIT_OK


def cmd_merge(args):
    from . import archive

    try:
        pfiles = []
        for path in args.patterns:
            pfiles.append(archive.read_pattern_file(_read_archive(path)))
        merged = archive.merge(pfiles, args.min_count)
    except (OSError, archive.ArchiveError) as exc:
        raise CliError(str(exc), EXIT_PARSE)
    _emit(archive.render_pattern_file(merged), args.out)
    return EXIT_OK


def cmd_verify(args):
    from . import archive
    from .pattern import PatternError

    analyses = _analyze_manifest(args, args.archs or None)
    failed = False
    for a in analyses:
        try:
            missing, extra, changed = archive.verify_roundtrip(a)
        except (archive.ArchiveError, PatternError) as exc:
            raise CliError("%s: %s" % (a.arch_name, exc), EXIT_PARSE)
        ok = missing == extra == changed == 0
        failed = failed or not ok
        print("%s: %d missing / %d extra / %d changed%s"
              % (a.arch_name, missing, extra, changed, "" if ok else "  FAIL"))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        print("mdpattern: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
