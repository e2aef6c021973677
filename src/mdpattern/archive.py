"""Text archives: pattern files, parameter files, recombination, merging.

In memory, archives are a `pattern.MdAnalysis`: `read_pattern_file` and
`merge` give one with no bindings, `read_archives` one with its bindings.
Only `verify_roundtrip` imports `sexpr`, for `serialize`, so reading,
writing, recombining and merging archives loads no lexer.

Pattern file: the headers ``# arch: NAME``, ``# total_templates: N`` (the
analysis's `expr_count`: the templates the archive sums up, including those
whose patterns `merge --min-count` dropped) and one ``# iterator: FORM``
per iterator definition; then one ``<id> <height> <count> <pattern>`` line
per unique pattern, the ids 0, 1, ..., sorted by (height, id).

Parameter file: one record per analyzed expression, ``<pattern-id>
<form-kind> <form-name> $p=<value> ...``, the holes in the pattern's order.
Kinds, names, values and iterator forms are percent-escaped, so that each
stays on its line.

Each line has one formatter, which the writer calls.  A reader takes a line
only if that formatter gives it back, ended by a newline, where the writer
puts it.  So writing what a reader read gives its text back, and a line has
one spelling, as `merge`, which adds up counts by exact text, needs.
"""

import itertools
import re

from . import ATOM_CHAR, Error, escape_string
from .pattern import (MdAnalysis, ParamBinding, PatternStore, RtlPattern, height,
                      pattern_holes, substitute)


class ArchiveError(Error):
    """An archive that cannot be read; the message starts ``path:line:``,
    ``path:`` or ``line N:``, as far as the fault's place is known."""

    def __init__(self, msg, filename=None, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            msg = ("%s:%d: " % (filename, lineno) if filename else "line %d: " % lineno) + msg
        elif filename:
            msg = "%s: %s" % (filename, msg)
        super().__init__(msg)


class BadHeader(ArchiveError):
    pass


class MalformedEntry(ArchiveError):
    def __init__(self, line, filename=None, lineno=None):
        super().__init__("malformed entry: %r" % line, filename, lineno)


class DanglingPatternId(ArchiveError):
    def __init__(self, pattern_id, filename=None, lineno=None):
        self.pattern_id = pattern_id
        super().__init__("parameter record references unknown pattern id %d" % pattern_id,
                         filename, lineno)


class UnfitRecord(ArchiveError):
    """A parameter record that does not name each hole of its pattern once,
    in the pattern's order."""

    def __init__(self, pattern_id, names, holes, filename=None, lineno=None):
        faults = (("misses", [h for h in holes if h not in names]),
                  ("adds", [n for n in dict.fromkeys(names) if n not in holes]),
                  ("repeats", [n for n in dict.fromkeys(names) if names.count(n) > 1]))
        fault = "; ".join("%s %s" % (verb, " ".join(ns)) for verb, ns in faults if ns)
        super().__init__("parameter record does not fit pattern %d: %s" % (pattern_id, fault or (
            "names its holes in the order %s, not %s" % (" ".join(names), " ".join(holes)))),
            filename, lineno)


#: '%', space, tab and the line breakers of str.splitlines, each mapped
#: to the %XX of its UTF-8 bytes.
_ESCAPES = {ord(c): "".join("%%%02X" % b for b in c.encode())
            for c in "% \t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"}
#: An iterator header escapes the same characters but space and tab, so the
#: form stays readable.
_HEADER_ESCAPES = {k: v for k, v in _ESCAPES.items() if chr(k) not in " \t"}
_UNESCAPES = {v: chr(k) for k, v in _ESCAPES.items()}
_UNESCAPE_RE = re.compile("|".join(_UNESCAPES))  # no escape is a prefix of another


def escape_value(s: str) -> str:
    """Reversible escaping that keeps a value one field of one line."""
    if s.isprintable():  # then only '%' and space need escaping
        return s.replace("%", "%25").replace(" ", "%20")
    return s.translate(_ESCAPES)


def unescape_value(s: str) -> str:
    """The inverse of `escape_value`: each escape it writes becomes its
    character again, and any other '%' stays as it is."""
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES[m[0]], s) if "%" in s else s


# ---------------------------------------------------------------------------
# Writing


def _iterator(text: str) -> str:
    return "# iterator: %s" % text.translate(_HEADER_ESCAPES)


def _entry(pattern_id: int, p: RtlPattern, count: int) -> str:
    return "%d %d %d %s" % (pattern_id, p.height, count, p.canonical_text)


def _record(b: ParamBinding) -> str:
    return " ".join([str(b.pattern_id), escape_value(b.form_kind), escape_value(b.form_name),
                     *["%s=%s" % (p, escape_value(v)) for p, v in b.assignments]])


def _pattern_lines(analysis: MdAnalysis) -> list[str]:
    return ["# arch: %s" % analysis.arch_name, "# total_templates: %d" % analysis.expr_count,
            *map(_iterator, analysis.iterators),
            *(_entry(e.pattern_id, e.pattern, e.count) for e in analysis.store.entries())]


def write_pattern_file(analysis: MdAnalysis) -> str:
    return "\n".join(_pattern_lines(analysis)) + "\n"


def write_param_file(analysis: MdAnalysis) -> str:
    lines = list(map(_record, analysis.bindings))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Reading


_DIGITS_RE = re.compile(r"\d+")
_ENTRY_RE = re.compile(r"(\d+) (\d+) (\d+) (.+)")
#: A form kind: a symbol, so an atom that is no integer and opens no comment.
_KIND_RE = re.compile(r"(?!-?\d+\Z|/\*)%s+" % ATOM_CHAR)


def _int(digits: str) -> int:
    """int(digits), or -1, which no writer writes, past Python's digit limit."""
    try:
        return int(digits)
    except ValueError:
        return -1


def _check_layout(text: str, written: list[str], filename: str | None) -> None:
    """Reject the first line of `text` that is not the writer's line at its
    place, ended by '\\n', where `written` are the lines the writer writes."""
    if text != "".join(line + "\n" for line in written):
        lineno = next(i for i, (raw, line) in enumerate(itertools.zip_longest(
            text.splitlines(True), written, fillvalue=""), 1) if raw != line + "\n")
        raise ArchiveError("not the line the writer writes here", filename, lineno)


def read_pattern_file(text: str, filename: str | None = None) -> MdAnalysis:
    """The analysis the pattern file `text` holds, with no bindings; an error
    names `filename` and the line."""
    arch = total = None
    iterators, rows = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            if line.startswith("# arch: "):
                arch = line[len("# arch: "):]
            elif line.startswith("# total_templates: "):
                total = line[len("# total_templates: "):]
                if not _DIGITS_RE.fullmatch(total) or "%d" % _int(total) != total:
                    raise BadHeader("bad total_templates", filename, lineno)
            elif line.startswith("# iterator: "):
                iterators.append(unescape_value(line[len("# iterator: "):]))
                if _iterator(iterators[-1]) != line:
                    raise BadHeader("bad iterator", filename, lineno)
            else:
                raise BadHeader("unknown header line %r" % line, filename, lineno)
            continue
        m = _ENTRY_RE.fullmatch(line)
        holes = m and pattern_holes(m[4])
        p = holes is not None and RtlPattern(m[4], height(m[4]), holes)
        if not p or _entry(_int(m[1]), p, _int(m[3])) != line:
            raise MalformedEntry(line, filename, lineno)
        rows.append((int(m[1]), lineno, line, p, int(m[3])))
    # a row is malformed if its id is not its place in id order, or its text is taken
    store = PatternStore()
    for place, (pid, lineno, line, p, count) in enumerate(sorted(rows)):
        if pid != place or not store.insert(p, count)[1]:
            raise MalformedEntry(line, filename, lineno)
    if arch is None or total is None:
        raise BadHeader("missing arch/total_templates header", filename)
    analysis = MdAnalysis(arch, store, [], iterators, expr_count=int(total))
    _check_layout(text, _pattern_lines(analysis), filename)
    return analysis


def read_archives(pattern_text: str, param_text: str, pattern_filename: str | None = None,
                  param_filename: str | None = None) -> MdAnalysis:
    """Inverse of the write pair: the analysis with its store and bindings.
    An error names the file it is in and the line."""
    analysis = read_pattern_file(pattern_text, pattern_filename)
    lines = param_text.splitlines()
    for lineno, line in enumerate(lines, 1):
        fields = line.split(" ")
        parts = [f.partition("=") for f in fields[3:]]
        b = len(fields) >= 3 and _DIGITS_RE.fullmatch(fields[0]) and ParamBinding(
            _int(fields[0]), [(n, unescape_value(v)) for n, _, v in parts],
            unescape_value(fields[1]), unescape_value(fields[2]))
        names = [n for n, _, _ in parts]
        if not b or _record(b) != line or not _KIND_RE.fullmatch(b.form_kind) or "" in names:
            raise MalformedEntry(line, param_filename, lineno)
        entry = analysis.store.get(b.pattern_id)
        if entry is None:
            raise DanglingPatternId(b.pattern_id, param_filename, lineno)
        if names != entry.pattern.holes:
            raise UnfitRecord(b.pattern_id, names, entry.pattern.holes, param_filename, lineno)
        analysis.bindings.append(b)
    _check_layout(param_text, lines, param_filename)  # each record's line end
    return analysis


# ---------------------------------------------------------------------------
# Recombination and verification


def _form_text(kind: str, name: str, template: str) -> str:
    return '(%s "%s"\n  %s\n  ""\n  "")' % (kind, escape_string(name), template)


def recombine(analysis: MdAnalysis) -> list[str]:
    """The MD form text of each binding, in binding order: skeletons whose
    kind, name and template vector are exact, with placeholder condition and
    output-template fields.  Each binding's pattern is in the store, as
    `analyze` and `read_archives` make sure."""
    return [_form_text(b.form_kind, b.form_name, substitute(
        analysis.store.get(b.pattern_id).pattern.canonical_text, dict(b.assignments)))
        for b in analysis.bindings]


def verify_roundtrip(analysis: MdAnalysis, forms) -> tuple[int, int, int]:
    """Split, recombine, and compare each recombined form with the skeleton
    of its source form: its head, its name and `sexpr.serialize` of its
    template vector.  `forms` are the forms analyzed, and each binding's
    origin names its form.

    Returns (missing, extra, changed) counts; all zero on success.
    """
    from . import sexpr
    from .md_reader import extract_template_vector

    got = recombine(read_archives(write_pattern_file(analysis), write_param_file(analysis)))
    by_origin = {f.origin: f for f in forms}
    orig = [_form_text(f.head, f.name, sexpr.serialize(extract_template_vector(f)))
            for f in (by_origin[b.origin] for b in analysis.bindings)]
    changed = sum(1 for o, g in zip(orig, got) if o != g)
    missing = max(0, len(orig) - len(got))
    extra = max(0, len(got) - len(orig))
    return missing, extra, changed


# ---------------------------------------------------------------------------
# Merging


def merge(analyses, min_count: int) -> MdAnalysis:
    """Union pattern archives; keep patterns occurring strictly more than
    min_count times in total; ids are reassigned in (height, text) order.
    The header total is the inputs' sum, dropped patterns included."""
    counts: dict[str, int] = {}
    patterns: dict[str, RtlPattern] = {}
    for a in analyses:
        for e in a.store.entries():
            text = e.pattern.canonical_text
            counts[text] = counts.get(text, 0) + e.count
            patterns[text] = e.pattern
    kept = sorted((t for t, c in counts.items() if c > min_count),
                  key=lambda t: (patterns[t].height, t))
    store = PatternStore()
    for t in kept:
        store.insert(patterns[t], counts[t])
    return MdAnalysis(",".join(a.arch_name for a in analyses if a.arch_name), store, [],
                      list(dict.fromkeys(it for a in analyses for it in a.iterators)),
                      expr_count=sum(a.expr_count for a in analyses))
