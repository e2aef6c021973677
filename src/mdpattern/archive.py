"""Text archives: pattern files, parameter files, recombination, merging.

Pattern file: ``#``-prefixed header lines (arch, total_templates, one line
per iterator definition, with ``%`` and the line breakers below escaped)
then one ``<id> <height> <count> <pattern>`` line per unique pattern,
sorted by (height, id).  A pattern text must be exactly as `extract` writes
it, as `pattern.is_pattern_text` checks: single spaces, no string or brace
atom, and holes numbered by first occurrence.  Any other entry is malformed
and not normalized, because `merge` adds up counts by exact text.  So is
an entry whose height is not `pattern.height` of its text, because
archives and `merge` order patterns by height.

Parameter file: one record per analyzed expression,
``<pattern-id> <form-kind> <form-name> $p=<value> ...`` with values
percent-escaped so a record stays on one line: ``%``, space, tab and
every character that ``str.splitlines`` breaks at are written as the
``%XX`` of their UTF-8 bytes.
"""

import re

from . import Error, sexpr
from .pattern import (MdAnalysis, ParamBinding, PatternStore, RtlPattern, height,
                      is_pattern_text, substitute)


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


#: '%', space, tab and the line breakers of str.splitlines, each mapped
#: to the %XX of its UTF-8 bytes.
_ESCAPES = {ord(c): "".join("%%%02X" % b for b in c.encode())
            for c in "% \t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"}
#: An iterator header escapes the same characters but space and tab, so the
#: form stays readable.
_HEADER_ESCAPES = {k: v for k, v in _ESCAPES.items() if chr(k) not in " \t"}
_PERCENT_RUN_RE = re.compile(r"(?:%[0-9A-Fa-f]{2})+")


def escape_value(s: str) -> str:
    """Reversible escaping that keeps a value one field of one line."""
    if s.isprintable():  # then only '%' and space need escaping
        return s.replace("%", "%25").replace(" ", "%20")
    return s.translate(_ESCAPES)


def _decode_run(m):
    return bytes.fromhex(m.group().replace("%", "")).decode("utf-8", "replace")


def unescape_value(s: str) -> str:
    """Decode each run of %XX as UTF-8, as urllib.parse.unquote does: an
    invalid byte sequence becomes U+FFFD and a malformed '%' stays as it is."""
    return _PERCENT_RUN_RE.sub(_decode_run, s) if "%" in s else s


class PatternFile:
    def __init__(self, arch: str, total_templates: int, iterators: list, entries: list):
        self.arch = arch
        self.total_templates = total_templates
        self.iterators = iterators
        self.entries = entries  # (id, height, count, text)


# ---------------------------------------------------------------------------
# Writing


def pattern_file_of(analysis: MdAnalysis) -> PatternFile:
    entries = [
        (e.pattern_id, e.pattern.height, e.count, e.pattern.canonical_text)
        for e in analysis.store.entries()
    ]
    return PatternFile(analysis.arch_name, analysis.store.total_templates,
                       list(analysis.iterators), entries)


def render_pattern_file(pf: PatternFile) -> str:
    lines = ["# arch: %s" % pf.arch, "# total_templates: %d" % pf.total_templates]
    lines.extend("# iterator: %s" % it.translate(_HEADER_ESCAPES) for it in pf.iterators)
    lines.extend("%d %d %d %s" % entry for entry in pf.entries)
    return "\n".join(lines) + "\n"


def write_pattern_file(analysis: MdAnalysis) -> str:
    return render_pattern_file(pattern_file_of(analysis))


def write_param_file(analysis: MdAnalysis) -> str:
    lines = []
    for b in analysis.bindings:
        fields = [str(b.pattern_id), b.form_kind, escape_value(b.form_name)]
        fields.extend("%s=%s" % (p, escape_value(v)) for p, v in b.assignments)
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Reading


_ENTRY_RE = re.compile(r"(\d+) (\d+) (\d+) (.+)")


def read_pattern_file(text: str, filename: str | None = None) -> PatternFile:
    """The pattern file `text`; an error names `filename` and the line."""
    arch = None
    total = None
    iterators = []
    entries = []
    seen = set()  # ids (int) and texts (str) so far: each must be unique
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("arch:"):
                arch = body[len("arch:"):].strip()
            elif body.startswith("total_templates:"):
                try:
                    total = int(body[len("total_templates:"):].strip())
                except ValueError:
                    raise BadHeader("bad total_templates", filename, lineno)
            elif body.startswith("iterator:"):
                iterators.append(unescape_value(body[len("iterator:"):].strip()))
            else:
                raise BadHeader("unknown header line %r" % line, filename, lineno)
            continue
        m = _ENTRY_RE.fullmatch(line)
        text = m and m.group(4)
        if (not (text and is_pattern_text(text)) or int(m.group(2)) != height(text)
                or int(m.group(1)) in seen or text in seen):
            raise MalformedEntry(line, filename, lineno)
        pid = int(m.group(1))
        seen.update((pid, text))
        entries.append((pid, int(m.group(2)), int(m.group(3)), text))
    if arch is None or total is None:
        raise BadHeader("missing arch/total_templates header", filename)
    return PatternFile(arch, total, iterators, entries)


def read_archives(pattern_text: str, param_text: str, pattern_filename: str | None = None,
                  param_filename: str | None = None):
    """Inverse of the write pair: rebuild the store and bindings.  An error
    names the file it is in and the line."""
    pf = read_pattern_file(pattern_text, pattern_filename)
    store = PatternStore()
    for pid, height, count, text in pf.entries:
        store.insert_entry(pid, RtlPattern(text, height), count)
    known = {pid for pid, _, _, _ in pf.entries}
    bindings = []
    for lineno, line in enumerate(param_text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(" ")
        if len(fields) < 3 or not fields[0].isdecimal():
            raise MalformedEntry(line, param_filename, lineno)
        pid = int(fields[0])
        if pid not in known:
            raise DanglingPatternId(pid, param_filename, lineno)
        assignments = []
        for f in fields[3:]:
            if not f:
                continue
            if "=" not in f or not f.startswith("$"):
                raise MalformedEntry(line, param_filename, lineno)
            name, _, value = f.partition("=")
            assignments.append((name, unescape_value(value)))
        bindings.append(ParamBinding(pid, assignments, fields[1],
                                     unescape_value(fields[2])))
    return store, bindings, pf


# ---------------------------------------------------------------------------
# Recombination and verification


class RegeneratedForm:
    __slots__ = ("form_kind", "form_name", "template_text", "form_text")

    def __init__(self, form_kind: str, form_name: str, template_text: str, form_text: str):
        self.form_kind = form_kind
        self.form_name = form_name
        self.template_text = template_text
        self.form_text = form_text


def recombine(store: PatternStore, bindings) -> list[RegeneratedForm]:
    """Substitute each binding into its pattern; order follows the bindings.

    Output forms are skeletons: the template vector is exact, condition and
    output-template fields are placeholders.
    """
    out = []
    for b in bindings:
        try:
            entry = store.get(b.pattern_id)
        except KeyError:
            raise DanglingPatternId(b.pattern_id)
        template = substitute(entry.pattern.canonical_text, dict(b.assignments))
        name = '"%s"' % b.form_name if b.form_name else '""'
        form = "(%s %s\n  %s\n  \"\"\n  \"\")" % (b.form_kind, name, template)
        out.append(RegeneratedForm(b.form_kind, b.form_name, template, form))
    return out


def template_tokens(text: str) -> list:
    """The (kind, value) of each token: layout and comments do not count,
    and every string literal is compared by its decoded characters."""
    return [tok[:2] for tok in sexpr.tokenize(text)]


def verify_roundtrip(analysis: MdAnalysis, forms) -> tuple[int, int, int]:
    """Split, recombine, and compare each recombined template with
    `sexpr.serialize` of its form's template vector; `forms` are the forms
    analyzed, and each binding's origin names its form.

    Returns (missing, extra, changed) counts; all zero on success.
    """
    from .md_reader import extract_template_vector

    store, bindings, _ = read_archives(
        write_pattern_file(analysis), write_param_file(analysis)
    )
    regen = recombine(store, bindings)
    by_origin = {f.origin: f for f in forms}
    orig = [sexpr.serialize(extract_template_vector(by_origin[b.origin]))
            for b in analysis.bindings]
    got = [r.template_text for r in regen]
    # equal texts have equal tokens, so only differing texts are lexed
    changed = sum(1 for o, g in zip(orig, got)
                  if o != g and template_tokens(o) != template_tokens(g))
    missing = max(0, len(orig) - len(got))
    extra = max(0, len(got) - len(orig))
    return missing, extra, changed


# ---------------------------------------------------------------------------
# Merging


def merge(pattern_files, min_count: int) -> PatternFile:
    """Union pattern files; keep patterns occurring strictly more than
    min_count times in total; ids are reassigned in (height, text) order."""
    counts: dict[str, int] = {}
    heights: dict[str, int] = {}
    iterators = []
    seen_iter = set()
    arch_names = []
    total = 0
    for pf in pattern_files:
        if pf.arch:
            arch_names.append(pf.arch)
        total += pf.total_templates
        for it in pf.iterators:
            if it not in seen_iter:
                seen_iter.add(it)
                iterators.append(it)
        for _, height, count, text in pf.entries:
            counts[text] = counts.get(text, 0) + count
            heights[text] = height
    kept = sorted(
        (t for t, c in counts.items() if c > min_count),
        key=lambda t: (heights[t], t),
    )
    entries = [(i, heights[t], counts[t], t) for i, t in enumerate(kept)]
    return PatternFile(",".join(arch_names), total, iterators, entries)
