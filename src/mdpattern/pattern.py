"""Abstract parsed RTL templates into patterns with named parameter holes.

A pattern keeps the operators that mean the same thing on every machine
and replaces everything machine-chosen (operands, constants, modes,
predicates) by ``$argN`` / ``$modeN`` holes.  Identical replaced text
within one expression reuses the same hole, so a binding stays small.
A pattern is its canonical text; no pattern tree outlives extraction.

Only the code that walks parsed trees imports `sexpr`, so reading and
writing archives loads no lexer.
"""

import re
from collections import Counter

from . import ATOM_CHAR, MAX_DEPTH


class RtlPattern:
    __slots__ = ("canonical_text", "height", "holes")

    def __init__(self, canonical_text: str, height: int, holes: list | None = None):
        self.canonical_text = canonical_text
        self.height = height
        self.holes = holes  # `read_pattern_text`'s holes if read from an archive


class ParamBinding:
    __slots__ = ("pattern_id", "assignments", "form_kind", "form_name", "origin")

    def __init__(self, pattern_id: int, assignments: list, form_kind: str,
                 form_name: str, origin: "sexpr.Loc | None" = None):
        self.pattern_id = pattern_id
        self.assignments = assignments  # ordered (param name text, verbatim replaced text)
        self.form_kind = form_kind  # define_* head of the originating form
        self.form_name = form_name
        self.origin = origin  # the form's Loc; None when read from an archive


def extract_pattern(tree: "sexpr.SExpr", table: "rtl.RtxCodeTable", retained: frozenset,
                    unknown_codes: Counter | None = None):
    """Abstract one parsed template, which `rtl.build_template_tree` has
    checked, in a single walk.

    `retained` holds the operator codes that stay in the pattern; every
    other list and every atom becomes a hole.  Returns (RtlPattern,
    assignments).  Holes are numbered per kind by first pre-order (=
    textual) occurrence, so the text is canonical; assignments list the
    hole values in mode-then-arg order, and substituting them back gives
    the tree's single-space rendering.
    """
    from . import sexpr

    walk = _Walk(table, retained, unknown_codes, sexpr)
    text, h = walk.node(tree)
    assignments = [(name, value) for holes in (walk.mode_map, walk.arg_map)
                   for value, name in holes.items()]
    return RtlPattern(text, max(1, h)), assignments


def _hole(names, kind, text):
    return names.setdefault(text, "$%s%d" % (kind, len(names)))


class _Walk:
    """The state of one `extract_pattern` walk: what stays, and the holes
    named so far; a list head splits at its first ':' into code and mode,
    and a hole's text is `sexpr.serialize` of its node.  Its methods
    recurse through `self`, so a walk leaves no reference cycle for the
    cyclic collector to find."""

    __slots__ = ("table", "retained", "unknown_codes", "serialize", "slist", "svector",
                 "arg_map", "mode_map")

    def __init__(self, table, retained, unknown_codes, sexpr):
        self.table = table
        self.retained = retained
        self.unknown_codes = unknown_codes
        self.serialize = sexpr.serialize
        self.slist = sexpr.SList
        self.svector = sexpr.SVector
        self.arg_map: dict[str, str] = {}
        self.mode_map: dict[str, str] = {}

    def node(self, node):
        # (pattern text, height) of one node; a hole has height 1
        kind = type(node)
        code = None
        if kind is self.slist:
            code, colon, mode = node.items[0].text.partition(":")
        if kind is self.svector:
            texts = []
        elif code in self.retained:
            texts = [code + ":" + _hole(self.mode_map, "mode", mode) if colon else code]
        else:
            unknown_codes = self.unknown_codes
            if code is not None and unknown_codes is not None and self.table.rtx_class(code) is None:
                unknown_codes[code] += 1
            return _hole(self.arg_map, "arg", self.serialize(node)), 1
        h = 0
        for child in node.children:
            text, child_h = self.node(child)
            texts.append(text)
            h = max(h, child_h)
        if kind is self.svector:
            return "[%s]" % " ".join(texts), h
        return "(%s)" % " ".join(texts), 1 + h


# A pattern text is what `_Walk` writes:
#
#     item := "$arg"N | "(" code [":$mode"N] (" " item)* ")"
#           | "[" [item (" " item)*] "]"
#
# A code is a run of atom characters but ':'; a list head, the code with its
# mode hole, is a symbol to `sexpr` (no integer, no opening '/*').  Spaces are
# single, each kind of hole is numbered 0, 1, ... by first occurrence, and
# lists and vectors nest at most MAX_DEPTH levels.

#: The holes of a pattern text: a '$' after a space, a '[' or a ':' starts
#: one, as no code holds any of these characters.
_HOLE_RE = re.compile(r"(?<![^ \[:])\$(?:arg|mode)\d+")

#: The tokens of a pattern text: '(' with its list head, an `$arg` hole, any
#: other character ('[', ']', ')' and the space before an item among them),
#: and last the end, an empty token.
_TOKEN_RE = re.compile(r"\((?!-?\d+[ )]|/\*)%s+(?::\$mode\d+)?|\$arg\d+|.|\Z"
                       % ATOM_CHAR.replace("^", "^:", 1), re.S)


def read_pattern_text(text: str) -> tuple[list, int] | None:
    """(holes, height) of `text` if it is a pattern text in exactly the form
    `_Walk` writes, else None: its hole names, `$mode` holes first and each
    kind in number order, and the height `_Walk` gives it, at least 1."""
    tokens = _TOKEN_RE.findall(text)
    found = []
    read = _read_item(tokens, 0, found, 1)
    if read is None or tokens[read[0]]:  # no item, or more after it
        return None
    modes, args = [], []
    for name in dict.fromkeys(found):
        holes, kind = (args, "$arg%d") if name[1] == "a" else (modes, "$mode%d")
        if name != kind % len(holes):
            return None
        holes.append(name)
    return modes + args, max(1, read[1])


def _read_item(tokens, i, holes, depth):
    """(the index past it, its height) of the item at tokens[i], `depth`
    lists and vectors deep, adding its hole names to `holes`; None if none
    starts there or it nests past MAX_DEPTH.  A hole is 1 high, a list one
    more than its highest item, a vector as high.  Not a closure: commands
    pause the cyclic collector, and a recursive closure is a cycle."""
    token = tokens[i]
    if token.startswith("$arg"):
        holes.append(token)
        return i + 1, 1
    lift = token != "["  # then '(' and a list head, or no item
    if depth > MAX_DEPTH or lift and len(token) < 2:
        return None
    if lift and ":" in token:
        holes.append(token[token.index(":") + 1:])
    h, space = 0, lift  # each item follows a space, but a vector's first
    i += 1
    while tokens[i] != (")" if lift else "]"):
        read = (tokens[i] == " " or not space) and _read_item(tokens, i + space, holes, depth + 1)
        if not read:
            return None
        i, item_h = read
        h, space = max(h, item_h), True
    return i + 1, h + lift


def substitute(text: str, mapping: dict) -> str:
    """Fill a pattern text's holes from a binding that names each of them,
    as `analyze` and `archive.read_archives` make sure."""
    return _HOLE_RE.sub(lambda m: mapping[m.group()], text)


def renumber_holes(text: str) -> str:
    """Renumber a pattern text's holes by first occurrence, per kind."""
    seen = {"a": {}, "m": {}}
    return _HOLE_RE.sub(
        lambda m: _hole(seen[m[0][1]], "arg" if m[0][1] == "a" else "mode", m[0]), text)


def subpatterns(text):
    """Yield the operator subtrees of a pattern text with their holes
    renumbered: each '(' of a pattern text opens one retained operator."""
    opens = []
    for i, ch in enumerate(text):
        if ch == "(":
            opens.append(i)
        elif ch == ")":
            yield renumber_holes(text[opens.pop():i + 1])


# ---------------------------------------------------------------------------
# Pattern store


class StoreEntry:
    __slots__ = ("pattern_id", "pattern", "count")

    def __init__(self, pattern_id: int, pattern: RtlPattern, count: int):
        self.pattern_id = pattern_id
        self.pattern = pattern
        self.count = count


class PatternStore:
    """Unique patterns with occurrence counts; their ids are 0, 1, ... in turn."""

    def __init__(self):
        self._by_id: list[StoreEntry] = []
        self._by_text: dict[str, StoreEntry] = {}

    def insert(self, p: RtlPattern, count: int = 1) -> tuple[int, bool]:
        """Add `count` occurrences; returns (pattern id, is_new)."""
        entry = self._by_text.get(p.canonical_text)
        if entry is not None:
            entry.count += count
            return entry.pattern_id, False
        entry = self._by_text[p.canonical_text] = StoreEntry(len(self._by_id), p, count)
        self._by_id.append(entry)
        return entry.pattern_id, True

    def get(self, pattern_id) -> StoreEntry | None:
        return self._by_id[pattern_id] if 0 <= pattern_id < len(self._by_id) else None

    def entries(self):
        """Entries in (height, id) order, the order of archives and matching."""
        yield from sorted(self._by_id, key=lambda e: (e.pattern.height, e.pattern_id))

    @property
    def pattern_count(self) -> int:
        return len(self._by_text)

    def canonical_texts(self):
        return set(self._by_text)


# ---------------------------------------------------------------------------
# Whole-corpus analysis


class MdAnalysis:
    def __init__(self, arch_name: str, store: PatternStore,
                 bindings: list[ParamBinding], iterators: list[str],
                 diagnostics: dict | None = None, expr_count: int | None = None):
        self.arch_name = arch_name
        self.store = store
        self.bindings = bindings
        # the templates the store sums up: one per binding, an archive's header,
        # or the sum of a merge's inputs, the patterns it dropped included
        self.expr_count = len(bindings) if expr_count is None else expr_count
        self.iterators = iterators  # verbatim iterator definition forms
        self.diagnostics = {} if diagnostics is None else diagnostics


def register_iterators(forms):
    """The names usable in code position, code iterators and '<attr>' refs,
    and the verbatim iterator forms."""
    from . import sexpr
    from .md_reader import FormKind

    iterators = [f for f in forms if f.kind is FormKind.ITERATOR]
    names = frozenset(f.name if f.head == "define_code_iterator" else "<%s>" % f.name
                      for f in iterators
                      if f.head in ("define_code_iterator", "define_code_attr") and f.name)
    return names, [sexpr.serialize(f.body) for f in iterators]


def analyze(forms, table: "rtl.RtxCodeTable", arch_name="",
            include_bin_arith=True) -> MdAnalysis:
    """Run the pattern pipeline over one architecture's parsed forms."""
    from . import md_reader, rtl  # here, so that reading archives loads neither

    iterators, verbatim = register_iterators(forms)
    retained = table.retained(include_bin_arith) | iterators
    store = PatternStore()
    bindings = []
    unknown = Counter()
    skipped = []
    for form in forms:
        if form.kind is not md_reader.FormKind.CONSIDERED:
            continue
        try:
            vec = md_reader.extract_template_vector(form)
            tree = rtl.build_template_tree(vec)
            pattern, assignments = extract_pattern(tree, table, retained, unknown)
        except (md_reader.MissingTemplateVector, rtl.RtlError) as exc:
            skipped.append(str(exc))
            continue
        pid, _ = store.insert(pattern)
        bindings.append(ParamBinding(pid, assignments, form.head, form.name, form.origin))
    return MdAnalysis(arch_name, store, bindings, verbatim,
                      {"unknown_codes": dict(unknown), "skipped": skipped})

