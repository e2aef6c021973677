"""Abstract RTL trees into patterns with named parameter holes.

A pattern keeps the operators that mean the same thing on every machine
and replaces everything machine-chosen (operands, constants, modes,
predicates) by ``$argN`` / ``$modeN`` holes.  Identical replaced text
within one expression reuses the same hole, so a binding stays small.
A pattern is its canonical text; no pattern tree outlives extraction.
"""

import re
from collections import Counter

from . import Error, sexpr


class PatternError(Error):
    pass


class ArityMismatch(PatternError):
    """Binding parameters do not line up with the pattern's holes."""


class RtlPattern:
    __slots__ = ("canonical_text", "height")

    def __init__(self, canonical_text: str, height: int):
        self.canonical_text = canonical_text
        self.height = height


class ParamBinding:
    __slots__ = ("pattern_id", "assignments", "form_kind", "form_name", "origin")

    def __init__(self, pattern_id: int, assignments: list, form_kind: str,
                 form_name: str, origin: sexpr.Loc | None = None):
        self.pattern_id = pattern_id
        self.assignments = assignments  # ordered (param name text, verbatim replaced text)
        self.form_kind = form_kind  # define_* head of the originating form
        self.form_name = form_name
        self.origin = origin  # the form's Loc; None when read from an archive


def extract_pattern(tree: "rtl.RtlExpr", table: "rtl.RtxCodeTable", retained: frozenset,
                    unknown_codes: Counter | None = None):
    """Abstract one expression tree in a single walk.

    `retained` holds the operator codes that stay in the pattern; every
    other subtree becomes a hole.  Returns (RtlPattern, assignments).  Holes
    are numbered per kind by first pre-order (= textual) occurrence, so the
    text is canonical; assignments list the hole values in mode-then-arg
    order, and substituting them back gives the tree's single-space
    rendering.
    """
    walk = _Walk(table, retained, unknown_codes)
    text, h = walk.node(tree)
    assignments = [(name, value) for holes in (walk.mode_map, walk.arg_map)
                   for value, name in holes.items()]
    return RtlPattern(text, max(1, h)), assignments


def _hole(names, kind, text):
    return names.setdefault(text, "$%s%d" % (kind, len(names)))


class _Walk:
    """The state of one `extract_pattern` walk: what stays, and the holes
    named so far.  Its methods recurse through `self`, so a walk leaves no
    reference cycle for the cyclic collector to find."""

    __slots__ = ("table", "retained", "unknown_codes", "arg_map", "mode_map")

    def __init__(self, table, retained, unknown_codes):
        self.table = table
        self.retained = retained
        self.unknown_codes = unknown_codes
        self.arg_map: dict[str, str] = {}
        self.mode_map: dict[str, str] = {}

    def node(self, node):
        # (pattern text, height) of one node; a hole has height 1
        code = node.code
        if node.is_vector:
            texts = []
        elif code in self.retained:
            texts = [code if node.mode is None
                     else code + ":" + _hole(self.mode_map, "mode", node.mode)]
        else:
            unknown_codes = self.unknown_codes
            if code is not None and unknown_codes is not None and self.table.rtx_class(code) is None:
                unknown_codes[code] += 1
            return _hole(self.arg_map, "arg", sexpr.serialize(node.source)), 1
        h = 0
        for child in node.children:
            text, child_h = self.node(child)
            texts.append(text)
            h = max(h, child_h)
        if node.is_vector:
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
# lists and vectors nest at most sexpr.MAX_DEPTH levels.

#: The holes of a pattern text: a '$' after a space, a '[' or a ':' starts
#: one, as no code holds any of these characters.
_HOLE_RE = re.compile(r"(?<![^ \[:])\$(arg|mode)\d+")

#: A list or vector of `$arg` holes only, where an item stands: after the
#: start, a space or '[' (looked back at from past the opener, so that `re`
#: scans for openers only), and before the end, a space, ')' or ']'.
_GROUP_RE = re.compile(
    r"(?:\((?<![^ \[].)(?!-?\d+[ )]|/\*)%s+(?::\$mode\d+)?(?: \$arg\d+)*\)"
    r"|\[(?<![^ \[].)(?:\$arg\d+(?: \$arg\d+)*)?\])(?![^ \])])"
    % sexpr.ATOM_CHAR.replace("^", "^:", 1))


def is_pattern_text(text: str) -> bool:
    """Whether `text` is a pattern text, in exactly the form `_Walk` writes.

    Each pass collapses the innermost lists and vectors to a hole, so a text
    of the grammar that nests at most MAX_DEPTH levels becomes one hole.
    """
    reduced = text
    for _ in range(sexpr.MAX_DEPTH):
        reduced, n = _GROUP_RE.subn("$arg0", reduced)
        if not n:
            break
    return reduced == "$arg0" and renumber_holes(text) == text


#: The list brackets and `$arg` holes of a pattern text.
_HEIGHT_RE = re.compile(r"[()]|(?<![^ \[])\$arg")


def height(text: str) -> int:
    """The height `_Walk` gives a pattern text: a hole is one node high, a
    list one more than its highest item, a vector as high as its highest
    item, and every text at least 1."""
    h, depth = 1, 0
    for token in _HEIGHT_RE.findall(text):
        if token == ")":
            depth -= 1
        else:  # a list or a hole, inside `depth` lists
            h = max(h, depth + 1)
            depth += token == "("
    return h


def substitute(text: str, mapping: dict) -> str:
    """Fill a pattern text's holes from a binding."""
    used = set()

    def fill(m):
        name = m.group()
        if name not in mapping:
            raise ArityMismatch("no value for %s" % name)
        used.add(name)
        return mapping[name]

    out = _HOLE_RE.sub(fill, text)
    unused = set(mapping) - used
    if unused:
        raise ArityMismatch("unused parameters: %s" % ", ".join(sorted(unused)))
    return out


def renumber_holes(text: str) -> str:
    """Renumber a pattern text's holes by first occurrence, per kind."""
    seen = {"mode": {}, "arg": {}}
    return _HOLE_RE.sub(lambda m: _hole(seen[m.group(1)], m.group(1), m.group()), text)


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
    """Unique patterns with occurrence counts, indexed by id and by text."""

    def __init__(self):
        self._by_id: dict[int, StoreEntry] = {}
        self._by_text: dict[str, StoreEntry] = {}

    def insert(self, p: RtlPattern) -> tuple[int, bool]:
        """Add one occurrence; returns (pattern id, is_new)."""
        entry = self._by_text.get(p.canonical_text)
        if entry is not None:
            entry.count += 1
            return entry.pattern_id, False
        entry = self.insert_entry(len(self._by_id), p, 1)
        return entry.pattern_id, True

    def insert_entry(self, pattern_id, p: RtlPattern, count) -> StoreEntry:
        """Add an entry verbatim (archive reads); ids and texts are unique."""
        entry = StoreEntry(pattern_id, p, count)
        self._by_id[pattern_id] = self._by_text[p.canonical_text] = entry
        return entry

    def get(self, pattern_id) -> StoreEntry:
        return self._by_id[pattern_id]

    def entries(self):
        """Entries in (height, id) order, the order of archives and matching."""
        yield from sorted(self._by_id.values(),
                          key=lambda e: (e.pattern.height, e.pattern_id))

    @property
    def pattern_count(self) -> int:
        return len(self._by_text)

    @property
    def total_templates(self) -> int:
        return sum(e.count for e in self._by_id.values())

    def canonical_texts(self):
        return set(self._by_text)


# ---------------------------------------------------------------------------
# Whole-corpus analysis


class MdAnalysis:
    def __init__(self, arch_name: str, store: PatternStore,
                 bindings: list[ParamBinding], iterators: list[str],
                 diagnostics: dict | None = None, code_iterators: dict | None = None):
        self.arch_name = arch_name
        self.store = store
        self.bindings = bindings
        self.iterators = iterators  # verbatim iterator definition forms
        self.diagnostics = {} if diagnostics is None else diagnostics
        # name -> member codes
        self.code_iterators = {} if code_iterators is None else code_iterators
        # pattern id -> expanded texts; similarity adds a pattern the first
        # time it expands it
        self.expansions = {}

    @property
    def expr_count(self) -> int:
        return len(self.bindings)


def register_iterators(forms):
    """Iterator names, verbatim iterator forms and code-iterator members.

    The names are those usable in code position: code iterators plus
    '<attr>' refs.  The members map each code iterator defined as
    ``(define_code_iterator name [code (code "cond") ...])`` to its codes.
    """
    from .md_reader import FormKind

    names = set()
    verbatim = []
    members = {}
    for form in forms:
        if form.kind is not FormKind.ITERATOR:
            continue
        verbatim.append(sexpr.serialize(form.body))
        if form.head == "define_code_iterator" and form.name:
            names.add(form.name)
        elif form.head == "define_code_attr" and form.name:
            names.add("<%s>" % form.name)
        items = form.body.items
        if (form.head == "define_code_iterator" and len(items) >= 3
                and isinstance(items[1], sexpr.Symbol)
                and isinstance(items[2], sexpr.SVector)):
            codes = []
            for item in items[2].items:
                if isinstance(item, sexpr.Symbol):
                    codes.append(item.text)
                elif (isinstance(item, sexpr.SList) and item.items
                      and isinstance(item.items[0], sexpr.Symbol)):
                    codes.append(item.items[0].text)  # (code "condition") member
            if codes:
                members[items[1].text] = tuple(codes)
    return frozenset(names), verbatim, members


def analyze(forms, table: "rtl.RtxCodeTable", arch_name="",
            include_bin_arith=True) -> MdAnalysis:
    """Run the pattern pipeline over one architecture's parsed forms."""
    from . import md_reader, rtl  # here, so that reading archives loads neither

    iterators, verbatim, members = register_iterators(forms)
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
    diagnostics = {"unknown_codes": dict(unknown), "skipped": skipped}
    return MdAnalysis(
        arch_name=arch_name,
        store=store,
        bindings=bindings,
        iterators=verbatim,
        diagnostics=diagnostics,
        code_iterators=members,
    )

