"""Abstract RTL trees into patterns with named parameter holes.

A pattern keeps the operators that mean the same thing on every machine
and replaces everything machine-chosen (operands, constants, modes,
predicates) by ``$argN`` / ``$modeN`` holes.  Identical replaced text
within one expression reuses the same hole, so a binding stays small.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import md_reader, rtl, sexpr
from .md_reader import FormKind, MissingTemplateVector
from .rtl import RtlExpr, RtxCodeTable, rtl_text


class PatternError(Exception):
    pass


class ArityMismatch(PatternError):
    """Binding parameters do not line up with the pattern's holes."""


@dataclass(frozen=True)
class ParamName:
    kind: str  # 'mode' or 'arg'
    index: int

    def render(self) -> str:
        return "$%s%d" % (self.kind, self.index)


@dataclass
class RtlPattern:
    tree: RtlExpr
    height: int
    canonical_text: str


@dataclass
class ParamBinding:
    pattern_id: int
    assignments: list  # ordered (param name text, verbatim replaced text)
    form_kind: str  # define_* head of the originating form
    form_name: str
    origin: str = ""


def _walk_params(node, visit):
    # pre-order over holes: a node's own mode hole before its children
    if node.param is not None:
        visit(node.param)
        return
    if node.mode is not None and node.mode.startswith("$"):
        visit(node.mode)
    for c in node.children:
        _walk_params(c, visit)


def _rename_tree(node, renames):
    if node.param is not None:
        return RtlExpr(param=renames.get(node.param, node.param))
    mode = node.mode
    if mode is not None and mode.startswith("$"):
        mode = renames.get(mode, mode)
    return RtlExpr(
        code=node.code,
        mode=mode,
        children=[_rename_tree(c, renames) for c in node.children],
        payload=node.payload,
        is_vector=node.is_vector,
    )


def canonicalize(p: RtlPattern) -> tuple[RtlPattern, dict]:
    """Renumber holes by first pre-order occurrence, per kind.

    Returns the canonical pattern and the old-name -> new-name mapping;
    idempotent on already-canonical patterns.
    """
    renames = {}
    counters = {"mode": 0, "arg": 0}

    def visit(name):
        if name in renames:
            return
        kind = "mode" if name.startswith("$mode") else "arg"
        renames[name] = ParamName(kind, counters[kind]).render()
        counters[kind] += 1

    _walk_params(p.tree, visit)
    tree = _rename_tree(p.tree, renames)
    return RtlPattern(tree, p.height, rtl_text(tree)), renames


def extract_pattern(tree: RtlExpr, table: RtxCodeTable, iterators=frozenset(),
                    include_bin_arith=True, unknown_codes: Counter | None = None):
    """Bottom-up abstraction of one expression tree.

    Returns (canonical RtlPattern, assignments) where assignments list the
    hole values in mode-then-arg order; substituting them back reproduces
    the expression text.
    """
    arg_map: dict[str, str] = {}
    mode_map: dict[str, str] = {}

    def arg_hole(text):
        name = arg_map.get(text)
        if name is None:
            name = ParamName("arg", len(arg_map)).render()
            arg_map[text] = name
        return RtlExpr(param=name)

    def mode_hole(text):
        name = mode_map.get(text)
        if name is None:
            name = ParamName("mode", len(mode_map)).render()
            mode_map[text] = name
        return name

    def walk(node):
        if node.is_vector:
            return RtlExpr(is_vector=True, children=[walk(c) for c in node.children])
        if node.payload is not None:
            return arg_hole(rtl_text(node))
        if node.code not in iterators and table.rtx_class(node.code) is None:
            if unknown_codes is not None:
                unknown_codes[node.code] += 1
        if rtl.is_pattern_operator(node.code, table, iterators, include_bin_arith):
            mode = mode_hole(node.mode) if node.mode is not None else None
            return RtlExpr(code=node.code, mode=mode,
                           children=[walk(c) for c in node.children])
        return arg_hole(rtl_text(node))

    ptree = walk(tree)
    raw = RtlPattern(ptree, max(1, rtl.height(ptree)), rtl_text(ptree))
    canon, renames = canonicalize(raw)
    assignments = []
    for text, old in mode_map.items():
        assignments.append((renames.get(old, old), text))
    for text, old in arg_map.items():
        assignments.append((renames.get(old, old), text))
    assignments.sort(key=lambda kv: (kv[0].startswith("$arg"), int(kv[0].lstrip("$modearg") or 0)))
    return canon, assignments


def substitute(tree: RtlExpr, mapping: dict) -> str:
    """Fill a pattern's holes from a binding and render the result."""
    used = set()

    def walk(node):
        if node.param is not None:
            if node.param not in mapping:
                raise ArityMismatch("no value for %s" % node.param)
            used.add(node.param)
            return mapping[node.param]
        if node.payload is not None:
            return rtl_text(node)
        if node.is_vector:
            return "[%s]" % " ".join(walk(c) for c in node.children)
        mode = node.mode
        if mode is not None and mode.startswith("$mode"):
            if mode not in mapping:
                raise ArityMismatch("no value for %s" % mode)
            used.add(mode)
            mode = mapping[mode]
        head = node.code if mode is None else "%s:%s" % (node.code, mode)
        if node.children:
            return "(%s %s)" % (head, " ".join(walk(c) for c in node.children))
        return "(%s)" % head

    text = walk(tree)
    unused = set(mapping) - used
    if unused:
        raise ArityMismatch("unused parameters: %s" % ", ".join(sorted(unused)))
    return text


# ---------------------------------------------------------------------------
# Pattern store


@dataclass
class StoreEntry:
    pattern_id: int
    pattern: RtlPattern
    count: int


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


@dataclass
class MdAnalysis:
    arch_name: str
    store: PatternStore
    bindings: list[ParamBinding]
    iterators: list[str]  # verbatim iterator definition forms
    code_iterator_names: frozenset
    source_texts: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def expr_count(self) -> int:
        return len(self.bindings)


def register_iterators(forms):
    """Names usable in code position: code iterators plus '<attr>' refs."""
    names = set()
    verbatim = []
    for form in forms:
        if form.kind is not FormKind.ITERATOR:
            continue
        verbatim.append(sexpr.serialize(form.body))
        if form.head == "define_code_iterator" and form.name:
            names.add(form.name)
        elif form.head == "define_code_attr" and form.name:
            names.add("<%s>" % form.name)
    return frozenset(names), verbatim


def analyze(forms, table: RtxCodeTable, arch_name="", include_bin_arith=True,
            count_subpatterns=False) -> MdAnalysis:
    """Run the pattern pipeline over one architecture's parsed forms."""
    iterators, verbatim = register_iterators(forms)
    store = PatternStore()
    bindings = []
    source_texts = []
    unknown = Counter()
    skipped = []
    subpatterns = Counter()
    for form in forms:
        if form.kind is not FormKind.CONSIDERED:
            continue
        try:
            vec = md_reader.extract_template_vector(form)
            tree = rtl.build_template_tree(vec)
        except (MissingTemplateVector, rtl.RtlError) as exc:
            skipped.append(str(exc))
            continue
        pattern, assignments = extract_pattern(
            tree, table, iterators, include_bin_arith, unknown
        )
        pid, _ = store.insert(pattern)
        bindings.append(ParamBinding(pid, assignments, form.head, form.name,
                                     _origin_text(form)))
        source_texts.append(rtl_text(tree))
        if count_subpatterns:
            _count_subpatterns(pattern.tree, subpatterns)
    diagnostics = {"unknown_codes": dict(unknown), "skipped": skipped}
    if count_subpatterns:
        diagnostics["subpatterns"] = dict(subpatterns)
    return MdAnalysis(
        arch_name=arch_name,
        store=store,
        bindings=bindings,
        iterators=verbatim,
        code_iterator_names=iterators,
        source_texts=source_texts,
        diagnostics=diagnostics,
    )


def _origin_text(form):
    loc = form.origin
    if loc is None:
        return form.name
    return "%s:%s" % (loc.filename, loc.line)


def _count_subpatterns(node, counter):
    # diagnostic only: every retained-operator subtree, canonicalized
    if node.param is not None or node.payload is not None:
        return
    if not node.is_vector:
        sub = RtlPattern(node, max(1, rtl.height(node)), rtl_text(node))
        canon, _ = canonicalize(sub)
        counter[canon.canonical_text] += 1
    for c in node.children:
        _count_subpatterns(c, counter)
