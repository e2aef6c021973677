"""Read machine description files into classified top-level forms."""

import enum
import os

from . import Error, sexpr
from .sexpr import Loc, SList, StringLit, SVector, Symbol

#: define_* heads whose first bracket vector is an RTL template.
DEFAULT_CONSIDERED_HEADS = frozenset(
    {"define_insn", "define_expand", "define_insn_and_split", "define_split"}
)

ITERATOR_HEADS = frozenset(
    {"define_mode_iterator", "define_code_iterator", "define_mode_attr", "define_code_attr"}
)


class MdReaderError(Error):
    pass


class MissingInclude(MdReaderError):
    """An include form whose file is missing, or that names no file."""

    def __init__(self, path, origin: Loc):
        self.path = path
        self.origin = origin
        super().__init__(sexpr.where(*origin) + "included file not found: " + path)


class IncludeCycle(MdReaderError):
    """An include form that names a file already being read; the chain runs
    from the root file to that file."""

    def __init__(self, chain, origin: Loc):
        self.chain = list(chain)
        self.origin = origin
        super().__init__(sexpr.where(*origin) + "include cycle: " + " -> ".join(self.chain))


class MissingTemplateVector(MdReaderError):
    pass


class FormKind(enum.Enum):
    CONSIDERED = "considered"
    ITERATOR = "iterator"
    INCLUDE = "include"
    IGNORED = "ignored"


class TopLevelForm:
    __slots__ = ("kind", "head", "name", "body", "origin")

    def __init__(self, kind: FormKind, head: str, name: str, body: SList, origin: Loc):
        self.kind = kind
        self.head = head
        self.name = name  # first string argument of the define, '' if absent
        self.body = body  # the whole form, its head included
        self.origin = origin  # the one place the form's location is kept


def classify(origin: Loc, body: SList, considered_heads=DEFAULT_CONSIDERED_HEADS) -> TopLevelForm:
    head = body.items[0].text if body.items and isinstance(body.items[0], Symbol) else ""
    name = ""
    if len(body.items) > 1 and isinstance(body.items[1], StringLit):
        name = body.items[1].text
    if head in considered_heads:
        kind = FormKind.CONSIDERED
    elif head in ITERATOR_HEADS:
        kind = FormKind.ITERATOR
        if not name and len(body.items) > 1 and isinstance(body.items[1], Symbol):
            name = body.items[1].text  # iterator names are bare symbols
    elif head == "include":
        kind = FormKind.INCLUDE
    else:
        kind = FormKind.IGNORED
    return TopLevelForm(kind, head, name, body, origin)


def parse_md(source: str, origin: str | None = None,
             considered_heads=DEFAULT_CONSIDERED_HEADS) -> list[TopLevelForm]:
    """Classify the top-level forms of one source."""
    forms = []
    for loc, expr in sexpr.parse_text(source, origin):
        if not isinstance(expr, SList):
            raise sexpr.UnexpectedToken("top-level form is not a list", *loc)
        forms.append(classify(loc, expr, considered_heads))
    return forms


def _include_target(form: TopLevelForm) -> str:
    for item in form.body.items[1:]:
        if isinstance(item, StringLit):
            return item.text
    raise MissingInclude("<missing path argument>", form.origin)


def resolve_includes(forms, base_dir, enabled=True,
                     considered_heads=DEFAULT_CONSIDERED_HEADS, _stack=None):
    """Splice included files in place of their include forms, recursively.

    `_stack`, the files being read, may grow to sexpr.MAX_DEPTH files.
    With ``enabled`` false the include forms are retained as Ignored so
    downstream counts are unaffected.
    """
    _stack = _stack or []
    out = []
    for form in forms:
        if form.kind is not FormKind.INCLUDE:
            out.append(form)
            continue
        if not enabled:
            out.append(TopLevelForm(FormKind.IGNORED, form.head, form.name,
                                    form.body, form.origin))
            continue
        path = os.path.normpath(os.path.join(base_dir, _include_target(form)))
        if path in _stack:
            raise IncludeCycle(_stack + [path], form.origin)
        if not os.path.isfile(path):
            raise MissingInclude(path, form.origin)
        if len(_stack) >= sexpr.MAX_DEPTH:
            raise sexpr.NestingTooDeep(form.origin)
        sub = _parse_md_file(path, considered_heads)
        out.extend(resolve_includes(sub, os.path.dirname(path), enabled,
                                    considered_heads, _stack + [path]))
    return out


def _parse_md_file(path, considered_heads):
    # newline="": a CR in a string stays a CR; lines are counted at LF
    with open(path, "r", encoding="latin-1", newline="") as fh:
        return parse_md(fh.read(), str(path), considered_heads)


def load_md_file(path, resolve=True, considered_heads=DEFAULT_CONSIDERED_HEADS):
    """Parse one root MD file, optionally resolving its includes."""
    forms = _parse_md_file(path, considered_heads)
    return resolve_includes(forms, os.path.dirname(os.path.abspath(path)),
                            resolve, considered_heads, [os.path.normpath(os.path.abspath(path))])


def extract_template_vector(form: TopLevelForm) -> SVector:
    """Return the RTL template: the first bracket vector of a considered form.

    Condition strings, output templates and attribute vectors that follow
    it are deliberately not returned.
    """
    for item in form.body.items[1:]:
        if isinstance(item, SVector):
            return item
    raise MissingTemplateVector("%s %r at %s:%s has no template vector"
                                % (form.head, form.name, *form.origin[:2]))
