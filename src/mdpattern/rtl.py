"""RTX operator taxonomy and typed RTL expression trees."""

from __future__ import annotations

import enum
import os

from . import Error, read_text, sexpr
from .sexpr import SExpr, SList, SVector, Symbol


class RtlError(Error):
    pass


class NotAList(RtlError):
    pass


class EmptyList(RtlError):
    pass


class RtxClass(enum.Enum):
    OBJ = "obj"
    CONST_OBJ = "const_obj"
    COMPARE = "compare"
    COMM_COMPARE = "comm_compare"
    UNARY = "unary"
    COMM_ARITH = "comm_arith"
    BIN_ARITH = "bin_arith"
    BITFIELD_OPS = "bitfield_ops"
    TERNARY = "ternary"
    INSN = "insn"
    MATCH = "match"
    AUTOINC = "autoinc"
    EXTRA = "extra"


_BY_NAME = {c.value: c for c in RtxClass}

#: Operators that change machine state; the default table retains them.
SIDE_EFFECT_CODES = frozenset(
    {
        "set", "return", "call", "clobber", "use", "parallel", "cond_exec",
        "sequence", "asm_input", "unspec", "unspec_volatile", "addr_vec",
        "addr_diff_vec",
    }
)


def _default_entries():
    groups = {
        RtxClass.OBJ: [
            "reg", "mem", "symbol_ref", "label_ref", "pc", "cc0", "scratch",
            "strict_low_part", "concat", "concatn",
        ],
        RtxClass.CONST_OBJ: [
            "const_int", "const_double", "const_fixed", "const_vector",
            "const_string", "const", "high",
        ],
        RtxClass.COMPARE: [
            "gt", "gtu", "lt", "ltu", "ge", "geu", "le", "leu",
            "unlt", "unle", "ungt", "unge",
        ],
        RtxClass.COMM_COMPARE: ["eq", "ne", "uneq", "ltgt", "ordered", "unordered"],
        RtxClass.UNARY: [
            "neg", "not", "abs", "sqrt", "bswap", "ffs", "clz", "ctz",
            "popcount", "parity", "clrsb", "sign_extend", "zero_extend",
            "truncate", "float_extend", "float_truncate", "float",
            "unsigned_float", "fix", "unsigned_fix", "ss_neg", "us_neg",
            "ss_abs", "ss_truncate", "us_truncate", "fract_convert",
            "sat_fract", "unsigned_sat_fract", "vec_duplicate",
        ],
        RtxClass.COMM_ARITH: [
            "plus", "mult", "and", "ior", "xor", "smin", "smax", "umin",
            "umax", "ss_plus", "us_plus", "ss_mult", "us_mult",
        ],
        RtxClass.BIN_ARITH: [
            "minus", "div", "udiv", "mod", "umod", "ashift", "ashiftrt",
            "lshiftrt", "rotate", "rotatert", "compare", "ss_minus",
            "us_minus", "ss_div", "us_div", "ss_ashift", "us_ashift",
            "vec_select", "vec_concat",
        ],
        RtxClass.BITFIELD_OPS: ["zero_extract", "sign_extract"],
        RtxClass.TERNARY: ["if_then_else", "vec_merge", "fma"],
        RtxClass.INSN: ["insn", "jump_insn", "call_insn"],
        RtxClass.MATCH: [
            "match_operand", "match_dup", "match_scratch", "match_operator",
            "match_parallel", "match_op_dup", "match_par_dup", "match_code",
            "match_test",
        ],
        RtxClass.AUTOINC: [
            "post_inc", "pre_inc", "post_dec", "pre_dec", "post_modify",
            "pre_modify",
        ],
        RtxClass.EXTRA: [
            "subreg", "note", "barrier", "code_label", "trap_if", "prefetch",
            "eh_return", "simple_return",
        ],
    }
    entries = {}
    for cls, codes in groups.items():
        for code in codes:
            entries[code] = (cls, False)
    for code in SIDE_EFFECT_CODES:
        entries[code] = (RtxClass.EXTRA, True)
    return entries


class RtxCodeTable:
    """Immutable code -> (class, side-effect) lookup.

    An optional override file (one ``code class yes|no`` line per entry,
    ``#`` comments) is merged onto the built-in defaults so new codes can
    be added without touching the source.
    """

    def __init__(self, entries):
        self._entries = dict(entries)

    @classmethod
    def default(cls):
        return cls(_default_entries())

    @classmethod
    def from_file(cls, path):
        entries = _default_entries()
        for lineno, raw in enumerate(read_text(path, RtlError).split("\n"), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[1] not in _BY_NAME or parts[2] not in ("yes", "no"):
                raise RtlError("%s:%d: bad code-table line: %r" % (path, lineno, raw.rstrip()))
            entries[parts[0]] = (_BY_NAME[parts[1]], parts[2] == "yes")
        return cls(entries)

    @classmethod
    def load(cls):
        """Default table, or the override named by $MDPATTERN_CODE_TABLE."""
        override = os.environ.get("MDPATTERN_CODE_TABLE")
        return cls.from_file(override) if override else cls.default()

    def rtx_class(self, code):
        """Class of a code, or None for an unknown code."""
        entry = self._entries.get(code)
        return entry[0] if entry else None

    def retained(self, include_bin_arith):
        """The codes that stay in patterns: every side-effect code, whatever
        its class, and every code of a PATTERN_CLASSES class (BIN_ARITH only
        with include_bin_arith)."""
        classes = PATTERN_CLASSES if include_bin_arith else PATTERN_CLASSES - {RtxClass.BIN_ARITH}
        return frozenset(code for code, (cls, side_effect) in self._entries.items()
                         if side_effect or cls in classes)


#: Classes whose operators stay in patterns (machine-independent meaning).
PATTERN_CLASSES = frozenset(
    {
        RtxClass.COMPARE, RtxClass.COMM_COMPARE, RtxClass.UNARY,
        RtxClass.COMM_ARITH, RtxClass.BIN_ARITH, RtxClass.BITFIELD_OPS,
        RtxClass.TERNARY, RtxClass.AUTOINC,
    }
)


class RtlExpr:
    """One node of an RTL tree.

    Exactly one shape holds per node: an operator (code set, children and
    scalar arguments in order), a scalar leaf (payload set), or a vector
    group (is_vector).
    """

    __slots__ = ("code", "mode", "children", "payload", "is_vector")

    def __init__(self, code: str | None = None, mode: str | None = None,
                 children: list | None = None, payload: SExpr | None = None,
                 is_vector: bool = False):
        self.code = code
        self.mode = mode  # text after ':', kept verbatim
        self.children = [] if children is None else children
        self.payload = payload
        self.is_vector = is_vector


def _build_arg(arg):
    if isinstance(arg, SList):
        return build_rtl_tree(arg)
    if isinstance(arg, SVector):
        return RtlExpr(is_vector=True, children=[_build_arg(x) for x in arg.items])
    return RtlExpr(payload=arg)


def build_rtl_tree(s: SExpr) -> RtlExpr:
    """Convert a template s-expression into an RtlExpr tree.

    The head symbol is split at its first ':' into code and mode; the mode
    text (SI, GPR, '<mode>', ...) is kept verbatim, and is '' after a bare ':'.
    """
    if not isinstance(s, SList):
        raise NotAList("RTL expression must be a list: %s" % sexpr.serialize(s))
    if not s.items:
        raise EmptyList("empty RTL expression")
    head = s.items[0]
    if not isinstance(head, Symbol):
        raise NotAList("RTL head is not a symbol: %s" % sexpr.serialize(s))
    code, sep, mode = head.text.partition(":")
    return RtlExpr(
        code=code,
        mode=mode if sep else None,
        children=[_build_arg(a) for a in s.items[1:]],
    )


def build_template_tree(vec: SVector) -> RtlExpr:
    """Wrap a whole template vector so multi-element templates are one tree."""
    return RtlExpr(is_vector=True, children=[_build_arg(x) for x in vec.items])


def rtl_text(e: RtlExpr) -> str:
    """Render back to MD syntax (single spaces); inverse of tree building."""
    if e.payload is not None:
        return sexpr.serialize(e.payload)
    if e.is_vector:
        return "[%s]" % " ".join(rtl_text(c) for c in e.children)
    head = e.code if e.mode is None else "%s:%s" % (e.code, e.mode)
    if e.children:
        return "(%s %s)" % (head, " ".join(rtl_text(c) for c in e.children))
    return "(%s)" % head
