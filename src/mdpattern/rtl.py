"""The RTX code table and the RTL trees that patterns are extracted from.

The code table maps each known RTX code to its class name (one of
`CLASSES`) and a side-effect flag; the codes of `PATTERN_CLASSES` and the
side-effect codes stay in patterns.  A tree splits each list head into code
and mode, and each node keeps the parsed s-expression node it was built
from, so a hole's text is `sexpr.serialize` of that node.
"""

import os

from . import Error, read_text, sexpr
from .sexpr import SExpr, SList, SVector, Symbol


class RtlError(Error):
    pass


class NotAList(RtlError):
    pass


class EmptyList(RtlError):
    pass


#: Operators that change machine state; the default table retains them.
SIDE_EFFECT_CODES = frozenset(
    {
        "set", "return", "call", "clobber", "use", "parallel", "cond_exec",
        "sequence", "asm_input", "unspec", "unspec_volatile", "addr_vec",
        "addr_diff_vec",
    }
)

#: The built-in codes of each class; the side-effect codes are "extra".
_DEFAULT_CODES = {
    "obj": [
        "reg", "mem", "symbol_ref", "label_ref", "pc", "cc0", "scratch",
        "strict_low_part", "concat", "concatn",
    ],
    "const_obj": [
        "const_int", "const_double", "const_fixed", "const_vector",
        "const_string", "const", "high",
    ],
    "compare": [
        "gt", "gtu", "lt", "ltu", "ge", "geu", "le", "leu",
        "unlt", "unle", "ungt", "unge",
    ],
    "comm_compare": ["eq", "ne", "uneq", "ltgt", "ordered", "unordered"],
    "unary": [
        "neg", "not", "abs", "sqrt", "bswap", "ffs", "clz", "ctz",
        "popcount", "parity", "clrsb", "sign_extend", "zero_extend",
        "truncate", "float_extend", "float_truncate", "float",
        "unsigned_float", "fix", "unsigned_fix", "ss_neg", "us_neg",
        "ss_abs", "ss_truncate", "us_truncate", "fract_convert",
        "sat_fract", "unsigned_sat_fract", "vec_duplicate",
    ],
    "comm_arith": [
        "plus", "mult", "and", "ior", "xor", "smin", "smax", "umin",
        "umax", "ss_plus", "us_plus", "ss_mult", "us_mult",
    ],
    "bin_arith": [
        "minus", "div", "udiv", "mod", "umod", "ashift", "ashiftrt",
        "lshiftrt", "rotate", "rotatert", "compare", "ss_minus",
        "us_minus", "ss_div", "us_div", "ss_ashift", "us_ashift",
        "vec_select", "vec_concat",
    ],
    "bitfield_ops": ["zero_extract", "sign_extract"],
    "ternary": ["if_then_else", "vec_merge", "fma"],
    "insn": ["insn", "jump_insn", "call_insn"],
    "match": [
        "match_operand", "match_dup", "match_scratch", "match_operator",
        "match_parallel", "match_op_dup", "match_par_dup", "match_code",
        "match_test",
    ],
    "autoinc": [
        "post_inc", "pre_inc", "post_dec", "pre_dec", "post_modify",
        "pre_modify",
    ],
    "extra": [
        "subreg", "note", "barrier", "code_label", "trap_if", "prefetch",
        "eh_return", "simple_return",
    ],
}

#: The class names, as the code table and its override file spell them.
CLASSES = frozenset(_DEFAULT_CODES)

#: Classes whose operators stay in patterns (machine-independent meaning).
PATTERN_CLASSES = frozenset(
    {
        "compare", "comm_compare", "unary", "comm_arith", "bin_arith",
        "bitfield_ops", "ternary", "autoinc",
    }
)


def _default_entries():
    entries = {code: (cls, False) for cls, codes in _DEFAULT_CODES.items() for code in codes}
    entries.update((code, ("extra", True)) for code in SIDE_EFFECT_CODES)
    return entries


class RtxCodeTable:
    """Immutable code -> (class name, side-effect) lookup.

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
            if len(parts) != 3 or parts[1] not in CLASSES or parts[2] not in ("yes", "no"):
                raise RtlError("%s:%d: bad code-table line: %r" % (path, lineno, raw.rstrip()))
            entries[parts[0]] = (parts[1], parts[2] == "yes")
        return cls(entries)

    @classmethod
    def load(cls):
        """Default table, or the override named by $MDPATTERN_CODE_TABLE."""
        override = os.environ.get("MDPATTERN_CODE_TABLE")
        return cls.from_file(override) if override else cls.default()

    def rtx_class(self, code):
        """Class name of a code, or None for an unknown code."""
        entry = self._entries.get(code)
        return entry[0] if entry else None

    def retained(self, include_bin_arith):
        """The codes that stay in patterns: every side-effect code, whatever
        its class, and every code of a PATTERN_CLASSES class ("bin_arith"
        only with include_bin_arith)."""
        classes = PATTERN_CLASSES if include_bin_arith else PATTERN_CLASSES - {"bin_arith"}
        return frozenset(code for code, (cls, side_effect) in self._entries.items()
                         if side_effect or cls in classes)


class RtlExpr:
    """One node of an RTL tree, with the parsed node it was built from.

    Exactly one shape holds per node: an operator (code set, children and
    scalar arguments in order), a vector group (is_vector), or a scalar
    leaf (neither).
    """

    __slots__ = ("source", "code", "mode", "children", "is_vector")

    def __init__(self, source: SExpr, code: str | None = None, mode: str | None = None,
                 children: list | tuple = (), is_vector: bool = False):
        self.source = source
        self.code = code
        self.mode = mode  # text after ':', kept verbatim
        self.children = children
        self.is_vector = is_vector


def _build_arg(arg):
    if isinstance(arg, SList):
        return build_rtl_tree(arg)
    if isinstance(arg, SVector):
        return RtlExpr(arg, children=[_build_arg(x) for x in arg.items], is_vector=True)
    return RtlExpr(arg)


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
    return RtlExpr(s, code, mode if sep else None, [_build_arg(a) for a in s.items[1:]])


def build_template_tree(vec: SVector) -> RtlExpr:
    """Wrap a whole template vector so multi-element templates are one tree."""
    return _build_arg(vec)
