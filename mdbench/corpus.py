"""Seeded generator of GCC-shaped machine description corpora, with an oracle.

Every considered template is drawn from a pattern *skeleton*: the
canonical pattern text the analyzer should recover, with ``$modeN`` and
``$argN`` holes numbered in pre-order.  The generator fills distinct holes
with distinct texts (and a repeated hole with the same text), so each
template abstracts back to exactly its skeleton.  While writing the files
it keeps the bookkeeping the benchmark checks the program against:
templates per skeleton and architecture, skipped forms, unknown RTX codes,
files and forms by kind, and each skeleton's iterator-expansion size.

This module does not import mdpattern: the oracle is independent of the
program it checks.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Vocabulary

BIN_OPS = ["plus", "minus", "mult", "div", "udiv", "mod", "umod", "and", "ior",
           "xor", "ashift", "ashiftrt", "lshiftrt", "rotate", "rotatert", "smin",
           "smax", "umin", "umax", "ss_plus", "us_plus", "vec_concat"]
UN_OPS = ["neg", "not", "abs", "sqrt", "sign_extend", "zero_extend", "truncate",
          "float_extend", "float_truncate", "float", "fix", "unsigned_fix",
          "popcount", "clz", "ctz", "bswap", "ffs", "vec_duplicate"]
CMP_OPS = ["eq", "ne", "gt", "gtu", "lt", "ltu", "ge", "geu", "le", "leu"]
TERNARY_OPS = ["if_then_else", "vec_merge", "fma", "zero_extract", "sign_extract"]

#: Code iterators shared by every architecture of a corpus: name -> (arity, members).
CODE_ITERATORS = {
    "any_logic": ("bin", ["and", "ior", "xor"]),
    "any_shift": ("bin", ["ashift", "ashiftrt", "lshiftrt"]),
    "plusminus": ("bin", ["plus", "minus"]),
    "maxmin": ("bin", ["smax", "smin", "umax", "umin"]),
    "any_div": ("bin", ["div", "udiv"]),
    "any_mod": ("bin", ["mod", "umod"]),
    "any_rotate": ("bin", ["rotate", "rotatert"]),
    "any_mult": ("bin", ["mult", "ss_mult", "us_mult"]),
    "sat_plus": ("bin", ["ss_plus", "us_plus"]),
    "any_arith": ("bin", ["plus", "minus", "mult", "and", "ior", "xor"]),
    "any_minmax": ("bin", ["smin", "smax", "umin", "umax", "and", "ior"]),
    "any_extend": ("un", ["sign_extend", "zero_extend"]),
    "absneg": ("un", ["abs", "neg"]),
    "any_unop": ("un", ["neg", "not", "abs", "popcount", "clz", "ctz"]),
    "any_fix": ("un", ["fix", "unsigned_fix"]),
    "any_float": ("un", ["float", "unsigned_float"]),
    "any_cond": ("cmp", ["eq", "ne", "gt", "gtu", "lt", "ltu", "ge", "geu", "le", "leu"]),
    "any_scond": ("cmp", ["gt", "lt", "ge", "le"]),
    "any_ucond": ("cmp", ["gtu", "ltu", "geu", "leu"]),
}

#: Code attributes usable in code position as ``<name>``: name -> (arity, codes).
CODE_ATTRS = {
    "logic_op": ("bin", ["and", "ior", "xor"]),
    "shift_op": ("bin", ["ashift", "lshiftrt"]),
    "ext_op": ("un", ["sign_extend", "zero_extend"]),
    "cond_op": ("cmp", ["eq", "ne", "lt", "gt"]),
}

MODE_ITERATORS = {
    "GPR": ["SI", "DI"], "SWI48": ["SI", "DI"], "ANYF": ["SF", "DF"],
    "VI": ["V4SI", "V8HI", "V16QI"], "P": ["SI", "DI"], "MODEF": ["SF", "DF"],
}
MODE_ATTRS = {"DWI": ["DI", "TI"], "ssemodesuffix": ["ss", "sd"]}

#: Texts a mode hole may take; distinct holes of one template get distinct texts.
MODE_TEXTS = ["SI", "DI", "QI", "HI", "SF", "DF", "TI", "CC", "CCZ", "V4SI",
              "V2DI", "GPR", "SWI48", "ANYF", "P", "<DWI>", "<MODE>"]
MAX_MODE_HOLES = 4

#: RTX codes missing from the program's built-in code table.
UNKNOWN_CODES = ["umul_highpart", "smul_highpart", "vec_series", "const_wide_int"]

PREDICATES = ["register_operand", "nonimmediate_operand", "general_operand",
              "arith_operand", "memory_operand", "immediate_operand"]
CONSTRAINTS = ["r", "=r", "rm", "=&r", "rI", "m", "=r,m", "r,r", "0"]

#: Expansion cap of the program's iterator matching, recorded for the trace.
EXPANSION_CAP = 64

CONSIDERED_HEADS = [("define_insn", 0.70), ("define_expand", 0.12),
                    ("define_insn_and_split", 0.08), ("define_split", 0.10)]

# ---------------------------------------------------------------------------
# Skeletons
#
# A node is one of
#   ("op", code, mode_hole_or_None, [children])
#   ("arg", hole, hint)        hint: None, "scalar" or "pc"
#   ("vec", [children])


def render(node) -> str:
    """Canonical pattern text, as the analyzer prints it."""
    kind = node[0]
    if kind == "arg":
        return "$arg%d" % node[1]
    if kind == "vec":
        return "[%s]" % " ".join(render(c) for c in node[1])
    _, code, mode, children = node
    head = code if mode is None else "%s:$mode%d" % (code, mode)
    if children:
        return "(%s %s)" % (head, " ".join(render(c) for c in children))
    return "(%s)" % head


def _renumber(node, modes, args):
    """Number holes by first pre-order occurrence, per kind (a node's mode first)."""
    kind = node[0]
    if kind == "arg":
        return ("arg", args.setdefault(node[1], len(args)), node[2])
    if kind == "vec":
        return ("vec", [_renumber(c, modes, args) for c in node[1]])
    _, code, mode, children = node
    if mode is not None:
        mode = modes.setdefault(mode, len(modes))
    return ("op", code, mode, [_renumber(c, modes, args) for c in children])


def _walk(node):
    yield node
    children = node[1] if node[0] == "vec" else node[3] if node[0] == "op" else ()
    for c in children:
        yield from _walk(c)


@dataclass
class Skeleton:
    tree: tuple
    text: str
    iterators: tuple  # distinct code-iterator names in code position

    @property
    def expansion(self) -> int:
        """Number of iterator-member substitutions of this pattern."""
        return math.prod(len(CODE_ITERATORS[name][1]) for name in self.iterators)


def make_skeleton(tree) -> Skeleton:
    tree = _renumber(tree, {}, {})
    iters = sorted({n[1] for n in _walk(tree) if n[0] == "op" and n[1] in CODE_ITERATORS})
    return Skeleton(tree, render(tree), tuple(iters))


class _SkeletonMaker:
    """Random skeleton trees for one workload profile."""

    def __init__(self, rng, prof):
        self.rng = rng
        self.depth = prof.depth
        self.p_iter = prof.p_iter
        self.p_attr = prof.p_attr
        self.n_modes = self.n_args = 0

    def arg(self, hint=None):
        # a fresh hole; occasionally the same operand text twice
        if hint is None and self.n_args and self.rng.random() < 0.04:
            return ("arg", self.rng.randrange(self.n_args), None)
        self.n_args += 1
        return ("arg", self.n_args - 1, hint)

    def mode(self, required=False):
        rng = self.rng
        if not required and rng.random() < 0.15:
            return None
        if self.n_modes and (self.n_modes >= MAX_MODE_HOLES or rng.random() < 0.55):
            return rng.randrange(self.n_modes)
        self.n_modes += 1
        return self.n_modes - 1

    def code(self, arity, concrete):
        rng = self.rng
        r = rng.random()
        if r < self.p_iter:
            # larger iterators are likelier, as in ports that lean on them
            names = [n for n, (a, _) in CODE_ITERATORS.items() if a == arity]
            return rng.choices(names, [len(CODE_ITERATORS[n][1]) for n in names])[0], True
        if r < self.p_iter + self.p_attr:
            names = [n for n, (a, _) in CODE_ATTRS.items() if a == arity]
            return "<%s>" % rng.choice(names), True
        return rng.choice(concrete), False

    def expr(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.22:
            return self.arg()
        r = rng.random()
        if r < 0.55:
            code, it = self.code("bin", BIN_OPS)
            return ("op", code, self.mode(it), [self.expr(depth - 1), self.expr(depth - 1)])
        if r < 0.80:
            code, it = self.code("un", UN_OPS)
            return ("op", code, self.mode(it), [self.expr(depth - 1)])
        if r < 0.88:
            return self.cond(depth)
        code = rng.choice(TERNARY_OPS)
        first = self.cond(depth) if code == "if_then_else" else self.expr(depth - 1)
        return ("op", code, self.mode(), [first, self.expr(depth - 1), self.expr(depth - 1)])

    def cond(self, depth):
        code, it = self.code("cmp", CMP_OPS)
        mode = self.mode(it) if it or self.rng.random() < 0.3 else None
        return ("op", code, mode, [self.expr(depth - 2), self.arg()])

    def template(self):
        """A whole template vector."""
        rng = self.rng
        self.n_modes = self.n_args = 0
        depth = rng.randint(*self.depth)
        r = rng.random()
        if r < 0.50:
            items = [("op", "set", None, [self.arg(), self.expr(depth)])]
        elif r < 0.62:
            items = [("op", "set", None, [self.arg(), self.expr(depth)]),
                     ("op", "clobber", None, [self.arg()])]
        elif r < 0.68:
            body = [("op", "set", None, [self.arg(), self.expr(depth)]),
                    ("op", "clobber", None, [self.arg()])]
            if rng.random() < 0.5:
                body.append(("op", "use", None, [self.arg()]))
            items = [("op", "parallel", None, [("vec", body)])]
        elif r < 0.76:
            dest = self.arg()
            cmp = ("op", "compare", self.mode(True),
                   [self.expr(depth - 1), self.expr(depth - 2)])
            items = [("op", "set", None, [dest, cmp])]
        elif r < 0.84:
            pc = self.arg("pc")
            items = [("op", "set", None, [pc, ("op", "if_then_else", None,
                                                [self.cond(depth), self.arg(), pc])])]
        elif r < 0.91:
            vec = ("vec", [self.expr(depth - 1) for _ in range(rng.randint(1, 3))])
            dest = self.arg()
            unspec = ("op", "unspec", self.mode(), [vec, self.arg("scalar")])
            items = [("op", "set", None, [dest, unspec])]
        elif r < 0.95:
            vec = ("vec", [self.arg() for _ in range(rng.randint(1, 2))])
            items = [("op", "unspec_volatile", None, [vec, self.arg("scalar")])]
        elif r < 0.99:
            call = ("op", "call", None, [self.arg(), self.arg()])
            if rng.random() < 0.5:
                items = [call, ("op", "clobber", None, [self.arg()])]
            else:
                items = [("op", "set", None, [self.arg(), call])]
        else:
            items = [("op", "return", None, [])]
        return ("vec", items)


def concrete_variant(sk: Skeleton, rng) -> Skeleton:
    """Replace one code iterator of a skeleton by one of its member codes."""
    name = rng.choice(sk.iterators)
    code = rng.choice(CODE_ITERATORS[name][1])

    def sub(node):
        if node[0] == "arg":
            return node
        if node[0] == "vec":
            return ("vec", [sub(c) for c in node[1]])
        _, c, mode, children = node
        return ("op", code if c == name else c, mode, [sub(x) for x in children])

    return make_skeleton(sub(sk.tree))


# ---------------------------------------------------------------------------
# Instantiation: skeleton -> MD template text


class _Filler:
    """Distinct texts for the holes of one template."""

    def __init__(self, rng, p_unknown, p_short):
        self.rng = rng
        self.p_unknown = p_unknown
        self.p_short = p_short

    def leaf(self, hole, hint):
        """(text, is_unknown) for one hole; the text embeds the hole number,
        so two holes of a template never get the same text."""
        rng = self.rng
        if hint == "pc":
            return "(pc)", False
        if hint == "scalar":
            if rng.random() < 0.5:
                return str(300 + 7 * hole), False
            return "UNSPEC_OP%d" % hole, False
        if rng.random() < self.p_unknown:
            code = rng.choice(UNKNOWN_CODES)
            return ("(%s:SI (match_operand:SI %d \"register_operand\" \"r\") (const_int %d))"
                    % (code, hole, hole + 1)), True
        mode = rng.choice(["SI", "DI", "QI", "HI", "SF", "DF", "GPR", "<MODE>"])
        r = rng.random()
        if r < self.p_short:
            r = rng.random()
            if r < 0.4:
                return "(reg:%s %d)" % (mode, 100 + hole), False
            if r < 0.7:
                return "(match_dup %d)" % hole, False
            return "(const_int %d)" % (hole - 2), False
        r = rng.random()
        if r < 0.7:
            return ('(match_operand:%s %d "%s" "%s")'
                    % (mode, hole, rng.choice(PREDICATES), rng.choice(CONSTRAINTS))), False
        if r < 0.8:
            return ('(mem:%s (match_operand:P %d "address_operand" "p"))' % (mode, hole)), False
        if r < 0.88:
            return '(match_scratch:%s %d "=&r")' % (mode, hole), False
        if r < 0.94:
            return "(label_ref (match_operand %d))" % hole, False
        return ('(subreg:%s (match_operand:DI %d "register_operand" "r") 0)' % (mode, hole)), False


def instantiate(sk: Skeleton, filler: _Filler, width: int):
    """Return (template text, unknown-code occurrences) for one skeleton draw.

    Lists longer than ``width`` characters break one child per line.
    """
    n_modes = 1 + max((n[2] for n in _walk(sk.tree) if n[0] == "op" and n[2] is not None),
                      default=-1)
    mode_text = filler.rng.sample(MODE_TEXTS, n_modes)
    leaves = {}
    unknown = 0

    def text(node, indent):
        nonlocal unknown
        kind = node[0]
        if kind == "arg":
            if node[1] not in leaves:
                leaves[node[1]] = filler.leaf(node[1], node[2])
            leaf, is_unknown = leaves[node[1]]
            unknown += is_unknown
            return leaf
        if kind == "vec":
            inner = [text(c, indent + 1) for c in node[1]]
            flat = "[%s]" % " ".join(inner)
            if len(flat) <= width and "\n" not in flat:
                return flat
            return "[%s]" % ("\n" + " " * indent).join(inner)
        _, code, mode, children = node
        head = code if mode is None else "%s:%s" % (code, mode_text[mode])
        if not children:
            return "(%s)" % head
        parts = [text(c, indent + len(head) + 2) for c in children]
        flat = "(%s %s)" % (head, " ".join(parts))
        if len(flat) <= width and "\n" not in flat:
            return flat
        return "(%s %s)" % (head, ("\n" + " " * (indent + len(head) + 2)).join(parts))

    return text(sk.tree, 3), unknown


# ---------------------------------------------------------------------------
# Corpus bookkeeping (the oracle)


@dataclass
class ArchTruth:
    name: str
    root: str  # root MD file, relative to the corpus directory
    counts: dict = field(default_factory=dict)  # canonical text -> templates
    skipped: int = 0
    unknown_codes: int = 0
    files: int = 0
    forms: dict = field(default_factory=dict)  # FormKind value -> forms after includes
    bytes: int = 0

    @property
    def expressions(self) -> int:
        return sum(self.counts.values())

    @property
    def patterns(self) -> int:
        return len(self.counts)


@dataclass
class Corpus:
    files: dict  # relative path -> text
    archs: list  # ArchTruth, in manifest order
    expansion: dict  # canonical text -> iterator-expansion size
    pair: tuple  # the two archs the workload compares

    def arch(self, name) -> ArchTruth:
        return next(a for a in self.archs if a.name == name)

    def shared(self, a: str, b: str) -> set:
        return set(self.arch(a).counts) & set(self.arch(b).counts)

    def covered(self, target: str, shared) -> int:
        """Target expressions generated by the given shared patterns."""
        counts = self.arch(target).counts
        return sum(counts[t] for t in shared)

    def merged(self, min_count: int) -> set:
        """Patterns whose total count over all archs exceeds min_count."""
        total = {}
        for a in self.archs:
            for t, c in a.counts.items():
                total[t] = total.get(t, 0) + c
        return {t for t, c in total.items() if c > min_count}

    def capped(self, archs) -> int:
        """Distinct patterns of the given archs whose expansion exceeds the cap."""
        texts = set().union(*(self.arch(a).counts for a in archs))
        return sum(1 for t in texts if self.expansion[t] > EXPANSION_CAP)

    def write(self, directory):
        for rel, text in self.files.items():
            path = os.path.join(directory, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="latin-1", newline="\n") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# Workload profiles


@dataclass
class Profile:
    archs: dict  # arch -> (templates E, distinct patterns P, target bytes of its files)
    pair: tuple  # the two archs `compare` runs on
    n_common: int  # skeletons every arch may draw
    p_common: float  # share of an arch's patterns drawn from the common pool
    p_variant: float  # share of iterator-bearing common picks replaced by a concrete variant
    depth: tuple  # template expression depth range
    p_iter: float  # share of operators written as a code iterator
    p_attr: float  # share written as a <code attr>
    p_short: float  # share of operand leaves written in a short form
    p_unknown: float  # share of operand leaves using an unknown RTX code
    ignored_per_100: int  # ignored forms per 100 templates
    lean: bool  # one-line templates, short names, no output templates or attributes


#: Draws tried per arch, and the relative distance from the target size at
#: which a draw is kept without trying more.
SIZE_CANDIDATES = 8
SIZE_TOLERANCE = 0.01

PROFILES = {
    # The paper's table: five archs of skewed sizes, long templates, moderate reuse.
    "survey": Profile(
        archs={"arm": (75, 38, 81900), "mips": (60, 31, 66800), "sparc": (45, 25, 49700),
               "i386": (165, 75, 185300), "vax": (35, 21, 39900)},
        pair=("i386", "arm"), n_common=100, p_common=0.6, p_variant=0.3, depth=(2, 4),
        p_iter=0.06, p_attr=0.02, p_short=0.2, p_unknown=0.01, ignored_per_100=320,
        lean=False),
    # One pair with dense code iterators and short, mostly unique templates.
    # Its many unique patterns also make the archive layer a visible part
    # of recombine.
    "iterators": Profile(
        archs={"aarch64": (420, 400, 89700), "rs6000": (420, 400, 90700)},
        pair=("aarch64", "rs6000"), n_common=600, p_common=0.5, p_variant=0.3, depth=(3, 3),
        p_iter=0.97, p_attr=0.03, p_short=1.0, p_unknown=0.005, ignored_per_100=2,
        lean=True),
}


def _weighted_sample(rng, items, weights, k):
    """k distinct items, heavier ones likelier (Efraimidis-Spirakis keys)."""
    keyed = sorted(zip((rng.random() ** (1.0 / w) for w in weights), range(len(items))),
                   reverse=True)
    return [items[i] for _, i in keyed[:k]]


def _pick_head(rng):
    return rng.choices([h for h, _ in CONSIDERED_HEADS], [w for _, w in CONSIDERED_HEADS])[0]


_C_SNIPPETS = [
    "operands[1] = force_reg (SImode, operands[1]);",
    "if (!register_operand (operands[0], VOIDmode))\n    {\n"
    "      emit_move_insn (operands[0], operands[1]);\n      DONE;\n    }",
    "rtx tmp = gen_reg_rtx (DImode);\n  emit_insn (gen_rtx_SET (tmp, operands[1]));",
    "{ int i; for (i = 0; i < 4; i++) { operands[i] = copy_rtx (operands[i]); } }",
]


def _c_block(rng):
    return "{\n  %s\n}" % rng.choice(_C_SNIPPETS)


def _output_template(rng, i):
    r = rng.random()
    if r < 0.6:
        return '"op%d\\t%%0, %%1"' % i
    if r < 0.8:
        return '"@\n   alt%d\\t%%0, %%1\n   alt%d.w\\t%%0, %%2"' % (i, i)
    if r < 0.9:
        return '"* return output_op%d (insn, operands, \\"%%0\\");"' % i
    return "{\n  return TARGET_X ? \"a%d %%0\" : \"b%d %%0\";\n}" % (i, i)


def _attrs(rng):
    return '[(set_attr "type" "%s")\n   (set_attr "mode" "%s")]' % (
        rng.choice(["alu", "imov", "shift", "fmul", "branch"]), rng.choice(["SI", "DI", "SF"]))


def _considered_form(rng, head, name, template, i, lean):
    if lean:
        cond, output, prep, tail = '""', '""', '""', ""
    else:
        cond = rng.choice(['""', '"TARGET_64BIT"', '"TARGET_HARD_FLOAT && !flag_trapping_math"',
                           '"reload_completed"'])
        output = _output_template(rng, i)
        prep = _c_block(rng) if rng.random() < 0.6 else '""'
        tail = "\n  " + _attrs(rng) if rng.random() < 0.6 else ""
    if head == "define_insn":
        return '(define_insn "%s"\n  %s\n  %s\n  %s%s)' % (name, template, cond, output, tail)
    if head == "define_expand":
        return '(define_expand "%s"\n  %s\n  %s\n  %s)' % (name, template, cond, prep)
    if head == "define_insn_and_split":
        return ('(define_insn_and_split "%s"\n  %s\n  %s\n  "#"\n  "&& reload_completed"\n'
                '  [(set (match_dup 0) (match_dup 1))]\n  %s%s)' % (
                    name, template, cond, prep, tail))
    return ('(define_split\n  %s\n  %s\n  [(set (match_dup 0) (match_dup 1))\n'
            '   (clobber (reg:CC 17))]\n  %s)' % (template, cond, prep))


def _ignored_form(rng, i):
    r = rng.random()
    if r < 0.25:
        return ('(define_predicate "pred_%d_operand"\n  (match_code "reg,subreg,const_int")\n'
                '{\n  if (GET_CODE (op) == SUBREG) { op = SUBREG_REG (op); }\n'
                '  return REG_P (op) || satisfies_constraint_I (op);\n})' % i)
    if r < 0.45:
        return ('(define_constraint "K%d"\n'
                '  "An integer \\"in range\\" 0..%d;\n   see \\\\ notes."\n'
                '  (and (match_code "const_int")\n       (match_test "ival >= 0 && ival <= %d")))'
                % (i, i + 31, i + 31))
    if r < 0.6:
        return '(define_attr "unit%d" "none,alu,fpu"\n  (const_string "none"))' % i
    if r < 0.75:
        return ('(define_insn_reservation "r%d" 2\n  (eq_attr "type" "alu")\n  "core%d")'
                % (i, i % 4))
    if r < 0.9:
        return ('(define_peephole2\n  [(set (match_operand:SI 0 "register_operand" "")\n'
                '        (match_operand:SI 1 "const_int_operand" ""))]\n  "peep2_%d"\n'
                '  [(set (match_dup 0) (match_dup 1))]\n  "")' % i)
    return '(define_register_constraint "q%d" "GENERAL_REGS"\n  "General; \\"q\\" register.")' % i


def _iterator_forms():
    """The iterator file's forms: mode/code iterators and attrs, the same in every arch."""
    out = []
    for name, modes in MODE_ITERATORS.items():
        out.append("(define_mode_iterator %s [%s])" % (name, " ".join(modes)))
    for name, values in MODE_ATTRS.items():
        out.append("(define_mode_attr %s [%s])" % (
            name, " ".join('(%s "%s")' % (m, v) for m, v in zip(MODE_ITERATORS["GPR"], values))))
    for name, (_, members) in CODE_ITERATORS.items():
        out.append("(define_code_iterator %s [%s])" % (name, " ".join(members)))
    for name, (_, codes) in CODE_ATTRS.items():
        out.append("(define_code_attr %s [%s])" % (
            name, " ".join('(%s "%s")' % (c, c.upper()) for c in codes)))
    return out


def _join(forms):
    return "\n\n".join(forms) + "\n"


def _new_skeleton(maker, seen):
    for _ in range(10000):
        sk = make_skeleton(maker.template())
        if sk.text not in seen:
            seen[sk.text] = sk
            return sk
    raise RuntimeError("profile too narrow for its number of distinct patterns")


def _arch_patterns(rng, prof, n_patterns, common, common_w, variants, maker, seen):
    """The arch's distinct skeletons: a weighted sample of the common pool,
    some swapped for a concrete iterator variant, plus private ones."""
    k = min(len(common), round(n_patterns * prof.p_common))
    chosen = []
    texts = set()
    for sk in _weighted_sample(rng, common, common_w, k):
        vs = variants[sk.text]
        if vs and rng.random() < prof.p_variant:
            v = rng.choice(vs)
            if v.text not in texts:
                sk = v
        if sk.text not in texts:
            texts.add(sk.text)
            chosen.append(sk)
    while len(chosen) < n_patterns:
        sk = _new_skeleton(maker, seen)
        texts.add(sk.text)
        chosen.append(sk)
    rng.shuffle(chosen)
    return chosen


def _make_arch(arng, prof, arch, n_templates, n_patterns, pool, iterator_text, n_iterator):
    """One arch's files and bookkeeping; `pool` is (common, weights, variants, seen)."""
    common, common_w, variants, seen = pool
    amaker = _SkeletonMaker(arng, prof)
    chosen = _arch_patterns(arng, prof, n_patterns, common, common_w, variants, amaker, seen)
    # every pattern once, the remaining templates by 1/rank popularity
    draws = chosen + arng.choices(chosen, [1.0 / (i + 1) for i in range(len(chosen))],
                                  k=n_templates - n_patterns)
    arng.shuffle(draws)
    filler = _Filler(arng, prof.p_unknown, prof.p_short)
    truth = ArchTruth(arch, "%s/%s.md" % (arch, arch))
    considered = []
    for i, sk in enumerate(draws):
        template, unknown = instantiate(sk, filler, 10000 if prof.lean else 72)
        truth.counts[sk.text] = truth.counts.get(sk.text, 0) + 1
        truth.unknown_codes += unknown
        if prof.lean:
            name = "%s%d" % (arch[0], i)
        else:
            name = "%s%s_%s%d" % ("*" if arng.random() < 0.3 else "", arch,
                                  "<mode>" if arng.random() < 0.2 else "op", i)
        form = _considered_form(arng, _pick_head(arng), name, template, i, prof.lean)
        if not prof.lean:
            form = (";; %s: generated from pattern %d of this port.\n"
                    ";; Operand 0 is the destination; see the constraints below.\n%s"
                    % (name, i, form))
        considered.append(form)
    truth.skipped = arng.randint(2, 6)
    for j in range(truth.skipped):
        considered.insert(arng.randrange(len(considered) + 1),
                          '(define_expand "%s_legacy%d"\n  "TARGET_OLD"\n'
                          '  "{ emit_insn (gen_blockage ()); DONE; }")' % (arch, j))
    n_ignored = max(4, n_templates * prof.ignored_per_100 // 100)
    ignored = [_ignored_form(arng, i) for i in range(n_ignored)]

    # An include chain: root -> ops/<arch>-ops.md -> ops/<arch>-sync.md,
    # plus the iterator and predicate files included from the root.
    third = len(considered) // 3
    root = [";; Generated GCC-shaped description of %s (not the real port)." % arch,
            "/* Block comment: (define_insn \"not_a_form\" [])\n   spans lines. */",
            '(include "%s-iterators.md")' % arch,
            '(include "%s-predicates.md")' % arch,
            "(define_constants\n  [(UNSPEC_A 1)\n   (UNSPEC_B 2)\n   (REG_CC 17)])"]
    root += ignored[: n_ignored // 2] + considered[:third]
    root.append('(include "ops/%s-ops.md")' % arch)
    ops = [";; Arithmetic and logic."] + considered[third:2 * third]
    ops.append('(include "%s-sync.md")' % arch)
    sync = [";; Atomics, jumps and calls."] + considered[2 * third:] + ignored[n_ignored // 2:]
    preds = [";; Predicates; ignored by the analyzer.",
             '(define_predicate "%s_reg_operand"\n  (match_operand 0 "register_operand"))'
             % arch]
    arch_files = {
        "%s/%s.md" % (arch, arch): _join(root),
        "%s/%s-iterators.md" % (arch, arch): iterator_text,
        "%s/%s-predicates.md" % (arch, arch): _join(preds),
        "%s/ops/%s-ops.md" % (arch, arch): _join(ops),
        "%s/ops/%s-sync.md" % (arch, arch): _join(sync),
    }
    truth.files = len(arch_files)
    truth.forms = {"considered": len(considered), "iterator": n_iterator,
                   "ignored": n_ignored + 2}  # + define_constants and the predicate
    truth.bytes = sum(len(text) for text in arch_files.values())
    return arch_files, truth


def generate(workload: str, seed: int) -> Corpus:
    """Build the named workload's corpus; the same seed gives the same bytes."""
    prof = PROFILES[workload]
    rng = random.Random("%s:%d:common" % (workload, seed))
    maker = _SkeletonMaker(rng, prof)
    seen = {}
    common = [_new_skeleton(maker, seen) for _ in range(prof.n_common)]
    variants = {}
    for sk in common:
        vs = [concrete_variant(sk, rng) for _ in range(3)] if sk.iterators else []
        variants[sk.text] = [seen.setdefault(v.text, v) for v in vs]
    common_w = [1.0 / (i + 1) for i in range(len(common))]

    files = {}
    archs = []
    manifest = ["# Generated %s corpus, seed %d." % (workload, seed)]
    iterator_forms = _iterator_forms()
    iterator_text = _join([";; Mode and code iterators."] + iterator_forms)
    for arch, (n_templates, n_patterns, target_bytes) in prof.archs.items():
        # Parse and analysis time follow an arch's bytes closely, and the
        # bytes of one draw vary by about 6% from seed to seed.  Keep the
        # draw closest to the arch's target size, so that runs with
        # different seeds do the same amount of work.
        best = None
        for attempt in range(SIZE_CANDIDATES):
            arng = random.Random("%s:%d:%s:%d" % (workload, seed, arch, attempt))
            trial_seen = dict(seen)
            arch_files, truth = _make_arch(
                arng, prof, arch, n_templates, n_patterns,
                (common, common_w, variants, trial_seen), iterator_text, len(iterator_forms))
            off = abs(truth.bytes - target_bytes) / target_bytes
            if best is None or off < best[0]:
                best = (off, arch_files, truth, trial_seen)
            if off <= SIZE_TOLERANCE:
                break
        _, arch_files, truth, seen = best
        files.update(arch_files)
        archs.append(truth)
        manifest.append("%s = %s" % (arch, truth.root))
    files["manifest.txt"] = "\n".join(manifest) + "\n"
    expansion = {t: seen[t].expansion for a in archs for t in a.counts}
    return Corpus(files, archs, expansion, prof.pair)
