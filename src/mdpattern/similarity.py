"""Similarity measures between analyzed machine descriptions.

Three measures: shared unique patterns, expressions generated by shared
patterns, and directed source-to-target coverage.

With code iterators expanded, a pair expands only the patterns whose
skeleton, the text with every list head erased, also occurs on the other
side; no other pattern can match.  Each pattern text is expanded at most
once per set of members, across both directions and all pairs.
"""

import functools
import itertools
import re

from . import ATOM_CHAR, Error
from .pattern import MdAnalysis


class SimilarityError(Error):
    pass


class BothEmpty(SimilarityError):
    pass


class EmptyTarget(SimilarityError):
    pass


# -- formula-level helpers (unit-testable on raw counts) --------------------


def pattern_similarity_pct(p1: int, p2: int, p: int) -> float:
    if p1 + p2 == 0:
        raise BothEmpty("no patterns on either side")
    return 200.0 * p / (p1 + p2)


def expression_similarity_pct(e1_covered: int, e2_covered: int, e1: int, e2: int) -> float:
    if e1 + e2 == 0:
        raise BothEmpty("no expressions on either side")
    return 100.0 * (e1_covered + e2_covered) / (e1 + e2)


def coverage_pct(covered: int, e_target: int) -> float:
    if e_target == 0:
        raise EmptyTarget("target has no expressions")
    return 100.0 * covered / e_target


# -- analysis-level operations ----------------------------------------------


def _iterator_members(analysis: MdAnalysis) -> tuple:
    """(name, member codes) of each code iterator of the analysis's forms."""
    return _members(tuple(analysis.iterators))


@functools.cache
def _members(forms: tuple) -> tuple:
    """(name, member codes) of each ``(define_code_iterator name [code (code
    "cond") ...])`` of `forms`, in definition order; a later definition of a
    name replaces its members, and one with no member is ignored."""
    from . import sexpr

    members = {}
    for _, form in sexpr.parse_text("\n".join(forms)):
        items = form.items if isinstance(form, sexpr.SList) else []
        if (len(items) >= 3 and items[0] == sexpr.Symbol("define_code_iterator")
                and isinstance(items[1], sexpr.Symbol) and isinstance(items[2], sexpr.SVector)):
            heads = [m.items[0] if isinstance(m, sexpr.SList) and m.items else m
                     for m in items[2].items]  # the code of a (code "cond") member
            codes = tuple(m.text for m in heads if isinstance(m, sexpr.Symbol))
            if codes:
                members[items[1].text] = codes
    return tuple(members.items())


_EXPANSION_CAP = 64


@functools.cache
def _expand_text(text: str, members: tuple) -> tuple:
    """All iterator-member substitutions of one canonical text (capped).

    Members are substituted in definition order, and each step keeps the
    first _EXPANSION_CAP variants.
    """
    variants = [text]
    # needles hold no whitespace, so a needle is in `joined` iff it is in
    # one of the variants
    joined = text
    for name, codes in members:
        opener = "(" + name
        if opener not in joined:
            continue
        for needle in (opener + " ", opener + ":", opener + ")"):
            if needle in joined:
                new = []
                for v in variants:
                    if needle in v:
                        new.extend(v.replace(needle, needle.replace(name, code))
                                   for code in codes)
                    else:
                        new.append(v)
                    if len(new) >= _EXPANSION_CAP:
                        break
                variants = new[:_EXPANSION_CAP]
                joined = "\n".join(variants)
    return tuple(dict.fromkeys(variants))


#: A list head: the '(' and the run of characters after it that a symbol
#: may hold, code and ':mode' together.
_HEAD_RE = re.compile(r"\(%s*" % ATOM_CHAR)


def _skeleton(text: str) -> str:
    """The text with every list head erased.

    Expansion turns "(name" followed by a space, ':' or ')' into "(code" and
    the same character, and names and codes are symbols, so every variant
    of a pattern has the pattern's skeleton: two patterns whose skeletons
    differ share no variant.
    """
    return _HEAD_RE.sub("(", text)


def _skeletons(analysis: MdAnalysis) -> list:
    """(store entry, skeleton) per store entry, in entries() order."""
    return [(e, _skeleton(e.pattern.canonical_text)) for e in analysis.store.entries()]


def _expanded(analysis: MdAnalysis, skeletons: list, shared: set) -> list:
    """(pattern id, variants) of each entry whose skeleton is in `shared`."""
    members = _iterator_members(analysis)
    return [(e.pattern_id, _expand_text(e.pattern.canonical_text, members))
            for e, skeleton in skeletons if skeleton in shared]


def common_patterns(a: MdAnalysis, b: MdAnalysis, expand_iterators=False):
    """Matched (id_a, id_b) pairs; each pattern matches at most one partner.

    Greedy first fit: each pattern of a, in (height, id) order, takes the
    first unmatched pattern of b in that order that shares a text with it;
    with expand_iterators, any of their code-iterator expansions.  Only the
    patterns whose skeleton occurs on both sides can share one, so only
    they are expanded and looked up.
    """
    if expand_iterators:
        skeletons_a, skeletons_b = _skeletons(a), _skeletons(b)
        shared = {s for _, s in skeletons_a}.intersection(s for _, s in skeletons_b)
        texts_a = _expanded(a, skeletons_a, shared)
        texts_b = _expanded(b, skeletons_b, shared)
    else:
        texts_a = [(e.pattern_id, (e.pattern.canonical_text,)) for e in a.store.entries()]
        texts_b = [(e.pattern_id, (e.pattern.canonical_text,)) for e in b.store.entries()]
    index = {}  # text -> positions in texts_b, descending
    for pos in range(len(texts_b) - 1, -1, -1):
        for text in texts_b[pos][1]:
            index.setdefault(text, []).append(pos)
    matched = set()
    out = []
    for id_a, texts in texts_a:
        best = None
        for text in texts:
            hits = index.get(text)
            while hits and hits[-1] in matched:
                hits.pop()
            if hits and (best is None or hits[-1] < best):
                best = hits[-1]
        if best is not None:
            matched.add(best)
            out.append((id_a, texts_b[best][0]))
    return out


def _covered_count(analysis: MdAnalysis, ids) -> int:
    return sum(analysis.store.get(i).count for i in ids)


def expression_similarity(a: MdAnalysis, b: MdAnalysis, expand_iterators=False) -> dict:
    """The pair report, keyed and ordered as `compare --format json` prints
    it; percentages are not rounded."""
    common = common_patterns(a, b, expand_iterators)
    p = len(common)
    cov_a = _covered_count(a, (ia for ia, _ in common))
    cov_b = _covered_count(b, (ib for _, ib in common))
    return {
        "arch_a": a.arch_name,
        "arch_b": b.arch_name,
        "common_patterns": p,
        "pattern_similarity_pct": pattern_similarity_pct(
            a.store.pattern_count, b.store.pattern_count, p),
        "covered_expr_a": cov_a,
        "covered_expr_b": cov_b,
        "expression_similarity_pct": expression_similarity_pct(
            cov_a, cov_b, a.expr_count, b.expr_count),
    }


def target_coverage(source: MdAnalysis, target: MdAnalysis,
                    expand_iterators=False) -> tuple[int, float]:
    """Expressions of the target derivable from the source's patterns."""
    common = common_patterns(source, target, expand_iterators)
    covered = _covered_count(target, (it for _, it in common))
    return covered, coverage_pct(covered, target.expr_count)


def similarity_matrix(analyses, metric: str, expand_iterators=False) -> dict:
    """All-pairs table, keyed as `matrix --format json` prints it: upper
    triangle for symmetric metrics, full for coverage."""
    cells = []  # (row, col, count, pct)
    if metric == "coverage":
        for src, tgt in itertools.permutations(analyses, 2):
            cells.append((src, tgt, *target_coverage(src, tgt, expand_iterators)))
    elif metric in ("pattern", "expr"):
        for a, b in itertools.combinations(analyses, 2):
            rep = expression_similarity(a, b, expand_iterators)
            if metric == "pattern":
                cells.append((a, b, rep["common_patterns"], rep["pattern_similarity_pct"]))
            else:
                cells.append((a, b, rep["covered_expr_a"] + rep["covered_expr_b"],
                              rep["expression_similarity_pct"]))
    else:
        raise ValueError("unknown metric: %r" % metric)
    return {"table": metric, "archs": [a.arch_name for a in analyses],
            "cells": [{"row": row.arch_name, "col": col.arch_name, "count": count, "pct": pct}
                      for row, col, count, pct in cells]}
