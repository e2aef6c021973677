"""Similarity measures between analyzed machine descriptions.

Three measures: shared unique patterns, expressions generated by shared
patterns, and directed source-to-target coverage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .pattern import MdAnalysis
from .sexpr import SList, SVector, Symbol, parse_one


class SimilarityError(Exception):
    pass


class BothEmpty(SimilarityError):
    pass


class EmptyTarget(SimilarityError):
    pass


@dataclass
class PairReport:
    arch_a: str
    arch_b: str
    common_pattern_count: int
    pattern_similarity_pct: float
    covered_expr_a: int
    covered_expr_b: int
    expression_similarity_pct: float


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


def _iterator_members(analysis: MdAnalysis) -> dict:
    """Code-iterator name -> member code list, parsed from recorded forms."""
    members = {}
    for text in analysis.iterators:
        form = parse_one(text)
        if not isinstance(form, SList) or len(form.items) < 3:
            continue
        head = form.items[0]
        if not isinstance(head, Symbol) or head.text != "define_code_iterator":
            continue
        name = form.items[1]
        body = form.items[2]
        if not isinstance(name, Symbol) or not isinstance(body, SVector):
            continue
        codes = []
        for item in body.items:
            if isinstance(item, Symbol):
                codes.append(item.text)
            elif isinstance(item, SList) and item.items and isinstance(item.items[0], Symbol):
                codes.append(item.items[0].text)  # (code "condition") member
        if codes:
            members[name.text] = codes
    return members


_EXPANSION_CAP = 64


def _expand_text(text: str, members: dict) -> frozenset:
    """All iterator-member substitutions of one canonical text (capped)."""
    variants = [text]
    for name, codes in members.items():
        for needle in ("(%s " % name, "(%s:" % name, "(%s)" % name):
            if any(needle in v for v in variants):
                new = []
                for v in variants:
                    if needle in v:
                        for code in codes:
                            new.append(v.replace(needle, needle.replace(name, code)))
                    else:
                        new.append(v)
                variants = new[:_EXPANSION_CAP]
    return frozenset(variants)


def common_patterns(a: MdAnalysis, b: MdAnalysis, expand_iterators=False):
    """Matched (id_a, id_b) pairs; each pattern matches at most one partner."""
    if not expand_iterators:
        texts_b = {e.pattern.canonical_text: e.pattern_id for e in b.store.entries()}
        return [
            (e.pattern_id, texts_b[e.pattern.canonical_text])
            for e in a.store.entries()
            if e.pattern.canonical_text in texts_b
        ]
    mem_a, mem_b = _iterator_members(a), _iterator_members(b)
    expanded_b = [
        (e.pattern_id, _expand_text(e.pattern.canonical_text, mem_b))
        for e in b.store.entries()
    ]
    matched_b = set()
    out = []
    for ea in a.store.entries():
        ex_a = _expand_text(ea.pattern.canonical_text, mem_a)
        for id_b, ex_b in expanded_b:
            if id_b not in matched_b and ex_a & ex_b:
                out.append((ea.pattern_id, id_b))
                matched_b.add(id_b)
                break
    return out


def _covered_count(analysis: MdAnalysis, ids) -> int:
    ids = set(ids)
    return sum(e.count for e in analysis.store.entries() if e.pattern_id in ids)


def pattern_similarity(a: MdAnalysis, b: MdAnalysis, expand_iterators=False) -> float:
    p = len(common_patterns(a, b, expand_iterators))
    return pattern_similarity_pct(a.store.pattern_count, b.store.pattern_count, p)


def expression_similarity(a: MdAnalysis, b: MdAnalysis, expand_iterators=False) -> PairReport:
    common = common_patterns(a, b, expand_iterators)
    p = len(common)
    cov_a = _covered_count(a, (ia for ia, _ in common))
    cov_b = _covered_count(b, (ib for _, ib in common))
    return PairReport(
        arch_a=a.arch_name,
        arch_b=b.arch_name,
        common_pattern_count=p,
        pattern_similarity_pct=pattern_similarity_pct(
            a.store.pattern_count, b.store.pattern_count, p
        ),
        covered_expr_a=cov_a,
        covered_expr_b=cov_b,
        expression_similarity_pct=expression_similarity_pct(
            cov_a, cov_b, a.expr_count, b.expr_count
        ),
    )


def target_coverage(source: MdAnalysis, target: MdAnalysis,
                    expand_iterators=False) -> tuple[int, float]:
    """Expressions of the target derivable from the source's patterns."""
    common = common_patterns(source, target, expand_iterators)
    covered = _covered_count(target, (it for _, it in common))
    return covered, coverage_pct(covered, target.expr_count)


@dataclass
class MatrixCell:
    row: str
    col: str
    count: int
    pct: float


@dataclass
class MatrixReport:
    metric: str  # 'pattern' | 'expr' | 'coverage'
    arch_names: list
    cells: list


def similarity_matrix(analyses, metric: str, expand_iterators=False) -> MatrixReport:
    """All-pairs table: upper triangle for symmetric metrics, full for coverage."""
    names = [a.arch_name for a in analyses]
    cells = []
    if metric == "coverage":
        for src, tgt in itertools.permutations(analyses, 2):
            covered, pct = target_coverage(src, tgt, expand_iterators)
            cells.append(MatrixCell(src.arch_name, tgt.arch_name, covered, pct))
    elif metric in ("pattern", "expr"):
        for a, b in itertools.combinations(analyses, 2):
            rep = expression_similarity(a, b, expand_iterators)
            if metric == "pattern":
                cells.append(MatrixCell(a.arch_name, b.arch_name,
                                        rep.common_pattern_count,
                                        rep.pattern_similarity_pct))
            else:
                cells.append(MatrixCell(a.arch_name, b.arch_name,
                                        rep.covered_expr_a + rep.covered_expr_b,
                                        rep.expression_similarity_pct))
    else:
        raise ValueError("unknown metric: %r" % metric)
    return MatrixReport(metric, names, cells)
