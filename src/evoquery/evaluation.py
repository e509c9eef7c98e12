"""Relevance judgments and ranking-quality metrics.

Judgments arrive as a tab-separated file graded on a 0..3 scale by any
number of judges, split into two personas (subject specialist vs novice).
Metrics operate on consensus grades: the per-persona mean grade of each
document across judges. Documents without a judgment count as grade 0;
callers can ask how many such holes a list had and surface that. An empty
list, or one whose grades are all 0, scores 0 without a word: the caller
notes it. Float
sums add left to right, not through ``sum()``, which compensates rounding
from Python 3.12 on and so would make metrics depend on the interpreter.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import data_lines
from .errors import ParseError, ZeroEnergySequence

GRADE_SCALE = (0, 1, 2, 3)
DEFAULT_RELEVANCE_THRESHOLD = 2


class Persona(str, Enum):
    SPECIALIST = "S"
    NOVICE = "N"

    @classmethod
    def from_code(cls, code: str) -> Persona:
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"persona must be S or N, got {code!r}") from None


@dataclass(frozen=True)
class Judgment:
    doc_url: str
    persona: Persona
    grade: int


@dataclass
class RankedList:
    """A named document ordering under evaluation; the CLI's loaders refuse repeated urls."""

    ordering_name: str
    doc_urls: list[str]


@dataclass
class MetricRow:
    metric: str
    ordering: str
    persona: str
    n: int
    value: float


GradeMap = Mapping[tuple[str, Persona], float]


def load_qrels(path: str | Path) -> list[Judgment]:
    """Parse judgment lines: url, judge id, persona code, grade, tab-separated."""
    judgments: list[Judgment] = []
    seen: set[tuple[str, str, Persona]] = set()
    for line_no, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", line_no, path)
        doc_url, judge_id, persona_code, grade_text = (p.strip() for p in parts)
        if not doc_url or not judge_id:
            raise ParseError("empty url or judge id", line_no, path)
        try:
            persona = Persona.from_code(persona_code)
        except ValueError as exc:
            raise ParseError(str(exc), line_no, path) from None
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"grade {grade_text!r} is not an integer", line_no, path) from None
        if grade not in GRADE_SCALE:
            raise ParseError(f"grade {grade} outside 0..3", line_no, path)
        key = (doc_url, judge_id, persona)
        if key in seen:
            raise ParseError(
                f"repeated judgment for {doc_url} / {judge_id} / {persona.value}", line_no, path
            )
        seen.add(key)
        judgments.append(Judgment(doc_url=doc_url, persona=persona, grade=grade))
    return judgments


def consensus_grade(judgments: Sequence[Judgment]) -> float:
    """Mean grade over the judges of one (url, persona) group, which has at least one."""
    return sum(j.grade for j in judgments) / len(judgments)


def consensus_map(judgments: Sequence[Judgment]) -> dict[tuple[str, Persona], float]:
    """Consensus grade for every (url, persona) seen in the judgment set."""
    groups: dict[tuple[str, Persona], list[Judgment]] = defaultdict(list)
    for judgment in judgments:
        groups[(judgment.doc_url, judgment.persona)].append(judgment)
    return {key: consensus_grade(group) for key, group in groups.items()}


def resolve_grades(
    ranked: RankedList, grades: GradeMap, persona: Persona
) -> tuple[list[float], int]:
    """Grades in list order; unjudged documents score 0 and are counted."""
    resolved = []
    missing = 0
    for url in ranked.doc_urls:
        grade = grades.get((url, persona))
        if grade is None:
            missing += 1
            resolved.append(0.0)
        else:
            resolved.append(grade)
    return resolved, missing


def missing_grades(ranked: RankedList, grades: GradeMap, persona: Persona) -> int:
    return resolve_grades(ranked, grades, persona)[1]


def mean_relevance(ranked: RankedList, grades: GradeMap, persona: Persona) -> float:
    """Mean consensus grade over the list; empty list scores 0."""
    values, _ = resolve_grades(ranked, grades, persona)
    if not values:
        return 0.0
    return reduce(add, values, 0.0) / len(values)


def precision(
    ranked: RankedList,
    grades: GradeMap,
    persona: Persona,
    threshold: int = DEFAULT_RELEVANCE_THRESHOLD,
) -> float:
    """Fraction of the list whose consensus grade reaches the threshold; empty list scores 0."""
    values, _ = resolve_grades(ranked, grades, persona)
    if not values:
        return 0.0
    return sum(1 for v in values if v >= threshold) / len(values)


def dcg(ranked: RankedList, grades: GradeMap, persona: Persona, n: int) -> float:
    """Graded gain 2^g - 1 with logarithmic position discount, summed to n >= 1.

    The top document's discount is log2(2) = 1, i.e. positions count from
    zero inside the discount.
    """
    series = cumulative_dcg_series(ranked, grades, persona, n)
    return series[-1] if series else 0.0


def ideal_ordering(ranked: RankedList, grades: GradeMap, persona: Persona) -> RankedList:
    """The same urls re-sorted best-grade-first; grade ties sort by url."""
    values, _ = resolve_grades(ranked, grades, persona)
    paired = sorted(zip(ranked.doc_urls, values), key=lambda uv: (-uv[1], uv[0]))
    return RankedList(
        ordering_name=f"{ranked.ordering_name}-ideal",
        doc_urls=[url for url, _ in paired],
    )


def ndcg(ranked: RankedList, grades: GradeMap, persona: Persona, n: int) -> float:
    """DCG normalized by the ideal permutation's DCG; 0 when all grades are 0."""
    ideal = ideal_ordering(ranked, grades, persona)
    best = dcg(ideal, grades, persona, n)
    if best == 0.0:
        return 0.0
    return dcg(ranked, grades, persona, n) / best


def cross_correlation_raw(x1: Sequence[float], x2: Sequence[float]) -> float:
    """Zero-shift raw cross-correlation of equal-length, non-empty sequences: the mean product."""
    return reduce(add, (a * b for a, b in zip(x1, x2)), 0.0) / len(x1)


def rho12(x1: Sequence[float], x2: Sequence[float]) -> float:
    """Normalized zero-shift cross-correlation of equal-length sequences, in [-1, 1];
    ZeroEnergySequence when one is empty or all zero."""
    energy1 = reduce(add, (a * a for a in x1), 0.0)
    energy2 = reduce(add, (b * b for b in x2), 0.0)
    if energy1 == 0.0 or energy2 == 0.0:
        raise ZeroEnergySequence("correlation of an empty or all-zero sequence")
    raw = cross_correlation_raw(x1, x2)
    denom = math.sqrt(energy1 * energy2) / len(x1)
    value = raw / denom
    return min(1.0, max(-1.0, value))


def overlap_percent(list_a: RankedList, list_b: RankedList) -> float:
    """Shared urls as a percentage of all urls either list found; 0 when neither found one."""
    a, b = set(list_a.doc_urls), set(list_b.doc_urls)
    union = a | b
    if not union:
        return 0.0
    return 100.0 * len(a & b) / len(union)


def cumulative_dcg_series(
    ranked: RankedList, grades: GradeMap, persona: Persona, n: int
) -> list[float]:
    """DCG prefix sums per position, the series correlation compares."""
    values, _ = resolve_grades(ranked, grades, persona)
    series = []
    total = 0.0
    for p, grade in enumerate(values[:n]):
        total += (2.0**grade - 1.0) / math.log2(2 + p)
        series.append(total)
    return series
