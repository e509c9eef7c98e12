"""Relevance judgments and ranking-quality metrics.

Judgments arrive as a tab-separated file graded on a 0..3 scale by any
number of judges, split into two personas (subject specialist vs novice).
``consensus_map`` gives each judged (url, persona) its consensus grade, the
mean over its judges. Every metric is a function of one ordering's grade
list: the consensus grades of its urls in list order, which the caller
looks up once per (ordering, persona). ``missing_grades`` scores each
unjudged url 0 and counts them, for the caller to note. The ideal ordering
is that list sorted best first. An empty list, or one whose grades are all
0, scores 0 without a word: the caller notes it. Float sums add left to
right, not through ``sum()``, which compensates rounding from Python 3.12
on and so would make metrics depend on the interpreter.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from pathlib import Path
from typing import Sequence

from .corpus import data_lines
from .errors import ParseError

GRADE_SCALE = (0, 1, 2, 3)
DEFAULT_RELEVANCE_THRESHOLD = 2


class Persona(str, Enum):
    SPECIALIST = "S"
    NOVICE = "N"


@dataclass(frozen=True)
class Judgment:
    doc_url: str
    persona: Persona
    grade: int


@dataclass
class MetricRow:
    metric: str
    ordering: str
    persona: str
    n: int
    value: float


def load_qrels(path: str | Path) -> list[Judgment]:
    """Parse judgment lines: url, judge id, persona code, grade, tab-separated."""
    judgments: list[Judgment] = []
    seen: set[tuple[str, str, Persona]] = set()
    for line_no, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", line_no, path)
        doc_url, judge_id, persona_code, grade_text = (p.strip() for p in parts)
        if not judge_id:  # a stripped line starts with its url, which is never empty
            raise ParseError("empty judge id", line_no, path)
        try:
            persona = Persona(persona_code)
        except ValueError:
            raise ParseError(f"persona must be S or N, got {persona_code!r}", line_no, path) from None
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


def consensus_map(judgments: Sequence[Judgment]) -> dict[tuple[str, Persona], float]:
    """Consensus grade, the mean over its judges, of every (url, persona) judged."""
    groups: dict[tuple[str, Persona], list[int]] = defaultdict(list)
    for judgment in judgments:
        groups[(judgment.doc_url, judgment.persona)].append(judgment.grade)
    return {key: sum(group) / len(group) for key, group in groups.items()}


def missing_grades(judged: Sequence[float | None]) -> tuple[list[float], int]:
    """A list's grades with each unjudged place (None) scored 0, and how many there were."""
    return [0.0 if grade is None else grade for grade in judged], judged.count(None)


def mean_relevance(values: Sequence[float]) -> float:
    """Mean grade over the list; empty list scores 0."""
    if not values:
        return 0.0
    return reduce(add, values, 0.0) / len(values)


def precision(values: Sequence[float], threshold: int = DEFAULT_RELEVANCE_THRESHOLD) -> float:
    """Fraction of the list whose grade reaches the threshold; empty list scores 0."""
    if not values:
        return 0.0
    return sum(1 for v in values if v >= threshold) / len(values)


def cumulative_dcg_series(values: Sequence[float], n: int) -> list[float]:
    """DCG prefix sums per position to n, the series correlation compares."""
    series = []
    total = 0.0
    for p, grade in enumerate(values[:n]):
        total += (2.0**grade - 1.0) / math.log2(2 + p)
        series.append(total)
    return series


def dcg(values: Sequence[float], n: int) -> float:
    """Graded gain 2^g - 1 with logarithmic position discount, summed to n >= 1.

    The top document's discount is log2(2) = 1, i.e. positions count from
    zero inside the discount.
    """
    series = cumulative_dcg_series(values, n)
    return series[-1] if series else 0.0


def ideal_ordering(values: Sequence[float]) -> list[float]:
    """The grade list of the best permutation: the grades best first."""
    return sorted(values, reverse=True)


def ndcg(values: Sequence[float], n: int) -> float:
    """DCG normalized by the ideal permutation's DCG; 0 when all grades are 0."""
    best = dcg(ideal_ordering(values), n)
    if best == 0.0:
        return 0.0
    return dcg(values, n) / best


def rho12(x1: Sequence[float], x2: Sequence[float]) -> float | None:
    """Normalized zero-shift cross-correlation of equal-length sequences, in [-1, 1];
    None when one is empty or all zero."""
    energy1 = reduce(add, (a * a for a in x1), 0.0)
    energy2 = reduce(add, (b * b for b in x2), 0.0)
    if energy1 == 0.0 or energy2 == 0.0:
        return None
    raw = reduce(add, (a * b for a, b in zip(x1, x2)), 0.0) / len(x1)  # the mean product
    denom = math.sqrt(energy1 * energy2) / len(x1)
    value = raw / denom
    return min(1.0, max(-1.0, value))


def overlap_percent(urls_a: Sequence[str], urls_b: Sequence[str]) -> float:
    """Shared urls as a percentage of all urls either list found; 0 when neither found one."""
    a, b = set(urls_a), set(urls_b)
    union = a | b
    if not union:
        return 0.0
    return 100.0 * len(a & b) / len(union)
