"""The evaluation metrics as they were when each took a named url list, a
grade map and a persona, and resolved the urls against the map itself,
kept as the oracle of ``evoquery evaluate``.

``reference_evaluate`` is the command's scoring loop over those functions:
the metrics CSV text and the ``note:`` lines it prints, for orderings given
as (name, urls) pairs. Only the persona and the judgment record come from
the package.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add
from typing import Mapping, Sequence

from evoquery.evaluation import Judgment, Persona

DEFAULT_RELEVANCE_THRESHOLD = 2


class ZeroEnergySequence(Exception):
    """A correlation was requested for an empty or all-zero sequence."""


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


CSV_HEADER = ["metric", "ordering", "persona", "n", "value"]


def metrics_csv_text(rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in sorted(rows, key=lambda r: (r.metric, r.ordering, r.persona, r.n)):
        writer.writerow([row.metric, row.ordering, row.persona, row.n, f"{row.value:.6f}"])
    return out.getvalue()


def reference_evaluate(named_urls, judgments, personas, n, threshold):
    """(metrics CSV text, the note lines joined) for the (name, urls) orderings."""
    grades = consensus_map(judgments)
    orderings = [RankedList(name, list(urls)) for name, urls in named_urls]
    notes = []
    rows = []
    for ordering in orderings:
        top = RankedList(ordering.ordering_name, ordering.doc_urls[:n])
        name = ordering.ordering_name
        for persona in personas:
            code = persona.value
            missing = missing_grades(top, grades, persona)
            if missing:
                notes.append(
                    f"note: {missing} of {len(top.doc_urls)} positions in {name!r} lack "
                    f"{code} judgments (scored 0)"
                )
            rows.append(
                MetricRow("mean_relevance", name, code, n, mean_relevance(top, grades, persona))
            )
            rows.append(
                MetricRow("precision", name, code, n, precision(top, grades, persona, threshold))
            )
            rows.append(MetricRow("dcg", name, code, n, dcg(top, grades, persona, n)))
            rows.append(MetricRow("ndcg", name, code, n, ndcg(top, grades, persona, n)))
            ideal = ideal_ordering(top, grades, persona)
            ideal_series = cumulative_dcg_series(ideal, grades, persona, n)
            if not any(ideal_series):
                what = f"has no {code} grade above 0" if top.doc_urls else "holds no urls"
                notes.append(f"note: {name!r} {what}: {code} ndcg is 0 and rho12 is skipped")
                continue
            series = cumulative_dcg_series(top, grades, persona, n)
            rows.append(MetricRow("rho12", f"{name}|expert", code, n, rho12(series, ideal_series)))

    for left, right in combinations(orderings, 2):
        pair = f"{left.ordering_name}|{right.ordering_name}"
        left_top = RankedList(left.ordering_name, left.doc_urls[:n])
        right_top = RankedList(right.ordering_name, right.doc_urls[:n])
        rows.append(
            MetricRow("overlap_percent", pair, "-", n, overlap_percent(left_top, right_top))
        )
        for persona in personas:
            series_a = cumulative_dcg_series(left_top, grades, persona, n)
            series_b = cumulative_dcg_series(right_top, grades, persona, n)
            shared = min(len(series_a), len(series_b))
            try:
                value = rho12(series_a[:shared], series_b[:shared])
            except ZeroEnergySequence:
                notes.append(
                    f"note: skipping rho12 for {pair!r}/{persona.value}: a series has zero energy"
                )
                continue
            rows.append(MetricRow("rho12", pair, persona.value, n, value))
    return metrics_csv_text(rows), "".join(note + "\n" for note in notes)
