"""The scorer as it was before each result was built once, kept as a test reference.

``score_query_results`` here built every hit's ``ScoredResult`` with its
undamped fitness, computed each hit's semantic score afresh, and let
``apply_host_collocation`` copy each damped result with
``dataclasses.replace``. The package's scorer must return equal results
in the same order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from evoquery.evolution import RunConfig
from evoquery.fitness import (
    ReferenceText,
    ScoredResult,
    UrlCounts,
    cross_query_score,
    position_score,
    result_fitness,
    semantic_score,
)
from evoquery.provider import SearchHit


def apply_host_collocation(results: list[ScoredResult], host_coeff: float) -> list[ScoredResult]:
    """Damp repeated hosts: the k-th result from one host keeps coeff^(k-1).

    Expects the input sorted by fitness descending (host order counts in
    that sort order); returns a fresh list re-sorted by damped fitness,
    ties by url ascending. Undamped results are the input objects themselves.
    """
    seen: dict[str, int] = {}
    adjusted = []
    for result in results:
        k = seen.get(result.hit.doc_host, 0)
        seen[result.hit.doc_host] = k + 1
        if k == 0 or host_coeff == 1.0:
            adjusted.append(result)
        else:
            adjusted.append(replace(result, fitness=result.fitness * host_coeff**k))
    adjusted.sort(key=lambda r: (-r.fitness, r.hit.doc_url))
    return adjusted


def score_query_results(
    hits: Sequence[SearchHit],
    url_counts: UrlCounts,
    ref: ReferenceText,
    config: RunConfig,
) -> list[ScoredResult]:
    """Score one query's hits within its population and damp host runs."""
    length = len(hits)
    scored = []
    for hit in hits:
        rank = position_score(hit.position, length)
        crossquery = cross_query_score(hit.doc_url, url_counts)
        semantic = semantic_score(hit, ref)
        scored.append(
            ScoredResult(
                hit=hit,
                rank_component=rank,
                crossquery_component=crossquery,
                semantic_component=semantic,
                environment_factor=config.a_factor,
                fitness=result_fitness(rank, crossquery, semantic, config),
            )
        )
    scored.sort(key=lambda r: (-r.fitness, r.hit.doc_url))
    return apply_host_collocation(scored, config.f4)
