"""A literal scorer, kept as a test reference.

It scores one query's hits as the package defines the scores, with no memo:
each hit's semantic score normalizes its text afresh, each crossquery score
counts the lists again, each damped result is a copy, and every list is
ordered by a plain sort. Hits are (url, host, title, snippet) tuples in rank
order, so a hit's position is its place in its list, counted from 1. Results
are dicts with the keys of a final_results.json entry. Nothing here uses a
type of the package's hit or result, so the same reference gates any
representation of them.
"""

from __future__ import annotations

from typing import Sequence

from evoquery.corpus import TermVector


def semantic(hit: tuple, vector: TermVector, normalizer) -> float:
    """The cosine of the hit's title+snippet lemma vector and ``vector``, clipped to [0, 1]."""
    _, _, title, snippet = hit
    hit_vector = TermVector.from_lemmas(normalizer.normalize(title + " " + snippet))
    return min(1.0, max(0.0, hit_vector.cosine(vector)))


def best_first(results: list[dict]) -> list[dict]:
    """A new list of ``results`` by fitness descending, ties by url ascending."""
    return sorted(results, key=lambda r: (-r["fitness"], r["url"]))


def apply_host_collocation(results: list[dict], host_coeff: float) -> list[dict]:
    """Damp repeated hosts: the k-th result from one host keeps coeff^(k-1).

    Expects the input best first (host order counts in that order); returns
    copies, best first by damped fitness.
    """
    seen: dict[str, int] = {}
    adjusted = []
    for result in results:
        k = seen.get(result["host"], 0)
        seen[result["host"]] = k + 1
        adjusted.append({**result, "fitness": result["fitness"] * host_coeff**k})
    return best_first(adjusted)


def score_query_results(
    hits: Sequence[tuple],
    hit_lists: Sequence[Sequence[tuple]],
    vector: TermVector,
    normalizer,
    config,
) -> list[dict]:
    """Score one query's hits within its population's ``hit_lists`` against the
    reference ``vector``, and damp host runs, under the run's ``config``."""
    length = len(hits)
    scored = []
    for position, hit in enumerate(hits, start=1):
        url, host, title, snippet = hit
        rank = (length - position + 1) / length
        crossquery = sum(url in {other[0] for other in hits_} for hits_ in hit_lists) / len(
            hit_lists
        )
        semantic_value = semantic(hit, vector, normalizer)
        fitness = config.a_factor * (
            config.f5 * rank + config.f6 * crossquery + config.f7 * semantic_value
        )
        scored.append({
            "url": url, "host": host, "title": title, "snippet": snippet, "position": position,
            "rank": rank, "crossquery": crossquery, "semantic": semantic_value,
            "environment": config.a_factor, "fitness": fitness,
        })
    return apply_host_collocation(best_first(scored), config.f4)
