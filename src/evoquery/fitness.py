"""Result scoring: per-hit fitness, per-query and population aggregates.

Each hit gets four normalized components: a rank score from its list
position, a cross-query score counting how many of the population's result
lists contain it, a semantic score against an adaptive reference vector,
and a per-run environment factor. The weighted sum, damped per extra
result from the same host, is the quantity the genetic loop maximizes;
the weights, damping and factor are the run's ``config.RunConfig`` f5-f7, f4
and a_factor.
Means add left to right with plain float addition, not ``sum()``, which
compensates rounding from Python 3.12 on and so would make ledger bytes
depend on the interpreter version.

Work that has the same answer every time is done once. A provider makes
each hit once per run (see ``provider.SearchHit``), and the memos key on
it: a run normalizes each hit text, (title, snippet), once; each reference
vector computes one cosine per hit and owns both memos (see
``ReferenceText``). Each generation computes each url's crossquery score
once, in ``crossquery_scores``, and each ``ScoredResult`` is built once.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain
from operator import add, attrgetter
from typing import Iterable, Sequence

from .config import RunConfig
from .corpus import SuffixNormalizer, TermVector, DEFAULT_NORMALIZER
from .provider import SearchHit

REFERENCE_CAPACITY = 256
REFERENCE_DECAY = 0.5
REFERENCE_CONTRIBUTORS = 3
_URL_OF_HIT, _URL, _FITNESS = attrgetter("doc_url"), attrgetter("hit.doc_url"), attrgetter("fitness")


@dataclass(slots=True)
class ScoredResult:
    hit: SearchHit
    position: int  # 1-based place of the hit in its provider's list
    rank_component: float
    crossquery_component: float
    semantic_component: float
    fitness: float


@dataclass
class ReferenceText:
    """Adaptive lemma vector standing for the target topic.

    Seeded from expert-provided material; each adaptation round folds in
    the lemma vectors of the current best results at geometrically
    decaying weight, then evicts the lightest lemmas beyond ``REFERENCE_CAPACITY``.

    It owns two memos. ``hit_vectors`` holds lemma vectors under
    ``normalizer`` by a hit's (title, snippet), which each round hands on to
    the next. ``semantic_scores`` holds scores against this vector alone by
    hit: each new reference starts it empty. Callers must not mutate either.
    """

    vector: TermVector
    rounds: int = 0
    normalizer: SuffixNormalizer = DEFAULT_NORMALIZER
    hit_vectors: dict[tuple[str, str], TermVector] = field(default_factory=dict, compare=False)
    semantic_scores: dict[SearchHit, float] = field(default_factory=dict, compare=False)

    @classmethod
    def from_seed_vector(
        cls, seed: TermVector, normalizer: SuffixNormalizer = DEFAULT_NORMALIZER
    ) -> ReferenceText:
        """Start from the seed material's ``corpus.seed_vector``."""
        return cls(vector=_evict_to_capacity(seed), normalizer=normalizer)

    def hit_vector(self, hit: SearchHit) -> TermVector:
        """The hit's title+snippet lemma vector, memoized by (title, snippet)."""
        key = (hit.title, hit.snippet)
        vector = self.hit_vectors.get(key)
        if vector is None:
            lemmas = self.normalizer.normalize(hit.title + " " + hit.snippet)
            vector = self.hit_vectors[key] = TermVector.from_lemmas(lemmas)
        return vector

    def digest(self) -> str:
        """Stable sha256 of the vector state, for ledger records."""
        parts = [f"{lemma}:{weight!r}" for lemma, weight in sorted(self.vector.entries.items())]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _evict_to_capacity(vector: TermVector) -> TermVector:
    if len(vector.entries) <= REFERENCE_CAPACITY:
        return TermVector.from_weights(vector.entries)
    kept = sorted(vector.entries.items(), key=lambda kv: (-kv[1], kv[0]))[:REFERENCE_CAPACITY]
    return TermVector.from_weights(dict(kept))


def position_score(position: int, list_length: int) -> float:
    """Linear decay from 1.0 at the top to 1/L at the bottom, for position in 1..L."""
    return (list_length - position + 1) / list_length


def crossquery_scores(hit_lists: Sequence[Sequence[SearchHit]]) -> dict[str, float]:
    """Each url's ``cross_query_score`` in one generation, counting it once per
    hit list that contains it; ``hit_lists`` is not empty."""
    counts: Counter[str] = Counter()
    for hits in hit_lists:
        counts.update(set(map(_URL_OF_HIT, hits)))
    lists = len(hit_lists)
    return {url: cross_query_score(count, lists) for url, count in counts.items()}


def cross_query_score(count: int, lists: int) -> float:
    """Fraction of the population's result lists that contain the url: ``count`` of ``lists``."""
    return count / lists


def semantic_score(hit: SearchHit, ref: ReferenceText) -> float:
    """Cosine between the hit's title+snippet vector and the reference."""
    similarity = ref.hit_vector(hit).cosine(ref.vector)
    return min(1.0, max(0.0, similarity))


def result_fitness(rank: float, crossquery: float, semantic: float, config: RunConfig) -> float:
    """The f5/f6/f7-weighted component sum scaled by the environment factor
    ``a_factor``; each lies in [0, 1]."""
    return config.a_factor * (config.f5 * rank + config.f6 * crossquery + config.f7 * semantic)


def query_fitness(results: Sequence[ScoredResult]) -> float:
    """Mean result fitness of one query; zero when it returned nothing."""
    if not results:
        return 0.0
    return reduce(add, map(_FITNESS, results), 0.0) / len(results)


def population_fitness(query_fitnesses: Sequence[float]) -> float:
    """Mean query fitness across the population (g2 >= 1 queries), the GA's objective."""
    return reduce(add, query_fitnesses, 0.0) / len(query_fitnesses)


def _best_first(results: list[ScoredResult]) -> list[ScoredResult]:
    """``results``, sorted in place by fitness descending, ties by url ascending:
    two stable sorts on keys read in C, not one on a tuple built per result."""
    results.sort(key=_URL)
    results.sort(key=_FITNESS, reverse=True)
    return results


def score_query_results(
    hits: Sequence[SearchHit],
    crossqueries: dict[str, float],
    ref: ReferenceText,
    config: RunConfig,
) -> list[ScoredResult]:
    """Score one query's hits, in rank order, within its population and damp host runs.

    ``crossqueries`` is the population's ``crossquery_scores``. A hit that
    ``ref`` has not scored yet is scored into ``ref.semantic_scores``. In
    order of fitness descending, ties by url ascending, the k-th hit from
    one host keeps f4^(k-1) of its fitness; results come in that order of
    damped fitness.
    """
    length = len(hits)
    semantics = ref.semantic_scores
    results = []
    for position, hit in enumerate(hits, start=1):
        rank = position_score(position, length)
        crossquery = crossqueries[hit.doc_url]
        semantic = semantics.get(hit)
        if semantic is None:
            semantic = semantics[hit] = semantic_score(hit, ref)
        fitness = result_fitness(rank, crossquery, semantic, config)
        results.append(ScoredResult(hit, position, rank, crossquery, semantic, fitness))
    _best_first(results)
    seen: dict[str, int] = {}
    for result in results:
        host = result.hit.doc_host
        k = seen[host] = seen.get(host, -1) + 1
        if k:
            result.fitness *= config.f4**k
    return _best_first(results)


def _top_distinct(results: Iterable[ScoredResult], cap: int) -> list[ScoredResult]:
    """The ``cap`` fittest urls, each as its first highest-fitness result.

    Sorted by fitness descending, ties by url ascending.
    """
    best: dict[str, ScoredResult] = {}
    for result in results:
        url = result.hit.doc_url
        if url not in best or result.fitness > best[url].fitness:
            best[url] = result
    return _best_first(list(best.values()))[:cap]


def aggregate_results(
    per_query_scored: Sequence[Sequence[ScoredResult]],
    per_population_cap: int,
) -> list[ScoredResult]:
    """Population-level top list: url-deduped keeping max fitness, capped."""
    return _top_distinct(chain.from_iterable(per_query_scored), per_population_cap)


def merge_into_global(
    global_results: Sequence[ScoredResult],
    population_top: Sequence[ScoredResult],
    global_cap: int,
) -> list[ScoredResult]:
    """Fold one population's top list into the run-wide capped list."""
    return _top_distinct([*global_results, *population_top], global_cap)


def update_reference_text(
    ref: ReferenceText,
    top_results: Sequence[ScoredResult],
) -> ReferenceText:
    """Fold the best current results into the reference vector.

    ``top_results`` is a url-distinct list, best first, as
    ``aggregate_results`` returns it. Its first few results contribute
    their title+snippet lemma vectors, all scaled by decay^round so late
    generations nudge rather than overwrite the topic representation.
    Empty input changes nothing, not even the round counter. The new
    reference keeps ``ref``'s hit vectors and starts its own score table.
    """
    contributors = top_results[:REFERENCE_CONTRIBUTORS]
    if not contributors:
        return ref
    round_number = ref.rounds + 1
    multiplier = REFERENCE_DECAY**round_number
    merged = dict(ref.vector.entries)
    for result in contributors:
        contribution = ref.hit_vector(result.hit)
        for lemma, weight in contribution.entries.items():
            merged[lemma] = merged.get(lemma, 0.0) + multiplier * weight
    vector = _evict_to_capacity(TermVector.from_weights(merged))
    return replace(ref, vector=vector, rounds=round_number, semantic_scores={})
