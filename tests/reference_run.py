"""A slow, literal evoquery run, kept as a differential oracle.

``reference_run`` is the GA written out directly, with no memo anywhere:
each query is ranked by scoring every candidate document on its own
(``reference_bm25``), each hit is scored by ``reference_scoring``, the
population and run-wide top lists are url-distinct by a plain sort, and each
reference update normalizes the texts it folds in afresh. Freeze mode reuses
a query string's first outcome, as the package does. Hits are plain
(url, host, title, snippet) tuples and results plain dicts, so the oracle
shares no data type with the package; it reuses only code that keeps no
memo of a run's values: the genome operators, ``derive_rng``, the
normalizer's rules, ``TermVector`` and the keyword pool. Lines are written
with ``json.dumps`` in the ledger's canonical settings.
"""

from __future__ import annotations

import hashlib
import json
import math
from types import SimpleNamespace

from evoquery.corpus import DEFAULT_NORMALIZER, TermVector, extract_keywords, seed_vector
from evoquery.fitness import REFERENCE_CAPACITY, REFERENCE_CONTRIBUTORS, REFERENCE_DECAY
from evoquery.genome import crossover, mutate, render_query, seed_population
from evoquery.provider import BM25_B, BM25_K1, SNIPPET_CHARS, parse_query
from evoquery.rng import derive_rng

import reference_scoring


def reference_build_index(docs, normalizer):
    """build_index's loop as it was before it counted terms per document: postings
    of {doc id: term count}, and each doc's stored fields by id."""
    postings, stored, total_len = {}, {}, 0
    for d in docs:
        lemmas = normalizer.normalize(d.body)
        total_len += len(lemmas)
        stored[d.id] = {
            "url": d.url,
            "host": d.host,
            "title": d.title,
            "text": " ".join(d.body.split()),
            "length": len(lemmas),
        }
        for lemma in lemmas:
            postings.setdefault(lemma, {})
            postings[lemma][d.id] = postings[lemma].get(d.id, 0) + 1
    return postings, stored, total_len / len(docs)


def reference_index(docs, normalizer=DEFAULT_NORMALIZER):
    """The format-2 shape: postings of {doc id: term count}, docs by id."""
    postings, stored, avg_doc_len = reference_build_index(docs, normalizer)
    return SimpleNamespace(
        postings=postings, docs=stored, avg_doc_len=avg_doc_len, doc_count=len(stored)
    )


def reference_bm25(index, query_lemmas, doc_id):
    """One document's BM25 score over ``reference_index``'s dicts, with the float
    operations of OfflineProvider's sums in the same order, so scores match bit for bit."""
    n_docs = index.doc_count
    dl = index.docs[doc_id]["length"]
    norm_len = dl / index.avg_doc_len if index.avg_doc_len > 0 else 0.0
    score = 0.0
    for lemma in query_lemmas:
        plist = index.postings.get(lemma)
        if not plist or doc_id not in plist:
            continue
        tf = plist[doc_id]
        n_t = len(plist)
        idf = math.log(1.0 + (n_docs - n_t + 0.5) / (n_t + 0.5))
        score += idf * (tf * (BM25_K1 + 1.0)) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * norm_len))
    return score


def reference_execute(index, query_string, limit, full_body_snippets=False):
    """Every candidate scored on its own, then a full sort by (-score, doc id);
    each hit an (url, host, title, snippet) tuple, in rank order."""
    terms, conjunctive = parse_query(query_string)
    candidates = None
    if conjunctive:
        for term in terms:
            ids = set(index.postings.get(term, {}))
            candidates = ids if candidates is None else candidates & ids
            if not candidates:
                return []
    else:
        candidates = set()
        for term in terms:
            candidates |= set(index.postings.get(term, {}))
    ranked = sorted(candidates, key=lambda d: (-reference_bm25(index, terms, d), d))
    hits = []
    for d in ranked[:limit]:
        stored = index.docs[d]
        snippet = stored["text"] if full_body_snippets else stored["text"][:SNIPPET_CHARS]
        hits.append((stored["url"], stored["host"], stored["title"], snippet))
    return hits


def _mean(values):
    """Plain left-to-right addition over the count; 0.0 for no values."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def _evict(entries):
    """The heaviest ``REFERENCE_CAPACITY`` lemmas, ties by lemma."""
    if len(entries) > REFERENCE_CAPACITY:
        entries = dict(sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))[:REFERENCE_CAPACITY])
    return TermVector.from_weights(entries)


def _digest(vector):
    parts = [f"{lemma}:{weight!r}" for lemma, weight in sorted(vector.entries.items())]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _top_distinct(results, cap):
    """Best first by a plain sort, each url at its first place, capped."""
    kept, seen = [], set()
    for result in reference_scoring.best_first(results):
        if result["url"] not in seen:
            seen.add(result["url"])
            kept.append(result)
    return kept[:cap]


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)


def reference_run(config, docs, seed_material, normalizer):
    """An offline run of ``config`` over an index of ``docs`` built with ``normalizer``:
    (generations.jsonl text, final_results.json text, queries sent)."""
    index = reference_index(docs, normalizer)
    seed = seed_vector(seed_material, normalizer)
    pool = extract_keywords(seed, config.keyword_pool_size)
    state = SimpleNamespace(vector=_evict(seed.entries), rounds=0, sends=0)
    first = {}  # freeze mode: query string -> its first (hits, results, query fitness)

    def send(genome):
        query = render_query(genome)
        if query in first:
            return query, first[query][0]
        state.sends += 1
        return query, reference_execute(
            index, query, config.f1, config.provider.full_body_snippets
        )

    def score(sent):
        hit_lists = [hits for _, hits in sent]
        scored = []
        for query, hits in sent:
            outcome = first.get(query)
            if outcome is None:
                results = reference_scoring.score_query_results(
                    hits, hit_lists, state.vector, normalizer, config
                )
                outcome = (hits, results, _mean([r["fitness"] for r in results]))
                if config.freeze_reference:
                    first[query] = outcome
            scored.append(outcome[1:])
        return scored

    def update(population_top):
        contributors = population_top[:REFERENCE_CONTRIBUTORS]
        if not contributors:
            return
        state.rounds += 1
        multiplier = REFERENCE_DECAY**state.rounds
        merged = dict(state.vector.entries)
        for result in contributors:
            lemmas = normalizer.normalize(result["title"] + " " + result["snippet"])
            for lemma, weight in TermVector.from_lemmas(lemmas).entries.items():
                merged[lemma] = merged.get(lemma, 0.0) + multiplier * weight
        state.vector = _evict(merged)

    def select(population, fitnesses, rng):
        size = len(population)

        def key(i):
            return (-fitnesses[i], render_query(population[i]))

        if size == 1:
            challenger = mutate(population[0], pool, config.m1, rng)
            if challenger != population[0]:
                ((_, fitness),) = score([send(challenger)])
                if fitness > fitnesses[0]:
                    return [challenger]
            return [population[0]]
        elite = math.ceil(size / 2)
        survivors = [population[i] for i in sorted(range(size), key=key)[:elite]]
        offspring = []
        while len(offspring) < size - elite:
            i, j = rng.randrange(size), rng.randrange(size)
            a = population[i] if key(i) <= key(j) else population[j]
            i, j = rng.randrange(size), rng.randrange(size)
            b = population[i] if key(i) <= key(j) else population[j]
            child_a, child_b = crossover(a, b, rng)
            offspring.append(mutate(child_a, pool, config.m1, rng))
            if len(offspring) < size - elite:
                offspring.append(mutate(child_b, pool, config.m1, rng))
        return survivors + offspring

    population = seed_population(pool, config.g2, config.g3, config.rng_seed, config.variant)
    lines, top = [], []
    for generation in range(config.e1):
        scored = score([send(genome) for genome in population])
        fitnesses = [fitness for _, fitness in scored]
        population_top = _top_distinct([r for results, _ in scored for r in results], config.f2)
        top = _top_distinct(top + population_top, config.f3)
        if not config.freeze_reference:
            update(population_top)
        queries = [
            {
                "issued_at": None,
                "query_fitness": fitness,
                "results": [
                    {k: v for k, v in r.items() if k not in ("rank", "environment")}
                    for r in results
                ],
                "terms": list(genome.terms),
                "variant": genome.variant.value,
            }
            for genome, (results, fitness) in zip(population, scored)
        ]
        lines.append(_dumps({
            "generation": generation,
            "population_fitness": _mean(fitnesses),
            "queries": queries,
            "reference_digest": _digest(state.vector),
        }) + "\n")
        if generation < config.e1 - 1:
            population = select(
                population, fitnesses, derive_rng(config.rng_seed, f"selection/{generation}")
            )
    return "".join(lines), _dumps(top) + "\n", state.sends
