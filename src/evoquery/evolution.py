"""The generational loop and the run's two ends: its inputs and its ledger.

run_evolution drives a population of query genomes against a provider for
a fixed number of generations, maintaining the adaptive reference vector
and the run-wide capped result list, and yields each generation's record
once it is scored. make_run_inputs records the files a run reads;
write_run_ledger streams the records to disk, each line spelled by
``ledger.generation_line``; replay re-runs an offline ledger and stops at
the first line that differs. The run's parameters are ``config.RunConfig``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .config import ProviderSpec, RunConfig
from .corpus import (
    Document, SuffixNormalizer, extract_keywords, load_corpus, normalizer_for, seed_vector
)
from .errors import ConfigInvalid, DivergenceDetected, LedgerCorrupt, clip
from .fitness import (
    ReferenceText,
    ScoredResult,
    aggregate_results,
    crossquery_scores,
    merge_into_global,
    population_fitness,
    query_fitness,
    score_query_results,
    update_reference_text,
)
from .genome import QueryGenome, Variant, crossover, mutate, render_query, seed_population
from .ledger import (
    CONFIG_FILE,
    FINAL_RESULTS_FILE,
    GENERATIONS_FILE,
    LineFragments,
    canonical_json,
    config_text,
    file_digest,
    generation_line,
    ledger_file,
    new_ledger_dir,
    parse_ledger_json,
    parse_record_line,
    read_config_payload,
    read_ledger_file,
    result_to_payload,
    stored_generation_lines,
    text_divergence,
)
from .provider import HttpProvider, OfflineProvider, SearchHit, SearchProvider, load_index
from .rng import derive_rng

API_KEY_ENV_VAR = "EVOQUERY_API_KEY"


@dataclass
class QueryOutcome:
    """One genome's query from provider to ledger.

    Created when the query is sent, holding the provider's ``hits``, which
    the ledger does not record; ``results`` and ``query_fitness`` are set
    when its generation is scored. Its line leaves out ``query_string``
    (``render_query`` of terms and variant) and each result's ``rank``
    (``position_score(position, len(results))``) and ``environment`` (``a_factor``).
    """

    terms: tuple[str, ...]
    variant: Variant
    query_string: str
    issued_at: float | None
    hits: list[SearchHit]
    query_fitness: float = 0.0
    results: list[ScoredResult] = dc_field(default_factory=list)


@dataclass
class GenerationRecord:
    """A line of generations.jsonl, and the run-wide ``top_results`` after it
    (not in the line): the last record's are the run's final results."""

    generation: int
    queries: list[QueryOutcome]
    population_fitness: float
    reference_digest: str
    top_results: list[ScoredResult]


def select_survivors(
    genomes: Sequence[QueryGenome],
    fitnesses: Sequence[float],
    pool,
    config: RunConfig,
    rng,
) -> list[QueryGenome]:
    """Elitist truncation plus tournament-bred offspring, for two or more genomes.

    ``fitnesses`` holds one value per genome. The best half (rounded up)
    survives unchanged, ranked by fitness with rendered-query text breaking
    ties. Remaining slots are filled by crossover of pairwise-tournament
    winners, then mutation. It sends no query: ``run_evolution``'s loop
    hill-climbs a population of one.
    """
    size = len(genomes)
    rank_keys = [(-fitness, render_query(genome)) for genome, fitness in zip(genomes, fitnesses)]
    order = sorted(range(size), key=rank_keys.__getitem__)

    elite_count = math.ceil(size / 2)
    survivors = [genomes[i] for i in order[:elite_count]]

    def tournament() -> QueryGenome:
        i, j = rng.randrange(size), rng.randrange(size)
        return genomes[i] if rank_keys[i] <= rank_keys[j] else genomes[j]

    offspring: list[QueryGenome] = []
    while len(offspring) < size - elite_count:
        child_a, child_b = crossover(tournament(), tournament(), rng)
        offspring.append(mutate(child_a, pool, config.m1, rng))
        if len(offspring) < size - elite_count:
            offspring.append(mutate(child_b, pool, config.m1, rng))
    return survivors + offspring


def run_evolution(
    config: RunConfig,
    provider: SearchProvider,
    seed_material: Sequence[Document],
    seed_path: str | Path | None = None,
) -> Iterator[GenerationRecord]:
    """Check the run's inputs, then return the loop as a stream of records; an
    error in the seed material names ``seed_path``, the file it was read from.

    An offline run normalizes with its index's stop words, so that its
    keywords are lemmas the index holds; only another provider reads
    ``config.stop_words_path``. A generation's queries are sent, and the
    survivors it breeds are selected, only when the stream is asked for
    its record. The loop alone sends queries: a population of one hill-climbs,
    its mutated challenger sent, scored as a population of itself, and adopted
    only on strict improvement."""
    if isinstance(provider, OfflineProvider):
        normalizer = SuffixNormalizer(frozenset(provider.index.stop_words))
    else:
        normalizer = normalizer_for(config.stop_words_path)
    seed = seed_vector(seed_material, normalizer, seed_path)
    pool = extract_keywords(seed, config.keyword_pool_size)
    if len(pool) < config.min_pool_size:
        where = "" if seed_path is None else f"{seed_path}: "
        raise ConfigInvalid(f"{where}with g3={config.g3} and e1={config.e1}, seed material "
                            f"yields {len(pool)} keywords, the run needs {config.min_pool_size}")
    reference = ReferenceText.from_seed_vector(seed, normalizer)
    # Freeze mode scores each query string once: a later genome sending it
    # reuses its first outcome's hits, results and fitness, so a survivor
    # keeps its exact fitness however the rest of the population shifts.
    # Adaptive runs rescore every query and leave this empty.
    first_outcomes: dict[str, QueryOutcome] = {}

    def send(genome: QueryGenome) -> QueryOutcome:
        query_string = render_query(genome)
        first = first_outcomes.get(query_string)
        return QueryOutcome(
            terms=genome.terms,
            variant=genome.variant,
            query_string=query_string,
            issued_at=time.time() if config.provider.kind == "http" else None,
            hits=first.hits if first is not None else provider.execute(query_string, config.f1),
        )

    def score(outcomes: list[QueryOutcome]) -> None:
        crossqueries = crossquery_scores([outcome.hits for outcome in outcomes])
        for outcome in outcomes:
            first = first_outcomes.get(outcome.query_string)
            if first is not None:
                outcome.results, outcome.query_fitness = first.results, first.query_fitness
                continue
            outcome.results = score_query_results(outcome.hits, crossqueries, reference, config)
            outcome.query_fitness = query_fitness(outcome.results)
            if config.freeze_reference:
                first_outcomes[outcome.query_string] = outcome

    def generations() -> Iterator[GenerationRecord]:
        nonlocal reference
        population = seed_population(pool, config.g2, config.g3, config.rng_seed, config.variant)
        top: list[ScoredResult] = []
        for generation in range(config.e1):
            outcomes = [send(genome) for genome in population]
            score(outcomes)
            fitnesses = [outcome.query_fitness for outcome in outcomes]

            population_top = aggregate_results([o.results for o in outcomes], config.f2)
            top = merge_into_global(top, population_top, config.f3)
            if not config.freeze_reference:
                reference = update_reference_text(reference, population_top)
            yield GenerationRecord(
                generation=generation,
                queries=outcomes,
                population_fitness=population_fitness(fitnesses),
                reference_digest=reference.digest(),
                top_results=top,
            )

            if generation == config.e1 - 1:
                return
            rng = derive_rng(config.rng_seed, f"selection/{generation}")
            if config.g2 > 1:
                population = select_survivors(population, fitnesses, pool, config, rng)
                continue
            challenger = mutate(population[0], pool, config.m1, rng)
            if challenger != population[0]:
                trial = send(challenger)
                score([trial])
                if trial.query_fitness > fitnesses[0]:
                    population = [challenger]

    return generations()


def build_provider(spec: ProviderSpec, index_path: str | Path | None = None) -> SearchProvider:
    """Construct the engine a run/replay talks to from its spec."""
    if spec.kind == "offline":
        return OfflineProvider(
            index=load_index(index_path), full_body_snippets=spec.full_body_snippets
        )
    return HttpProvider(
        endpoint=spec.endpoint,
        api_key_header=spec.api_key_header,
        api_key=os.environ.get(API_KEY_ENV_VAR),
        rate_limit_rps=spec.rate_limit_rps,
    )


def make_run_inputs(
    ledger_dir: str | Path, index_path: str | Path, seed_material_path: str | Path
) -> dict:
    """Input paths and sha256 digests stored beside the config for later replay.

    Paths are recorded relative to the ledger directory, so replay finds the
    inputs from any working directory and the ledger's bytes do not depend
    on where the directories live, only on where they lie to each other.
    The index records the run's stop words, so no stop-word file is an input.
    """
    base = Path(ledger_dir).resolve()
    return {
        "index_path": os.path.relpath(Path(index_path).resolve(), base),
        "index_sha256": file_digest(index_path),
        "seed_material_path": os.path.relpath(Path(seed_material_path).resolve(), base),
        "seed_material_sha256": file_digest(seed_material_path),
    }


def final_results_text(results: list[ScoredResult], a_factor: float) -> str:
    """The whole text of final_results.json."""
    return canonical_json([result_to_payload(r, a_factor) for r in results]) + "\n"


def write_run_ledger(
    ledger_dir: str | Path, config: RunConfig, records: Iterable[GenerationRecord],
    inputs: dict | None = None,
) -> GenerationRecord:
    """Write each record's line as it arrives, with the run's input digests
    (``make_run_inputs``), if any; returns the last record. The ledger appears
    at ``ledger_dir`` only once whole (see ``new_ledger_dir``)."""
    fragments = LineFragments()
    with new_ledger_dir(ledger_dir, {"config": config.to_payload(), "inputs": inputs}) as staging:
        with open(staging / GENERATIONS_FILE, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(generation_line(record, fragments))
        final = final_results_text(record.top_results, config.a_factor)
        (staging / FINAL_RESULTS_FILE).write_text(final, encoding="utf-8")
    return record


def _verify_input_file(path: Path, recorded_digest: str, label: str, where: Path) -> None:
    """Each error names ``where``, the config.json recording ``path``, which need not
    lie in the ledger: an absolute recorded path replaces the ledger's."""
    if not path.is_file():
        raise LedgerCorrupt(f"{where} records {label} {str(path)!r}, which no longer exists")
    actual = file_digest(path)
    if actual != recorded_digest:
        raise LedgerCorrupt(
            f"{where} records {label} {str(path)!r}, which changed since the run "
            f"(sha256 {actual} != {recorded_digest})"
        )


def _compare_line(line: str | None, fresh: str, line_no: int, count: int, path: Path) -> None:
    """DivergenceDetected unless stored ``line`` (None past the last) of the file at
    ``path`` is ``fresh``; a call of its own, so neither line outlives it into the
    next generation."""
    if line is None:
        raise DivergenceDetected(line_no - 1, "record_count", line_no - 1, count)
    if line != fresh:
        found = text_divergence(line, fresh, lambda text: parse_record_line(text, line_no, path))
        raise DivergenceDetected(line_no - 1, *found)


def replay(ledger_dir: str | Path) -> GenerationRecord:
    """Re-execute an offline run, comparing each line it renders with the stored
    line, read one at a time, as soon as it is produced; stop at the first that
    differs, naming its first differing field, or ``<bytes at column N>``. Nothing
    runs unless config.json is what evolve writes for it and final_results.json is
    JSON. Returns the last record."""
    payload = read_config_payload(ledger_dir)
    ledger_file(ledger_dir, GENERATIONS_FILE)  # a half-written ledger sends no query
    stored_final = read_ledger_file(ledger_dir, FINAL_RESULTS_FILE)
    parse_final = partial(parse_ledger_json, where=str(Path(ledger_dir, FINAL_RESULTS_FILE)))
    parse_final(stored_final)
    where = Path(ledger_dir, CONFIG_FILE)
    if "config" not in payload:
        raise LedgerCorrupt(f"{where} lacks a config section")
    try:
        config = RunConfig.from_payload(payload["config"])
    except ConfigInvalid as exc:
        raise LedgerCorrupt(f"{where} holds an invalid config: {exc}") from None
    if config.provider.kind != "offline":
        raise LedgerCorrupt(f"{where} records a run on the {config.provider.kind!r} provider; "
                            "only offline runs re-derive their results")
    if config.stop_words_path is not None:  # which evolve refuses with --index
        raise LedgerCorrupt(f"{where} names a stop_words_path, but an offline run takes "
                            "its stop words from its index")
    inputs = payload.get("inputs")
    if not isinstance(inputs, dict):
        raise LedgerCorrupt(f"{where} records no input files; cannot replay")
    names = ("index", "seed_material")
    keys = [f"{name}_{part}" for name in names for part in ("path", "sha256")]
    for key in keys:
        if not isinstance(inputs.get(key), str):
            raise LedgerCorrupt(f"{where} inputs lack a string {key}")
    stored_config = read_ledger_file(ledger_dir, CONFIG_FILE)
    inputs = {key: inputs[key] for key in keys}
    fresh_config = config_text({"config": config.to_payload(), "inputs": inputs})
    if stored_config != fresh_config:
        path, stored, fresh = text_divergence(stored_config, fresh_config, json.loads)
        raise LedgerCorrupt(f"{where} is not the text evolve writes for its config and inputs: "
                            f"at {path}, stored {clip(repr(stored))}, rendered {clip(repr(fresh))}")
    # recorded paths are relative to the ledger directory
    paths = {name: Path(ledger_dir, inputs[f"{name}_path"]) for name in names}
    for name in names:
        _verify_input_file(paths[name], inputs[f"{name}_sha256"], name.replace("_", " "), where)

    provider = build_provider(config.provider, paths["index"])
    seed_path = paths["seed_material"]
    records = run_evolution(config, provider, load_corpus(seed_path), seed_path)
    stored, fragments = stored_generation_lines(ledger_dir), LineFragments()
    compare = partial(_compare_line, count=config.e1, path=Path(ledger_dir, GENERATIONS_FILE))
    for line_no, record in enumerate(records, start=1):
        compare(next(stored, None), generation_line(record, fragments), line_no)
    extra = sum(1 for _ in stored)
    if extra:
        raise DivergenceDetected(config.e1, "record_count", config.e1 + extra, config.e1)

    fresh_final = final_results_text(record.top_results, config.a_factor)
    if stored_final != fresh_final:
        found = text_divergence(stored_final, fresh_final, parse_final, "final_results")
        raise DivergenceDetected(config.e1, *found)
    return record
