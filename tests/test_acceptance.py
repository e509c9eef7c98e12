"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test enforces the criterion's stated tolerance and runtime budget.
Budgets are wall-clock for the checked work only, not pytest overhead.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from evoquery.cli import main as cli_main
from evoquery.corpus import TermVector, build_keyword_pool, load_corpus
from evoquery.evaluation import (
    Persona,
    consensus_map,
    dcg,
    ideal_ordering,
    load_qrels,
    ndcg,
    precision,
    rho12,
)
from evoquery.config import RunConfig
from evoquery.evolution import build_provider, run_evolution
from evoquery.fitness import (
    ReferenceText,
    ScoredResult,
    crossquery_scores,
    population_fitness,
    query_fitness,
    result_fitness,
    score_query_results,
)
from evoquery.genome import render_query
from evoquery.ledger import GENERATIONS_FILE
from evoquery.provider import SearchHit
from evoquery.rng import derive_rng
from generate_data import baseline_queries, pooled_top_urls

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"
GOLDEN_CSV = Path(__file__).parent / "golden" / "metrics.csv"
GOLDEN_S_N5_T3_CSV = Path(__file__).parent / "golden" / "metrics-s-n5-t3.csv"

S = Persona.SPECIALIST


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    print(f"criterion {num}: {status} [{elapsed:.2f}s / budget {budget:.0f}s] {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert in_budget, f"criterion {num}: {elapsed:.2f}s exceeds {budget:.0f}s budget"


def _dummy_result(fitness: float, url: str = "https://x.example/1",
                  host: str = "x.example") -> ScoredResult:
    hit = SearchHit(doc_url=url, doc_host=host, title="t", snippet="s")
    return ScoredResult(hit=hit, position=1, rank_component=0.0, crossquery_component=0.0,
                        semantic_component=0.0, fitness=fitness)


@pytest.fixture(scope="module")
def offline_setup(tmp_path_factory):
    """Index the bundled corpus once; several criteria share it."""
    work = tmp_path_factory.mktemp("acceptance")
    index_path = work / "index.json"
    assert cli_main(["index", "--corpus", str(DATA_DIR / "corpus.jsonl"),
                     "--out", str(index_path)]) == 0
    provider = build_provider(RunConfig().provider, index_path=index_path)
    seed_material = load_corpus(DATA_DIR / "seed_material.jsonl")
    return work, index_path, provider, seed_material


def test_criterion_1_metric_oracles():
    t0 = time.monotonic()
    two_docs = [3.0, 2.0]

    dcg_value = dcg(two_docs, n=2)
    ideal = ideal_ordering(two_docs)
    checks = [
        abs(dcg_value - 8.892789) <= 1e-6,
        ndcg(ideal, n=2) == 1.0,
        abs(rho12([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) - 1.0) <= 1e-12,
        abs(rho12([1.0, 0.0], [0.0, 1.0]) - 0.0) <= 1e-12,
        abs(rho12([1.0, 1.0], [1.0, 0.0]) - 0.707107) <= 1e-6,
    ]
    _verdict(1, all(checks), time.monotonic() - t0, 1.0,
             f"dcg([3,2])={dcg_value:.6f}, {sum(checks)}/5 oracle checks hold")


def test_criterion_2_mean_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260821)
    worst = 0.0
    for _ in range(1000):
        table = [
            [rng.random() for _ in range(rng.randrange(0, 6))]
            for _ in range(rng.randrange(1, 7))
        ]
        lib_per_query = [query_fitness([_dummy_result(v) for v in row]) for row in table]
        naive_per_query = []
        for row in table:
            if not row:
                naive_per_query.append(0.0)
                continue
            acc = 0.0
            for value in row:
                acc += value
            naive_per_query.append(acc / len(row))
        for lib, naive in zip(lib_per_query, naive_per_query):
            worst = max(worst, abs(lib - naive))
        acc = 0.0
        for value in naive_per_query:
            acc += value
        worst = max(worst, abs(population_fitness(lib_per_query) - acc / len(table)))
    _verdict(2, worst <= 1e-12, time.monotonic() - t0, 5.0,
             f"1000 tables, worst deviation {worst:.3e}")


def test_criterion_3_ideal_permutation():
    t0 = time.monotonic()
    violations = 0
    sequences = 0
    for length in range(1, 7):
        for multiset in itertools.combinations_with_replacement(range(4), length):
            best = dcg([float(g) for g in sorted(multiset, reverse=True)], length)
            for perm in set(itertools.permutations(multiset)):
                sequences += 1
                if dcg([float(g) for g in perm], length) > best + 1e-12:
                    violations += 1
    _verdict(3, violations == 0, time.monotonic() - t0, 60.0,
             f"{sequences} orderings checked, {violations} beat the ideal")


def test_criterion_4_determinism(offline_setup, tmp_path):
    work, index_path, _, _ = offline_setup
    t0 = time.monotonic()
    ledgers = [tmp_path / "run-a", tmp_path / "run-b"]
    for ledger in ledgers:
        code = cli_main([
            "evolve", "--config", str(DATA_DIR / "config.json"),
            "--seed-material", str(DATA_DIR / "seed_material.jsonl"),
            "--index", str(index_path), "--out", str(ledger),
        ])
        assert code == 0
    identical = all(
        (ledgers[0] / name).read_bytes() == (ledgers[1] / name).read_bytes()
        for name in ("config.json", GENERATIONS_FILE, "final_results.json")
    )
    replay_ok = cli_main(["replay", "--ledger", str(ledgers[0])]) == 0
    _verdict(4, identical and replay_ok, time.monotonic() - t0, 30.0,
             f"byte-identical={identical}, replay clean={replay_ok}")


def test_criterion_5_planted_cluster_gap(offline_setup):
    work, index_path, provider, seed_material = offline_setup
    t0 = time.monotonic()
    grades = consensus_map(load_qrels(DATA_DIR / "qrels.tsv"))
    pool = build_keyword_pool(seed_material, RunConfig().keyword_pool_size)
    lemmas = [lemma for lemma, _ in pool]

    evolved_scores = []
    random_scores = []
    for seed in range(20):
        config = RunConfig(rng_seed=seed)
        *_, last = run_evolution(config, provider, seed_material)
        evolved_urls = [r.hit.doc_url for r in last.top_results][:20]
        evolved_scores.append(
            precision([grades.get((url, S), 0.0) for url in evolved_urls], threshold=2)
        )

        genomes = baseline_queries(lemmas, config.g2, config.g3, derive_rng(seed, "baseline"))
        hit_lists = [provider.execute(render_query(g), config.f1) for g in genomes]
        random_urls = pooled_top_urls(hit_lists, 20)
        random_scores.append(
            precision([grades.get((url, S), 0.0) for url in random_urls], threshold=2)
        )

    evolved_mean = sum(evolved_scores) / len(evolved_scores)
    random_mean = sum(random_scores) / len(random_scores)
    gap = evolved_mean - random_mean
    _verdict(5, gap >= 0.10, time.monotonic() - t0, 300.0,
             f"evolved {evolved_mean:.3f} vs random {random_mean:.3f}, gap {gap:+.3f}")


def test_criterion_6_frozen_monotonicity(offline_setup):
    work, index_path, provider, seed_material = offline_setup
    t0 = time.monotonic()
    violations = 0
    for seed in range(20):
        config = RunConfig(rng_seed=seed, freeze_reference=True)
        maxima = [
            max(q.query_fitness for q in record.queries)
            for record in run_evolution(config, provider, seed_material)
        ]
        violations += sum(
            1 for prev, cur in zip(maxima, maxima[1:]) if cur < prev
        )
    _verdict(6, violations == 0, time.monotonic() - t0, 120.0,
             f"20 seeds x 10 generations, {violations} monotonicity violations")


def test_criterion_7_fitness_bounds_and_host_penalty():
    t0 = time.monotonic()
    rng = random.Random(7)
    out_of_range = 0
    for _ in range(10_000):
        lo, hi = sorted((rng.random(), rng.random()))
        rank, crossquery, semantic, environment = (rng.random() for _ in range(4))
        config = RunConfig(f5=lo, f6=hi - lo, f7=1.0 - hi, a_factor=environment)
        w = result_fitness(rank, crossquery, semantic, config)
        if not 0.0 <= w <= 1.0:
            out_of_range += 1

    # three hits of fitness 1.0 from one host: only the semantic component
    # counts, and the reference's score table holds 1.0 for each hit
    same_host = [
        SearchHit(doc_url=f"https://h.example/{i}", doc_host="h.example", title=f"t{i}",
                  snippet="s")
        for i in range(3)
    ]
    semantic_only = RunConfig(f4=0.75, f5=0.0, f6=0.0, f7=1.0)
    ref = ReferenceText(vector=TermVector.from_weights({}))
    ref.semantic_scores.update({h: 1.0 for h in same_host})
    damped = score_query_results(same_host, crossquery_scores([same_host]), ref, semantic_only)
    fitnesses = sorted((r.fitness for r in damped), reverse=True)
    penalty_ok = (
        abs(fitnesses[0] - 1.0) <= 1e-12
        and abs(fitnesses[1] - 0.75) <= 1e-12
        and abs(fitnesses[2] - 0.5625) <= 1e-12
    )
    _verdict(7, out_of_range == 0 and penalty_ok, time.monotonic() - t0, 5.0,
             f"{out_of_range}/10000 out of range, penalties {fitnesses[1:]} ok={penalty_ok}")


def test_criterion_8_end_to_end_golden(tmp_path):
    t0 = time.monotonic()
    index_path = tmp_path / "index.json"
    ledger = tmp_path / "ledger"
    metrics = tmp_path / "metrics.csv"
    report = tmp_path / "report"
    steps = [
        ["index", "--corpus", str(DATA_DIR / "corpus.jsonl"), "--out", str(index_path)],
        ["evolve", "--config", str(DATA_DIR / "config.json"),
         "--seed-material", str(DATA_DIR / "seed_material.jsonl"),
         "--index", str(index_path), "--out", str(ledger)],
        ["evaluate", "--ledger", str(ledger),
         "--list", str(DATA_DIR / "baseline_list.txt"),
         "--qrels", str(DATA_DIR / "qrels.tsv"), "--out", str(metrics)],
        ["report", "--metrics", str(metrics), "--out", str(report)],
    ]
    exit_codes = [cli_main(argv) for argv in steps]

    rows = [line.split(",") for line in metrics.read_text().splitlines()[1:]]
    families = {row[0] for row in rows}
    expected_families = {
        "mean_relevance", "precision", "dcg", "ndcg", "rho12", "overlap_percent",
    }
    per_persona = all(
        {row[2] for row in rows if row[0] == family} >= {"S", "N"}
        for family in ("mean_relevance", "precision", "dcg", "ndcg", "rho12")
    )
    golden_match = metrics.read_bytes() == GOLDEN_CSV.read_bytes()
    charts = sorted(p.name for p in report.glob("*.svg"))
    _verdict(
        8,
        exit_codes == [0, 0, 0, 0]
        and families == expected_families
        and per_persona
        and golden_match
        and len(charts) == 6,
        time.monotonic() - t0,
        60.0,
        f"families={sorted(families)}, golden match={golden_match}, {len(charts)} charts",
    )


def test_second_golden_invocation(offline_setup, tmp_path, monkeypatch):
    """One persona, a short cutoff, the top threshold and an ordering without
    urls, in CI's quick-start spelling: metrics-s-n5-t3.csv byte for byte."""
    _, index_path, _, _ = offline_setup
    monkeypatch.chdir(tmp_path)
    (tmp_path / "baseline_list.txt").write_bytes((DATA_DIR / "baseline_list.txt").read_bytes())
    (tmp_path / "empty.txt").write_text("# no urls\n", encoding="utf-8")
    assert cli_main(["evolve", "--config", str(DATA_DIR / "config.json"),
                     "--seed-material", str(DATA_DIR / "seed_material.jsonl"),
                     "--index", str(index_path), "--out", "ledger"]) == 0
    assert cli_main(["evaluate", "--ledger", "ledger", "--list", "baseline_list.txt",
                     "--list", "empty.txt", "--qrels", str(DATA_DIR / "qrels.tsv"),
                     "--persona", "S", "--n", "5", "--threshold", "3",
                     "--out", "metrics-s-n5-t3.csv"]) == 0
    assert Path("metrics-s-n5-t3.csv").read_bytes() == GOLDEN_S_N5_T3_CSV.read_bytes()
