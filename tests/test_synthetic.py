"""Planted-cluster benchmark generator."""

import dataclasses
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evoquery
from evoquery.corpus import DEFAULT_NORMALIZER, build_keyword_pool
from evoquery.evaluation import Persona, consensus_map, load_qrels
from evoquery.genome import Variant
from evoquery.provider import SearchHit
from evoquery.rng import derive_rng
from evoquery.synthetic import (
    CLUSTER_HOSTS,
    CLUSTER_SIZE,
    DISTRACTOR_TERMS,
    DOCS_PER_SHARD,
    SHARDS,
    TOPIC_TERMS,
    build_dataset,
    distinct_words,
    pseudo_word,
    qrels_lines,
)
from generate_data import baseline_queries, pooled_top_urls


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(0)


@pytest.fixture(scope="module")
def terms():
    """(topic terms, distractor terms) of ``build_dataset(0)``: the first words of
    its vocabulary stream, which ``distinct_words`` draws one after another."""
    words = distinct_words(
        derive_rng(0, "synthetic/vocabulary"), TOPIC_TERMS + DISTRACTOR_TERMS
    )
    return words[:TOPIC_TERMS], words[TOPIC_TERMS:]


def cluster_vocabulary(dataset):
    return {word for doc in dataset.corpus[:CLUSTER_SIZE] for word in doc.body.split()}


class TestVocabulary:
    def test_words_are_stemmer_invariant(self):
        rng = derive_rng(0, "test-words")
        for word in distinct_words(rng, 200):
            assert DEFAULT_NORMALIZER.normalize(word) == [word]

    def test_words_unique(self):
        rng = derive_rng(1, "test-words")
        words = distinct_words(rng, 500)
        assert len(set(words)) == 500

    def test_pseudo_word_shape(self):
        rng = derive_rng(2, "test-words")
        word = pseudo_word(rng, syllables=4)
        assert len(word) == 8
        assert word[-1] in "aeiou"


class TestDatasetShape:
    def test_counts(self, dataset, terms):
        assert len(dataset.corpus) == CLUSTER_SIZE + SHARDS * DOCS_PER_SHARD == 500
        assert len(dataset.cluster_urls) == CLUSTER_SIZE
        topic, distractors = terms
        assert cluster_vocabulary(dataset) == set(topic)
        assert len(set(topic)) == TOPIC_TERMS
        seed_words = {word for doc in dataset.seed_material for word in doc.body.split()}
        assert seed_words - set(topic) == set(distractors)
        assert len(set(distractors)) == DISTRACTOR_TERMS
        assert len({doc.id for doc in dataset.corpus}) == 500

    def test_cluster_docs_lead_the_corpus(self, dataset):
        assert [d.url for d in dataset.corpus[:CLUSTER_SIZE]] == dataset.cluster_urls

    def test_topic_vocabulary_is_isolated(self, dataset, terms):
        topic = set(terms[0])
        for doc in dataset.corpus[:CLUSTER_SIZE]:
            assert set(doc.body.split()) <= topic
        for doc in dataset.corpus[CLUSTER_SIZE:]:
            assert not (set(doc.body.split()) & topic)

    def test_distractors_reach_the_shards(self, dataset, terms):
        distractors = set(terms[1])
        hits = sum(
            1
            for doc in dataset.corpus[CLUSTER_SIZE:]
            if set(doc.body.split()) & distractors
        )
        assert hits == SHARDS * DOCS_PER_SHARD  # every shard doc carries some

    def test_cluster_spread_over_hosts(self, dataset):
        hosts = {doc.host for doc in dataset.corpus[:CLUSTER_SIZE]}
        assert len(hosts) == CLUSTER_HOSTS
        shard_hosts = {doc.host for doc in dataset.corpus[CLUSTER_SIZE:]}
        assert not (hosts & shard_hosts)

    def test_deterministic(self, dataset):
        again = build_dataset(0)
        assert again.corpus == dataset.corpus
        assert again.seed_material == dataset.seed_material

    def test_documents_take_dataclasses_replace(self, dataset):
        # perfbench's scaled workloads respell the seed material this way
        doc = dataclasses.replace(dataset.seed_material[0], title="t")
        assert doc.title == "t" and doc.body == dataset.seed_material[0].body

    def test_seed_changes_vocabulary(self, dataset):
        other = build_dataset(1)
        assert cluster_vocabulary(other) != cluster_vocabulary(dataset)


class TestSeedMaterial:
    def test_pool_is_topic_plus_distractors(self, dataset, terms):
        pool = build_keyword_pool(dataset.seed_material, 50)
        assert len(pool) == 50
        lemmas = {t for t, _ in pool}
        assert lemmas == set(terms[0]) | set(terms[1])

    def test_topic_terms_outweigh_distractors(self, dataset, terms):
        pool = build_keyword_pool(dataset.seed_material, 50)
        heaviest = [lemma for lemma, _ in pool[:TOPIC_TERMS]]
        assert set(heaviest) == set(terms[0])

    def test_seed_docs_not_in_corpus(self, dataset):
        corpus_urls = {doc.url for doc in dataset.corpus}
        assert not ({doc.url for doc in dataset.seed_material} & corpus_urls)


class TestQrels:
    def test_lines_parse_and_cover_cluster(self, dataset, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("\n".join(qrels_lines(dataset)) + "\n", encoding="utf-8")
        judgments = load_qrels(path)
        assert len(judgments) == CLUSTER_SIZE * 4
        urls = {j.doc_url for j in judgments}
        assert urls == set(dataset.cluster_urls)

    def test_consensus_grades(self, dataset, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("\n".join(qrels_lines(dataset)) + "\n", encoding="utf-8")
        grades = consensus_map(load_qrels(path))
        first, second = dataset.cluster_urls[0], dataset.cluster_urls[1]
        assert grades[(first, Persona.SPECIALIST)] == 3.0
        assert grades[(first, Persona.NOVICE)] == 3.0
        assert grades[(second, Persona.NOVICE)] == 2.5
        assert all(value >= 2.0 for value in grades.values())


class TestBaseline:
    def test_queries_shape(self, dataset):
        pool = build_keyword_pool(dataset.seed_material, 50)
        rng = derive_rng(3, "test-baseline")
        queries = baseline_queries([t for t, _ in pool], 8, 6, rng)
        assert len(queries) == 8
        for genome in queries:
            assert len(genome.terms) == 6
            assert len(set(genome.terms)) == 6
            assert genome.variant is Variant.LEMMA

    def test_too_few_lemmas(self):
        rng = derive_rng(4, "test-baseline")
        with pytest.raises(ValueError):
            baseline_queries(["only", "three", "words"], 2, 6, rng)

    def test_deterministic_under_same_stream(self, dataset):
        pool = build_keyword_pool(dataset.seed_material, 50)
        first = baseline_queries([t for t, _ in pool], 4, 6, derive_rng(5, "test-baseline"))
        second = baseline_queries([t for t, _ in pool], 4, 6, derive_rng(5, "test-baseline"))
        assert first == second


def hit_list(urls):
    return [SearchHit(doc_url=url, doc_host="h.example", title="", snippet="") for url in urls]


class TestPooling:
    def test_min_position_fusion(self):
        lists = [
            hit_list(["https://a/1", "https://a/2", "https://a/3"]),
            hit_list(["https://a/3", "https://a/4"]),
        ]
        assert pooled_top_urls(lists, 10) == [
            "https://a/1",  # position 1, url tie broken ascending
            "https://a/3",  # best position 1 in second record
            "https://a/2",
            "https://a/4",
        ]

    def test_limit_respected(self):
        lists = [hit_list([f"https://a/{i}" for i in range(30)])]
        assert len(pooled_top_urls(lists, 20)) == 20

    def test_empty_records(self):
        assert pooled_top_urls([], 5) == []


REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_FILES = ("corpus.jsonl", "seed_material.jsonl", "qrels.tsv", "config.json", "baseline_list.txt")


def test_generate_data_script_reproduces_bundled_files(tmp_path):
    package_root = str(Path(evoquery.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "generate_data.py"),
         "--out", str(tmp_path / "data"), "--golden", str(tmp_path / "metrics.csv")],
        env={**os.environ, "PYTHONPATH": package_root}, capture_output=True, check=True,
        timeout=120,
    )
    for name in DATA_FILES:
        assert filecmp.cmp(tmp_path / "data" / name, REPO_ROOT / "data" / name, shallow=False), name
    golden = REPO_ROOT / "tests" / "golden" / "metrics.csv"
    assert filecmp.cmp(tmp_path / "metrics.csv", golden, shallow=False)
