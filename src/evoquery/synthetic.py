"""Synthetic benchmark data: a noise corpus with a planted relevant cluster.

Documents are built from pseudo-words so retrieval quality is fully
controlled: 25 cluster documents share a topic vocabulary that appears
nowhere else, the remaining 475 documents are sliced into shards with
disjoint vocabularies, and a small distractor vocabulary is sprinkled
everywhere to give random queries something to find. Seed material mixes
the topic terms (heavily) with the distractors (lightly), so a keyword
pool built from it contains both signal and noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .corpus import Document
from .rng import derive_rng

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aeiou"

TOPIC_TERMS = 15
DISTRACTOR_TERMS = 35
SHARDS = 19
DOCS_PER_SHARD = 25
CLUSTER_SIZE = 25
SHARD_VOCABULARY = 30
CLUSTER_HOSTS = 5
TOPIC_TERMS_PER_DOC = 6
SEED_DOC_COUNT = 3


def pseudo_word(rng: random.Random, syllables: int = 3) -> str:
    """Vowel-final word; no stemmer suffix rule can fire on it."""
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(CONSONANTS))
        parts.append(rng.choice(VOWELS))
    return "".join(parts)


def distinct_words(rng: random.Random, count: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = pseudo_word(rng)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass(frozen=True)
class SyntheticDataset:
    corpus: list[Document]
    seed_material: list[Document]
    cluster_urls: list[str]


def _doc(doc_id: str, host: str, title: str, body: str) -> Document:
    return Document(
        id=doc_id,
        url=f"https://{host}/{doc_id}",
        host=host,
        title=title,
        body=body,
    )


def _cluster_doc(index: int, topic: Sequence[str], rng: random.Random) -> Document:
    # rotating window: every topic term lands in the same number of
    # cluster documents; no distractors, so noise terms never hit these
    window = [topic[(index + k) % len(topic)] for k in range(TOPIC_TERMS_PER_DOC)]
    tokens: list[str] = []
    for k in range(30):
        tokens.append(window[k % len(window)])
    rng.shuffle(tokens)
    host = f"site-{index % CLUSTER_HOSTS:02d}.example"
    return _doc(f"c{index:03d}", host, " ".join(window[:3]), " ".join(tokens))


def _shard_doc(
    shard: int,
    index: int,
    vocabulary: Sequence[str],
    distractors: Sequence[str],
    rng: random.Random,
) -> Document:
    tokens = [rng.choice(list(vocabulary)) for _ in range(31)]
    # tripled distractors give noise queries strong matches to rank
    for word in rng.sample(list(distractors), 3):
        tokens.extend((word, word, word))
    rng.shuffle(tokens)
    host = f"site-{CLUSTER_HOSTS + shard:02d}.example"
    title = " ".join(vocabulary[:3])
    return _doc(f"d{shard:02d}{index:02d}", host, title, " ".join(tokens))


def _seed_docs(topic: Sequence[str], distractors: Sequence[str]) -> list[Document]:
    docs = []
    share = (len(distractors) + SEED_DOC_COUNT - 1) // SEED_DOC_COUNT
    for i in range(SEED_DOC_COUNT):
        tokens: list[str] = []
        for word in topic:
            tokens.extend([word] * 4)
        tokens.extend(distractors[i * share : (i + 1) * share])
        docs.append(
            _doc(
                f"seed-{i}",
                "curated.example",
                " ".join(topic[i : i + 3]),
                " ".join(tokens),
            )
        )
    return docs


def build_dataset(seed: int = 0) -> SyntheticDataset:
    vocab_rng = derive_rng(seed, "synthetic/vocabulary")
    total = TOPIC_TERMS + DISTRACTOR_TERMS + SHARDS * SHARD_VOCABULARY
    words = distinct_words(vocab_rng, total)
    topic = words[:TOPIC_TERMS]
    distractors = words[TOPIC_TERMS : TOPIC_TERMS + DISTRACTOR_TERMS]
    shard_vocabularies = [
        words[
            TOPIC_TERMS + DISTRACTOR_TERMS + shard * SHARD_VOCABULARY :
            TOPIC_TERMS + DISTRACTOR_TERMS + (shard + 1) * SHARD_VOCABULARY
        ]
        for shard in range(SHARDS)
    ]

    corpus: list[Document] = []
    for index in range(CLUSTER_SIZE):
        rng = derive_rng(seed, f"synthetic/cluster/{index}")
        corpus.append(_cluster_doc(index, topic, rng))
    for shard in range(SHARDS):
        for index in range(DOCS_PER_SHARD):
            rng = derive_rng(seed, f"synthetic/shard/{shard}/{index}")
            corpus.append(
                _shard_doc(shard, index, shard_vocabularies[shard], distractors, rng)
            )

    return SyntheticDataset(
        corpus=corpus,
        seed_material=_seed_docs(topic, distractors),
        cluster_urls=[doc.url for doc in corpus[:CLUSTER_SIZE]],
    )


def qrels_lines(dataset: SyntheticDataset) -> list[str]:
    """Judgments for the planted cluster: two assessors, both personas.

    Specialist grades are uniformly 3; the novice assessor x2 drops to 2
    on every other document so consensus values are not all identical.
    """
    lines = ["# synthetic cluster judgments", "# doc_url\texpert\tpersona\tgrade"]
    for i, url in enumerate(dataset.cluster_urls):
        lines.append(f"{url}\tx1\tS\t3")
        lines.append(f"{url}\tx2\tS\t3")
        lines.append(f"{url}\tx1\tN\t3")
        lines.append(f"{url}\tx2\tN\t{2 if i % 2 else 3}")
    return lines
