"""Workload definitions and their seeded input generator.

Every input file is a pure function of the workload name and ``--seed``;
the program under test receives only these files. The generator reuses
the package's own synthetic planted-cluster dataset, so seed 0 of
``bundled-wide`` is the repository's bundled ``data/`` set.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

SCALE_COPIES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scaled: bool
    config: dict


# Each config holds the exact keys written to the workload's config.json;
# keys left out take the program's defaults.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bundled-wide",
            why="500-doc bundled corpus, g2=32 e1=20: ~12,800 hits scored over few "
            "docs, so fitness scoring and ledger writing dominate; index work is small",
            scaled=False,
            config={"g2": 32, "e1": 20, "variant": "lemma"},
        ),
        Workload(
            name="scaled-disjunctive",
            why="8k-doc corpus, default config: ~1,000 BM25 candidates per query, "
            "so provider execute dominates evolve and index build dominates setup",
            scaled=True,
            config={
                "e1": 10, "f1": 20, "f2": 20, "f3": 20, "f4": 0.75, "f5": 0.33,
                "f6": 0.33, "f7": 0.34, "g2": 8, "g3": 6, "m1": 1.0, "rng_seed": 0,
            },
        ),
        Workload(
            name="scaled-conjunctive",
            why="8k-doc corpus, quoted g3=2 queries: ~50 candidates per query, "
            "25% empty; import and index load lead evolve, so load-time costs show",
            scaled=True,
            config={"variant": "quoted", "g3": 2, "g2": 16, "e1": 10},
        ),
    )
}


def _jsonl(docs) -> str:
    """The corpus line format that ``evoquery.corpus.load_corpus`` reads."""
    return "".join(
        json.dumps(
            {"id": d.id, "url": d.url, "host": d.host, "title": d.title, "body": d.body},
            ensure_ascii=False,
        )
        + "\n"
        for d in docs
    )


def _spelling(seed: int) -> dict[int, int]:
    """A seeded letter substitution that keeps every comparison's outcome.

    Pseudo-words alternate consonant and vowel slots, so mapping each class
    monotonically onto a seeded, sorted subset of a wider alphabet keeps
    word lengths and the lexical order of words, titles and queries. Final
    letters stay vowels (or y), so no stemmer suffix rule starts firing.
    """
    from evoquery.synthetic import CONSONANTS, VOWELS

    rng = random.Random(f"perfbench/{seed}/spelling")
    consonants = sorted(rng.sample("bcdfghjklmnpqrstvwxz", len(CONSONANTS)))
    vowels = sorted(rng.sample("aeiouy", len(VOWELS)))
    return str.maketrans(CONSONANTS + VOWELS, "".join(consonants + vowels))


def _scaled(dataset, seed: int):
    """SCALE_COPIES resampled copies of ``dataset``'s corpus, respelled by seed.

    Each copy draws every document's body tokens with replacement from the
    original, so term frequencies differ between copies and BM25 rankings
    are not ties; copy k always uses the same draws. The seed only respells
    titles and bodies (``_spelling``): every seed poses the same retrieval
    problem, so the GA takes the same decisions and does the same work.
    Built from ``build_dataset(seed)`` instead, the work itself moved with
    the seed: candidates per query ranged 3,500-7,800 over seeds 0-4 at
    100 copies.
    """
    from evoquery.corpus import Document

    spelling = _spelling(seed)
    cluster = set(dataset.cluster_urls)
    docs, cluster_urls = [], []
    for copy in range(SCALE_COPIES):
        rng = random.Random(f"perfbench/copy/{copy}")
        for doc in dataset.corpus:
            tokens = doc.body.split()
            doc_id = f"{doc.id}x{copy:02d}"
            url = f"https://{doc.host}/{doc_id}"
            body = " ".join(rng.choice(tokens) for _ in tokens)
            docs.append(Document(id=doc_id, url=url, host=doc.host,
                                 title=doc.title.translate(spelling),
                                 body=body.translate(spelling)))
            if doc.url in cluster:
                cluster_urls.append(url)
    seed_material = [
        replace(d, title=d.title.translate(spelling), body=d.body.translate(spelling))
        for d in dataset.seed_material
    ]
    return replace(dataset, corpus=docs, seed_material=seed_material, cluster_urls=cluster_urls)


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> str:
    """Write corpus.jsonl, seed_material.jsonl, qrels.tsv and config.json;
    return the sha256 of their contents."""
    from evoquery.synthetic import build_dataset, qrels_lines

    dataset = _scaled(build_dataset(0), seed) if workload.scaled else build_dataset(seed)
    files = {
        "corpus.jsonl": _jsonl(dataset.corpus),
        "seed_material.jsonl": _jsonl(dataset.seed_material),
        "qrels.tsv": "\n".join(qrels_lines(dataset)) + "\n",
        "config.json": json.dumps(workload.config, indent=2, sort_keys=True) + "\n",
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, text in files.items():
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()
