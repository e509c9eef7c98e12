#!/usr/bin/env python3
"""Regenerate the bundled benchmark files under data/ and the golden metrics CSV.

Every output is a pure function of --seed, so a rerun on an unchanged
tree is byte-identical and `git diff` stays quiet.
"""

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from evoquery.cli import main as cli_main
from evoquery.corpus import Document, build_keyword_pool
from evoquery.genome import QueryGenome, Variant, render_query
from evoquery.provider import OfflineProvider, SearchHit, build_index
from evoquery.rng import derive_rng
from evoquery.synthetic import build_dataset, qrels_lines

REPO_ROOT = Path(__file__).resolve().parents[1]

RUN_CONFIG = {
    "g2": 8,
    "g3": 6,
    "e1": 10,
    "f1": 20,
    "f2": 20,
    "f3": 20,
    "f4": 0.75,
    "f5": 0.33,
    "f6": 0.33,
    "f7": 0.34,
    "m1": 1.0,
    "rng_seed": 0,
}

BASELINE_COMMENT = (
    "# Control ordering: pooled top results of g2 uniform-random queries\n"
    "# drawn from the same keyword pool and of the same length as evolved ones.\n"
)


KEYWORD_POOL_SIZE = 50


def dump_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write documents in the same newline-delimited format load_corpus reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {
                "id": doc.id,
                "url": doc.url,
                "host": doc.host,
                "title": doc.title,
                "body": doc.body,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def baseline_queries(
    lemmas: Sequence[str], count: int, length: int, rng: random.Random
) -> list[QueryGenome]:
    """Uniform-random same-length queries, the no-selection control arm."""
    if len(lemmas) < length:
        raise ValueError(f"need {length} distinct lemmas, have {len(lemmas)}")
    return [
        QueryGenome(terms=tuple(rng.sample(list(lemmas), length)), variant=Variant.LEMMA)
        for _ in range(count)
    ]


def pooled_top_urls(hit_lists: Sequence[Sequence[SearchHit]], limit: int) -> list[str]:
    """Rank-fuse result lists: best position anywhere wins, ties by url."""
    best_position: dict[str, int] = {}
    for hits in hit_lists:
        for position, hit in enumerate(hits, start=1):
            url = hit.doc_url
            if url not in best_position or position < best_position[url]:
                best_position[url] = position
    ranked = sorted(best_position.items(), key=lambda item: (item[1], item[0]))
    return [url for url, _ in ranked[:limit]]


def baseline_list(dataset, seed: int) -> list[str]:
    pool = build_keyword_pool(dataset.seed_material, KEYWORD_POOL_SIZE)
    lemmas = [lemma for lemma, _ in pool]
    genomes = baseline_queries(
        lemmas, RUN_CONFIG["g2"], RUN_CONFIG["g3"], derive_rng(seed, "baseline")
    )
    provider = OfflineProvider(build_index(dataset.corpus))
    hit_lists = [provider.execute(render_query(g), RUN_CONFIG["f1"]) for g in genomes]
    return pooled_top_urls(hit_lists, 20)


def write_data(out_dir: Path, seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(seed)

    dump_corpus(dataset.corpus, out_dir / "corpus.jsonl")
    dump_corpus(dataset.seed_material, out_dir / "seed_material.jsonl")
    (out_dir / "qrels.tsv").write_text(
        "\n".join(qrels_lines(dataset)) + "\n", encoding="utf-8"
    )
    (out_dir / "config.json").write_text(
        json.dumps(RUN_CONFIG, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "baseline_list.txt").write_text(
        BASELINE_COMMENT + "\n".join(baseline_list(dataset, seed)) + "\n",
        encoding="utf-8",
    )
    for name in (
        "corpus.jsonl",
        "seed_material.jsonl",
        "qrels.tsv",
        "config.json",
        "baseline_list.txt",
    ):
        print(f"wrote {out_dir / name}")


def write_golden(data_dir: Path, golden_path: Path) -> None:
    """Run the shipped pipeline end to end and freeze its metrics CSV."""
    golden_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        steps = [
            ["index", "--corpus", str(data_dir / "corpus.jsonl"),
             "--out", str(work / "index.json")],
            ["evolve", "--config", str(data_dir / "config.json"),
             "--seed-material", str(data_dir / "seed_material.jsonl"),
             "--index", str(work / "index.json"), "--out", str(work / "ledger")],
            ["evaluate", "--ledger", str(work / "ledger"),
             "--list", str(data_dir / "baseline_list.txt"),
             "--qrels", str(data_dir / "qrels.tsv"),
             "--out", str(work / "metrics.csv")],
        ]
        for argv in steps:
            code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"pipeline step {argv[0]} exited {code}")
        golden_path.write_bytes((work / "metrics.csv").read_bytes())
    print(f"wrote {golden_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "data")
    parser.add_argument("--golden", type=Path,
                        default=REPO_ROOT / "tests" / "golden" / "metrics.csv")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    write_data(args.out, args.seed)
    write_golden(args.out, args.golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
