#!/usr/bin/env python3
"""Regenerate the bundled benchmark files under data/ and the golden metrics CSV.

Every output is a pure function of --seed, so a rerun on an unchanged
tree is byte-identical and `git diff` stays quiet.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from evoquery.cli import main as cli_main
from evoquery.corpus import build_keyword_pool, dump_corpus
from evoquery.genome import render_query
from evoquery.provider import OfflineProvider, build_index
from evoquery.rng import derive_rng
from evoquery.synthetic import baseline_queries, build_dataset, pooled_top_urls, qrels_lines

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
