"""Golden ledger digests: the determinism gate for changes to the GA loop.

An optimization of scoring, selection or ledger writing must leave every
ledger byte as it was. These digests pin the bundled data's ledgers for
the reference config, a wider lemma run and a quoted (conjunctive) run; a
change that moves one is a format change and must say so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from evoquery.corpus import load_corpus
from evoquery.evolution import (
    RunConfig,
    build_provider,
    make_run_inputs,
    run_evolution,
    write_run_ledger,
)
from evoquery.ledger import FINAL_RESULTS_FILE, GENERATIONS_FILE
from evoquery.provider import build_index, save_index

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

GOLDEN = {
    "reference": (
        {},
        "d87161cd9539f9f1b3dad1352e0238acb0440247cad2ef5b3e1919d2a51848a2",
        "0795d2dd36a2fe381309b29d8b99e898dabc26f555742713f1eb2e5c44b497ca",
    ),
    "wide-lemma": (
        {"g2": 32, "e1": 20, "variant": "lemma"},
        "a05e81c2eaa9b3ab462d2650122a1340656d9700deb15d5148e1f0371b2bf770",
        "c40b5dee7ead8b9191daf363efe0e277959a13a35e13950dfec00a349a3b241a",
    ),
    "quoted": (
        {"variant": "quoted", "g3": 2, "g2": 16, "e1": 10},
        "3cc91bbae50b86b12036e242a9dfa9dc8122bdd9c4e07b606862e6380be28bc3",
        "adf739e3413d3864000b9417e31b86d199e22adda23643d682dd5d3f13cc8656",
    ),
}


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "index.json"
    save_index(build_index(load_corpus(DATA_DIR / "corpus.jsonl")), path)
    return path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ledger_digests(name, index_path, tmp_path):
    overrides, generations_sha, final_sha = GOLDEN[name]
    payload = json.loads((DATA_DIR / "config.json").read_text(encoding="utf-8"))
    config = RunConfig.from_payload({**payload, **overrides})
    seed_path = DATA_DIR / "seed_material.jsonl"
    ledger = run_evolution(
        config,
        build_provider(config.provider, index_path),
        load_corpus(seed_path),
        inputs=make_run_inputs(index_path, seed_path),
    )
    write_run_ledger(tmp_path, ledger)
    assert sha256_of(tmp_path / GENERATIONS_FILE) == generations_sha
    assert sha256_of(tmp_path / FINAL_RESULTS_FILE) == final_sha
