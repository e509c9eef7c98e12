"""Golden ledger digests: the determinism gate for changes to the GA loop.

An optimization of scoring, selection or ledger writing must leave every
ledger byte as it was. These digests pin the bundled data's ledgers for
the reference config, a wider lemma run, a quoted (conjunctive) run, a
frozen-reference run, a one-genome hill climb and the two together, a run
whose hits carry whole bodies (so semantic scoring reads whole documents)
and one without host damping (``f4`` = 1); a change that moves one is a
format change and must say so.

``GOLDEN`` holds the format-1 digests and ``GOLDEN_V2`` the format-2 ones.
Each format-3 generation line, expanded by the test reference to the
format-2 record it stands for, must give the format-2 bytes when written
with ``canonical_json`` and the format-1 bytes when written through the
format-1 reference writer, so the values have not moved since format 1;
``GOLDEN_V3`` pins the format-3 bytes of generations.jsonl.
final_results.json is the same in formats 2 and 3.
``INDEX_SHA256`` pins the bundled corpus's index file, the ledgers' input.
``EXECUTE_CALLS`` pins how many queries each run sends: freeze mode sends
each distinct query string once, and the hill climb sends each challenger.
"""

import hashlib
import json
from pathlib import Path

import pytest

from evoquery.config import RunConfig
from evoquery.corpus import load_corpus
from evoquery.evolution import (
    build_provider,
    make_run_inputs,
    run_evolution,
    write_run_ledger,
)
from evoquery.ledger import CONFIG_FILE, FINAL_RESULTS_FILE, GENERATIONS_FILE, canonical_json
from evoquery.provider import build_index, save_index
from reference_ledger import expand_format_3_record, reference_canonical_json

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
    "frozen": (
        {"freeze_reference": True},
        "483eee14b4bc68f6b188024a667bde1a5551ca0e3c970f3b9e2434ef6fbd6cb1",
        "4dbde5bb7bfa948c49b662dd0945b6e79ca7fa46ad620fe6da089da11b51afd9",
    ),
    "hill-climb": (
        {"g2": 1, "e1": 20},
        "133e885263d92ae4d594a1d38b81102908a7f58600950fd01e7753a9caf124c8",
        "854182621024852f3587f1dda25f094ff4193b4fbff685cf71e418abe2941916",
    ),
    "frozen-hill-climb": (
        {"freeze_reference": True, "g2": 1, "e1": 20},
        "23e4707301fa6c8649f0306e6cee155ebc27737df7af95e3d98d5e3f10bf4838",
        "31a775f1761f50acf76b388122c39c645a8400de637e7dc0d6dfc872e64813a9",
    ),
    "full-body": (
        {"provider": {"full_body_snippets": True}},
        "9ff3d66004e2d2073ab7214adf19802cf63e3b7d035e4e59428882291441335a",
        "0795d2dd36a2fe381309b29d8b99e898dabc26f555742713f1eb2e5c44b497ca",
    ),
    "no-damping": (
        {"f4": 1.0},
        "2976f457a4a21f7c0cdae824ee878dd2d338744061af995c2ce5709949370a62",
        "55171d63ad407a23097603fe358e99396a2c7191f44ce7a8611c47378936e787",
    ),
}

GOLDEN_V2 = {
    "reference": (
        "f0eaf3167d18183f06b5caabb59c874374ad1632e18d1a75171fd69075b5d948",
        "cb2b29f5bfe4eeec8390bba1d825cd1d7a1a431322af72fac6e858f90dc3a438",
    ),
    "wide-lemma": (
        "3b0c834b1df078376815f3c4c80f9cc6a83ad59e4aca69bae18a1cd9fa69af0b",
        "42c4df6a6f237889ebef8b9de8a27412ad30b05e8199734c4eb148ae2dc332f2",
    ),
    "quoted": (
        "5c966a6bb43ac38a75770920876e771ffe26a3da267d79de4d12d71b208f55d0",
        "05191d589ec6788d58ebe3fddbde71d93060ca83c55c1930b7dce6b5eb31d26a",
    ),
    "frozen": (
        "9f2bd4a6fcfb1ea8136de5cc2e618c7f160882ed4b56b4fa81f0de38edd598ad",
        "3319e43ce18fd9269628645250ec3a2fd2f5f029a45b2de4cab4d8295d5eaf3e",
    ),
    "hill-climb": (
        "9921f4ec7451a76b31d5b5b44a8ce7fc8fae75952d27c38d159565cf9b88389f",
        "2e69083a3e0a5ffd73c6e6e783602b559dd3d0f3194f8a32ee693e9fe5c5b3f2",
    ),
    "frozen-hill-climb": (
        "dde58484d8eb87e070fc5dbf29ffefd2674cfac40a080f88b1b79bc5a4ec2e88",
        "420890aa2c089d6f76a62fd1196c576983f2040ce8698ce10576045eab7ffef4",
    ),
    "full-body": (
        "1ee0d2bc74a9f89b5abde099fbdf3bfb00f68c5800e245fb240074722643b673",
        "cb2b29f5bfe4eeec8390bba1d825cd1d7a1a431322af72fac6e858f90dc3a438",
    ),
    "no-damping": (
        "c0beea17ccda81098fd5d5a7c5099c6e3be40066fb37348ba5725b67e3d6b8db",
        "0bddbb224c93ff8b5b4ff84b24959a3e3dad289ab959b35650e24bc56e6c06a1",
    ),
}

GOLDEN_V3 = {  # generations.jsonl alone
    "reference": "55c523c9f284b6a2daf461182ab7a86316b2ab7835cfc90f3c610faf558dff3b",
    "wide-lemma": "1bc26bb97dcf6eaa52778ec2ed8ac5ac2cc9db3f0909f89f61d73ca6ad9e3d77",
    "quoted": "9fa9edf7077c473e1590d60c984516021bd79470425cc2cc93f2fc1b5d89d689",
    "frozen": "f40fe8dc7f13d88f443e996a3217e539e693e48bda80191591bad1d73e7eca22",
    "hill-climb": "e4a439932118583b852934e428d31f329b1d9608a69c0a1062cc71fafba74cab",
    "frozen-hill-climb": "0e1b41d0765328343dcf556964d0555138f95d0531e359564e82c4e8d6bc63bf",
    "full-body": "786867ec9982f85c521e23e1e7c294565fb5c7007c7bbc61676e3ced7fa24319",
    "no-damping": "8548d20e280331381b6e1a5dc3720c9b1f92d8bf54180e855e06d2b8f27aa223",
}

EXECUTE_CALLS = {
    "reference": 80,
    "wide-lemma": 640,
    "quoted": 160,
    "frozen": 44,
    "hill-climb": 39,
    "frozen-hill-climb": 18,
    "full-body": 80,
    "no-damping": 80,
}

INDEX_SHA256 = "2bfe520141e659b04bb904cdf6e75da76d1875245abf8a95767d0bd24142b260"


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "index.json"
    save_index(build_index(load_corpus(DATA_DIR / "corpus.jsonl")), path)
    return path


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rewritten_sha256_of(path: Path, write, expand=lambda record: record) -> str:
    """sha256 of ``path`` with each line parsed, expanded and rewritten by ``write``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    text = "".join(write(expand(json.loads(line))) + "\n" for line in lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_index_digest(index_path):
    assert sha256_of(index_path) == INDEX_SHA256


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ledger_digests(name, index_path, tmp_path):
    overrides, generations_sha, final_sha = GOLDEN[name]
    payload = json.loads((DATA_DIR / "config.json").read_text(encoding="utf-8"))
    config = RunConfig.from_payload({**payload, **overrides})
    seed_path = DATA_DIR / "seed_material.jsonl"
    provider = build_provider(config.provider, index_path)
    sent = []
    execute = provider.execute

    def counted_execute(query_string, limit):
        sent.append(query_string)
        return execute(query_string, limit)

    provider.execute = counted_execute
    records = list(run_evolution(config, provider, load_corpus(seed_path)))
    assert len(sent) == EXECUTE_CALLS[name]
    write_run_ledger(tmp_path, config, records, make_run_inputs(tmp_path, index_path, seed_path))
    generations = tmp_path / GENERATIONS_FILE
    ledger_config = json.loads((tmp_path / CONFIG_FILE).read_text(encoding="utf-8"))["config"]

    def expand(record):
        return expand_format_3_record(record, ledger_config)

    assert rewritten_sha256_of(generations, reference_canonical_json, expand) == generations_sha
    assert rewritten_sha256_of(tmp_path / FINAL_RESULTS_FILE, reference_canonical_json) == final_sha
    v2_generations_sha, v2_final_sha = GOLDEN_V2[name]
    assert rewritten_sha256_of(generations, canonical_json, expand) == v2_generations_sha
    assert sha256_of(tmp_path / FINAL_RESULTS_FILE) == v2_final_sha
    assert sha256_of(generations) == GOLDEN_V3[name]
