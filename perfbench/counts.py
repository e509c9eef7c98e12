"""Output checks and counts read from the files a pipeline pass wrote.

Everything here reads the index file, the ledger directory and the qrels
as a user would, never the program's internals, so a change that renames
or removes internals cannot move these numbers. They follow the current
file formats: the index is one JSON object with a ``postings`` map of
lemma to {doc id: term count}; ``generations.jsonl`` holds one record per
generation whose queries carry ``terms``, ``variant`` and ``results``
(each with ``url``, ``title`` and ``snippet``); ``final_results.json`` is
the ranked list of result objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def tree_digest(directory: Path, pattern: str = "*") -> str:
    """sha256 over each matching file's relative name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def specialist_ndcg(ledger: Path, qrels: Path, n: int = 20) -> float:
    """nDCG@n of the ledger's final ordering for persona S.

    Consensus grade is the mean over judges; gain 2^g - 1, discount
    log2(2 + p) for 0-based position p; the ideal is the same list sorted
    by grade (ties by url), as ``evoquery evaluate`` defines it.
    """
    grades: dict[str, list[int]] = {}
    for line in qrels.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        url, _judge, persona, grade = line.split("\t")
        if persona == "S":
            grades.setdefault(url, []).append(int(grade))
    final = json.loads((ledger / "final_results.json").read_text(encoding="utf-8"))
    urls = [entry["url"] for entry in final][:n]
    values = [sum(grades[u]) / len(grades[u]) if u in grades else 0.0 for u in urls]

    def dcg(vals):
        return sum((2.0**g - 1.0) / math.log2(2 + p) for p, g in enumerate(vals[:n]))

    ideal = [g for _, g in sorted(zip(urls, values), key=lambda uv: (-uv[1], uv[0]))]
    best = dcg(ideal)
    return dcg(values) / best if best else 0.0


def csv_ndcg(metrics_csv: Path) -> float | None:
    """The ``ndcg,evolved,S,20`` value ``evoquery evaluate`` wrote, if any."""
    for line in metrics_csv.read_text(encoding="utf-8").splitlines():
        fields = line.split(",")
        if fields[:4] == ["ndcg", "evolved", "S", "20"]:
            return float(fields[4])
    return None


def ledger_counts(index_file: Path, ledger: Path) -> dict[str, float]:
    """Implementation-independent counts of one evolve run.

    candidates_per_query is the mean size of the BM25 candidate set: the
    union of the terms' posting lists for bare queries, the intersection
    for quoted (conjunctive) ones. A hit repeats when its (title, snippet)
    was already scored earlier in the run, in ledger order.
    """
    postings = json.loads(index_file.read_text(encoding="utf-8"))["postings"]
    queries = candidates = empty = hits = repeats = 0
    seen: set[tuple[str, str]] = set()
    with open(ledger / "generations.jsonl", encoding="utf-8") as fh:
        for line in fh:
            for query in json.loads(line)["queries"]:
                doc_sets = [set(postings.get(t.lower(), ())) for t in query["terms"]]
                if query["variant"] == "quoted":
                    candidate_set = set.intersection(*doc_sets)
                else:
                    candidate_set = set.union(*doc_sets)
                queries += 1
                candidates += len(candidate_set)
                empty += not query["results"]
                for result in query["results"]:
                    key = (result["title"], result["snippet"])
                    hits += 1
                    repeats += key in seen
                    seen.add(key)
    return {
        "provider.candidates_per_query": candidates / queries,
        "provider.empty_result_ratio": empty / queries,
        "fitness.hits_scored": hits,
        "fitness.hit_repeat_ratio": repeats / hits if hits else 0.0,
        "ledger.bytes_per_result": tree_bytes(ledger) / hits if hits else 0.0,
    }
