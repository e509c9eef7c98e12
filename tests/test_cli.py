"""Exit codes, output contracts and format plumbing of the command line."""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evoquery
import evoquery.provider
from evoquery.cli import main
from evoquery.corpus import Document, build_keyword_pool, load_corpus, url_authority
from evoquery.errors import ProviderError
from evoquery.ledger import (
    CONFIG_FILE,
    FINAL_RESULTS_FILE,
    GENERATIONS_FILE,
    canonical_json,
    parse_record_line,
)
from evoquery.provider import HttpProvider, OfflineProvider, load_index
from evoquery.report import CSV_HEADER
from evoquery.synthetic import build_dataset, qrels_lines
from generate_data import dump_corpus

SMALL_CONFIG = {"g2": 4, "g3": 3, "e1": 2, "f1": 8, "f2": 8, "f3": 10}


def _set(column, at, value):
    column[at] = value


def _format_5(payload):
    """Make ``payload`` the format-5 index of its corpus: version 5, with each doc's
    host and length (the sum of its term counts) stored beside its other columns."""
    lengths = [0] * len(payload["docs"]["url"])
    for lemma, plist in payload["postings"].items():
        for d, tf in zip(plist, payload["term_counts"][lemma]):
            lengths[d] += tf
    payload["docs"].update(host=list(map(url_authority, payload["docs"]["url"])), length=lengths)
    payload["version"] = 5


# (corrupt an index payload of build_dataset(0), 500 docs, in place; the part it must name)
MALFORMED_INDEXES = [
    pytest.param(
        lambda p: _set(p["docs"]["url"], 0, None),
        "index docs column 'url' must be a list of strings", id="doc-without-url",
    ),
    pytest.param(
        lambda p: _set(p["docs"]["url"], 0, "http://[::1/x"),
        "index url 'http://[::1/x' is not a valid URL (Invalid IPv6 URL)", id="url-not-valid",
    ),
    pytest.param(
        lambda p: p["docs"]["title"].pop(), "index docs column 'title' has 499 entries, not 500",
        id="unequal-columns",
    ),
    pytest.param(
        lambda p: p.update(docs={name: [] for name in p["docs"]}, postings={}, term_counts={}),
        "index holds no document", id="no-documents",
    ),
    pytest.param(
        lambda p: p.pop("postings"), "index postings must be an object", id="no-postings"
    ),
    pytest.param(
        lambda p: _set(p["term_counts"]["mavevo"], 0, "2"),
        "index term_counts of 'mavevo' must be a list of integers >= 1", id="string-term-count",
    ),
    pytest.param(
        lambda p: _set(p["term_counts"]["mavevo"], 0, 2.0),
        "index term_counts of 'mavevo' must be a list of integers >= 1", id="float-term-count",
    ),
    pytest.param(
        lambda p: _set(p["term_counts"]["mavevo"], 0, True),
        "index term_counts of 'mavevo' must be a list of integers >= 1", id="bool-term-count",
    ),
    pytest.param(
        lambda p: p["term_counts"]["mavevo"].pop(),
        "index postings and term_counts of 'mavevo' differ in length", id="unequal-posting-lists",
    ),
    pytest.param(
        lambda p: p["term_counts"].pop("mavevo"),
        "index lemma 'mavevo' must be in both postings and term_counts",
        id="lemma-only-in-postings",
    ),
    pytest.param(
        lambda p: p["postings"].pop("mavevo"),
        "index lemma 'mavevo' must be in both postings and term_counts",
        id="lemma-only-in-term-counts",
    ),
    pytest.param(
        lambda p: p.update(docs=list(p["docs"].values())), "index docs must be an object",
        id="docs-as-list",
    ),
    pytest.param(
        lambda p: (p["postings"]["mavevo"].append(500), p["term_counts"]["mavevo"].append(1)),
        "index postings of 'mavevo' hold a doc position outside 0..499", id="unknown-doc-id",
    ),
    pytest.param(
        lambda p: _set(p["postings"]["mavevo"], 0, -1),
        "index postings of 'mavevo' hold a doc position outside 0..499", id="negative-position",
    ),
    pytest.param(
        lambda p: _set(p["postings"]["mavevo"], 1, p["postings"]["mavevo"][0]),
        "index postings of 'mavevo' must be a strictly ascending list of doc positions",
        id="repeated-position",
    ),
    pytest.param(
        lambda p: p["postings"]["mavevo"].reverse(),
        "index postings of 'mavevo' must be a strictly ascending list of doc positions",
        id="unordered-positions",
    ),
    pytest.param(
        lambda p: (p["docs"].update(id=[f"d{i:03}" for i in range(500)]),
                   p.update(version=4, avg_doc_len=39.5)),
        "unsupported index version 4 (version 6 is read); rebuild it with `evoquery index`",
        id="format-4",
    ),
    pytest.param(
        _format_5,
        "unsupported index version 5 (version 6 is read); rebuild it with `evoquery index`",
        id="format-5",
    ),
    pytest.param(
        lambda p: p.update(version=2),
        "unsupported index version 2 (version 6 is read); rebuild it with `evoquery index`",
        id="format-2",
    ),
    pytest.param(
        lambda p: (p.pop("stop_words"), p.update(version=3, normalizer={
            "class": "SuffixNormalizer",
            "stop_words_sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        })),
        "unsupported index version 3 (version 6 is read); rebuild it with `evoquery index`",
        id="format-3",
    ),
    pytest.param(
        lambda p: p.pop("stop_words"),
        "index stop_words must be a sorted list of distinct strings", id="no-stop-words",
    ),
    pytest.param(
        lambda p: p.update(stop_words=["the", "and"]),
        "index stop_words must be a sorted list of distinct strings", id="unsorted-stop-words",
    ),
    pytest.param(
        lambda p: p.update(stop_words=["and", "and"]),
        "index stop_words must be a sorted list of distinct strings", id="repeated-stop-words",
    ),
    pytest.param(
        lambda p: p.update(stop_words=["and", 1]),
        "index stop_words must be a sorted list of distinct strings", id="non-string-stop-words",
    ),
]



def _write(path, data: bytes):
    path.write_bytes(data)
    return path


def _edit_config(ledger, edit):
    path = ledger / "config.json"
    payload = json.loads(path.read_text())
    edit(payload)
    return _write(path, canonical_json(payload).encode() + b"\n")


# (break a copy of a ledger and return the file the error must name; the
# message after the file's path; whether replay must refuse before any query)
BROKEN_LEDGERS = [
    pytest.param(
        lambda d: _write(d / FINAL_RESULTS_FILE, (d / FINAL_RESULTS_FILE).read_bytes()[:100]),
        " is not valid JSON: ", True, id="truncated-final-results",
    ),
    pytest.param(
        lambda d: _write(d / "config.json", b"[1]\n"), " must hold an object", True,
        id="config-not-an-object",
    ),
    pytest.param(
        lambda d: _write(d / GENERATIONS_FILE, (d / GENERATIONS_FILE).read_bytes()[:100]),
        " line 1 is not valid JSON: ", False, id="truncated-generations",
    ),
    pytest.param(
        lambda d: _edit_config(d, lambda p: p.pop("inputs")),
        " records no input files; cannot replay", True, id="no-inputs",
    ),
    pytest.param(
        lambda d: _edit_config(d, lambda p: p["inputs"].pop("index_sha256")),
        " inputs lack a string index_sha256", True, id="input-without-digest",
    ),
    pytest.param(
        lambda d: _edit_config(d, lambda p: p["config"]["provider"].update(
            kind="http", endpoint="https://api.example/search")),
        " records a run on the 'http' provider; only offline runs re-derive their results",
        True, id="http-provider",
    ),
]

@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    dataset = build_dataset(0)
    dump_corpus(dataset.corpus, root / "corpus.jsonl")
    dump_corpus(dataset.seed_material, root / "seed.jsonl")
    (root / "qrels.tsv").write_text("\n".join(qrels_lines(dataset)) + "\n", encoding="utf-8")
    (root / "config.json").write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    (root / "defaults.json").write_text("{}", encoding="utf-8")
    assert main(["index", "--corpus", str(root / "corpus.jsonl"), "--out", str(root / "index.json")]) == 0
    return root


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run") / "ledger"
    code = main([
        "evolve",
        "--config", str(data_dir / "config.json"),
        "--seed-material", str(data_dir / "seed.jsonl"),
        "--index", str(data_dir / "index.json"),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def metrics_csv(data_dir, run_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-metrics") / "run-a.csv"
    code = main([
        "evaluate", "--ledger", str(run_dir),
        "--qrels", str(data_dir / "qrels.tsv"), "--out", str(out),
    ])
    assert code == 0
    return out


class TestIndex:
    def test_small_corpus(self, tmp_path, capsys):
        docs = [
            Document(id=f"t{i}", url=f"https://t.example/{i}", host="t.example",
                     title="title", body="alpha bravo delta")
            for i in range(3)
        ]
        dump_corpus(docs, tmp_path / "three.jsonl")
        code = main(["index", "--corpus", str(tmp_path / "three.jsonl"),
                     "--out", str(tmp_path / "index.json")])
        assert code == 0
        assert "indexed 3 documents" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["index", "--corpus", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "index.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_empty_corpus(self, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        code = main(["index", "--corpus", str(tmp_path / "empty.jsonl"),
                     "--out", str(tmp_path / "index.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'empty.jsonl'}: holds no document\n"
        assert not (tmp_path / "index.json").exists()

    def _index(self, data_dir, out):
        return main(["index", "--corpus", str(data_dir / "corpus.jsonl"), "--out", str(out)])

    def test_out_into_missing_directories(self, data_dir, tmp_path):
        out = tmp_path / "sub" / "dir" / "index.json"
        assert self._index(data_dir, out) == 0
        assert out.read_bytes() == (data_dir / "index.json").read_bytes()
        assert [p.name for p in out.parent.iterdir()] == ["index.json"]
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize("existing", [False, True], ids=["absent-out", "existing-out"])
    def test_failed_write_leaves_out_as_it_was(
        self, data_dir, tmp_path, capsys, monkeypatch, existing
    ):
        out = tmp_path / "index.json"
        if existing:
            assert self._index(data_dir, out) == 0
            before = out.read_bytes()
        pieces = evoquery.provider._pieces

        def fail_after_the_first_piece(payload):
            yield next(pieces(payload))
            yield " " * (1 << 16)  # past the file's buffer, so the sibling holds bytes
            (staging,) = tmp_path.glob(".index.json.*.tmp")
            assert staging.stat().st_size > 0
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(evoquery.provider, "_pieces", fail_after_the_first_piece)
        assert self._index(data_dir, out) == 2
        assert "environment error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (["index.json"] if existing else [])
        if existing:
            assert out.read_bytes() == before


# A small corpus, its url hosts given and derived, for the mutation property
SMALL_CORPUS = "".join(
    json.dumps({"id": f"m{i}", "url": f"https://h{i % 2}.example/{i}",
                "host": f"h{i % 2}.example" if i % 3 else "", "title": f"título {i}",
                "body": f"wear tear {i} oil éclat"}, ensure_ascii=False) + "\n"
    for i in range(4)
).encode("utf-8")


# A JSON token that is not punctuation: a string, a number or a literal
JSON_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null')


@st.composite
def mutated(draw, data: bytes):
    """``data`` with one byte flipped, the tail cut off, one byte put in, or one
    JSON token swapped for another of its tokens (a number for a string, a key
    for a value, ...), which leaves a JSON file parsing more often than a byte does."""
    at = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["flip", "cut", "insert", "swap"]))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:at]
    if kind == "swap":
        tokens = list(JSON_TOKEN.finditer(data))
        old, new = draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens))
        return data[:old.start()] + new.group() + data[old.end():]
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]


class TestIndexMutatedCorpus:
    """`index` on a damaged corpus exits 0 with a whole index, or 1 naming the
    file; never 2, a traceback or a partial --out."""

    @settings(max_examples=300, deadline=None)
    @given(mutated(SMALL_CORPUS))
    def test_exits_0_or_names_the_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "corpus.jsonl", Path(tmp) / "index.json"
            corpus.write_bytes(data)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["index", "--corpus", str(corpus), "--out", str(out)])
            if code == 0:
                assert load_index(out).doc_count == int(stdout.getvalue().split()[1])
            elif data.strip():
                assert code == 1 and stderr.getvalue().startswith(f"error: {corpus}: line ")
            else:  # a cut to nothing
                assert (code, stderr.getvalue()) == (1, f"error: {corpus}: holds no document\n")
            assert sorted(os.listdir(tmp)) == ["corpus.jsonl"] + ["index.json"] * (code == 0)


def _quiet_main(argv):
    """``main(argv)``'s exit code and stderr, its stdout dropped."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The directory of every input of a two-generation run on SMALL_CORPUS's 4 docs."""
    root = tmp_path_factory.mktemp("small-run")
    urls = [json.loads(line)["url"] for line in SMALL_CORPUS.decode("utf-8").splitlines()]
    (root / "corpus.jsonl").write_bytes(SMALL_CORPUS)
    (root / "seed.jsonl").write_bytes(SMALL_CORPUS)
    config = {"g2": 2, "g3": 2, "e1": 2, "f1": 4, "f2": 4, "f3": 4, "keyword_pool_size": 4}
    (root / "config.json").write_text(json.dumps(config) + "\n", encoding="utf-8")
    (root / "qrels.tsv").write_text(
        "".join(f"{url}\tx{i % 2}\t{'SN'[i % 2]}\t{i % 4}\n" for i, url in enumerate(urls)),
        encoding="utf-8",
    )
    (root / "list.txt").write_text("\n".join(urls[:3]) + "\n", encoding="utf-8")
    index = ["index", "--corpus", root / "corpus.jsonl", "--out", root / "index.json"]
    assert _quiet_main(index)[0] == 0
    inputs = _inputs(root)
    assert _quiet_main(_evolve(inputs, inputs["ledger"]))[0] == 0
    assert _quiet_main(_evaluate_lists(inputs, inputs["metrics.csv"]))[0] == 0
    return root


def _inputs(root):
    names = ("config.json", "seed.jsonl", "index.json", "qrels.tsv", "list.txt", "metrics.csv")
    return {name: root / name for name in (*names, "ledger")}


def _evolve(inputs, out):
    return ["evolve", "--config", inputs["config.json"], "--seed-material",
            inputs["seed.jsonl"], "--index", inputs["index.json"], "--out", out]


def _evaluate_lists(inputs, out):
    return ["evaluate", "--list", inputs["list.txt"], "--qrels", inputs["qrels.tsv"],
            "--out", out]


def _evaluate_ledger(inputs, out):
    return ["evaluate", "--ledger", inputs["ledger"], "--qrels", inputs["qrels.tsv"],
            "--out", out]


def _report(inputs, out):
    return ["report", "--metrics", inputs["metrics.csv"], "--out", out]


def _replay(inputs, out):
    return ["replay", "--ledger", inputs["ledger"]]


# (input file, the command that reads it); a ledger's files are read by two
MUTATED_INPUTS = [
    pytest.param("seed.jsonl", _evolve, id="seed-material-evolve"),
    pytest.param("config.json", _evolve, id="config-evolve"),
    pytest.param("index.json", _evolve, id="index-evolve"),
    pytest.param("qrels.tsv", _evaluate_lists, id="qrels-evaluate"),
    pytest.param("list.txt", _evaluate_lists, id="list-evaluate"),
    pytest.param("metrics.csv", _report, id="metrics-report"),
    *(pytest.param(f"ledger/{name}", command, id=f"{name}-{verb}")
      for name in (CONFIG_FILE, GENERATIONS_FILE, FINAL_RESULTS_FILE)
      for verb, command in (("evaluate", _evaluate_ledger), ("replay", _replay))),
]


class TestMutatedInputs:
    """A damaged input file gives exit 0, or exit 1 naming the file (config: or
    one of its keys; a ledger's file: or the generation and field that replay
    finds diverging); never 2, a traceback or a partial --out."""

    @pytest.mark.parametrize("name, command", MUTATED_INPUTS)
    def test_exits_0_or_names_the_file(self, small_run, name, command):
        original = (small_run / name).read_bytes()

        @settings(max_examples=60, deadline=None)
        @given(mutated(original))
        def check(data):
            work = Path(tempfile.mkdtemp(dir=small_run))
            in_ledger = name.startswith("ledger/")
            try:
                inputs = _inputs(small_run)
                if in_ledger:  # a copy beside small_run/ledger keeps its relative input paths
                    shutil.copytree(inputs["ledger"], work, dirs_exist_ok=True)
                    inputs["ledger"], target = work, work / Path(name).name
                else:
                    target = inputs[name] = work / name
                target.write_bytes(data)
                placed = sorted(os.listdir(work))
                code, stderr = _quiet_main(command(inputs, work / "out"))
                wrote = ["out"] if code == 0 and command is not _replay else []
                assert sorted(os.listdir(work)) == sorted(placed + wrote), stderr
                if code == 0:
                    return
                assert code == 1, stderr
                named = [str(work if in_ledger else target)]
                if name == "config.json":
                    named += _keys(data)
                diverged = in_ledger and re.match(
                    r"divergence detected: generation \d+ diverges at \S", stderr)
                assert diverged or any(part in stderr for part in named), stderr
            finally:
                shutil.rmtree(work)

        check()


def _keys(config_bytes):
    """The keys of a config file's JSON object, if it holds one, each as a message
    shows it alone or in a list (``repr``); not an empty key, in every message."""
    try:
        payload = json.loads(config_bytes)
    except ValueError:
        return []
    keys = [key for key in payload if key] if isinstance(payload, dict) else []
    return keys + [repr(key) for key in keys]


def _seed_file(tmp_path, body):
    """A one-document seed file whose body is ``body``."""
    path = tmp_path / "seed.jsonl"
    dump_corpus([Document("s1", "https://s.example/1", "s.example", "t", body)], path)
    return path


class TestKeywords:
    def test_zero_lemmas_names_the_file(self, tmp_path, capsys):
        seed = _seed_file(tmp_path, "! 1 2 ?")
        code = main(["keywords", "--corpus", str(seed)])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {seed}: seed material normalizes to zero lemmas\n")

    def test_pool_listing(self, data_dir, capsys):
        code = main(["keywords", "--corpus", str(data_dir / "seed.jsonl"), "--k", "10"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        weights = []
        for line in lines:
            lemma, weight = line.split("\t")
            weights.append(float(weight))
        assert weights == sorted(weights, reverse=True)

    def test_k_must_be_positive(self, data_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["keywords", "--corpus", str(data_dir / "seed.jsonl"), "--k", "0"])
        assert exc_info.value.code == 1


class TestEvolve:
    def test_ledger_layout_and_summary(self, run_dir, capsys):
        for name in ("config.json", GENERATIONS_FILE, "final_results.json"):
            assert (run_dir / name).is_file()
        lines = (run_dir / GENERATIONS_FILE).read_text().splitlines()
        assert len(lines) == SMALL_CONFIG["e1"]

    def test_default_config_runs_ten_generations(self, data_dir, tmp_path):
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(data_dir / "defaults.json"),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])
        assert code == 0
        assert len((out / GENERATIONS_FILE).read_text().splitlines()) == 10

    def test_summary_lines(self, data_dir, tmp_path, capsys):
        code = main([
            "evolve", "--config", str(data_dir / "config.json"),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(tmp_path / "ledger"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final population fitness:" in out
        assert "top " in out

    def test_reruns_are_byte_identical(self, data_dir, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main([
                "evolve", "--config", str(data_dir / "config.json"),
                "--seed-material", str(data_dir / "seed.jsonl"),
                "--index", str(data_dir / "index.json"), "--out", str(out),
            ]) == 0
        for name in ("config.json", GENERATIONS_FILE, "final_results.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_non_finite_weight_rejected_before_run(self, data_dir, tmp_path, capsys):
        config = tmp_path / "nan.json"
        config.write_text('{"f5": NaN}')
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])
        assert code == 1
        assert "f5 must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_count_over_bound_rejected_before_run(self, data_dir, tmp_path, capsys):
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"e1": 10**12}))
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])
        assert code == 1
        assert "e1 must be in 1..1000" in capsys.readouterr().err
        assert not out.exists()

    def test_index_and_endpoint_conflict(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "evolve", "--seed-material", str(data_dir / "seed.jsonl"),
                "--index", str(data_dir / "index.json"),
                "--endpoint", "https://api.example/search",
                "--out", str(tmp_path / "ledger"),
            ])
        assert exc_info.value.code == 1

    def test_source_required(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "evolve", "--seed-material", str(data_dir / "seed.jsonl"),
                "--out", str(tmp_path / "ledger"),
            ])
        assert exc_info.value.code == 1

    def test_bad_weight_sum(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"f5": 0.5, "f6": 0.5, "f7": 0.2}))
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(tmp_path / "ledger"),
        ])
        assert code == 1
        assert "must sum to 1" in capsys.readouterr().err

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"g9": 1}))
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(tmp_path / "ledger"),
        ])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_not_json(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{nope")
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(tmp_path / "ledger"),
        ])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_integer_over_digit_limit_names_file(self, data_dir, tmp_path, capsys):
        config = tmp_path / "huge.json"
        config.write_text('{"g2": ' + "9" * 5000 + "}")
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])
        assert code == 1
        assert f"error: config {config} is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt, named", MALFORMED_INDEXES)
    def test_malformed_index_refused_before_run(
        self, data_dir, tmp_path, capsys, corrupt, named
    ):
        payload = json.loads((data_dir / "index.json").read_text(encoding="utf-8"))
        corrupt(payload)
        index = tmp_path / "index.json"
        index.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(data_dir / "config.json"),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(index), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {index}: {named}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("karst cave", "with g3=6 and e1=10, seed material yields 2 keywords, the run needs 7"),
        ("! 1 2 ?", "seed material normalizes to zero lemmas"),
    ], ids=["too-few-keywords", "zero-lemmas"])
    def test_seed_material_error_names_the_file(
        self, data_dir, tmp_path, capsys, body, message
    ):
        seed = _seed_file(tmp_path, body)
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(data_dir / "defaults.json"), "--seed-material", str(seed),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])
        assert (code, capsys.readouterr().err) == (1, f"error: {seed}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("provider, key", [
        ({"kind": "http", "endpoint": "http://127.0.0.1:9/search"}, "kind"),
        ({"endpoint": "http://127.0.0.1:9/search"}, "endpoint"),
    ])
    def test_provider_kind_and_endpoint_rejected(self, data_dir, tmp_path, capsys, provider, key):
        config = tmp_path / "provider.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "provider": provider}))
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config key provider.{key} is not accepted" in err
        assert "--index or --endpoint chooses the provider" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, source, reader", [
        ("rate_limit_rps", 5.0, "--index", "--endpoint"),
        ("api_key_header", "X-Key", "--index", "--endpoint"),
        ("full_body_snippets", True, "--endpoint", "--index"),
    ])
    def test_provider_key_the_source_ignores_rejected(
        self, data_dir, tmp_path, capsys, key, value, source, reader
    ):
        config = tmp_path / "provider.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "provider": {key: value}}))
        out = tmp_path / "ledger"
        where = str(data_dir / "index.json") if source == "--index" else "http://127.0.0.1:9/s"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"), source, where, "--out", str(out),
        ])
        assert code == 1
        assert (f"error: config key provider.{key} is not accepted with {source}; "
                f"only {reader} reads it") in capsys.readouterr().err
        assert not out.exists()

    def test_stop_words_path_refused_with_index(self, data_dir, tmp_path, capsys, monkeypatch):
        # an offline run normalizes with the stop words its index records
        stops = write_top_keywords(data_dir, tmp_path / "stops.txt")
        index = tmp_path / "stopped-index.json"
        assert main(["index", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--out", str(index), "--stop-words", str(stops)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(OfflineProvider, "execute", lambda *args: pytest.fail("query sent"))
        config = tmp_path / "stops.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "stop_words_path": str(stops)}))
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(index), "--out", str(out),
        ])
        assert code == 1
        assert ("error: config key stop_words_path is not accepted with --index; only "
                "--endpoint reads it; an index keeps its stop words from "
                "`evoquery index --stop-words`\n") == capsys.readouterr().err
        assert not out.exists()

    def test_missing_stop_word_file_is_usage_failure(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        missing = tmp_path / "absent-stops.txt"
        config = tmp_path / "stops.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "stop_words_path": str(missing)}))
        monkeypatch.setattr(HttpProvider, "execute", lambda *args: pytest.fail("request sent"))
        out = tmp_path / "ledger"
        code = main([
            "evolve", "--config", str(config),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--endpoint", "http://127.0.0.1:9/search", "--out", str(out),
        ])
        assert code == 1
        assert f"stop words not found: {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_seed_material(self, data_dir, tmp_path, capsys):
        code = main([
            "evolve", "--seed-material", str(tmp_path / "absent.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(tmp_path / "ledger"),
        ])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unreachable_endpoint_is_environment_failure(self, data_dir, tmp_path, capsys):
        code = main([
            "evolve", "--seed-material", str(data_dir / "seed.jsonl"),
            "--endpoint", "http://127.0.0.1:9/nothing",
            "--out", str(tmp_path / "ledger"),
        ])
        assert code == 2
        assert "provider error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def _evolve(self, data_dir, out, config=None):
        return main([
            "evolve", "--config", str(config or data_dir / "config.json"),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ])

    def test_provider_failure_leaves_no_out(self, data_dir, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "e1": 5}), encoding="utf-8")
        fail_at = 3 * SMALL_CONFIG["g2"] + 2  # the second query of generation 3
        execute = OfflineProvider.execute
        sent = []

        def fail_in_generation_3(self, *args):
            sent.append(args)
            if len(sent) == fail_at:
                raise ProviderError("engine went away")
            return execute(self, *args)

        monkeypatch.setattr(OfflineProvider, "execute", fail_in_generation_3)
        assert self._evolve(data_dir, tmp_path / "runs" / "ledger", config) == 2
        assert "provider error: engine went away" in capsys.readouterr().err
        assert len(sent) == fail_at
        assert list((tmp_path / "runs").iterdir()) == []

    def test_non_empty_out_refused_before_any_query(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "ledger"
        out.mkdir()
        (out / GENERATIONS_FILE).write_text("kept\n")
        monkeypatch.setattr(OfflineProvider, "execute", lambda *args: pytest.fail("query sent"))
        assert self._evolve(data_dir, out) == 1
        assert f"error: ledger directory {out} exists and is not empty" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["ledger"]
        assert [p.name for p in out.iterdir()] == [GENERATIONS_FILE]
        assert (out / GENERATIONS_FILE).read_text() == "kept\n"

    def test_empty_out_replaced(self, data_dir, tmp_path):
        out = tmp_path / "ledger"
        out.mkdir()
        assert self._evolve(data_dir, out) == 0
        assert main(["replay", "--ledger", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["ledger"]

    def test_leftover_staging_dir_left_alone(self, data_dir, tmp_path):
        # a staging dir that a killed evolve of this same process id could leave
        leftover = tmp_path / f".ledger.{os.getpid()}.tmp"
        leftover.mkdir()
        (leftover / GENERATIONS_FILE).write_text("kept\n")
        assert self._evolve(data_dir, tmp_path / "ledger") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name, "ledger"]
        assert [p.name for p in leftover.iterdir()] == [GENERATIONS_FILE]
        assert (leftover / GENERATIONS_FILE).read_text() == "kept\n"

    def test_outputs_get_a_plain_mkdir_and_open_mode(self, data_dir, tmp_path):
        old_umask = os.umask(0o027)
        try:
            (tmp_path / "plain-dir").mkdir()
            open(tmp_path / "plain-file", "w").close()
            assert main(["index", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--out", str(tmp_path / "index.json")]) == 0
            assert self._evolve(data_dir, tmp_path / "ledger") == 0
        finally:
            os.umask(old_umask)

        def mode(name):
            return stat.S_IMODE((tmp_path / name).stat().st_mode)

        assert mode("ledger") == mode("plain-dir") == 0o750
        assert mode("index.json") == mode("plain-file") == 0o640

    def test_non_http_endpoint_rejected_before_any_request(self, data_dir, tmp_path, capsys):
        code = main([
            "evolve", "--seed-material", str(data_dir / "seed.jsonl"),
            "--endpoint", "file:///etc/hostname",
            "--out", str(tmp_path / "ledger"),
        ])
        assert code == 1
        assert "endpoint must be an http or https URL" in capsys.readouterr().err
        assert not (tmp_path / "ledger").exists()


class TestEvaluate:
    def test_metric_families_both_personas(self, metrics_csv):
        lines = metrics_csv.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        rows = [line.split(",") for line in lines[1:]]
        families = {row[0] for row in rows}
        assert families == {"mean_relevance", "precision", "dcg", "ndcg", "rho12"}
        for family in ("mean_relevance", "precision", "dcg", "ndcg"):
            personas = {row[2] for row in rows if row[0] == family}
            assert personas == {"S", "N"}
        rho_orderings = {row[1] for row in rows if row[0] == "rho12"}
        assert rho_orderings == {"evolved|expert"}

    def test_rows_are_sorted(self, metrics_csv):
        lines = metrics_csv.read_text().splitlines()[1:]
        keys = [tuple(line.split(",")[:4]) for line in lines]
        assert keys == sorted(keys)

    def test_out_into_missing_directory(self, data_dir, run_dir, metrics_csv, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "evaluate", "--ledger", str(run_dir),
            "--qrels", str(data_dir / "qrels.tsv"), "--out", "no/such/m.csv",
        ])
        assert code == 0
        assert Path("no/such/m.csv").read_bytes() == metrics_csv.read_bytes()
        assert [p.name for p in Path("no/such").iterdir()] == ["m.csv"]

    def test_stdout_when_no_out(self, data_dir, run_dir, capsys):
        code = main([
            "evaluate", "--ledger", str(run_dir),
            "--qrels", str(data_dir / "qrels.tsv"), "--persona", "S",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(CSV_HEADER))
        assert ",N," not in out

    def test_two_lists_add_pair_rows(self, data_dir, tmp_path, capsys):
        dataset = build_dataset(0)
        (tmp_path / "one.txt").write_text(
            "\n".join(dataset.cluster_urls[:10]) + "\n# comment\n"
        )
        (tmp_path / "two.txt").write_text("\n".join(dataset.cluster_urls[5:15]) + "\n")
        out = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--list", str(tmp_path / "one.txt"),
            "--list", str(tmp_path / "two.txt"),
            "--qrels", str(data_dir / "qrels.tsv"), "--n", "10", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "overlap_percent,one|two,-,10," in text
        assert "rho12,one|two,S,10," in text
        # 10 shared of 15 distinct urls
        overlap_row = [l for l in text.splitlines() if l.startswith("overlap_percent")][0]
        assert float(overlap_row.split(",")[4]) == pytest.approx(100 * 5 / 15, abs=1e-4)

    def test_truncated_final_results_is_ledger_corrupt(self, data_dir, run_dir, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        final = ledger / FINAL_RESULTS_FILE
        final.write_bytes(final.read_bytes()[:100])
        code = main([
            "evaluate", "--ledger", str(ledger), "--qrels", str(data_dir / "qrels.tsv"),
        ])
        assert code == 1
        assert f"error: {final} is not valid JSON" in capsys.readouterr().err

    def test_final_results_integer_over_digit_limit_names_file(
        self, data_dir, run_dir, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        final = ledger / FINAL_RESULTS_FILE
        final.write_text('[{"position":' + "9" * 5000 + ',"url":"https://a.example/x"}]\n')
        code = main([
            "evaluate", "--ledger", str(ledger), "--qrels", str(data_dir / "qrels.tsv"),
        ])
        assert code == 1
        assert f"error: {final} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["list", "ledger"])
    def test_empty_ordering_exits_0(self, data_dir, run_dir, tmp_path, capsys, source):
        if source == "list":
            listing = tmp_path / "empty.txt"
            listing.write_text("# no urls\n")
            argv = ["--list", str(listing)]
        else:
            ledger = tmp_path / "ledger"
            shutil.copytree(run_dir, ledger)
            (ledger / FINAL_RESULTS_FILE).write_text("[]\n")
            argv = ["--ledger", str(ledger)]
        out = tmp_path / "metrics.csv"
        code = main(["evaluate", *argv, "--qrels", str(data_dir / "qrels.tsv"), "--out", str(out)])
        assert code == 0
        name = "empty" if source == "list" else "evolved"
        assert capsys.readouterr().err == "".join(
            f"note: {name!r} holds no urls: {persona} ndcg is 0 and rho12 is skipped\n"
            for persona in "SN"
        )
        rows = out.read_text().splitlines()[1:]
        assert rows and not any(row.startswith("rho12,") for row in rows)

    def test_zero_grades_noted_once_per_persona(self, tmp_path, capsys):
        listing = tmp_path / "zero.txt"
        listing.write_text("https://a.example/1\nhttps://a.example/2\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("".join(
            f"https://a.example/{i}\tj1\t{persona}\t0\n" for i in (1, 2) for persona in "SN"
        ))
        out = tmp_path / "metrics.csv"
        code = main(["evaluate", "--list", str(listing), "--qrels", str(qrels), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == "".join(
            f"note: 'zero' has no {p} grade above 0: {p} ndcg is 0 and rho12 is skipped\n"
            for p in "SN"
        )
        rows = out.read_text().splitlines()[1:]
        assert [row for row in rows if row.startswith("ndcg,")] == [
            "ndcg,zero,N,20,0.000000", "ndcg,zero,S,20,0.000000"
        ]
        assert not any(row.startswith("rho12,") for row in rows)

    @pytest.mark.parametrize("final, problem", [
        ('[{"url":"https://a.example/1"},{"url":"https://a.example/1"}]',
         ": entry 1 repeats url 'https://a.example/1'"),
        ('{"url":"https://a.example/1"}', " must hold an array"),
        ('[{"url":1}]', ": entry 0 lacks a string url"),
        ("not json", " is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ], ids=["repeated-url", "not-an-array", "non-string-url", "invalid-json"])
    def test_malformed_final_results_names_the_file(
        self, data_dir, run_dir, tmp_path, capsys, final, problem
    ):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        (ledger / FINAL_RESULTS_FILE).write_text(final + "\n")
        code = main([
            "evaluate", "--ledger", str(ledger), "--qrels", str(data_dir / "qrels.tsv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {ledger / FINAL_RESULTS_FILE}{problem}\n"

    def test_needs_some_ordering(self, data_dir):
        code = main(["evaluate", "--qrels", str(data_dir / "qrels.tsv")])
        assert code == 1

    def test_bad_grade_rejected(self, run_dir, tmp_path, capsys):
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("https://site-00.example/c000\tx1\tS\t7\n")
        code = main(["evaluate", "--ledger", str(run_dir), "--qrels", str(qrels)])
        assert code == 1
        assert "grade" in capsys.readouterr().err

    def test_duplicate_url_in_list(self, data_dir, tmp_path, capsys):
        listing = tmp_path / "dup.txt"
        listing.write_text("https://a.example/1\nhttps://a.example/1\n")
        code = main([
            "evaluate", "--list", str(listing), "--qrels", str(data_dir / "qrels.tsv"),
        ])
        assert code == 1
        assert f"{listing}: line 2: repeated url 'https://a.example/1'" in capsys.readouterr().err

    def test_lists_of_one_name_in_two_directories_rejected(self, data_dir, tmp_path, capsys):
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "x.txt").write_text("https://a.example/1\n")
        code = main([
            "evaluate", "--list", str(tmp_path / "a" / "x.txt"),
            "--list", str(tmp_path / "b" / "x.txt"), "--qrels", str(data_dir / "qrels.tsv"),
        ])
        assert code == 1
        assert "ordering names must be distinct, got ['x', 'x']" in capsys.readouterr().err

    def test_line_separator_inside_a_line_keeps_one_url(self, data_dir, tmp_path, capsys):
        # lines end only at line feeds and carriage returns, as in every data file
        listing = tmp_path / "sep.txt"
        listing.write_text("https://a.example/1\u2028https://b.example/2\n", encoding="utf-8")
        code = main([
            "evaluate", "--list", str(listing), "--qrels", str(data_dir / "qrels.tsv"),
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 0
        assert "1 of 1 positions in 'sep'" in capsys.readouterr().err

    def test_unjudged_positions_noted(self, data_dir, tmp_path, capsys):
        listing = tmp_path / "mixed.txt"
        listing.write_text("https://site-05.example/d0000\nhttps://site-00.example/c000\n")
        code = main([
            "evaluate", "--list", str(listing), "--qrels", str(data_dir / "qrels.tsv"),
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 0
        assert "lack" in capsys.readouterr().err

    def test_n_must_be_positive(self, data_dir, run_dir):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "evaluate", "--ledger", str(run_dir),
                "--qrels", str(data_dir / "qrels.tsv"), "--n", "0",
            ])
        assert exc_info.value.code == 1

    def test_broken_ledger_dir(self, data_dir, tmp_path):
        code = main([
            "evaluate", "--ledger", str(tmp_path),
            "--qrels", str(data_dir / "qrels.tsv"),
        ])
        assert code == 1


class TestReport:
    def test_merged_and_charts(self, metrics_csv, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["report", "--metrics", str(metrics_csv), "--out", str(out)])
        assert code == 0
        merged = (out / "merged.csv").read_text()
        assert merged.splitlines()[0] == "run," + ",".join(CSV_HEADER)
        assert "run-a," in merged
        for family in ("mean_relevance", "precision", "dcg", "ndcg", "rho12"):
            assert (out / f"{family}.svg").is_file()
        assert not (out / "overlap_percent.svg").exists()

    def test_deterministic_bytes(self, metrics_csv, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["report", "--metrics", str(metrics_csv), "--out", str(out)]) == 0
        assert (outs[0] / "merged.csv").read_bytes() == (outs[1] / "merged.csv").read_bytes()
        assert (outs[0] / "ndcg.svg").read_bytes() == (outs[1] / "ndcg.svg").read_bytes()

    def test_csv_only_format(self, metrics_csv, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--metrics", str(metrics_csv), "--out", str(out),
                     "--format", "csv"]) == 0
        assert (out / "merged.csv").is_file()
        assert not list(out.glob("*.svg"))

    def test_header_only_input_warns(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        out = tmp_path / "report"
        code = main(["report", "--metrics", str(empty), "--out", str(out)])
        assert code == 0
        assert "report will be empty" in capsys.readouterr().err
        assert (out / "merged.csv").read_text() == "run," + ",".join(CSV_HEADER) + "\n"

    def test_malformed_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("metric,persona,value\nndcg,S,1.0\n")
        code = main(["report", "--metrics", str(bad), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "header" in capsys.readouterr().err

    def test_zero_byte_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        assert main(["report", "--metrics", str(bad), "--out", str(tmp_path / "r")]) == 1

    def test_missing_metrics_file_named(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        code = main(["report", "--metrics", str(missing), "--out", str(tmp_path / "r")])
        assert code == 1
        assert f"error: metrics file not found: {missing}\n" == capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_duplicate_run_names(self, metrics_csv, tmp_path):
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        copy = other_dir / metrics_csv.name
        copy.write_bytes(metrics_csv.read_bytes())
        code = main([
            "report", "--metrics", str(metrics_csv), str(copy),
            "--out", str(tmp_path / "r"),
        ])
        assert code == 1


class TestReplay:
    def test_verifies_clean_ledger(self, run_dir, capsys):
        assert main(["replay", "--ledger", str(run_dir)]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_detects_tampering(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ledger"
        assert main([
            "evolve", "--config", str(data_dir / "config.json"),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(data_dir / "index.json"), "--out", str(out),
        ]) == 0
        path = out / GENERATIONS_FILE
        lines = path.read_text().splitlines()
        payload = parse_record_line(lines[0], 1, GENERATIONS_FILE)
        payload["population_fitness"] = payload["population_fitness"] + 0.25
        lines[0] = canonical_json(payload)
        path.write_text("\n".join(lines) + "\n")
        code = main(["replay", "--ledger", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "divergence" in err and "population_fitness" in err
        assert f"stored {payload['population_fitness']!r}" in err

    def test_missing_ledger(self, tmp_path, capsys):
        assert main(["replay", "--ledger", str(tmp_path)]) == 1

    def test_replays_from_another_working_directory(self, data_dir, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        for name in ("config.json", "seed.jsonl", "index.json"):
            shutil.copy(data_dir / name, work / name)
        monkeypatch.chdir(work)
        assert main([
            "evolve", "--config", "config.json", "--seed-material", "seed.jsonl",
            "--index", "index.json", "--out", "ledger",
        ]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        assert main(["replay", "--ledger", "../work/ledger"]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_relative_stop_words_replay_from_another_working_directory(
        self, data_dir, run_dir, tmp_path, monkeypatch, capsys
    ):
        # the index records its stop words: the run leaves them out of its queries, and
        # the stop-word file is no input of the ledger
        work = tmp_path / "work"
        work.mkdir()
        stop_words = set(write_top_keywords(data_dir, work / "stops.txt").read_text().split())
        assert ledger_terms(run_dir) & stop_words  # the run without them sends some
        monkeypatch.chdir(work)
        assert main(["index", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--out", "index.json", "--stop-words", "stops.txt"]) == 0
        assert main([
            "evolve", "--config", str(data_dir / "config.json"),
            "--seed-material", str(data_dir / "seed.jsonl"), "--index", "index.json",
            "--out", "ledger",
        ]) == 0
        assert ledger_terms(work / "ledger") and not ledger_terms(work / "ledger") & stop_words
        inputs = json.loads((work / "ledger" / "config.json").read_text())["inputs"]
        assert sorted(inputs) == [
            "index_path", "index_sha256", "seed_material_path", "seed_material_sha256"
        ]
        (work / "stops.txt").unlink()
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["replay", "--ledger", "work/ledger"]) == 0
        assert "replay verified" in capsys.readouterr().out

    @pytest.mark.parametrize("recorded", [None, 1, 2, 4, "3"])
    def test_other_ledger_format_refused(self, run_dir, tmp_path, capsys, recorded):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        config = ledger / "config.json"
        payload = json.loads(config.read_text())
        del payload["ledger_format"]
        if recorded is not None:
            payload["ledger_format"] = recorded
        config.write_text(canonical_json(payload) + "\n")
        assert main(["replay", "--ledger", str(ledger)]) == 1
        found = 1 if recorded is None else recorded
        assert f"holds ledger format {found!r}, but only format 3" in capsys.readouterr().err

    def test_final_results_integer_over_digit_limit_names_file(self, run_dir, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        final = ledger / FINAL_RESULTS_FILE
        text, count = re.subn(r'"position":\d+', '"position":' + "9" * 5000, final.read_text(), 1)
        assert count == 1
        final.write_text(text)
        assert main(["replay", "--ledger", str(ledger)]) == 1
        assert f"error: {final} is not valid JSON" in capsys.readouterr().err

    def test_config_integer_over_digit_limit_names_file(self, run_dir, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        config = ledger / "config.json"
        text, count = re.subn(r'"g2":\d+', '"g2":' + "9" * 5000, config.read_text())
        assert count == 1
        config.write_text(text)
        assert main(["replay", "--ledger", str(ledger)]) == 1
        assert f"error: {config} is not valid JSON" in capsys.readouterr().err

    def test_changed_index_names_both_digests(self, data_dir, tmp_path, capsys):
        index = tmp_path / "index.json"
        shutil.copy(data_dir / "index.json", index)
        out = tmp_path / "ledger"
        assert main(["evolve", "--config", str(data_dir / "config.json"),
                     "--seed-material", str(data_dir / "seed.jsonl"),
                     "--index", str(index), "--out", str(out)]) == 0
        recorded = hashlib.sha256(index.read_bytes()).hexdigest()
        with open(index, "a", encoding="utf-8") as fh:
            fh.write("\n")
        changed = hashlib.sha256(index.read_bytes()).hexdigest()
        capsys.readouterr()
        assert main(["replay", "--ledger", str(out)]) == 1
        assert f"changed since the run (sha256 {changed} != {recorded})" in capsys.readouterr().err

    def test_missing_absolute_input_names_the_config(self, run_dir, tmp_path, capsys):
        # an absolute recorded path replaces the ledger's, so the path alone names no ledger
        ledger, missing = tmp_path / "ledger", tmp_path / "absent.json"
        shutil.copytree(run_dir, ledger)
        config = ledger / "config.json"
        text, count = re.subn(r'"index_path":"[^"]*"', f'"index_path":"{missing}"',
                              config.read_text())
        assert count == 1
        config.write_text(text)
        assert main(["replay", "--ledger", str(ledger)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config} records index {str(missing)!r}, which no longer exists\n")

    def test_changed_stop_words_rejected(self, data_dir, tmp_path, capsys):
        # other stop words make another index, whose sha256 replay refuses
        stops = write_top_keywords(data_dir, tmp_path / "stops.txt")
        index = tmp_path / "stopped-index.json"
        index_argv = ["index", "--corpus", str(data_dir / "corpus.jsonl"),
                      "--out", str(index), "--stop-words", str(stops)]
        assert main(index_argv) == 0
        out = tmp_path / "ledger"
        assert main([
            "evolve", "--config", str(data_dir / "config.json"),
            "--seed-material", str(data_dir / "seed.jsonl"),
            "--index", str(index), "--out", str(out),
        ]) == 0
        assert main(["replay", "--ledger", str(out)]) == 0
        stops.write_text("unrelated\n")
        assert main(index_argv) == 0
        capsys.readouterr()
        assert main(["replay", "--ledger", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {out / 'config.json'} records index " in err
        assert ", which changed since the run (sha256 " in err

    @pytest.mark.parametrize("edit, problem", [
        (lambda c: c.update(g2="x"), " holds an invalid config: g2 must be an integer, got 'x'"),
        (lambda c: c.update(retries=3),
         " holds an invalid config: unknown config keys: ['retries']"),
        (lambda c: c.update(stop_words_path="stops.txt"), " names a stop_words_path, but an "
         "offline run takes its stop words from its index"),
    ], ids=["bad-value", "unknown-key", "stop-words-path"])
    def test_invalid_config_section_names_the_file(self, run_dir, tmp_path, capsys, edit, problem):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        config = ledger / "config.json"
        payload = json.loads(config.read_text())
        edit(payload["config"])
        config.write_text(canonical_json(payload) + "\n")
        assert main(["replay", "--ledger", str(ledger)]) == 1
        assert capsys.readouterr().err == f"error: {config}{problem}\n"

    @pytest.mark.parametrize("corrupt, problem, before_any_query", BROKEN_LEDGERS)
    def test_broken_ledger_file_named(
        self, run_dir, tmp_path, capsys, monkeypatch, corrupt, problem, before_any_query
    ):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        path = corrupt(ledger)
        if before_any_query:
            monkeypatch.setattr(OfflineProvider, "execute", lambda *args: pytest.fail("query sent"))
        assert main(["replay", "--ledger", str(ledger)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{problem}")


def test_cli_import_loads_no_third_party_http_client():
    # a fresh interpreter, so modules other tests imported do not count;
    # only HttpProvider needs the standard library's HTTP stack, and loads it itself
    package_root = str(Path(evoquery.__file__).resolve().parents[1])
    unwanted = ["requests", "urllib.request", "http.client", "email", "ssl"]
    code = f"import sys; sys.path.insert(0, {package_root!r}); import evoquery.cli; " \
        f"print([name for name in {unwanted!r} if name in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_0(data_dir, unbuffered):
    # the pipe's read end is closed before the command writes, as when the
    # reader of `evoquery ... | head` has already exited
    package_root = str(Path(evoquery.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = package_root
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "evoquery.cli", "keywords",
             "--corpus", str(data_dir / "seed.jsonl")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def _non_utf8_copy(source, target, line_no):
    """``source`` with a 0xE9 byte at the start of line ``line_no``."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = b"\xe9" + lines[line_no - 1]
    target.write_bytes(b"".join(lines))
    return target


def _corpus_case(data_dir, tmp_path):
    bad = _non_utf8_copy(data_dir / "corpus.jsonl", tmp_path / "corpus.jsonl", 300)
    return ["index", "--corpus", str(bad), "--out", str(tmp_path / "index.json")], bad, 300


def _stop_words_case(data_dir, tmp_path):
    bad = tmp_path / "stops.txt"
    bad.write_bytes(b"the\nand\xe9\n")
    argv = ["index", "--corpus", str(data_dir / "corpus.jsonl"), "--stop-words", str(bad),
            "--out", str(tmp_path / "index.json")]
    return argv, bad, None


def _ordering(tmp_path):
    ordering = tmp_path / "list.txt"
    ordering.write_text("https://site-00.example/c000\n", encoding="utf-8")
    return ordering


def _qrels(tmp_path):
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("https://a.example/1\tj1\tS\t3\n", encoding="utf-8")
    return qrels


def _qrels_case(data_dir, tmp_path):
    bad = _non_utf8_copy(data_dir / "qrels.tsv", tmp_path / "qrels.tsv", 50)
    return ["evaluate", "--list", str(_ordering(tmp_path)), "--qrels", str(bad)], bad, 50


def _generations_case(data_dir, tmp_path):
    ledger = tmp_path / "ledger"
    assert main([
        "evolve", "--config", str(data_dir / "config.json"),
        "--seed-material", str(data_dir / "seed.jsonl"),
        "--index", str(data_dir / "index.json"), "--out", str(ledger),
    ]) == 0
    bad = ledger / GENERATIONS_FILE
    _non_utf8_copy(bad, bad, 2)
    return ["replay", "--ledger", str(ledger)], bad, 2


def _list_case(data_dir, tmp_path):
    bad = tmp_path / "list.txt"
    bad.write_bytes(b"https://site-00.example/c000\n\xe9https://site-00.example/c001\n")
    return ["evaluate", "--list", str(bad), "--qrels", str(data_dir / "qrels.tsv")], bad, 2


def _metrics_case(data_dir, tmp_path):
    metrics = tmp_path / "metrics.csv"
    assert main(["evaluate", "--list", str(_ordering(tmp_path)),
                 "--qrels", str(data_dir / "qrels.tsv"), "--out", str(metrics)]) == 0
    bad = _non_utf8_copy(metrics, metrics, 3)
    return ["report", "--metrics", str(bad), "--out", str(tmp_path / "report")], bad, 3


@pytest.mark.parametrize(
    "case",
    [_corpus_case, _stop_words_case, _qrels_case, _generations_case, _list_case, _metrics_case],
    ids=["corpus", "stop-words", "qrels", "generations", "list", "metrics"],
)
def test_non_utf8_input_names_file(data_dir, tmp_path, capsys, case):
    argv, bad, line_no = case(data_dir, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err
    if line_no is not None:
        assert f"{bad}: line {line_no}:" in err


@pytest.mark.parametrize(
    "kind, text, argv_of",
    [
        ("corpus", '{"id": 1\n', lambda bad, out: ["keywords", "--corpus", str(bad)]),
        ("corpus", '{"id": "d1", "url": "https://[oops/x", "host": "", "title": "", "body": ""}\n',
         lambda bad, out: ["keywords", "--corpus", str(bad)]),
        ("corpus", '{"id": "d1", "url": "", "host": "", "title": "", "body": "\\ud800"}\n',
         lambda bad, out: ["index", "--corpus", str(bad), "--out", str(out / "index.json")]),
        ("qrels", "https://site-00.example/c000\tj1\tS\tthree\n",
         lambda bad, out: ["evaluate", "--list", str(_ordering(out)), "--qrels", str(bad)]),
        ("metrics", "metric,ordering,persona,n,value\nndcg,evolved,S,twenty,0.5\n",
         lambda bad, out: ["report", "--metrics", str(bad), "--out", str(out / "report")]),
        ("metrics", 'metric,ordering,persona,n,value\nndcg,"two\nlines",S,20,0.5\n'
         "ndcg,evolved,S,twenty,0.5\n",
         lambda bad, out: ["report", "--metrics", str(bad), "--out", str(out / "report")]),
        ("metrics", "metric,ordering,persona,n,value\nndcg,evolved,S,20,nan\n",
         lambda bad, out: ["report", "--metrics", str(bad), "--out", str(out / "report")]),
        ("metrics", "metric,ordering,persona,n,value\nndcg,evolved,S,20,-inf\n",
         lambda bad, out: ["report", "--metrics", str(bad), "--out", str(out / "report")]),
        ("metrics", "metric,ordering,persona,n,value\nndcg,evolved,S,20,0.5\n"
         f"ndcg,other,S,20,{'1' * 131_073}\n",
         lambda bad, out: ["report", "--metrics", str(bad), "--out", str(out / "report")]),
        ("list", "https://a.example/1\nhttps://b.example/2\nhttps://a.example/1\n",
         lambda bad, out: ["evaluate", "--list", str(bad), "--qrels", str(_qrels(out))]),
        ("metrics", "metric,ordering,persona,n,value\nndcg,evolved,S,20,0.5\n"
         "ndcg,evolved,S,20,0.9\n",
         lambda bad, out: ["report", "--metrics", str(bad), "--out", str(out / "report")]),
    ],
    ids=["corpus", "corpus-url", "corpus-lone-surrogate", "qrels", "metrics",
         "metrics-quoted-newline", "metrics-nan",
         "metrics-inf", "metrics-field-limit", "list-repeated-url", "metrics-repeated-row"],
)
def test_bad_line_names_file(tmp_path, capsys, kind, text, argv_of):
    bad = tmp_path / f"bad-{kind}"
    bad.write_text(text, encoding="utf-8")
    assert main(argv_of(bad, tmp_path)) == 1
    line_no = text.count("\n")
    assert f"error: {bad}: line {line_no}: " in capsys.readouterr().err


def ledger_terms(ledger):
    """Every term of every query that a ledger records."""
    lines = (ledger / GENERATIONS_FILE).read_text(encoding="utf-8").splitlines()
    return {term for line in lines for query in json.loads(line)["queries"]
            for term in query["terms"]}


def write_top_keywords(data_dir, path, k=6):
    """A stop-word file of the seed material's top ``k`` keywords."""
    pool = build_keyword_pool(load_corpus(data_dir / "seed.jsonl"), k)
    path.write_text("\n".join([t for t, _ in pool]) + "\n", encoding="utf-8")
    return path


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["transmogrify"])
        assert exc_info.value.code == 1

    def test_unknown_flag(self, data_dir):
        with pytest.raises(SystemExit) as exc_info:
            main(["index", "--corpus", str(data_dir / "corpus.jsonl"),
                  "--out", "x", "--fast"])
        assert exc_info.value.code == 1

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1


class TestOutIsNotAnInput:
    """An --out that names one of the command's own input files exits 1 before
    any work, naming both flags, and leaves the input as it was."""

    @staticmethod
    def refused(args, victim, flag, capsys):
        before = victim.read_bytes()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"--out would write {args[args.index('--out') + 1]}" in err
        assert f"which is the {flag} file" in err
        assert victim.read_bytes() == before

    def test_index_onto_its_corpus(self, data_dir, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        shutil.copy(data_dir / "corpus.jsonl", corpus)
        self.refused(["index", "--corpus", str(corpus), "--out", str(corpus)], corpus,
                     "--corpus", capsys)
        # another spelling of the same path is the same file
        self.refused(["index", "--corpus", str(corpus), "--out", str(tmp_path / "." / "c.jsonl")],
                     corpus, "--corpus", capsys)

    def test_index_onto_its_stop_words(self, data_dir, tmp_path, capsys):
        stops = tmp_path / "stops.txt"
        stops.write_text("the\n")
        self.refused(["index", "--corpus", str(data_dir / "corpus.jsonl"),
                      "--stop-words", str(stops), "--out", str(stops)], stops, "--stop-words", capsys)

    def test_evaluate_onto_its_qrels(self, data_dir, run_dir, tmp_path, capsys):
        qrels = tmp_path / "q.tsv"
        shutil.copy(data_dir / "qrels.tsv", qrels)
        self.refused(["evaluate", "--ledger", str(run_dir), "--qrels", str(qrels),
                      "--out", str(qrels)], qrels, "--qrels", capsys)

    def test_evaluate_onto_its_ledger_final_results(self, data_dir, run_dir, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        shutil.copytree(run_dir, ledger)
        final = ledger / FINAL_RESULTS_FILE
        self.refused(["evaluate", "--ledger", str(ledger), "--qrels", str(data_dir / "qrels.tsv"),
                      "--out", str(final)], final, "--ledger", capsys)

    def test_evaluate_onto_one_of_its_lists(self, data_dir, tmp_path, capsys):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("https://a/1\n")
        second.write_text("https://b/2\n")
        self.refused(["evaluate", "--list", str(first), "--list", str(second),
                      "--qrels", str(data_dir / "qrels.tsv"), "--out", str(second)],
                     second, "--list", capsys)

    @pytest.mark.parametrize("name, fmt", [("merged.csv", "both"), ("ndcg.svg", "svg")])
    def test_report_over_its_metrics(self, metrics_csv, tmp_path, capsys, name, fmt):
        out = tmp_path / "report"
        out.mkdir()
        victim = out / name
        shutil.copy(metrics_csv, victim)
        before = victim.read_bytes()
        assert main(["report", "--metrics", str(victim), "--out", str(out), "--format", fmt]) == 1
        assert f"which is the --metrics file {victim}" in capsys.readouterr().err
        assert victim.read_bytes() == before

    def test_report_format_that_does_not_write_it_runs(self, metrics_csv, tmp_path):
        out = tmp_path / "report"
        out.mkdir()
        shutil.copy(metrics_csv, out / "ndcg.svg")
        assert main(["report", "--metrics", str(out / "ndcg.svg"), "--out", str(out),
                     "--format", "csv"]) == 0


class TestOutIsADirectory:
    """An --out that names an existing directory exits 1 naming --out before any
    work; the write that would fail on it comes only after all of it."""

    @staticmethod
    def refused(args, out, monkeypatch, capsys, work):
        def no_work(*_):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(f"evoquery.cli.{work}", no_work)
        assert main(args) == 1
        assert f"error: --out would write {out}, which is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_index(self, data_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        self.refused(["index", "--corpus", str(data_dir / "corpus.jsonl"), "--out", str(out)],
                     out, monkeypatch, capsys, "load_corpus")

    def test_evaluate(self, data_dir, run_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        self.refused(["evaluate", "--ledger", str(run_dir), "--qrels", str(data_dir / "qrels.tsv"),
                      "--out", str(out)], out, monkeypatch, capsys, "load_qrels")
