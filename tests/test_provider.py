import json
import math
import random
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from unittest import mock
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

import evoquery.provider
from evoquery.corpus import LEMMA_MEMO_LIMIT, Document, SuffixNormalizer, load_corpus, url_authority
from evoquery.errors import ParseError, ProviderError
from evoquery.provider import (
    BM25_B,
    BM25_K1,
    DOC_COLUMNS,
    INDEX_FORMAT,
    HttpProvider,
    OfflineProvider,
    build_index,
    load_index,
    parse_query,
    save_index,
)
from reference_run import reference_bm25, reference_execute, reference_index


def doc(doc_id, body, title="t", host="example.org"):
    return Document(
        id=doc_id,
        url=f"https://{host}/{doc_id}",
        host=host,
        title=title,
        body=body,
    )


def ranked_ids(hits):
    return [h.doc_url.rsplit("/", 1)[1] for h in hits]


def format_2(index, docs):
    """``index`` of ``docs`` in ``reference_index``'s shape: postings of {doc id: term count},
    docs by id, each with its url's host and the length its term counts sum to;
    positions run in id order, so the sorted ids name them."""
    ids = sorted(d.id for d in docs)
    postings = {
        lemma: dict(zip([ids[d] for d in plist], index.term_counts[lemma]))
        for lemma, plist in index.postings.items()
    }
    lengths = Counter()
    for counts in postings.values():
        lengths.update(counts)
    rows = zip(*(index.docs[name] for name in DOC_COLUMNS))
    return SimpleNamespace(
        postings=postings,
        docs={
            i: {**dict(zip(DOC_COLUMNS, row)), "host": url_authority(row[0]), "length": lengths[i]}
            for i, row in zip(ids, rows, strict=True)
        },
        avg_doc_len=sum(lengths.values()) / index.doc_count,
        doc_count=index.doc_count,
    )


class TestBuildIndex:
    def test_hand_counted_postings(self):
        index = build_index([doc("d1", "aa aa bb")])
        assert (index.postings["aa"], index.term_counts["aa"]) == ([0], [2])
        assert (index.postings["bb"], index.term_counts["bb"]) == ([0], [1])
        assert index.docs == {"url": ["https://example.org/d1"], "title": ["t"],
                              "text": ["aa aa bb"]}

    def test_identical_documents_get_identical_postings(self):
        index = build_index([doc("d1", "aa bb"), doc("d2", "aa bb")])
        assert (index.postings["aa"], index.term_counts["aa"]) == ([0, 1], [1, 1])

    def test_stored_text_whitespace_collapsed(self):
        index = build_index([doc("d1", "word  \n word\tword")])
        assert index.docs["text"] == ["word word word"]

    def test_collapsed_body_is_stored_as_itself(self):
        bodies = ["word word", "word  word", "word\tword", "word\nword", " word word"]
        texts = build_index([doc(f"d{i}", body) for i, body in enumerate(bodies)]).docs["text"]
        assert texts[0] is bodies[0]
        assert texts[1:] == ["word word"] * 4

    @pytest.mark.parametrize(
        "stop_words", [frozenset(), frozenset({"wear", "the"})], ids=["no-stop-words", "stop-words"]
    )
    def test_full_lemma_memo_changes_nothing(self, stop_words):
        # dropped tokens, suffixes and stop words, none of them in the memo yet
        docs = [doc("d3", "wear Wearing 7 worn. wears a the oil"), doc("d1", "oil oiled é"),
                doc("d2", "7 a ! the")]
        normalizer = SuffixNormalizer(stop_words)
        # keys with a space: body.split() never yields such a token
        normalizer._lemmas.update((f" {i}", None) for i in range(LEMMA_MEMO_LIMIT))
        index = build_index(docs, normalizer)
        assert format_2(index, docs) == reference_index(docs, SuffixNormalizer(stop_words))
        assert len(normalizer._lemmas) == LEMMA_MEMO_LIMIT

    def test_snippet_truncated_at_query_time(self):
        body = "word " * 100
        provider = OfflineProvider(index=build_index([doc("d1", body)]))
        hits = provider.execute("word", 1)
        assert len(hits[0].snippet) <= 240

    def test_full_body_snippets_flag(self):
        body = "word " * 100
        provider = OfflineProvider(
            index=build_index([doc("d1", body)]), full_body_snippets=True
        )
        hits = provider.execute("word", 1)
        assert len(hits[0].snippet.split()) == 100

    def test_round_trip_through_disk(self, tmp_path):
        index = build_index([doc("d1", "aa bb"), doc("d2", "bb cc")])
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.docs == index.docs
        assert loaded.postings == index.postings
        assert loaded.term_counts == index.term_counts
        assert loaded.stop_words == index.stop_words

    def test_load_rejects_non_index_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"foo": 1}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_index(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError):
            load_index(path)

    def test_integer_over_digit_limit_names_file(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index([doc("d1", "aa bb")]), path)
        text, counts = path.read_text(), '"term_counts":{"aa":[1]'
        path.write_text(text.replace(counts, counts[:-1] + "9" * 5000 + "]"))
        assert path.read_text() != text
        with pytest.raises(ParseError, match=f"^index {path} is not valid JSON: Exceeds the limit"):
            load_index(path)


class TestIndexFile:
    @given(
        bodies=st.lists(
            st.lists(st.sampled_from(["aa", "Bb", "bbs", "cc.", "ccing", "7", "dd", "é"]),
                     max_size=10),
            min_size=1,
            max_size=8,
        ),
        stop_words=st.sets(st.sampled_from(["aa", "bb", "cc"]), max_size=2),
        hosts=st.lists(st.sampled_from(["a.org", "b.org:8080", "u@c.org", "[::1]"]),
                       min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_build_matches_reference(self, bodies, stop_words, hosts):
        # ids run against insertion order, so corpus order is not id order
        docs = [doc(f"d{len(bodies) - i}", " ".join(b), host=hosts[i])
                for i, b in enumerate(bodies)]
        normalizer = SuffixNormalizer(frozenset(stop_words))
        expected = reference_index(docs, normalizer)
        index = build_index(docs, normalizer)
        assert index.docs["url"] == [expected.docs[i]["url"] for i in sorted(expected.docs)]
        assert index.term_counts.keys() == index.postings.keys()
        assert all(p == sorted(set(p)) for p in index.postings.values())
        assert format_2(index, docs) == expected
        assert index.stop_words == sorted(stop_words)
        # a loaded index derives each doc's length and host: BM25 norms from the
        # docs' own lemma counts, and each hit's host the document's
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, Path(tmp) / "index.json")
            provider = OfflineProvider(index=load_index(Path(tmp) / "index.json"))
        by_id = sorted(docs, key=lambda d: d.id)
        lengths = [len(normalizer.normalize(d.body)) for d in by_id]
        avg = sum(lengths) / len(lengths)
        assert provider._norm == [
            BM25_K1 * (1.0 - BM25_B + BM25_B * (length / avg if avg > 0 else 0.0))
            for length in lengths
        ]
        hits = [provider._hit(d) for d in range(len(by_id))]
        assert [hit.doc_host for hit in hits] == [d.host for d in by_id]

    def test_compact_sorted_format_6(self, tmp_path):
        normalizer = SuffixNormalizer(frozenset({"dd", "cc"}))
        path = tmp_path / "index.json"
        save_index(build_index([doc("d1", "bb aa cc"), doc("d2", "aa")], normalizer), path)
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert text == json.dumps(
            payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")
        )
        assert (payload["format"], payload["version"]) == (INDEX_FORMAT, 6)
        assert sorted(payload) == ["docs", "format", "postings", "stop_words", "term_counts",
                                   "version"]
        assert sorted(payload["docs"]) == ["text", "title", "url"]
        assert payload["stop_words"] == ["cc", "dd"]
        assert payload["docs"]["url"] == ["https://example.org/d1", "https://example.org/d2"]
        assert payload["postings"] == {"aa": [0, 1], "bb": [0]}
        assert payload["term_counts"] == {"aa": [1, 1], "bb": [1]}
        assert load_index(path).stop_words == ["cc", "dd"]

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index([doc("d1", "aa")]), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["stop_words"]
        path.write_text(json.dumps({**payload, "version": 1}), encoding="utf-8")
        with pytest.raises(ParseError, match="unsupported index version 1"):
            load_index(path)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match="stop_words must be a sorted list of distinct"):
            load_index(path)


# Text that JSON must escape or may keep raw: quotes, backslashes, control
# characters, the line and paragraph separators, and non-ASCII characters
# inside and outside the BMP
INDEX_TEXT = st.text(st.sampled_from('ab é中😀"\\\x00\x1f\x7f\u2028\u2029\t\n'), max_size=12)


def whole_file_text(index):
    """The index file as one json.dumps string, the oracle for save_index's pieces."""
    payload = {
        "format": INDEX_FORMAT, "version": 6, "stop_words": index.stop_words,
        "docs": index.docs, "postings": index.postings, "term_counts": index.term_counts,
    }
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


class TestSaveIndex:
    @given(
        rows=st.lists(
            st.tuples(INDEX_TEXT, INDEX_TEXT, INDEX_TEXT, INDEX_TEXT, INDEX_TEXT),
            min_size=4, max_size=12, unique_by=lambda row: row[0],
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_one_shot_dump(self, rows):
        # corpus order runs against id order, over more docs than one slice holds
        docs = [Document(*row) for row in sorted(rows, reverse=True)]
        index = build_index(docs)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(evoquery.provider, "INDEX_SLICE", 3):
            path = Path(tmp) / "index.json"
            save_index(index, path)
            assert path.read_bytes() == whole_file_text(index).encode("utf-8")
            assert [p.name for p in Path(tmp).iterdir()] == ["index.json"]

    @pytest.fixture(scope="class")
    def eightfold_index(self):
        """The bundled corpus eight times over under fresh ids: 4,000 docs."""
        bundled = load_corpus(Path(__file__).parents[1] / "data" / "corpus.jsonl")
        docs = [d._replace(id=f"{d.id}-{k}") for k in range(8) for d in bundled]
        return build_index(docs)

    def test_holds_a_small_part_of_the_file(self, eightfold_index, tmp_path):
        index = eightfold_index
        path = tmp_path / "index.json"
        tracemalloc.start()
        try:
            save_index(index, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.doc_count >= 4000
        assert peak < path.stat().st_size / 4

    def test_load_makes_one_int_per_distinct_value(self, eightfold_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(eightfold_index, path)
        index = load_index(path)
        assert index == eightfold_index
        counts = [tf for tfs in index.term_counts.values() for tf in tfs]
        positions = [d for plist in index.postings.values() for d in plist]
        assert len(positions) > 10 * index.doc_count
        assert len(set(map(id, positions + counts))) <= index.doc_count + len(set(counts))


class TestScoreBm25:
    """BM25 as execute ranks by it; hand values pin the reference scorer."""

    def test_absent_term_contributes_zero(self):
        provider = OfflineProvider(index=build_index([doc("d1", "aa bb"), doc("d2", "cc dd")]))
        assert provider.execute("zz", 10) == []
        assert provider.execute('"aa" "zz"', 10) == []
        assert provider.execute("aa zz", 10) == provider.execute("aa", 10)

    def test_single_doc_idf(self):
        docs = [doc("d1", "aa")]
        # N=1, n_t=1: idf = ln(1 + 0.5/1.5); tf=1 at avg length → factor 1.0
        assert reference_bm25(reference_index(docs), ["aa"], "d1") == pytest.approx(
            math.log(1 + 0.5 / 1.5), abs=1e-12
        )
        assert ranked_ids(OfflineProvider(index=build_index(docs)).execute("aa", 10)) == ["d1"]

    def test_average_length_tf1_equals_idf(self):
        # every doc has length 2 = avg; "aa" is in one doc, "bb" in two
        docs = [doc("d1", "bb xx"), doc("d2", "bb yy"), doc("d3", "aa zz")]
        ref = reference_index(docs)
        idf = lambda n_t: math.log(1 + (3 - n_t + 0.5) / (n_t + 0.5))
        assert reference_bm25(ref, ["aa"], "d3") == pytest.approx(idf(1), abs=1e-12)
        assert reference_bm25(ref, ["bb"], "d1") == pytest.approx(idf(2), abs=1e-12)
        # the rarer term's idf ranks its doc first, against doc id order;
        # equal tf, df and length tie, broken by doc id
        hits = OfflineProvider(index=build_index(docs)).execute("aa bb", 10)
        assert ranked_ids(hits) == ["d3", "d1", "d2"]

    def test_monotone_in_tf(self):
        docs = [doc(f"d{i}", " ".join(["aa"] * i + ["bb"] * (6 - i))) for i in range(1, 6)]
        hits = OfflineProvider(index=build_index(docs)).execute("aa", 10)
        # more occurrences rank higher, against doc id order, so no two tie
        assert ranked_ids(hits) == ["d5", "d4", "d3", "d2", "d1"]

    @given(
        bodies=st.lists(
            st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=10),
            min_size=1,
            max_size=8,
        ),
        terms=st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "zz"]), min_size=1, max_size=6),
        quoted=st.booleans(),
        limit=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_document_scorer(self, bodies, terms, quoted, limit):
        # ids run against insertion order so tie-breaking is exercised
        docs = [doc(f"d{len(bodies) - i}", " ".join(b)) for i, b in enumerate(bodies)]
        query = " ".join(f'"{t}"' for t in terms) if quoted else " ".join(terms)
        assert OfflineProvider(index=build_index(docs)).execute(query, limit) == reference_execute(
            reference_index(docs), query, limit
        )


def tied_corpus():
    # ids run against corpus order ("d10" < "d2") and bodies repeat, so many docs tie
    bodies = ["aa bb cc", "aa aa dd", "bb cc", "ee aa bb", "cc", "dd dd ee aa"]
    return [doc(f"d{i}", bodies[i % len(bodies)]) for i in range(1, 41)]


class TestHitListsMatchFormat2Oracle:
    """Seeded queries: format-3 hits equal the reference scorer over format-2 dicts."""

    @pytest.mark.parametrize("corpus", ["bundled", "tied"])
    def test_hit_lists_match(self, corpus, tmp_path):
        docs = (
            load_corpus(Path(__file__).parents[1] / "data" / "corpus.jsonl")
            if corpus == "bundled" else tied_corpus()
        )
        path = tmp_path / "index.json"
        save_index(build_index(docs), path)
        provider = OfflineProvider(index=load_index(path))
        ref = reference_index(docs)
        vocabulary = sorted(ref.postings)
        rng = random.Random(f"format-3/{corpus}")
        for _ in range(1500):
            pool = vocabulary
            if rng.random() < 0.5:  # one document's lemmas, so a quoted query can match
                chosen = rng.choice(docs).id
                pool = [t for t in vocabulary if chosen in ref.postings[t]]
            terms = [
                rng.choice(["zzz", "qqq"]) if rng.random() < 0.1 else rng.choice(pool)
                for _ in range(rng.randint(1, 4))
            ]
            quoted = rng.random() < 0.5
            query = " ".join(f'"{t}"' for t in terms) if quoted else " ".join(terms)
            limit = rng.randint(1, 100)
            assert provider.execute(query, limit) == reference_execute(ref, query, limit), query


class TestOfflineProvider:
    def make_provider(self):
        docs = [
            doc("d1", "wear friction metal", host="a.org"),
            doc("d2", "wear wear wear", host="b.org"),
            doc("d3", "oil lubricant", host="c.org"),
        ]
        return OfflineProvider(index=build_index(docs))

    def test_absent_term_yields_empty(self):
        assert self.make_provider().execute("zzz", 10) == []

    def test_limit_one_returns_single_top_hit(self):
        provider = self.make_provider()
        hits = provider.execute("wear", 1)
        assert len(hits) == 1
        assert hits == provider.execute("wear", 10)[:1]

    def test_lemma_variant_is_disjunctive(self):
        hits = self.make_provider().execute("wear oil", 10)
        assert len(hits) == 3  # d1, d2 match "wear"; d3 matches "oil"

    def test_quoted_variant_is_conjunctive(self):
        provider = self.make_provider()
        hits = provider.execute('"wear" "friction"', 10)
        assert [h.doc_url for h in hits] == ["https://a.org/d1"]
        assert provider.execute('"wear" "oil"', 10) == []

    def test_query_terms_not_restemmed(self):
        # "glas" is the stored lemma of "glass"; re-stemming the query
        # would turn it into "gla" and miss the posting
        provider = OfflineProvider(index=build_index([doc("d1", "glass")]))
        hits = provider.execute("glas", 10)
        assert len(hits) == 1

    def test_deterministic_across_calls(self):
        provider = self.make_provider()
        assert provider.execute("wear oil", 10) == provider.execute("wear oil", 10)

    def test_ranking_matches_brute_force_oracle(self):
        docs = [
            doc(f"d{i}", " ".join(["aa"] * (i % 4) + ["bb"] * (i % 3) + ["cc"]))
            for i in range(1, 12)
        ]
        ref = reference_index(docs)
        provider = OfflineProvider(index=build_index(docs))
        hits = provider.execute("aa bb", 20)
        matching = [d.id for d in docs if {"aa", "bb"} & set(d.body.split())]
        expected = sorted(
            matching, key=lambda i_: (-reference_bm25(ref, ["aa", "bb"], i_), i_)
        )
        assert ranked_ids(hits) == expected

    def test_tie_broken_by_doc_id(self):
        index = build_index([doc("d2", "aa"), doc("d1", "aa")])
        hits = OfflineProvider(index=index).execute("aa", 10)
        assert [h.doc_url for h in hits] == [
            "https://example.org/d1",
            "https://example.org/d2",
        ]

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20)
    def test_limit_respected(self, limit):
        hits = self.make_provider().execute("wear oil lubricant metal", limit)
        assert len(hits) <= limit


class TestAnswerMemo:
    """Repeated (query string, limit) pairs are ranked once."""

    make_provider = TestOfflineProvider.make_provider

    def counting_provider(self):
        provider = self.make_provider()
        ranked = []
        rank = provider._rank

        def counted(query_string, limit):
            ranked.append((query_string, limit))
            return rank(query_string, limit)

        provider._rank = counted
        return provider, ranked

    def test_interleaved_repeats_match_fresh_provider(self):
        provider, ranked = self.counting_provider()
        queries = ["wear oil", '"wear" "friction"', "zzz", '"wear" "oil"', "wear oil",
                   "zzz", '"wear" "friction"', "oil", '"wear" "oil"', "wear oil"]
        for query in queries:
            assert provider.execute(query, 10) == self.make_provider().execute(query, 10)
        assert ranked == [(q, 10) for q in dict.fromkeys(queries)]

    def test_other_limit_is_its_own_entry(self):
        provider, ranked = self.counting_provider()
        for limit in (3, 1, 3, 2, 1):
            assert provider.execute("wear oil", limit) == self.make_provider().execute(
                "wear oil", limit
            )
        assert [limit for _, limit in ranked] == [3, 1, 2]

    def test_caller_cannot_change_a_kept_answer(self):
        provider = self.make_provider()
        provider.execute("wear oil", 10).clear()
        assert provider.execute("wear oil", 10) == self.make_provider().execute("wear oil", 10)

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(evoquery.provider, "ANSWER_MEMO_LIMIT", 4)
        provider, ranked = self.counting_provider()
        # 3 hits kept; 2 more would pass the bound; 1 more reaches it; then full.
        # An empty answer counts as one hit.
        queries = ("wear oil", "wear", "oil", "zzz", "wear oil", "wear", "oil", "zzz")
        for query in queries:
            assert provider.execute(query, 10) == self.make_provider().execute(query, 10)
        assert ranked == [(q, 10) for q in ("wear oil", "wear", "oil", "zzz", "wear", "zzz")]
        assert list(provider._answers) == [("wear oil", 10), ("oil", 10)]

    def test_empty_answers_count_toward_the_bound(self, monkeypatch):
        monkeypatch.setattr(evoquery.provider, "ANSWER_MEMO_LIMIT", 2)
        provider = self.make_provider()
        for query in ("zzz", "yyy", "xxx"):
            assert provider.execute(query, 10) == []
        assert list(provider._answers) == [("zzz", 10), ("yyy", 10)]


class TestParseQuery:
    def test_bare_terms(self):
        assert parse_query("wear friction") == (["wear", "friction"], False)

    def test_quoted_terms(self):
        assert parse_query('"wear" "friction"') == (["wear", "friction"], True)

    def test_case_folded_not_stemmed(self):
        assert parse_query("Wearing") == (["wearing"], False)


class _ProtocolHandler(BaseHTTPRequestHandler):
    """Configurable stub engine for wire-protocol tests.

    ``delay`` holds each response back that many seconds; ``missing_bytes``
    declares a Content-Length that many bytes longer than the body sent.
    """

    responses: list = []
    requests_seen: list = []
    fail_times = 0
    delay = 0.0
    missing_bytes = 0

    def do_GET(self):
        cls = type(self)
        parsed = urlsplit(self.path)
        cls.requests_seen.append(
            {
                "path": self.path,
                "query": parse_qs(parsed.query),
                "headers": dict(self.headers),
            }
        )
        if cls.fail_times > 0:
            cls.fail_times -= 1
            self.send_response(503)
            self.end_headers()
            return
        body, status = cls.responses[min(len(cls.requests_seen) - 1, len(cls.responses) - 1)]
        payload = body if isinstance(body, (bytes, str)) else json.dumps(body)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        time.sleep(cls.delay)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload) + cls.missing_bytes))
            self.end_headers()
            self.wfile.write(payload)
        except OSError:
            pass  # the client gave up waiting

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_engine():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ProtocolHandler)
    _ProtocolHandler.responses = [({"results": []}, 200)]
    _ProtocolHandler.requests_seen = []
    _ProtocolHandler.fail_times = 0
    _ProtocolHandler.delay = 0.0
    _ProtocolHandler.missing_bytes = 0
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/search", _ProtocolHandler
    server.shutdown()
    server.server_close()


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retries go out at once."""
    monkeypatch.setattr(evoquery.provider, "HTTP_BACKOFF_S", 0.0)


def fast_provider(endpoint, **kw):
    kw = {"api_key_header": None, "api_key": None, "rate_limit_rps": 1000.0, **kw}
    return HttpProvider(endpoint=endpoint, **kw)


def result_item(i):
    return {
        "url": f"https://site{i}.org/page",
        "title": f"title {i}",
        "snippet": f"snippet {i}",
    }


class TestHttpProvider:
    def test_hits_preserve_order_and_positions(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"results": [result_item(i) for i in range(3)]}, 200)]
        hits = fast_provider(endpoint).execute("wear friction", 10)
        assert [h.doc_url for h in hits] == [f"https://site{i}.org/page" for i in range(3)]
        assert [h.doc_host for h in hits] == ["site0.org", "site1.org", "site2.org"]

    def test_truncates_to_limit(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"results": [result_item(i) for i in range(8)]}, 200)]
        assert len(fast_provider(endpoint).execute("q", 5)) == 5

    def test_wire_format_of_request(self, stub_engine):
        endpoint, handler = stub_engine
        fast_provider(endpoint).execute("wear & tear", 7)
        seen = handler.requests_seen[0]["query"]
        assert seen["q"] == ["wear & tear"]
        assert seen["count"] == ["7"]

    def test_api_key_header_sent(self, stub_engine):
        endpoint, handler = stub_engine
        provider = fast_provider(
            endpoint, api_key_header="X-Api-Key", api_key="sekrit"
        )
        provider.execute("q", 1)
        assert handler.requests_seen[0]["headers"]["X-Api-Key"] == "sekrit"

    def test_non_json_body_is_protocol_error(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [("this is not json", 200)]
        with pytest.raises(ProviderError, match="^response is not JSON: "):
            fast_provider(endpoint).execute("q", 1)

    def test_missing_results_field_is_protocol_error(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"items": []}, 200)]
        with pytest.raises(ProviderError, match='^response lacks a "results" array$'):
            fast_provider(endpoint).execute("q", 1)

    def test_malformed_item_is_protocol_error(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"results": [{"url": "https://x.org"}]}, 200)]
        with pytest.raises(ProviderError, match="^result 1 lacks field 'title'$"):
            fast_provider(endpoint).execute("q", 1)

    def test_item_that_is_not_an_object_is_protocol_error(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"results": [result_item(0), ["https://x.org", "t", "s"]]}, 200)]
        with pytest.raises(ProviderError, match="^result 2 is not an object$"):
            fast_provider(endpoint).execute("q", 2)

    def test_unparsable_url_is_protocol_error_naming_position(self, stub_engine):
        endpoint, handler = stub_engine
        bad = {**result_item(1), "url": "https://[oops/x"}
        handler.responses = [({"results": [result_item(0), bad]}, 200)]
        with pytest.raises(ProviderError, match="result 2 has an invalid url 'https://\\[oops/x'"):
            fast_provider(endpoint).execute("q", 2)

    def test_server_errors_retried_then_succeed(self, stub_engine):
        endpoint, handler = stub_engine
        handler.fail_times = 2
        handler.responses = [({"results": [result_item(0)]}, 200)]
        hits = fast_provider(endpoint).execute("q", 1)
        assert len(hits) == 1
        assert len(handler.requests_seen) == 3

    def test_status_500_is_retried(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"results": []}, 500), ({"results": [result_item(0)]}, 200)]
        hits = fast_provider(endpoint).execute("q", 1)
        assert [h.doc_url for h in hits] == ["https://site0.org/page"]
        assert len(handler.requests_seen) == 2  # initial + 1 retry

    def test_persistent_failure_is_provider_unavailable(self, stub_engine):
        endpoint, handler = stub_engine
        handler.fail_times = 99
        with pytest.raises(ProviderError, match="after retries: server error 503$"):
            fast_provider(endpoint).execute("q", 1)
        assert len(handler.requests_seen) == 3  # initial + 2 retries

    def test_retries_wait_the_backoff_then_twice_it(self, stub_engine, monkeypatch):
        endpoint, handler = stub_engine
        handler.fail_times = 99
        sleeps = []
        monkeypatch.setattr(evoquery.provider, "HTTP_BACKOFF_S", 0.25)
        clock = SimpleNamespace(monotonic=time.monotonic, sleep=sleeps.append)
        monkeypatch.setattr(evoquery.provider, "time", clock)
        # at 1e9 requests per second the throttle never waits, so each sleep is a backoff
        with pytest.raises(ProviderError, match="after retries: server error 503$"):
            fast_provider(endpoint, rate_limit_rps=1e9).execute("q", 1)
        assert sleeps == [0.25, 0.5]
        assert len(handler.requests_seen) == 3

    def test_unreachable_endpoint_is_provider_unavailable(self, monkeypatch):
        monkeypatch.setattr(evoquery.provider, "HTTP_TIMEOUT_S", 0.2)
        provider = fast_provider("http://127.0.0.1:1/search")
        with pytest.raises(ProviderError, match="^transport failure after retries: "):
            provider.execute("q", 1)

    def test_rate_limit_spaces_requests(self, stub_engine):
        # the throttle spaces the instants it stamps as it lets each request go;
        # an instant timed later, as the request opens, would add any pause
        # between the two (a collection, a switch to the server thread) to one
        # gap and take it from the next
        endpoint, handler = stub_engine
        handler.responses = [({"results": []}, 200)]
        provider = fast_provider(endpoint, rate_limit_rps=50.0)
        sent = []
        for _ in range(3):
            provider.execute("q", 1)
            sent.append(provider._last_request)
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        resolution = time.get_clock_info("monotonic").resolution
        assert len(handler.requests_seen) == 3
        assert all(gap >= 0.020 - resolution for gap in gaps), gaps  # 50 rps → 20 ms apart


class TestHttpFaultPaths:
    def test_client_error_raises_after_one_request(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"error": "not found"}, 404)]
        with pytest.raises(ProviderError, match="unexpected status 404"):
            fast_provider(endpoint).execute("q", 1)
        assert len(handler.requests_seen) == 1

    def test_no_content_is_unexpected_status(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [(b"", 204)]
        with pytest.raises(ProviderError, match="unexpected status 204"):
            fast_provider(endpoint).execute("q", 1)
        assert len(handler.requests_seen) == 1

    def test_truncated_body_retried_then_unavailable(self, stub_engine):
        endpoint, handler = stub_engine
        handler.responses = [({"results": [result_item(0)]}, 200)]
        handler.missing_bytes = 10
        with pytest.raises(ProviderError, match="transport failure"):
            fast_provider(endpoint).execute("q", 1)
        assert len(handler.requests_seen) == 3

    def test_slow_response_retried_then_unavailable(self, stub_engine, monkeypatch):
        endpoint, handler = stub_engine
        handler.delay = 0.5
        monkeypatch.setattr(evoquery.provider, "HTTP_TIMEOUT_S", 0.1)
        with pytest.raises(ProviderError, match="transport failure"):
            fast_provider(endpoint).execute("q", 1)
        assert len(handler.requests_seen) == 3

    def test_endpoint_query_string_joined_with_ampersand(self, stub_engine):
        endpoint, handler = stub_engine
        fast_provider(endpoint + "?key=abc").execute("wear & tear", 3)
        assert handler.requests_seen[0]["path"] == "/search?key=abc&q=wear+%26+tear&count=3"

    def test_endpoint_path_percent_encoded(self, stub_engine):
        endpoint, handler = stub_engine
        fast_provider(endpoint + "/wear tear/\u00e9?k=a b").execute("q", 1)
        assert handler.requests_seen[0]["path"] == "/search/wear%20tear/%C3%A9?k=a%20b&q=q&count=1"
